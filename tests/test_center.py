import random
from collections import Counter
from fractions import Fraction

import pytest

from partic import center
from partic.center import (
    _Peel,
    center_basis_in_degree,
    central_candidate,
    expected_center_dimension,
    nullspace,
    theorem_mismatch,
)
from partic.core import AlgebraElement, MultiDegree, NormalMonomial, Word, multidegrees_up_to, nm_to_word
from partic.normal_form import _basis_exponents, gen_element, nm_product, normalize
from partic.particles import Configuration, act_word

from center_reference import commutes_with_generators
from nullspace_reference import nullspace_dense


def test_nullspace_trivials():
    identity = [{0: Fraction(1)}, {1: Fraction(1)}]
    assert nullspace(identity, 2) == []
    zeros = [{}, {0: 0, 2: 0}]
    basis = nullspace(zeros, 3)
    assert basis == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_nullspace_rank_one():
    basis = nullspace([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
    assert basis == [[Fraction(1), Fraction(-1, 2)]]


def test_nullspace_exactness():
    rows = [
        {0: Fraction(1, 3), 1: Fraction(2), 2: Fraction(-1)},
        {1: Fraction(5, 7), 2: Fraction(1)},
    ]
    for vec in nullspace(rows, 3):
        assert all(sum(c * vec[j] for j, c in row.items()) == 0 for row in rows)
        lead = next(x for x in vec if x != 0)
        assert lead == 1


def test_nullspace_shape_errors():
    with pytest.raises(ValueError):
        nullspace([{0: 1, 2: 1}], 2)
    with pytest.raises(ValueError):
        nullspace([{-1: 1}], 2)
    assert nullspace([], 2) == [[1, 0], [0, 1]]


def test_nullspace_rejects_floats():
    # a float would enter the certificate as its binary expansion
    with pytest.raises(TypeError):
        nullspace([{0: 0.1, 1: 1}], 2)
    with pytest.raises(TypeError):
        nullspace([{0: 1}, {1: 0.0}], 2)
    assert nullspace([{0: Fraction(1, 10), 1: 1}], 2) == [[1, Fraction(-1, 10)]]


def test_nullspace_matches_dense_reference():
    rng = random.Random(20190103)
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3)]
    for _ in range(400):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        dense = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
        for row in dense:
            if rng.random() < 0.2:
                row[:] = [0] * ncols
        if nrows and rng.random() < 0.3:
            zero_col = rng.randrange(ncols)
            for row in dense:
                row[zero_col] = 0
        sparse = [{c: x for c, x in enumerate(row) if x} for row in dense]
        assert nullspace(sparse, ncols) == nullspace_dense(dense, ncols), dense


def peel_kernel(rows, ncols):
    peel = _Peel(ncols)
    peel.add(rows)
    return peel.kernel()


def test_peel_examples():
    # a chain: x0 = 0 forces x1 = 0 through the second row; x2 stays free
    assert peel_kernel([{0: 1}, {0: 2, 1: -3}], 3) == [2]
    # explicit zeros are not live entries
    assert peel_kernel([{0: 0, 1: 1}, {2: 0}], 3) == [0, 2]
    assert peel_kernel([], 2) == [0, 1]
    # no row has a single live column: the peel stalls
    assert peel_kernel([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) is None
    assert nullspace([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) == []
    # the lone column kills x1, but x0 + x2 = 0 still has two live columns
    assert peel_kernel([{1: 5}, {0: 1, 1: 1, 2: 1}], 3) is None
    assert nullspace([{1: 5}, {0: 1, 1: 1, 2: 1}], 3) == [[1, 0, -1]]


@pytest.mark.parametrize(
    "batches, ncols, kernel, indexed",
    [
        # a chain whose one-column row arrives last: x2 = 0, then x1, then x0
        ([[{0: 1, 1: 1}, {1: 1, 2: -2}, {2: 3}]], 4, [3], 2),
        # the same chain split over two adds: the kill reaches the rows of the first
        ([[{0: 1, 1: 1}, {1: 1, 2: -2}], [{2: 3}]], 4, [3], 2),
        # a one-column row whose column is already dead kills nothing; the next row
        # has one live column left and kills x1
        ([[{0: 1}], [{0: 2}, {0: 1, 1: 1}]], 3, [2], 0),
        # an explicit zero entry is not a live column, so each row arrives with one
        ([[{0: 1, 1: 0}, {0: 1, 1: 1, 2: 0}]], 3, [2], 0),
    ],
)
def test_peel_kills_on_arrival(batches, ncols, kernel, indexed):
    rows = [row for batch in batches for row in batch]
    batched = _Peel(ncols)
    for batch in batches:
        batched.add(batch)
    once = _Peel(ncols)
    once.add(rows)
    assert batched.kernel() == once.kernel() == kernel
    assert batched.live == once.live and batched.nlive == once.nlive == len(kernel)
    assert nullspace(rows, ncols) == [[int(c == free) for c in range(ncols)] for free in kernel]
    # only the rows with two or more live columns on arrival are indexed
    assert len(batched._live_count) == len(once._live_count) == indexed


def test_nullspace_matches_dense_reference_on_sparse_systems():
    rng = random.Random(80241)
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
    peeled = stalled = settled_early = 0
    for _ in range(600):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        sparse = []
        for _ in range(nrows):
            width = rng.choice((1, 1, 2, 2, 3))
            row = {c: rng.choice(values) for c in rng.sample(range(ncols), min(width, ncols))}
            if rng.random() < 0.3:
                row[rng.randrange(ncols)] = 0
            sparse.append(row)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in sparse]
        kernel = nullspace_dense(dense, ncols)
        once = _Peel(ncols)
        once.add(sparse)
        one_shot = once.kernel()
        if one_shot is None:
            stalled += 1
        else:
            # a settled peel's live columns span the kernel with unit vectors, its Gauss-Jordan basis
            peeled += 1
            assert [[int(c == free) for c in range(ncols)] for free in one_shot] == kernel, sparse
        assert nullspace(sparse, ncols) == kernel, sparse

        # the same rows fed to one peel in random batches
        cuts = sorted(rng.sample(range(nrows + 1), rng.randint(0, nrows + 1)))
        batched = _Peel(ncols)
        for start, stop in zip([0, *cuts], [*cuts, nrows]):
            if not batched.add(sparse[start:stop]):
                # no live column after a batch: all the rows have a zero kernel
                assert kernel == [], sparse
                settled_early += stop < nrows
        assert batched.live == once.live, sparse
        assert batched.kernel() == one_shot, sparse
    assert peeled > 100 and stalled > 100 and settled_early > 100


class StalledPeel:
    """A peel that kills no column and always stalls: every degree goes to the elimination."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.live = [True] * ncols

    def add(self, rows):
        return self.ncols

    def kernel(self):
        return None


def test_peel_solves_every_center_system(monkeypatch):
    real_peel = center._Peel
    stalled = []

    class RecordingPeel(real_peel):
        def kernel(self):
            live = super().kernel()
            if live is None:
                stalled.append(len(self.live))
            return live

    monkeypatch.setattr(center, "_Peel", RecordingPeel)
    degrees = [delta for n in (3, 4, 5) for delta in multidegrees_up_to(n, 8)]
    bases = [center_basis_in_degree(delta.n, delta) for delta in degrees]
    assert stalled == []
    # the same bases from the full rows and the elimination alone
    real_nullspace = center.nullspace
    eliminated = []

    def recording_nullspace(rows, ncols):
        eliminated.append(ncols)
        return real_nullspace(rows, ncols)

    monkeypatch.setattr(center, "_Peel", StalledPeel)
    monkeypatch.setattr(center, "nullspace", recording_nullspace)
    for delta, basis in zip(degrees, bases):
        assert center_basis_in_degree(delta.n, delta) == basis, f"degree {delta}"
    assert len(eliminated) == len(degrees)


def test_rows_are_built_only_for_live_columns(monkeypatch):
    # each generator's rows come from the columns live when its batch begins
    peels = []

    class RecordingPeel(center._Peel):
        def __init__(self, ncols):
            super().__init__(ncols)
            self.batch_live = list(self.live)
            peels.append(self)

        def add(self, rows):
            left = super().add(rows)
            self.batch_live = list(self.live)
            return left

    real_step = center._step
    calls = 0
    index = {}

    def counting_step(mul, col, i):
        nonlocal calls
        calls += 1
        assert peels[-1].batch_live[index[col]], f"dead column {col} in the batch of a_{i}"
        return real_step(mul, col, i)

    monkeypatch.setattr(center, "_Peel", RecordingPeel)
    monkeypatch.setattr(center, "_step", counting_step)
    for delta in multidegrees_up_to(5, 10):
        index = {col: c for c, col in enumerate(_basis_exponents(delta))}
        center_basis_in_degree(5, delta)
    # all the columns in every batch would make 19,222 calls
    assert calls == 15_094


def test_elimination_after_killing_gives_the_peel_bases(monkeypatch):
    # a peel that peels the a_1 batch only, then records the later batches without
    # killing and stalls: nullspace gets rows that leave out the columns a_1 killed
    degrees = [delta for n in (3, 4, 5) for delta in multidegrees_up_to(n, 8)]
    bases = [center_basis_in_degree(delta.n, delta) for delta in degrees]
    peels = []

    class FirstBatchPeel(center._Peel):
        def __init__(self, ncols):
            super().__init__(ncols)
            self.batches = 0
            peels.append(self)

        def add(self, rows):
            self.batches += 1
            if self.batches == 1:
                return super().add(rows)
            assert all(self.live[c] for row in rows for c in row)
            return self.nlive

        def kernel(self):
            return None

    real_nullspace = center.nullspace
    eliminated = []

    def recording_nullspace(rows, ncols):
        eliminated.append(peels[-1].nlive < ncols)
        return real_nullspace(rows, ncols)

    monkeypatch.setattr(center, "_Peel", FirstBatchPeel)
    monkeypatch.setattr(center, "nullspace", recording_nullspace)
    for delta, basis in zip(degrees, bases):
        assert center_basis_in_degree(delta.n, delta) == basis, f"degree {delta}"
    # of the 705 degrees, 415 survive a_1; in 196 of them a_1 killed some column
    assert Counter(eliminated) == {True: 196, False: 219}


def test_zero_centers_settle_before_the_last_generator(monkeypatch):
    # after how many generators' rows the early exit settles each degree of N=5, D <= 10
    settled = Counter()

    class CountingPeel(center._Peel):
        batches = 0

        def add(self, rows):
            self.batches += 1
            left = super().add(rows)
            if not left:
                settled[self.batches] += 1
            return left

    real_nullspace = center.nullspace
    eliminated = []
    delta = None

    def recording_nullspace(rows, ncols):
        eliminated.append(delta.counts)
        return real_nullspace(rows, ncols)

    monkeypatch.setattr(center, "_Peel", CountingPeel)
    monkeypatch.setattr(center, "nullspace", recording_nullspace)
    for delta in multidegrees_up_to(5, 10):
        center_basis_in_degree(5, delta)
    assert settled == {1: 420, 2: 514, 3: 59, 4: 5}
    # the degrees whose columns survive, (0,0,0,0), (1,1,1,1) and (2,2,2,2), are settled
    # by the same peel, so none reaches the exact elimination
    assert eliminated == []


@pytest.mark.parametrize("r", [1.5, True])
def test_central_candidate_refuses_non_integer_exponents(r):
    # 1.5 gave a4^1.5 a3^1.5 a2^1.5 a1^1.5
    with pytest.raises(ValueError, match=r"^exponents must be integers, got d="):
        central_candidate(5, r)


def test_central_candidate_examples():
    assert central_candidate(4, 0) == NormalMonomial.unit(4)
    assert central_candidate(3, 1) == NormalMonomial(3, (1,), (1, 0))
    c9 = central_candidate(9, 5)
    start = Configuration(9, (5,) + (0,) * 8)
    assert act_word(nm_to_word(c9), start) == Configuration(9, (0,) * 8 + (5,))
    # the descending cycle power normalizes to the candidate
    assert normalize(Word(9, (8, 7, 6, 5, 4, 3, 2, 1) * 5)) == c9
    with pytest.raises(ValueError):
        central_candidate(4, -1)


def test_commutes_with_generators_examples():
    assert commutes_with_generators(AlgebraElement.from_monomial(central_candidate(4, 2)))
    assert not commutes_with_generators(gen_element(3, 1))
    assert commutes_with_generators(AlgebraElement(3))


def test_candidates_commute_all_small():
    for n in (3, 4, 5, 6):
        for r in range(4):
            e = AlgebraElement.from_monomial(central_candidate(n, r))
            assert commutes_with_generators(e)


def test_candidates_multiply_additively():
    for n in (3, 4, 5):
        for r in range(4):
            for s in range(4):
                assert nm_product(central_candidate(n, r), central_candidate(n, s)) == central_candidate(n, r + s)


def test_center_basis_examples():
    basis = center_basis_in_degree(3, MultiDegree((1, 1)))
    assert basis == [AlgebraElement.from_monomial(NormalMonomial(3, (1,), (1, 0)))]
    assert center_basis_in_degree(3, MultiDegree((1, 0))) == []
    basis = center_basis_in_degree(4, MultiDegree((2, 2, 2)))
    assert basis == [AlgebraElement.from_monomial(central_candidate(4, 2))]


def test_center_dimensions_small_sweep():
    for n in (3, 4):
        for delta in multidegrees_up_to(n, 6):
            basis = center_basis_in_degree(n, delta)
            want = expected_center_dimension(delta)
            assert len(basis) == want, f"degree {delta}"
            if want:
                r = delta.counts[0]
                assert basis[0] == AlgebraElement.from_monomial(central_candidate(n, r))


def test_center_elements_really_commute():
    for delta in (MultiDegree((1, 1)), MultiDegree((2, 2)), MultiDegree((1, 1, 1))):
        n = delta.n
        for e in center_basis_in_degree(n, delta):
            assert commutes_with_generators(e)


def test_expected_center_dimension():
    assert expected_center_dimension(MultiDegree((0, 0, 0))) == 1
    assert expected_center_dimension(MultiDegree((2, 2, 2))) == 1
    assert expected_center_dimension(MultiDegree((2, 2, 1))) == 0


def test_theorem_mismatch_names_the_departure():
    d11, d10 = MultiDegree((1, 1)), MultiDegree((1, 0))
    cycle = AlgebraElement.from_monomial(central_candidate(3, 1))
    assert theorem_mismatch(d11, center_basis_in_degree(3, d11)) is None
    assert theorem_mismatch(d10, []) is None
    assert theorem_mismatch(d11, []) == "dimension 0, expected 1"
    assert theorem_mismatch(d10, [cycle]) == "dimension 1, expected 0"
    assert theorem_mismatch(d11, [2 * cycle]) == "basis element differs from the candidate"
