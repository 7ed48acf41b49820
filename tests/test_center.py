import importlib.util
import inspect
import random
import types
from collections import Counter
from fractions import Fraction
from math import comb
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import pytest

from partic import center
from partic.center import (
    _Peel,
    center_bases,
    center_basis_in_degree,
    central_candidate,
    expected_center_dimension,
    nullspace,
    theorem_mismatch,
)
from partic.cli import build_parser, main
from partic.core import AlgebraElement, MultiDegree, NormalMonomial, Word, multidegrees_up_to, nm_to_word
from partic.normal_form import _basis_exponents, gen_element, nm_product, normalize
from partic.particles import Configuration, act_word

from center_reference import ReferencePeel, commutes_with_generators, step_rows
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
    "batches, ncols, kernel, waiting",
    [
        # a chain whose one-column row comes last: x2 = 0 kills x2, and the two rows
        # read before it wait with live columns, so the peel stalls
        ([[{0: 1, 1: 1}, {1: 1, 2: -2}, {2: 3}]], 4, [3], 2),
        # the same chain split over two adds: a kill never returns to a waiting row
        ([[{0: 1, 1: 1}, {1: 1, 2: -2}], [{2: 3}]], 4, [3], 2),
        # a one-column row whose column is already dead kills nothing; the next row
        # has one live column left and kills x1
        ([[{0: 1}], [{0: 2}, {0: 1, 1: 1}]], 3, [2], 0),
        # an explicit zero entry is not a live column, so each row arrives with one
        ([[{0: 1, 1: 0}, {0: 1, 1: 1, 2: 0}]], 3, [2], 0),
    ],
)
def test_peel_kills_on_arrival(batches, ncols, kernel, waiting):
    rows = [row for batch in batches for row in batch]
    batched = _Peel(ncols)
    for batch in batches:
        batched.add(batch)
    once = _Peel(ncols)
    once.add(rows)
    assert batched.live == once.live and batched.nlive == once.nlive
    # a peel with no waiting row settles; a stalled one leaves the kernel to nullspace
    assert batched.kernel() == once.kernel() == (None if waiting else kernel)
    assert nullspace(rows, ncols) == [[int(c == free) for c in range(ncols)] for free in kernel]
    # only the rows with two or more live columns when read wait
    assert len(batched._waiting) == len(once._waiting) == waiting


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


def test_peel_matches_the_reference_peel():
    # random sparse systems, fed whole and in random batches to _Peel and to the propagating
    # reference, which kills a column as soon as any row read so far forces it
    rng = random.Random(34034)
    values = [0, 1, -1, 2, Fraction(-1, 2)]
    one_entry = Counter()
    outcomes = Counter()
    for _ in range(800):
        ncols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 14)):
            if rows and rng.random() < 0.2:
                rows.append(dict(rng.choice(rows)))  # a repeated row
            else:
                width = rng.choice((1, 1, 1, 2, 2, 3))
                rows.append({c: rng.choice(values) for c in rng.sample(range(ncols), min(width, ncols))})
        # what the reference meets on each one-entry row, adding one row at a time
        single = ReferencePeel(ncols)
        for row in rows:
            if len(row) == 1:
                [(c, x)] = row.items()
                one_entry["zero" if not x else "live" if single.live[c] else "dead"] += 1
            single.add([row])
        cuts = sorted(rng.sample(range(len(rows) + 1), rng.randint(0, len(rows) + 1)))
        for batches in ([rows], [rows[start:stop] for start, stop in zip([0, *cuts], [*cuts, len(rows)])]):
            fast, slow = _Peel(ncols), ReferencePeel(ncols)
            for batch in batches:
                assert fast.add(batch) >= slow.add(batch), rows
                # every _Peel kill is a reference kill
                assert all(f or not s for f, s in zip(fast.live, slow.live)), rows
            assert fast.nlive == sum(fast.live), rows
            kernel = fast.kernel()
            if not fast._waiting:
                assert (fast.live, fast.nlive) == (slow.live, slow.nlive), rows
            # a settled peel, waiting rows or not, has the reference's kernel
            if kernel is not None:
                assert kernel == slow.kernel(), rows
            outcomes["stalled" if kernel is None else "waited" if fast._waiting else "read"] += 1
    assert min(one_entry[k] for k in ("zero", "live", "dead")) > 300
    assert min(outcomes[k] for k in ("read", "waited", "stalled")) > 100, outcomes


class StalledPeel:
    """A peel that kills no column, records each batch of rows and always stalls: every degree goes to the elimination."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.live = [True] * ncols
        self.batches = []

    def add(self, rows):
        self.batches.append(list(rows))
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
            peels.append(self)

    real_rows = center._Box.rows
    visits = entries = 0

    def recording_rows(box, i, cols):
        nonlocal visits, entries
        live = peels[-1].live  # the peel adds a batch only after building it
        assert cols == [c for c, x in enumerate(live) if x], f"the batch of a_{i} is not the live columns"
        rows = list(real_rows(box, i, cols))
        assert all(live[c] for row in rows for c in row)
        visits += len(cols)
        entries += sum(map(len, rows))
        return rows

    monkeypatch.setattr(center, "_Peel", RecordingPeel)
    monkeypatch.setattr(center._Box, "rows", recording_rows)
    for delta in multidegrees_up_to(5, 10):
        center_basis_in_degree(5, delta)
    # all the columns in every batch would make 9,611 visits; a column whose two
    # products agree adds nothing, and every other one adds two entries
    assert visits == 7_547
    assert visits - entries // 2 == 1_644


def certified_degrees():
    """(N, top) for each rank that scripts/certify_all.py certifies the center at, top its largest degree.

    Read from the script's RUNS: the ``--max-degree`` of its ``verify`` and
    ``center`` runs.
    """
    spec = importlib.util.spec_from_file_location("certify_all", Path(__file__).resolve().parent.parent / "scripts" / "certify_all.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    top = {}
    for argv in script.RUNS:
        args = build_parser().parse_args(list(argv))
        if args.subcommand in ("verify", "center") and args.max_degree is not None:
            top[args.N] = max(top.get(args.N, 0), args.max_degree)
    return tuple(sorted(top.items()))


CERTIFIED_DEGREES = certified_degrees()


def row_multiset(rows):
    """The nonzero rows as a multiset of sets of nonzero (column, coefficient) entries."""
    return Counter(filter(None, [frozenset(filter(itemgetter(1), row.items())) for row in rows]))


def first_row_disagreement(module, degrees, monkeypatch):
    """The first (degree, i) where the module's center batches differ from the _step rows, or None."""
    peels = []

    def recording_peel(ncols):
        peels.append(StalledPeel(ncols))
        return peels[-1]

    monkeypatch.setattr(module, "_Peel", recording_peel)
    monkeypatch.setattr(module, "nullspace", lambda rows, ncols: [])
    for delta in degrees:
        module.center_basis_in_degree(delta.n, delta)
        batches = peels[-1].batches
        assert len(batches) == delta.n - 1
        exponents = list(_basis_exponents(delta))
        cols = list(range(len(exponents)))
        for i, batch in enumerate(batches, 1):
            if row_multiset(batch) != row_multiset(step_rows(exponents, i, cols)):
                return delta, i
    return None


def recorded_peels(monkeypatch):
    """The list of every peel that center_basis_in_degree makes from now on, in order."""
    peels = []

    class RecordingPeel(center._Peel):
        def __init__(self, ncols):
            super().__init__(ncols)
            peels.append(self)

    monkeypatch.setattr(center, "_Peel", RecordingPeel)
    return peels


class Walked(NamedTuple):
    """What the walk over the certified degrees found at one degree."""

    delta: MultiDegree
    basis: list[AlgebraElement]  # center_basis_in_degree's
    row_mismatch: int | None  # the first i whose box rows differ from the _step rows
    columns_match: bool  # the box's validated columns are _basis_exponents, in order
    signature_rows_match: bool  # the box's rows are those of the first degree with its guard signature
    waiting: int  # the rows that waited in the degree's peel
    eliminated: bool  # whether the degree reached the exact elimination


@pytest.fixture(scope="module")
def certified():
    """Every degree scripts/certify_all.py certifies the center at, walked once, in certification order.

    Each degree's box and ``_basis_exponents`` are built here, once, and the
    tests below read what they check from the records.  The columns are
    validated once, by ``_Box.monomial``, and compared with the exponents,
    which ``enumerate_basis`` wraps one for one.
    """
    walked = []
    first_rows = {}  # guard signature -> the box rows of its first degree
    with pytest.MonkeyPatch.context() as mp:
        peels = recorded_peels(mp)
        real_nullspace = center.nullspace
        eliminated = []
        mp.setattr(center, "nullspace", lambda rows, ncols: eliminated.append(ncols) or real_nullspace(rows, ncols))
        for n, top in CERTIFIED_DEGREES:
            for delta in multidegrees_up_to(n, top):
                box = center._Box(delta)
                exponents = list(_basis_exponents(delta))
                cols = range(len(exponents))
                rows = [list(box.rows(i, cols)) for i in range(1, n)]
                mismatch = next((i for i, batch in enumerate(rows, 1)
                                 if row_multiset(batch) != row_multiset(step_rows(exponents, i, cols))), None)
                same = first_rows.setdefault(center._signature(delta.counts), rows) == rows
                columns = [(m.d, m.k) for m in map(box.monomial, cols)] == exponents
                before = len(eliminated)
                basis = center_basis_in_degree(n, delta)
                [peel] = peels
                peels.clear()
                walked.append(Walked(delta, basis, mismatch, columns, same, len(peel._waiting), len(eliminated) > before))
    return walked


def test_box_rows_are_the_step_rows_at_every_certified_degree(certified):
    # C(top + N - 1, N - 1) degrees of total at most top at each rank
    assert len(certified) == sum(comb(top + n - 1, n - 1) for n, top in CERTIFIED_DEGREES)
    assert [(w.delta, w.row_mismatch) for w in certified if w.row_mismatch is not None] == []


def test_degrees_with_the_same_ranges_share_one_shape():
    # a box's points depend only on its d-ranges min(δ_{j-1}, δ_j): the 1,001 degrees of
    # N=5, D <= 10 build one shape per distinct range tuple
    degrees = list(multidegrees_up_to(5, 10))
    ranges = {tuple(map(min, delta.counts, delta.counts[1:])) for delta in degrees}
    center._shape.cache_clear()
    for delta in degrees:
        center_basis_in_degree(5, delta)
    info = center._shape.cache_info()
    assert len(ranges) == info.misses == info.currsize == 64
    assert info.hits == len(degrees) - 64


def test_box_columns_are_the_basis_at_every_certified_degree(certified):
    assert [w.delta for w in certified if not w.columns_match] == []


def mutant_center(old, new):
    """partic.center compiled from its source with the one occurrence of old replaced by new."""
    source = inspect.getsource(center)
    assert source.count(old) == 1, old
    module = types.ModuleType("partic.center", center.__doc__)
    module.__package__ = "partic"
    exec(compile(source.replace(old, new), center.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize(
    "old, new, first_change",
    [
        # the left guard written d_i <= δ_{i-1}: a_i m never raises d_i
        ("point[i - 1] == full", "point[i - 1] <= full", ((1, 0), "dimension 1, expected 0")),
        # the right guard reading d_i instead of d_{i+1}
        ("point[i] < room", "point[i - 1] < room", ((1, 1), "dimension 0, expected 1")),
        # base max(ranges) + 1: a raised digit range + 1 carries into the next one, and keys collide
        ("base = max(ranges) + 2", "base = max(ranges) + 1", ((1, 0, 1), "dimension 1, expected 0")),
    ],
)
def test_guard_mutants_fail_the_row_comparison(monkeypatch, old, new, first_change):
    degrees = [delta for n, top in CERTIFIED_DEGREES for delta in multidegrees_up_to(n, top)]
    mutant = mutant_center(old, new)
    # each mutant also changes a center verdict; the first one in certification order
    verdicts = ((delta.counts, theorem_mismatch(delta, mutant.center_basis_in_degree(delta.n, delta))) for delta in degrees)
    assert next(v for v in verdicts if v[1]) == first_change
    assert first_row_disagreement(mutant, degrees, monkeypatch) is not None


def test_the_peel_settles_every_certified_degree(certified):
    # scripts/certify_all.py's center bounds never reach the exact elimination, and agree with the theorem
    assert [w.delta for w in certified if w.eliminated] == []
    assert [w.delta for w in certified if theorem_mismatch(w.delta, w.basis) is not None] == []


def test_no_row_waits_at_a_certified_degree(certified):
    # read in the box's order, every commutator row of scripts/certify_all.py's center
    # bounds has at most one live column when read, so no row of any of them waits
    assert [w.delta for w in certified if w.waiting] == []


def test_the_sweep_gives_the_per_degree_bases(certified):
    swept = [pair for n, top in CERTIFIED_DEGREES for pair in center_bases(n, top)]
    assert swept == [(w.delta, w.basis) for w in certified]


def test_degrees_with_one_signature_have_the_same_rows(certified):
    # a degree's rows, for every i and over all its columns, are those of the first
    # degree with its guard signature, in the same order
    assert [w.delta for w in certified if not w.signature_rows_match] == []
    # so the sweep peels 2,461 signatures for the 17,019 certified degrees
    signatures = {(w.delta.n, center._signature(w.delta.counts)) for w in certified}
    assert Counter(n for n, _ in signatures) == {3: 19, 4: 97, 5: 685, 6: 1_660}


def test_clipping_at_the_range_changes_the_sweep(certified):
    # signatures clipped at max(r_j, r_{j+1}) rather than one above: degrees whose guards
    # differ share a peel, and the sweep gives a wrong basis
    mutant = mutant_center("max(a, b) + 1", "max(a, b)")
    swept = (pair for n, top in CERTIFIED_DEGREES for pair in mutant.center_bases(n, top))
    # (0, 1) takes the peel of (0, 0), whose one column is the unit
    first = next((delta, basis) for (delta, basis), w in zip(swept, certified) if basis != w.basis)
    assert (first[0].counts, theorem_mismatch(*first)) == ((0, 1), "dimension 1, expected 0")
    # partic center --N 5 --max-degree 10 would print 255 of its 1,001 degrees wrong
    changed = [delta for (delta, basis), (_, want) in zip(mutant.center_bases(5, 10), center_bases(5, 10)) if basis != want]
    assert len(changed) == 255


def test_no_state_outlives_a_sweep(monkeypatch):
    # the 1,001 degrees of N=5, D <= 10 hold 227 guard signatures: each sweep peels each once,
    # whether called on its own, by partic center or by the center check of partic verify
    peels = recorded_peels(monkeypatch)
    for sweep in (lambda: list(center_bases(5, 10)), lambda: list(center_bases(5, 10)),
                  lambda: main(["center", "--N", "5", "--max-degree", "10", "--json"]),
                  lambda: main(["verify", "--N", "5", "--max-len", "2", "--max-degree", "10"])):
        sweep()
        assert len(peels) == 227
        peels.clear()


def test_rows_read_high_to_low_wait_and_still_settle(monkeypatch):
    # each batch's columns scanned high to low: rows wait, but every waiting row loses
    # its live columns before the end, so each basis is the box order's and no
    # degree reaches the exact elimination
    degrees = list(multidegrees_up_to(4, 10))
    bases = [center_basis_in_degree(4, delta) for delta in degrees]
    peels = recorded_peels(monkeypatch)
    real_rows = center._Box.rows

    def reversed_rows(box, i, cols):
        return real_rows(box, i, cols[::-1])

    def refusing_nullspace(rows, ncols):
        raise AssertionError("the peel stalled")

    monkeypatch.setattr(center._Box, "rows", reversed_rows)
    monkeypatch.setattr(center, "nullspace", refusing_nullspace)
    for delta, basis in zip(degrees, bases):
        assert center_basis_in_degree(4, delta) == basis, f"degree {delta}"
    assert sum(len(peel._waiting) for peel in peels) == 486


def test_elimination_after_killing_gives_the_peel_bases(monkeypatch):
    # a peel that peels the a_1 batch only, then records the later batches without
    # killing and stalls: nullspace gets the full system, whatever columns a_1 killed
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
    with pytest.raises(ValueError, match=rf"^exponent {r!r} is not an integer$"):
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
