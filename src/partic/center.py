"""Center computations.

The descending cycle c_r = a_{N-1}^r ... a_2^r a_1^r commutes with every
generator; per graded component an exact commutator nullspace certifies that
nothing else does.  The commutator rows of a component are built in its box
of d-vectors, where the guard of each multiplication rule reads one
coordinate (:class:`_Box`), and a peel reads them once, in order
(:class:`_Peel`).  A sweep over many degrees (:func:`center_bases`) peels
each guard signature once.  All arithmetic is exact rational, no tolerances.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from operator import sub

from .core import AlgebraElement, MultiDegree, NormalMonomial, Scalar, _check_bound, _exact, check_rank, multidegrees_up_to


def _subtract(target: dict[int, Fraction], f: Fraction, source: dict[int, Fraction]) -> None:
    """target -= f * source in place, storing no zero entries (f and source nonzero)."""
    for c, x in source.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = y
        else:
            del target[c]


class _Peel:
    """The peel of a growing list of rows over columns 0..ncols-1, each read once, in order.

    A row read with exactly one live nonzero column forces that unknown to 0
    (its other columns are dead) and kills it; a row read with two or more
    waits, and no later kill returns to it.  A one-entry row, the commonest
    commutator row, is decided from its (column, coefficient) pair alone.
    """

    def __init__(self, ncols: int) -> None:
        self.live = [True] * ncols
        self.nlive = ncols
        self._waiting: list[list[int]] = []  # the live columns of each row read with two or more

    def add(self, rows: Iterable[Mapping[int, Scalar]]) -> int:
        """Peel with the rows added; return the number of live columns left."""
        live, waiting, killed = self.live, self._waiting, 0
        for row in rows:
            if len(row) == 1:
                [(c, x)] = row.items()
                if not (x and live[c]):
                    continue
            else:
                cs = [c for c, x in row.items() if x and live[c]]
                if len(cs) != 1:
                    if cs:
                        waiting.append(cs)
                    continue
                [c] = cs
            live[c] = False
            killed += 1
        self.nlive -= killed
        return self.nlive

    def kernel(self) -> list[int] | None:
        """The live columns, whose unit vectors then span the kernel, or None if a waiting row keeps one."""
        if any(self.live[c] for cs in self._waiting for c in cs):
            return None
        return [c for c, x in enumerate(self.live) if x]


def nullspace(rows: Iterable[Mapping[int, Scalar]], ncols: int) -> list[list[Fraction]]:
    """Exact basis of the right kernel {x : sum_c row[c] x_c = 0 for every row}.

    Rows are sparse ``{column: coefficient}`` maps over columns 0..ncols-1
    with int or Fraction entries; a float raises TypeError.  The basis is the
    one dense Gauss-Jordan gives: one vector per free column, in column
    order, each scaled so its first nonzero coordinate is 1.  Each row is
    reduced against the rows kept so far and, unless it vanishes, kept with
    its smallest column as pivot; the kept rows stay in reduced row echelon
    form, which is unique.  No peel runs here; :func:`_kernel` calls this
    only when its peel stalls.
    """
    rows = [{c: _exact(x) for c, x in row.items()} for row in rows]
    for row in rows:
        if row and (min(row) < 0 or max(row) >= ncols):
            raise ValueError(f"row {dict(row)} has a column outside 0..{ncols - 1}")

    reduced: dict[int, dict[int, Fraction]] = {}  # pivot column -> row, 1 at the pivot
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for p in [c for c in r if c in reduced]:
            _subtract(r, r[p], reduced[p])
        if not r:
            continue
        pivot = min(r)
        lead = r[pivot]
        r = {c: x / lead for c, x in r.items()}
        for other in reduced.values():
            if pivot in other:
                _subtract(other, other[pivot], r)
        reduced[pivot] = r

    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in reduced:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for p, r in reduced.items():
            if free in r:
                vec[p] = -r[free]
        lead = next(x for x in vec if x)
        basis.append([x / lead for x in vec])
    return basis


def central_candidate(n: int, r: int) -> NormalMonomial:
    """(a_{N-1} a_{N-2} ... a_1)^r in normal form: every d_i = r, k = (r, 0, ..., 0)."""
    check_rank(n)
    _check_bound(r, "exponent")
    return NormalMonomial(n, (r,) * (n - 2), (r,) + (0,) * (n - 2))


@lru_cache(maxsize=1 << 10)
def _shape(ranges: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The strides, strided points and keys of the box whose d_2, ..., d_{N-1} run over 0..ranges (:class:`_Box`).

    The stride of d_j is at index j (d_1 and d_N are padding, always 0), the
    points are in ``normal_form._basis_exponents`` order and the keys are
    their sums.  Every multidegree with the same ranges reads the same entry
    of this bounded table, so a run over many degrees builds each shape once
    while it stays in the table; the value depends on the key alone.
    """
    n = len(ranges) + 2
    base = max(ranges) + 2
    strides = tuple(base ** (n - j) for j in range(n + 1))
    points = tuple(product((0,), *(range(0, (r + 1) * s, s) for r, s in zip(ranges, strides[2:])), (0,)))
    return strides, points, tuple(map(sum, points))


class _Box:
    """The basis monomials of one multidegree δ as the points of a box, with the rows of its commutators.

    Within δ the exponents are fixed by d alone: k_1 = δ_1 and k_j = δ_j - d_j
    for j >= 2, and d_j runs over 0..min(δ_{j-1}, δ_j)
    (``normal_form._basis_exponents``).
    So a_i m and m a_i, both of degree δ + e_i, are named by their d as well,
    and substituting k = δ - d into the rules of ``normal_form._left_mul``
    and ``normal_form._right_mul`` leaves each guard reading one coordinate:

    - a_i m: the rule adds to k_i if i = 1 or d_i = d_{i-1} + k_{i-1} (d_1 = 0),
      and to d_i otherwise.  In the box d_{i-1} + k_{i-1} = δ_{i-1}, so the
      product's d is m's if i = 1 or d_i = δ_{i-1}, and otherwise d_i grows
      by one (k_i = δ_i + 1 - (d_i + 1) is then unchanged).
    - m a_i: the rule moves a letter from k_{i+1} to d_{i+1} if i < N-1 and
      k_{i+1} >= 1, that is d_{i+1} < δ_{i+1}, so d_{i+1} grows by one;
      otherwise the letter lands on k_i and the product's d is m's.

    Padding d with d_1 = d_N = 0 and δ with δ_0 = δ_N = 0 makes the two cases
    at the ends the same guards: a_1 m never moves d, and m a_{N-1} never does.
    A point is held as its coordinates times their strides, so a guard
    compares one entry with a precomputed bound.  Its key is the sum, an int
    with one digit per d_j in base max(ranges) + 2, where the ranges are the
    bounds min(δ_{j-1}, δ_j) of d_2, ..., d_{N-1}.  No digit carries: a
    product raises d_i only while d_i < δ_{i-1}, and d_{i+1} only while
    d_{i+1} < δ_{i+1}, so a raised digit is at most min(δ_{i-1}, δ_i + 1),
    or min(δ_i + 1, δ_{i+1}) for d_{i+1}: at most its range + 1, below the
    base.  So distinct products have distinct keys, and the strides, points
    and keys depend on the ranges alone: every degree with the same ranges
    shares one :func:`_shape`, and only the guards' bounds read δ itself.

    Each guard compares one coordinate with one count: d_i with δ_{i-1}, or
    d_{i+1} with δ_{i+1}.  A coordinate d_j is at most its range r_j, so
    clipping the count it is compared with at r_j + 1 changes no comparison;
    δ_j meets d_j and d_{j+1}, so it may be clipped at max(r_j, r_{j+1}) + 1,
    with r_1 = r_N = 0 (:func:`_signature`).  The clipped counts still give
    the ranges as the minima of neighbours, since a count is clipped only
    above the ranges it bounds.  So two degrees with equal signatures have
    the same shape, the same guard outcomes and the same rows, in the same
    order; only :meth:`monomial` reads δ unclipped.
    """

    def __init__(self, delta: MultiDegree) -> None:
        counts = delta.counts
        self.n = delta.n
        self.counts = (0, *counts, 0)  # δ_0, δ_1, ..., δ_{N-1}, δ_N
        self.strides, self.points, self.keys = _shape(tuple(map(min, counts, counts[1:])))

    def rows(self, i: int, cols: Iterable[int]) -> Iterable[dict[int, int]]:
        """The nonzero rows of a_i x - x a_i restricted to the columns ``cols``.

        Each column m adds +1 to the row of a_i m and -1 to the row of m a_i;
        a column whose two products are equal adds nothing.
        """
        points, keys, strides = self.points, self.keys, self.strides
        full, up = self.counts[i - 1] * strides[i], strides[i]  # d_i = δ_{i-1}, and one more d_i
        room, over = self.counts[i + 1] * strides[i + 1], strides[i + 1]  # d_{i+1} < δ_{i+1}, and one more d_{i+1}
        eqs: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for c in cols:
            point, key = points[c], keys[c]
            left = key if point[i - 1] == full else key + up
            right = key + over if point[i] < room else key
            if left != right:
                eqs[left][c] = 1
                eqs[right][c] = -1
        return eqs.values()

    def monomial(self, c: int) -> NormalMonomial:
        """Column c as a validated normal monomial."""
        counts = self.counts
        d = tuple(x // s for x, s in zip(self.points[c][1:-1], self.strides[2:]))
        return NormalMonomial(self.n, d, (counts[1], *map(sub, counts[2:-1], d)))


def _signature(counts: tuple[int, ...]) -> tuple[int, ...]:
    """The guard signature of a degree: each δ_j clipped at max(r_j, r_{j+1}) + 1 (:class:`_Box`).

    As max(min(δ_{j-1}, δ_j), min(δ_j, δ_{j+1})) = min(δ_j, max(δ_{j-1}, δ_{j+1})),
    that is δ_j clipped at one above its larger neighbour, with δ_0 = δ_N = 0.
    """
    p = (0, *counts, 0)
    return tuple([min(x, max(a, b) + 1) for x, a, b in zip(counts, p, p[2:])])


def _kernel(box: _Box) -> list[dict[int, Scalar]]:
    """The kernel of the box's commutator rows, as sparse vectors over its columns.

    The rows come one generator at a time, a_1 first, in the box's order,
    and one peel reads them.  A killed column is forced to 0 by the rows
    already read, so a batch is built from the live columns only, which
    keeps the kernel of the full system; once none is live the kernel is 0.
    A settled peel gives one unit vector per live column.  Only if a waiting
    row keeps a live column does :func:`nullspace` run, on the full system
    over every column.
    """
    ncols = len(box.keys)
    peel = _Peel(ncols)
    for i in range(1, box.n):
        if not peel.add(box.rows(i, list(compress(range(ncols), peel.live)))):
            return []
    kernel = peel.kernel()
    if kernel is not None:
        return [{c: 1} for c in kernel]
    vectors = nullspace((row for i in range(1, box.n) for row in box.rows(i, range(ncols))), ncols)
    return [{c: x for c, x in enumerate(vec) if x} for vec in vectors]


def _basis(box: _Box, kernel: list[dict[int, Scalar]]) -> list[AlgebraElement]:
    """The kernel vectors as elements, each column a validated monomial of the box's degree."""
    return [AlgebraElement(box.n, {box.monomial(c): x for c, x in vec.items()}) for vec in kernel]


def center_basis_in_degree(n: int, delta: MultiDegree) -> list[AlgebraElement]:
    """Exact basis of the central elements homogeneous of one multidegree.

    Columns index the basis monomials m of the degree.  For each generator
    a_i there is one equation per product monomial p: the coefficient of p
    in a_i x - x a_i vanishes, i.e. the sum of x_m over a_i m = p minus the
    sum over m a_i = p is zero.  Central elements are the common kernel.
    The rows are built in the degree's box (:class:`_Box`), where both
    products of a column are its key plus at most one stride, so no
    exponent tuple or product monomial is built, and a column becomes a
    validated monomial only where a kernel vector is nonzero.

    One peel reads the rows (:func:`_kernel`).  Every entry is ±1, so each
    kill is a ±1 entry alone in its row: a degree the peel settles has the
    same center over Z and over every field.  Where the peel stalls,
    :func:`nullspace` decides, and its basis holds over Q.  This is the
    reference for one degree; :func:`center_bases` gives the same bases for
    every degree up to a bound and shares one peel per guard signature.
    """
    check_rank(n)
    if delta.n != n:
        raise ValueError("multidegree rank does not match")
    box = _Box(delta)
    return _basis(box, _kernel(box))


def center_bases(n: int, max_degree: int) -> Iterator[tuple[MultiDegree, list[AlgebraElement]]]:
    """Each multidegree of rank n and total at most max_degree with its center basis, in ``multidegrees_up_to`` order.

    The bases are :func:`center_basis_in_degree`'s.  Degrees with the same
    guard signature (:func:`_signature`) have the same commutator rows
    (:class:`_Box`), hence the same kernel over the same columns, so the
    sweep peels each signature once, at its first degree, and keeps the
    kernel vectors in a dict that lives as long as the sweep.  A later
    degree of that signature builds only its own basis monomials, and no
    box at all where the kernel is empty.  At N=5, D <= 10 the 1,001 degrees
    hold 227 signatures; at N=6, D <= 14 the 11,628 degrees hold 1,660.
    """
    kernels: dict[tuple[int, ...], list[dict[int, Scalar]]] = {}
    for delta in multidegrees_up_to(n, max_degree):
        signature = _signature(delta.counts)
        if signature not in kernels:
            kernels[signature] = _kernel(_Box(delta))
        kernel = kernels[signature]
        yield delta, _basis(_Box(delta), kernel) if kernel else []


def expected_center_dimension(delta: MultiDegree) -> int:
    """Graded center dimension: 1 at degrees r*(1, ..., 1), else 0."""
    c = delta.counts
    return 1 if c.count(c[0]) == len(c) else 0


def theorem_mismatch(delta: MultiDegree, basis: list[AlgebraElement]) -> str | None:
    """How one degree's center basis departs from the theorem, or None if it agrees.

    The theorem: dimension 1 at r*(1, ..., 1), spanned by the descending
    cycle c_r, and dimension 0 everywhere else.
    """
    want = expected_center_dimension(delta)
    if len(basis) != want:
        return f"dimension {len(basis)}, expected {want}"
    if want == 1 and basis[0] != AlgebraElement.from_monomial(central_candidate(delta.n, delta.counts[0])):
        return "basis element differs from the candidate"
    return None
