"""Center computations.

The descending cycle c_r = a_{N-1}^r ... a_2^r a_1^r commutes with every
generator; per graded component an exact commutator nullspace certifies that
nothing else does.  All arithmetic is exact rational, no tolerances.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .core import AlgebraElement, MultiDegree, NormalMonomial, Scalar, _exact, check_rank
from .normal_form import _basis_exponents, _left_mul, _right_mul, _step


def _subtract(target: dict[int, Fraction], f: Fraction, source: dict[int, Fraction]) -> None:
    """target -= f * source in place, storing no zero entries (f and source nonzero)."""
    for c, x in source.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = y
        else:
            del target[c]


class _Peel:
    """The peel of a growing list of rows over columns 0..ncols-1.

    A row with exactly one live nonzero column forces that unknown to 0, so
    the column dies; ``add`` repeats this until no such row is left.  A row
    that arrives with one live column kills it at once; a row with two or
    more is indexed by column, and a kill that leaves it one live column
    kills that column in turn, so the peel is linear in the nonzeros and
    does no arithmetic.  Peeling is confluent (a column that dies stays dead
    when rows are added), so adding the rows in batches, or in any order,
    leaves the live columns that adding them at once does.
    """

    def __init__(self, ncols: int) -> None:
        self.live = [True] * ncols
        self.nlive = ncols
        self._row_cols: list[list[int]] = []  # the live nonzero columns of each indexed row when added
        self._live_count: list[int] = []
        self._rows_of: list[list[int]] = [[] for _ in range(ncols)]

    def add(self, rows: Iterable[Mapping[int, Scalar]]) -> int:
        """Peel with the rows added; return the number of live columns left."""
        live, live_count, rows_of, row_cols = self.live, self._live_count, self._rows_of, self._row_cols
        for row in rows:
            cs = [c for c, x in row.items() if x and live[c]]
            if len(cs) > 1:
                for c in cs:
                    rows_of[c].append(len(live_count))
                row_cols.append(cs)
                live_count.append(len(cs))
                continue
            while cs:  # the columns to kill; two rows can leave the same one
                c = cs.pop()
                if live[c]:
                    live[c] = False
                    self.nlive -= 1
                    for s in rows_of[c]:
                        live_count[s] -= 1
                        if live_count[s] == 1:
                            cs.append(next(d for d in row_cols[s] if live[d]))
        return self.nlive

    def kernel(self) -> list[int] | None:
        """The live columns, or None if the peel has stalled.

        If no row has a live nonzero left, the kernel is exactly the span of
        the unit vectors of the live columns; otherwise the peel has stalled.
        Only indexed rows can have one: a row that arrived with one live
        column killed it.
        """
        if any(self._live_count):
            return None
        return [c for c, x in enumerate(self.live) if x]


def nullspace(rows: Iterable[Mapping[int, Scalar]], ncols: int) -> list[list[Fraction]]:
    """Exact basis of the right kernel {x : sum_c row[c] x_c = 0 for every row}.

    Rows are sparse ``{column: coefficient}`` maps over columns 0..ncols-1
    with int or Fraction entries; a float raises TypeError.
    The basis is the one dense Gauss-Jordan gives: one vector per free
    column, in column order, each scaled so its first nonzero coordinate is
    1.  Each row is reduced against the rows kept so far and, unless it
    vanishes, kept with its smallest column as pivot; the kept rows stay in
    reduced row echelon form, which is unique.  No peel runs here:
    :func:`center_basis_in_degree` peels first and calls this only when
    its peel stalls.
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
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    return NormalMonomial(n, (r,) * (n - 2), (r,) + (0,) * (n - 2))


def center_basis_in_degree(n: int, delta: MultiDegree) -> list[AlgebraElement]:
    """Exact basis of the central elements homogeneous of one multidegree.

    Columns index the basis monomials m of the degree.  For each generator
    a_i there is one equation per product monomial p: the coefficient of p
    in a_i x - x a_i vanishes, i.e. the sum of x_m over a_i m = p minus the
    sum over m a_i = p is zero.  Central elements are the common kernel.
    Columns and rows are held as raw (d, k) exponents, so no product
    monomial is built or validated, and a column becomes a validated
    monomial only where a kernel vector is nonzero.

    The rows come one generator at a time, a_1 first, and each batch is fed
    to one peel.  A column the peel has killed is forced to 0 by the rows
    already added, so a batch is built from the live columns only: leaving
    x_m out of later rows keeps the kernel of the full system.  Once no
    column is live the degree's center is 0 and no more rows are built.  A
    degree whose columns survive every generator has the unit vectors of
    its live columns as kernel when the peel settles every row, and goes to
    :func:`nullspace` with the rows so built only when the peel stalls; the
    kernel, and so its reduced echelon basis, is the same.
    """
    check_rank(n)
    if delta.n != n:
        raise ValueError("multidegree rank does not match")
    cols = list(_basis_exponents(delta))
    peel = _Peel(len(cols))
    rows: list[dict[int, int]] = []
    live = peel.live
    for i in range(1, n):
        eqs: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
        for c, col in enumerate(cols):
            if not live[c]:
                continue
            for mul, sign in ((_left_mul, 1), (_right_mul, -1)):
                key = _step(mul, col, i)
                row = eqs.get(key)
                if row is None:
                    eqs[key] = {c: sign}
                else:
                    row[c] = row.get(c, 0) + sign
        rows.extend(eqs.values())
        if not peel.add(eqs.values()):
            return []
    kernel = peel.kernel()
    if kernel is not None:
        return [AlgebraElement.from_monomial(NormalMonomial(n, *cols[c])) for c in kernel]
    vectors = nullspace(rows, len(cols))
    return [AlgebraElement(n, {NormalMonomial(n, *cols[c]): x for c, x in enumerate(vec) if x}) for vec in vectors]


def expected_center_dimension(delta: MultiDegree) -> int:
    """Graded center dimension: 1 at degrees r*(1, ..., 1), else 0."""
    c = delta.counts
    return 1 if all(x == c[0] for x in c) else 0


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
