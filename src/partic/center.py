"""Center computations.

The descending cycle c_r = a_{N-1}^r ... a_2^r a_1^r commutes with every
generator; per graded component an exact commutator nullspace certifies that
nothing else does.  All arithmetic is exact rational, no tolerances.
"""
from __future__ import annotations

from fractions import Fraction

from .core import AlgebraElement, MultiDegree, NormalMonomial, check_rank
from .normal_form import element_product, enumerate_basis, gen_element, left_mul_gen, right_mul_gen

Matrix = list[list[Fraction]]


def nullspace(mat: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Exact basis of the right kernel {x : mat x = 0}.

    Gauss-Jordan elimination with deterministic pivoting (first nonzero
    column, smallest row index).  Basis vectors come one per free column,
    in column order, each scaled so its first nonzero coordinate is 1.
    """
    nrows = len(mat)
    if ncols is None:
        if nrows == 0:
            raise ValueError("column count required for a matrix with no rows")
        ncols = len(mat[0])
    rows = [[Fraction(x) for x in row] for row in mat]
    if any(len(row) != ncols for row in rows):
        raise ValueError("matrix rows must all have the same length")

    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if rows[k][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break

    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for ri, pc in enumerate(pivot_cols):
            vec[pc] = -rows[ri][free]
        lead = next(x for x in vec if x != 0)
        basis.append([x / lead for x in vec])
    return basis


def central_candidate(n: int, r: int) -> NormalMonomial:
    """(a_{N-1} a_{N-2} ... a_1)^r in normal form: every d_i = r, k = (r, 0, ..., 0)."""
    check_rank(n)
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    return NormalMonomial(n, (r,) * (n - 2), (r,) + (0,) * (n - 2))


def commutes_with_generators(e: AlgebraElement) -> bool:
    """Exact test a_i e = e a_i for every generator (hence centrality)."""
    for i in range(1, e.n):
        g = gen_element(e.n, i)
        if element_product(g, e) != element_product(e, g):
            return False
    return True


def center_basis_in_degree(n: int, delta: MultiDegree) -> list[AlgebraElement]:
    """Exact basis of the central elements homogeneous of one multidegree.

    Columns index the basis monomials of the degree; for each generator the
    rows index the basis monomials one degree up, and each column records
    the (left minus right) multiplication, a difference of two monomials.
    Central elements are the stacked kernel.
    """
    check_rank(n)
    if delta.n != n:
        raise ValueError("multidegree rank does not match")
    cols = enumerate_basis(delta)
    stacked: Matrix = []
    for i in range(1, n):
        row_basis = enumerate_basis(delta.bump(i))
        index = {m: r for r, m in enumerate(row_basis)}
        block = [[Fraction(0)] * len(cols) for _ in row_basis]
        for c, m in enumerate(cols):
            block[index[left_mul_gen(i, m)]][c] += 1
            block[index[right_mul_gen(m, i)]][c] -= 1
        stacked.extend(block)
    vectors = nullspace(stacked, ncols=len(cols))
    return [AlgebraElement(n, dict(zip(cols, vec))) for vec in vectors]


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
