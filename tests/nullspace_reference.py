"""Dense reference for ``partic.center.nullspace``, kept with the tests that compare against it."""
from fractions import Fraction


def nullspace_dense(mat: list[list], ncols: int) -> list[list[Fraction]]:
    """Exact right kernel of a dense matrix by Gauss-Jordan elimination.

    Pivoting is deterministic (first nonzero column, smallest row index).
    Basis vectors come one per free column, in column order, each scaled so
    its first nonzero coordinate is 1.
    """
    rows = [[Fraction(x) for x in row] for row in mat]
    nrows = len(rows)
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
