"""Reference routes for the center, kept with the tests that compare against them."""
from collections.abc import Iterable, Mapping

from partic.core import AlgebraElement, Scalar
from partic.normal_form import Exponents, _left_mul, _right_mul, _step, element_product, gen_element


def commutes_with_generators(e: AlgebraElement) -> bool:
    """Exact test a_i e = e a_i for every generator (hence centrality)."""
    for i in range(1, e.n):
        g = gen_element(e.n, i)
        if element_product(g, e) != element_product(e, g):
            return False
    return True


def step_rows(exponents: list[Exponents], i: int, cols: list[int]) -> list[dict[int, int]]:
    """The rows of a_i x - x a_i over the columns ``cols`` of one degree, from the rules themselves.

    ``exponents`` holds the (d, k) of every column of the degree, as
    ``normal_form._basis_exponents`` yields them.  Each column m takes one
    ``normal_form._step`` per product, a_i m with +1 and m a_i with -1, and
    the rows are keyed on the raw (d, k) exponents of the products.  A
    column whose two products agree leaves a zero entry.
    """
    eqs: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
    for c in cols:
        for mul, sign in ((_left_mul, 1), (_right_mul, -1)):
            row = eqs.setdefault(_step(mul, exponents[c], i), {})
            row[c] = row.get(c, 0) + sign
    return list(eqs.values())


class ReferencePeel:
    """The propagating peel, which ``center._Peel`` is compared with.

    Every row becomes a fresh list of its live nonzero columns, zero entries
    tested on each, whatever its length.  A row with one kills that column;
    a row with two or more is stored and indexed by column, one list per
    column from the start, and a kill that leaves a stored row one live
    column kills that column in turn.  So it kills every column ``_Peel``
    kills (``_Peel`` never returns to a row), and where ``_Peel`` settles
    the two have the same kernel.
    """

    def __init__(self, ncols: int) -> None:
        self.live = [True] * ncols
        self.nlive = ncols
        self._row_cols: list[list[int]] = []
        self._live_count: list[int] = []
        self._rows_of: list[list[int]] = [[] for _ in range(ncols)]

    def add(self, rows: Iterable[Mapping[int, Scalar]]) -> int:
        live, live_count, rows_of, row_cols = self.live, self._live_count, self._rows_of, self._row_cols
        for row in rows:
            cs = [c for c, x in row.items() if x and live[c]]
            if len(cs) > 1:
                for c in cs:
                    rows_of[c].append(len(live_count))
                row_cols.append(cs)
                live_count.append(len(cs))
                continue
            while cs:
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
        if any(self._live_count):
            return None
        return [c for c, x in enumerate(self.live) if x]
