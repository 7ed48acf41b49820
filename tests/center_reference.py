"""Reference routes for the center, kept with the tests that compare against them."""
from partic.core import AlgebraElement
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
