"""Reference route for the center, kept with the tests that compare against it."""
from partic.core import AlgebraElement
from partic.normal_form import element_product, gen_element


def commutes_with_generators(e: AlgebraElement) -> bool:
    """Exact test a_i e = e a_i for every generator (hence centrality)."""
    for i in range(1, e.n):
        g = gen_element(e.n, i)
        if element_product(g, e) != element_product(e, g):
            return False
    return True
