"""Reference route for ``partic.particles.label_mul``, kept with the tests that compare against it."""
from partic.normal_form import left_mul_gen, right_mul_gen
from partic.particles import IoLabel, io_label, monomial_from_io


def label_mul_via_monomial(label: IoLabel, i: int, side: str) -> IoLabel:
    """Unlabel, multiply the monomial by a_i on the given side, relabel."""
    m = monomial_from_io(label)
    m2 = left_mul_gen(i, m) if side == "left" else right_mul_gen(m, i)
    return io_label(m2)
