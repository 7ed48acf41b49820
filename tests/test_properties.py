"""Property-based checks of the algebraic laws on randomly drawn inputs."""
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from partic.affine import AffineConfiguration, AffineWord, affine_act_word
from partic.core import AlgebraElement, NormalMonomial, Word, nm_to_word
from partic.normal_form import (
    element_product,
    enumerate_basis,
    nm_product,
    normalize,
    normalize_right_to_left,
)
from partic.particles import (
    ANNIHILATED,
    Configuration,
    act_word,
    io_label,
    label_mul,
    min_input,
    monomial_from_io,
    output_of,
)
from partic.rewriting import partic_rules

from action_reference import act
from label_reference import label_mul_via_monomial
from rewriting_reference import class_of, coded_steps, multidegree

ranks = st.integers(3, 5)


@st.composite
def words(draw, max_len=7):
    n = draw(ranks)
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_len))
    return Word(n, tuple(letters))


@st.composite
def monomials(draw, n=None, max_exp=3):
    if n is None:
        n = draw(ranks)
    k = [draw(st.integers(0, max_exp)) for _ in range(n - 1)]
    d = []
    prev = 0
    for i in range(2, n):
        bound = prev + k[i - 2]
        d.append(draw(st.integers(0, min(max_exp, bound))))
        prev = d[-1]
    return NormalMonomial(n, tuple(d), tuple(k))


@st.composite
def elements(draw, n, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = draw(monomials(n=n, max_exp=2))
        terms[m] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return AlgebraElement(n, terms)


@st.composite
def elements_pairs(draw):
    n = draw(ranks)
    return draw(elements(n)), draw(elements(n))


@st.composite
def configs(draw, n=None, max_count=3):
    if n is None:
        n = draw(ranks)
    occ = tuple(draw(st.integers(0, max_count)) for _ in range(n))
    return Configuration(n, occ)


@given(words())
def test_one_step_preserves_degree(w):
    md = multidegree(w)
    for letters in coded_steps(w.letters, partic_rules(w.n)):
        assert multidegree(Word(w.n, letters)) == md


@given(words())
def test_fold_directions_agree(w):
    assert normalize(w) == normalize_right_to_left(w)


@given(words())
def test_normalize_idempotent_on_expansion(w):
    m = normalize(w)
    assert normalize(nm_to_word(m)) == m


@settings(deadline=None)
@given(words(max_len=5))
def test_normalize_sound_against_oracle(w):
    assert nm_to_word(normalize(w)).letters in class_of(w, partic_rules(w.n))


@given(words(max_len=4), words(max_len=4))
def test_products_follow_concatenation(w1, w2):
    if w1.n != w2.n:
        return
    assert nm_product(normalize(w1), normalize(w2)) == normalize(Word(w1.n, w1.letters + w2.letters))


@given(st.data())
def test_nm_product_associative(data):
    n = data.draw(ranks)
    a = data.draw(monomials(n=n, max_exp=2))
    b = data.draw(monomials(n=n, max_exp=2))
    c = data.draw(monomials(n=n, max_exp=2))
    assert nm_product(nm_product(a, b), c) == nm_product(a, nm_product(b, c))


@given(elements_pairs())
def test_element_sum_and_scale(pair):
    e1, e2 = pair
    assert (e1 + (-1) * e1).is_zero()
    assert Fraction(1, 2) * (e1 + e2) == Fraction(1, 2) * e1 + Fraction(1, 2) * e2


@given(st.data())
def test_element_product_distributes(data):
    n = data.draw(ranks)
    a = data.draw(elements(n))
    b = data.draw(elements(n))
    c = data.draw(elements(n))
    assert element_product(a + b, c) == element_product(a, c) + element_product(b, c)
    assert element_product(c, a + b) == element_product(c, a) + element_product(c, b)


@given(st.data())
def test_action_factors_and_preserves_count(data):
    n = data.draw(ranks)
    letters = tuple(data.draw(st.lists(st.integers(1, n - 1), max_size=6)))
    w = Word(n, letters)
    c = data.draw(configs(n=n))
    out = act_word(w, c)
    assert out == act_word(nm_to_word(normalize(w)), c)
    if out is not ANNIHILATED:
        assert sum(out.occ) == sum(c.occ)


@given(st.data())
def test_module_action_is_multiplicative(data):
    n = data.draw(ranks)
    e1 = data.draw(elements(n, max_terms=2))
    e2 = data.draw(elements(n, max_terms=2))
    v = {data.draw(configs(n=n)): 1}
    assert act(element_product(e1, e2), v) == act(e1, act(e2, v))


@given(monomials())
def test_io_label_roundtrip(m):
    lab = io_label(m)
    assert monomial_from_io(lab) == m
    assert sum(lab.i_out.occ) == sum(lab.j_in.occ) == sum(m.k)


@given(monomials())
def test_output_is_action_on_min_input(m):
    assert act_word(nm_to_word(m), min_input(m)) == output_of(m)


@given(st.data())
def test_label_mul_agrees_with_monomials(data):
    m = data.draw(monomials(max_exp=2))
    lab = io_label(m)
    i = data.draw(st.integers(1, m.n - 1))
    side = data.draw(st.sampled_from(["left", "right"]))
    assert label_mul(lab, i, side) == label_mul_via_monomial(lab, i, side)


@given(st.data())
def test_affine_action_bookkeeping(data):
    n = data.draw(ranks)
    letters = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=6)))
    occ = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    c = AffineConfiguration(n, occ, 0)
    out = affine_act_word(AffineWord(n, letters), c)
    if out is not ANNIHILATED:
        assert sum(out.occ) == sum(c.occ)
        assert out.t == letters.count(0)


@given(st.data())
def test_basis_monomials_have_right_degree(data):
    m = data.draw(monomials())
    basis = enumerate_basis(multidegree(nm_to_word(m)))
    assert m in basis
    assert basis == sorted(basis)
