from itertools import product

import pytest

from partic import particles
from partic.core import AlgebraElement, MultiDegree, NormalMonomial, Word, _nm_letters, multidegrees_up_to, nm_to_word
from partic.normal_form import enumerate_basis, gen_element, normalize
from partic.particles import (
    ANNIHILATED,
    Configuration,
    IoLabel,
    act_gen,
    act_word,
    configurations,
    faithfulness_problem,
    io_label,
    label_mul,
    min_input,
    monomial_from_io,
    output_of,
    word_label,
)
from partic.rewriting import partic_rules

from action_reference import act
from label_reference import label_mul_via_monomial


def nm(n, d, k):
    return NormalMonomial(n, tuple(d), tuple(k))


def cfg(n, *occ):
    return Configuration(n, tuple(occ))


WORKED = nm(6, (0, 0, 0, 1), (0, 2, 1, 2, 0))  # a5 a2^2 a3 a4^2


def test_act_gen_examples():
    c = cfg(9, 3, 0, 0, 1, 0, 1, 2, 0, 1)
    assert act_gen(4, c) == cfg(9, 3, 0, 0, 0, 1, 1, 2, 0, 1)
    assert act_gen(1, cfg(3, 0, 5, 0)) is ANNIHILATED
    # the last line position feeds the deposit
    assert act_gen(2, cfg(3, 0, 1, 0)) == cfg(3, 0, 0, 1)
    with pytest.raises(ValueError):
        act_gen(9, c)


def test_act_word_figure_example():
    c = cfg(9, 3, 0, 0, 1, 0, 1, 2, 0, 1)
    out = act_word(Word(9, (6, 5, 4)), c)
    assert out == cfg(9, 3, 0, 0, 0, 0, 1, 3, 0, 1)


def test_act_word_empty_and_absorbing():
    c = cfg(3, 1, 1, 0)
    assert act_word(Word(3, ()), c) == c
    assert act_word(Word(3, (1, 1)), c) is ANNIHILATED


def test_act_word_rightmost_first():
    # [2, 1] must move the single particle two steps; leftmost-first would
    # annihilate immediately
    assert act_word(Word(3, (2, 1)), cfg(3, 1, 0, 0)) == cfg(3, 0, 0, 1)
    assert act_word(Word(3, (1, 2)), cfg(3, 1, 0, 0)) is ANNIHILATED


def test_act_word_central_power():
    w = Word(9, (8, 7, 6, 5, 4, 3, 2, 1) * 5)
    start = Configuration(9, (5,) + (0,) * 8)
    assert act_word(w, start) == Configuration(9, (0,) * 8 + (5,))


def test_min_input_examples():
    assert min_input(WORKED) == cfg(6, 0, 2, 1, 2, 0, 0)
    assert min_input(NormalMonomial.unit(4)) == cfg(4, 0, 0, 0, 0)
    assert min_input(nm(3, (1,), (1, 0))) == cfg(3, 1, 0, 0)


def test_output_examples():
    assert output_of(WORKED) == cfg(6, 0, 0, 2, 1, 1, 1)
    assert output_of(NormalMonomial.unit(4)) == cfg(4, 0, 0, 0, 0)
    # derived by acting: a2 a1 on (1,0,0) walks the particle to the deposit
    m = nm(3, (1,), (1, 0))
    assert output_of(m) == cfg(3, 0, 0, 1)
    assert act_word(nm_to_word(m), cfg(3, 1, 0, 0)) == cfg(3, 0, 0, 1)
    assert act_word(nm_to_word(m), cfg(3, 0, 2, 2)) is ANNIHILATED


def test_output_matches_action_everywhere():
    for n in (3, 4):
        for delta in multidegrees_up_to(n, 5):
            for m in enumerate_basis(delta):
                assert act_word(nm_to_word(m), min_input(m)) == output_of(m)


def test_minimality_criterion():
    # the expansion acts without annihilating exactly on configurations
    # dominating the minimal input on the line positions
    for n in (3, 4):
        for delta in multidegrees_up_to(n, 4):
            for m in enumerate_basis(delta):
                need = min_input(m)
                for c in configurations(n, 5, max_deposit=2):
                    res = act_word(nm_to_word(m), c)
                    dominates = all(c.occ[i - 1] >= need.occ[i - 1] for i in range(1, n))
                    assert (res is not ANNIHILATED) == dominates
                    if res is not ANNIHILATED:
                        assert sum(res.occ) == sum(c.occ)


@pytest.mark.parametrize("n, max_len", [(3, 5), (4, 5), (5, 4)])
def test_word_label_predicts_the_action(n, max_len):
    # every c >= input goes to c - input + output, every other c is annihilated
    configs = list(configurations(n, max_len, max_deposit=2))
    for length in range(max_len + 1):
        for letters in product(range(1, n), repeat=length):
            w = Word(n, letters)
            out, inp = word_label(w)
            IoLabel(Configuration(n, out), Configuration(n, inp))  # position 1 empty, deposit 0
            for c in configs:
                if all(a >= b for a, b in zip(c.occ, inp)):
                    want = Configuration(n, tuple(a - b + o for a, b, o in zip(c.occ, inp, out)))
                else:
                    want = ANNIHILATED
                assert act_word(w, c) == want, (letters, c)


def test_word_label_examples():
    # a1 a2 moves a particle 2 -> 3, then one 1 -> 2; a2 a1 runs one particle 1 -> 3
    assert word_label(Word(3, (1, 2))) == ((0, 1, 1), (1, 1, 0))
    assert word_label(Word(3, (2, 1))) == ((0, 0, 1), (1, 0, 0))
    assert word_label(Word(4, ())) == ((0, 0, 0, 0), (0, 0, 0, 0))
    assert word_label(nm_to_word(WORKED)) == (output_of(WORKED).occ, min_input(WORKED).occ)


@pytest.mark.parametrize("n, max_len", [(3, 5), (4, 4), (5, 3)])
def test_word_label_is_left_multiplication_from_the_unit(n, max_len):
    # prepending the letters rightmost first, on labels, from the empty word's label
    unit = io_label(NormalMonomial.unit(n))
    for length in range(max_len + 1):
        for letters in product(range(1, n), repeat=length):
            lab = unit
            for a in reversed(letters):
                lab = label_mul(lab, a, "left")
            assert word_label(Word(n, letters)) == (lab.i_out.occ, lab.j_in.occ), letters


def basis_up_to(n, max_total):
    return [m for delta in multidegrees_up_to(n, max_total) for m in enumerate_basis(delta)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_raw_io_counts_are_the_io_label(n):
    # faithfulness reads the counts without building configurations; the greedy label of
    # the expansion is a second route to the same counts
    for m in basis_up_to(n, 6):
        lab = io_label(m)
        assert particles._io_counts(m.d, m.k) == (lab.i_out.occ, lab.j_in.occ) == word_label(nm_to_word(m)), m


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_expansion_label_is_the_word_label(n):
    # action-factoring labels the letters of each expansion without building a Word
    for m in basis_up_to(n, 6):
        descending = [i for i in range(n - 1, 1, -1) for _ in range(m.d[i - 2])]
        ascending = [i for i in range(1, n) for _ in range(m.k[i - 1])]
        assert _nm_letters(m.d, m.k) == tuple(descending + ascending) == nm_to_word(m).letters, m
        assert particles._letters_label(n, _nm_letters(m.d, m.k)) == word_label(nm_to_word(m)), m


def test_io_label_roundtrip():
    assert monomial_from_io(io_label(WORKED)) == WORKED
    unit = NormalMonomial.unit(4)
    lab = io_label(unit)
    assert lab.i_out == lab.j_in == cfg(4, 0, 0, 0, 0)
    assert monomial_from_io(lab) == unit
    for delta in multidegrees_up_to(4, 5):
        for m in enumerate_basis(delta):
            assert monomial_from_io(io_label(m)) == m


def test_unrealizable_labels_rejected():
    # output occupying position 1
    with pytest.raises(ValueError):
        IoLabel(cfg(3, 1, 0, 0), cfg(3, 1, 0, 0))
    # input with deposit particles
    with pytest.raises(ValueError):
        IoLabel(cfg(3, 0, 0, 1), cfg(3, 0, 0, 1))
    # particle count mismatch
    with pytest.raises(ValueError):
        IoLabel(cfg(3, 0, 1, 0), cfg(3, 2, 0, 0))
    # negative descending exponent: position 2 of the output exceeds k_1
    with pytest.raises(ValueError):
        monomial_from_io(IoLabel(cfg(3, 0, 2, 0), cfg(3, 1, 1, 0)))
    with pytest.raises(ValueError):
        monomial_from_io(IoLabel(cfg(4, 0, 0, 3, 0), cfg(4, 1, 1, 1, 0)))


def test_label_mul_worked_block():
    lab = io_label(WORKED)
    l = label_mul(lab, 3, "left")
    assert (l.i_out, l.j_in) == (cfg(6, 0, 0, 1, 2, 1, 1), cfg(6, 0, 2, 1, 2, 0, 0))
    r = label_mul(lab, 3, "right")
    assert (r.i_out, r.j_in) == (cfg(6, 0, 0, 2, 1, 1, 1), cfg(6, 0, 2, 2, 1, 0, 0))
    l1 = label_mul(lab, 1, "left")
    # the minimal input needs one extra particle at position 1
    assert l1.j_in == cfg(6, 1, 2, 1, 2, 0, 0)
    assert l1.i_out == cfg(6, 0, 1, 2, 1, 1, 1)
    # independent route: act with the multiplied monomial on its minimal input
    assert l1 == label_mul_via_monomial(lab, 1, "left")
    m1 = monomial_from_io(l1)
    assert act_word(nm_to_word(m1), l1.j_in) == l1.i_out
    r1 = label_mul(lab, 1, "right")
    assert (r1.i_out, r1.j_in) == (cfg(6, 0, 0, 2, 1, 1, 1), cfg(6, 1, 1, 1, 2, 0, 0))


def test_label_mul_matches_monomial_route():
    for n in (3, 4):
        for delta in multidegrees_up_to(n, 4):
            for m in enumerate_basis(delta):
                lab = io_label(m)
                for i in range(1, n):
                    for side in ("left", "right"):
                        assert label_mul(lab, i, side) == label_mul_via_monomial(lab, i, side)


def test_label_mul_bad_args():
    lab = io_label(NormalMonomial.unit(3))
    with pytest.raises(ValueError):
        label_mul(lab, 3, "left")
    with pytest.raises(ValueError):
        label_mul(lab, 1, "middle")


def test_act_element_unit_identity():
    v = {cfg(3, 1, 0, 0): 2, cfg(3, 0, 1, 1): -1}
    assert act(AlgebraElement.from_monomial(NormalMonomial.unit(3)), v) == v


def test_act_element_annihilation_drops_terms():
    e = gen_element(3, 1)
    assert act(e, {cfg(3, 0, 1, 0): 1}) == {}


def test_zero_divisor_acts_as_zero():
    m1 = nm(4, (8, 5), (8, 3, 1))
    m2 = nm(4, (7, 5), (8, 4, 1))
    diff = AlgebraElement(4, {m1: 1, m2: -1})
    a2 = gen_element(4, 2)
    # configurations large enough that at least one of the two monomials acts
    witnesses = [
        cfg(4, 8, 3, 1, 0),
        cfg(4, 8, 4, 1, 0),
        cfg(4, 9, 5, 2, 3),
        cfg(4, 8, 3, 1, 2),
        cfg(4, 10, 10, 10, 0),
    ]
    saw_nonzero_difference = False
    for c in witnesses:
        dv = act(diff, {c: 1})
        saw_nonzero_difference |= bool(dv)
        assert act(a2, dv) == {}
    # the difference alone is not the zero operator; only a_2 kills it
    assert saw_nonzero_difference


def test_module_axiom_products_compose():
    a = AlgebraElement(3, {nm(3, (0,), (1, 0)): 1, nm(3, (1,), (1, 0)): 2})
    b = AlgebraElement(3, {nm(3, (0,), (0, 1)): 1, NormalMonomial.unit(3): -3})
    for c in configurations(3, 3, max_deposit=1):
        v = {c: 1}
        assert act(a * b, v) == act(a, act(b, v))


def test_action_factors_through_quotient():
    # words act exactly like their normal forms
    for n in (3, 4):
        configs = list(configurations(n, 6, max_deposit=2))
        for length in range(7):
            for letters in product(range(1, n), repeat=length):
                w = Word(n, letters)
                nf = nm_to_word(normalize(w))
                for c in configs:
                    assert act_word(w, c) == act_word(nf, c)


def test_relations_act_identically():
    for n in (3, 4):
        rs = partic_rules(n)
        configs = list(configurations(n, 6, max_deposit=2))
        for rule in rs.rules:
            wl, wr = Word(n, rule.lhs), Word(n, rule.rhs)
            for c in configs:
                assert act_word(wl, c) == act_word(wr, c)


def test_faithfulness_check_examples():
    # decided on the labels the action gives each basis monomial's expansion
    for n, max_len in ((4, 5), (3, 6), (4, 0)):
        for delta in multidegrees_up_to(n, max_len):
            basis = enumerate_basis(delta)
            assert faithfulness_problem(delta, basis, [word_label(nm_to_word(m)) for m in basis]) is None
    # and fails on labels that merge two basis monomials or give another degree
    delta = MultiDegree((1, 1))
    basis = enumerate_basis(delta)
    label = word_label(nm_to_word(basis[0]))
    assert faithfulness_problem(delta, basis, [label, label]).startswith("two basis monomials share")
    other = word_label(Word(3, (1,)))
    assert faithfulness_problem(delta, basis, [label, other]) == f"the label of {basis[1]} gives the multidegree (1, 0)"


def test_configurations_refuse_a_negative_bound():
    # no configuration has a negative count, and a sweep over none would pass vacuously
    assert list(configurations(3, 0, max_deposit=0)) == [cfg(3, 0, 0, 0)]
    for max_particles, max_deposit, name in (
        (2, -1, "max_deposit"),
        (-1, None, "max_particles"),
        (-1, 2, "max_particles"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
            list(configurations(3, max_particles, max_deposit))


def test_configuration_parse_and_str():
    c = Configuration.parse(9, "3,0,0,1,0,1,2,0,1")
    assert str(c) == "3,0,0,1,0,1,2,0,1"
    assert c.deposit == 1 and c.occ[6] == 2 and sum(c.occ) == 8
    with pytest.raises(ValueError):
        Configuration.parse(9, "1,2,3")
    with pytest.raises(ValueError):
        Configuration(3, (1, -1, 0))


@pytest.mark.parametrize("occ", [(1.5, 0, 0, 0), (True, 0, 0, 0), (1, 0, 0, 2.0)])
def test_configuration_refuses_non_integer_counts(occ):
    # a float count would break list indexing later; a bool would pass as 0 or 1
    with pytest.raises(ValueError, match=r"^particle counts must be integers, got "):
        Configuration(4, occ)
