import dataclasses
import re
from fractions import Fraction
from itertools import product

import pytest

from partic.core import (
    AlgebraElement,
    MultiDegree,
    NormalMonomial,
    Word,
    compositions,
    multidegrees_up_to,
    nm_to_word,
    normal_condition,
)
from partic.affine import AffineConfiguration, AffineWord, affine_configurations
from partic.normal_form import enumerate_basis, gen_monomial, left_mul_gen, right_mul_gen
from partic.particles import Configuration, IoLabel, act_gen, configurations, io_label, label_mul
from normal_condition_reference import normal_condition_scan
from rewriting_reference import multidegree


def test_rank_validation():
    with pytest.raises(ValueError):
        Word(2, ())
    with pytest.raises(ValueError):
        NormalMonomial.unit(1)


def test_word_letter_range():
    Word(3, (1, 2, 2, 1))
    with pytest.raises(ValueError):
        Word(3, (3,))
    with pytest.raises(ValueError):
        Word(3, (0,))
    # the first bad letter is named, wherever it stands
    for letters, bad in (((5, 1, 2), 5), ((1, 0, 2), 0), ((1, 2, -1), -1), ((1, 7, 0), 7)):
        with pytest.raises(ValueError, match=rf"^letter {bad} out of range 1\.\.4$"):
            Word(5, letters)
        with pytest.raises(ValueError, match=rf"^letter {bad} out of range 1\.\.4$"):
            Word(5, list(letters))


# two instances of each value type, built from their fields, each sequence field given as a list
VALUE_TYPES = [
    (Word, (5, [4, 3, 2, 1, 2]), (5, [4, 3, 3])),
    (MultiDegree, ([1, 2, 0],), ([1, 0, 5],)),
    (NormalMonomial, (4, [1, 0], [1, 0, 2]), (4, [0, 0], [0, 3, 1])),
    (Configuration, (4, [1, 0, 2, 1]), (4, [1, 0, 2, 0])),
    (
        IoLabel,
        (Configuration(3, (0, 1, 1)), Configuration(3, (2, 0, 0))),
        (Configuration(3, (0, 0, 2)), Configuration(3, (1, 1, 0))),
    ),
    (AffineWord, (4, [0, 3, 1]), (4, [0, 2])),
    (AffineConfiguration, (4, [1, 0, 2, 1], 3), (4, [1, 0, 2, 1])),
]


@pytest.mark.parametrize("cls, args, other", VALUE_TYPES, ids=[t[0].__name__ for t in VALUE_TYPES])
def test_value_types_compare_as_their_field_tuples(cls, args, other):
    def fields(x):
        return tuple(getattr(x, f.name) for f in dataclasses.fields(x))

    a, b = cls(*args), cls(*other)
    # a list field becomes a tuple
    want = tuple(tuple(v) if isinstance(v, list) else v for v in args)
    assert fields(a) == want and all(type(v) is not list for v in fields(a))
    assert cls(*want) == a and hash(cls(*want)) == hash(a) == hash(want)
    fa, fb = fields(a), fields(b)
    assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == (fa == fb, fa != fb, fa < fb, fa <= fb, fa > fb, fa >= fb)
    assert sorted([b, a]) == sorted([a, b]) == ([a, b] if fa < fb else [b, a])
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, dataclasses.fields(a)[0].name, fb[0])
    # a name that is not a field is refused too; Python 3.11's slotted frozen classes raise a
    # misleading TypeError from the generated __setattr__, so any of the three errors will do
    with pytest.raises((TypeError, AttributeError, dataclasses.FrozenInstanceError)):
        a.extra = 1
    assert not hasattr(a, "extra")


def test_word_parse_and_str_roundtrip():
    w = Word.parse(5, "4 3 2 1 2")
    assert w == Word.parse(5, "4,3,2,1,2") == Word.parse(5, str(w))
    assert w.letters == (4, 3, 2, 1, 2)
    assert Word.parse(5, "") == Word(5, ())


# each object labelled with the type it was written for; the monomial parser, the only JSON
# parser (``mul`` reads it), refuses them all, the word objects as well
@pytest.mark.parametrize(
    "shape, obj",
    [
        ("Word", {"N": 5}),
        ("Word", {"N": 5, "letters": 3}),
        ("Word", {"N": None, "letters": []}),
        ("NormalMonomial", {"N": 4, "d": [0, 0]}),
        ("NormalMonomial", {"N": 4, "d": 0, "k": [0, 0, 0]}),
        ("NormalMonomial", {"N": 4, "d": [0, None], "k": [0, 0, 0]}),
        ("NormalMonomial", {"N": 4, "d": [0.5, 0], "k": [1, 0, 0]}),
        ("NormalMonomial", {"N": 4.0, "d": [0, 0], "k": [1, 0, 0]}),
        ("NormalMonomial", {"N": 4, "d": [False, 0], "k": [1, 0, 0]}),
        ("NormalMonomial", {"N": 4, "d": "12", "k": [1, 0, 0]}),
        ("Word", {"N": 5, "letters": ["1"]}),
        ("Word", {"N": True, "letters": []}),
    ],
)
def test_from_json_rejects_malformed_objects(shape, obj):
    with pytest.raises(ValueError):
        NormalMonomial.from_json(obj)


def test_multidegree_examples():
    assert multidegree(Word(4, ())).counts == (0, 0, 0)
    assert multidegree(Word(5, (4, 3, 2, 1, 2))).counts == (1, 2, 1, 1)
    assert multidegree(Word(3, (2, 1, 2))).counts == (1, 2)


def test_multidegree_bump_and_total():
    d = MultiDegree((1, 0, 2))
    assert d.total() == 3
    assert d.bump(2).counts == (1, 1, 2)
    with pytest.raises(ValueError):
        MultiDegree((1, -1))


def test_nm_to_word_examples():
    assert nm_to_word(NormalMonomial(3, (1,), (1, 0))).letters == (2, 1)
    assert nm_to_word(NormalMonomial(5, (1, 1, 1), (1, 1, 0, 0))).letters == (4, 3, 2, 1, 2)
    assert nm_to_word(NormalMonomial(4, (0, 0), (0, 0, 0))).letters == ()


def test_normal_monomial_validation():
    # d_2 <= k_1 fails
    with pytest.raises(ValueError):
        NormalMonomial(3, (1,), (0, 0))
    # d_3 <= d_2 + k_2 fails
    with pytest.raises(ValueError):
        NormalMonomial(4, (0, 1), (1, 0, 0))
    # wrong arity
    with pytest.raises(ValueError):
        NormalMonomial(4, (0,), (0, 0, 0))


def test_validity_matches_basis_enumeration():
    # the exponent tuples with d_i + k_i <= 3 passing the condition are
    # exactly the basis monomials of the multidegrees in {0..3}^{N-1}
    for n in (3, 4):
        direct = set()
        for d in product(range(4), repeat=n - 2):
            for k in product(range(4), repeat=n - 1):
                degree_bounded = k[0] <= 3 and all(
                    d[i - 2] + k[i - 1] <= 3 for i in range(2, n)
                )
                if degree_bounded and normal_condition(d, k):
                    direct.add(NormalMonomial(n, d, k))
        via_degrees = set()
        for delta in (MultiDegree(c) for c in product(range(4), repeat=n - 1)):
            via_degrees.update(enumerate_basis(delta))
        assert direct == via_degrees


def test_normal_condition_matches_the_scan():
    # every d, k with entries in -1..3, k of the right length or one off either way
    for nd in range(4):
        for d in product(range(-1, 4), repeat=nd):
            for nk in (nd, nd + 1, nd + 2):
                for k in product(range(-1, 4), repeat=nk):
                    assert normal_condition(d, k) == normal_condition_scan(d, k), (d, k)


@pytest.mark.parametrize(
    "d, k, message",
    [
        ((0,), (0, 0, 0), "rank 3 needs 1 descending and 2 ascending exponents"),
        ((-1,), (0, 0), r"violate the normal-form condition: d=\(-1,\) k=\(0, 0\)"),
        ((0,), (0, -1), r"violate the normal-form condition: d=\(0,\) k=\(0, -1\)"),
        ((1,), (0, 1), r"violate the normal-form condition: d=\(1,\) k=\(0, 1\)"),
    ],
)
def test_normal_monomial_messages(d, k, message):
    with pytest.raises(ValueError, match=message):
        NormalMonomial(3, d, k)


@pytest.mark.parametrize("d, k", [((0.5, 0, 0), (1, 0, 0, 0)), ((0, 0, 0), (True, 0, 0, 0)), ((1, 0, 0), (1, 0, 2.0, 0))])
def test_normal_monomial_refuses_non_integer_exponents(d, k):
    # a float exponent would print as a plain letter and go into JSON as a float
    with pytest.raises(ValueError, match=r"^exponents must be integers, got d="):
        NormalMonomial(5, d, k)


@pytest.mark.parametrize("counts", [(1.5, 0), (1, True), (2, 0, 3.0)])
def test_multidegree_refuses_non_integer_components(counts):
    with pytest.raises(ValueError, match=r"^multidegree components must be integers, got "):
        MultiDegree(counts)


# every entry point that takes one generator index at rank 5
GENERATOR_ENTRY_POINTS = {
    "left_mul_gen": lambda i: left_mul_gen(i, NormalMonomial.unit(5)),
    "right_mul_gen": lambda i: right_mul_gen(NormalMonomial.unit(5), i),
    "gen_monomial": lambda i: gen_monomial(5, i),
    "act_gen": lambda i: act_gen(i, Configuration(5, (1, 1, 1, 1, 0))),
    "label_mul": lambda i: label_mul(io_label(NormalMonomial.unit(5)), i, "left"),
    "MultiDegree.bump": lambda i: MultiDegree((1, 1, 1, 1)).bump(i),
}


@pytest.mark.parametrize("i", [2.0, True, 1.0])
@pytest.mark.parametrize("entry", sorted(GENERATOR_ENTRY_POINTS))
def test_generator_entry_points_refuse_non_integers(entry, i):
    # a float index raised TypeError from list indexing, and True acted as a_1
    call = GENERATOR_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^generator index {re.escape(repr(i))} is not an integer$"):
        call(i)
    call(int(i))  # the same index as an int is taken


def test_monomial_degree_and_length():
    m = NormalMonomial(4, (2, 1), (3, 0, 2))
    assert multidegree(nm_to_word(m)).counts == (3, 2, 3)
    assert len(nm_to_word(m).letters) == 8


def test_element_arithmetic_trivials():
    m = NormalMonomial.unit(3)
    e = AlgebraElement(3, {m: 2})
    assert e + (-1) * e == AlgebraElement(3)
    assert 0 * e == AlgebraElement(3)
    assert AlgebraElement(3, {m: 1}) + AlgebraElement(3, {m: 2}) == AlgebraElement(3, {m: 3})


def test_element_equality_order_independent():
    a = NormalMonomial(3, (0,), (1, 0))
    b = NormalMonomial(3, (0,), (0, 1))
    e1 = AlgebraElement(3, [(a, 1), (b, Fraction(1, 2))])
    e2 = AlgebraElement(3, [(b, Fraction(1, 2)), (a, 1)])
    assert e1 == e2
    assert e1.sorted_terms() == e2.sorted_terms()


def test_element_rank_mismatch():
    e3 = AlgebraElement.from_monomial(NormalMonomial.unit(3))
    e4 = AlgebraElement.from_monomial(NormalMonomial.unit(4))
    with pytest.raises(ValueError):
        e3 + e4


def test_element_scaling_exact():
    m = NormalMonomial(3, (1,), (2, 0))
    e = Fraction(2, 3) * AlgebraElement(3, {m: Fraction(3, 4)})
    assert e.terms[m] == Fraction(1, 2)


@pytest.mark.parametrize("coeff", [0.1, 0.5, 1.0, "1/2", None])
def test_element_coefficients_must_be_exact(coeff):
    # a float would be stored as its binary expansion, 0.1 as 3602879701896397/36028797018963968
    m = NormalMonomial.unit(3)
    e = AlgebraElement(3, {m: 1})
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        AlgebraElement(3, {m: coeff})
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        AlgebraElement.from_monomial(m, coeff)
    with pytest.raises(TypeError):
        e.scaled(coeff)
    with pytest.raises(TypeError):
        coeff * e
    with pytest.raises(TypeError):
        e * coeff
    assert e.scaled(Fraction(1, 10)).terms == {m: Fraction(1, 10)}
    assert (3 * e).terms == (e * 3).terms == {m: Fraction(3)}


def test_monomial_json_roundtrip():
    m = NormalMonomial(5, (1, 1, 1), (1, 1, 0, 0))
    assert NormalMonomial.from_json(m.to_json()) == m
    assert m.to_json() == {"N": 5, "d": [1, 1, 1], "k": [1, 1, 0, 0]}


def test_compositions_lexicographic_and_bounded():
    assert list(compositions(2, 2)) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(compositions(3, 0)) == [(0, 0, 0)]
    with pytest.raises(ValueError):
        compositions(2, -1)


# each sweep and the name of the bound it refuses
SWEEPS = {
    lambda b: compositions(2, b): "budget",
    lambda b: configurations(3, b): "max_particles",
    lambda b: affine_configurations(3, b): "max_total",
    lambda b: configurations(3, 1, b): "max_deposit",
}


@pytest.mark.parametrize("budget", [1.5, 2.0, True])
@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_sweeps_refuse_a_non_integer_bound(sweep, budget):
    # the budget 1.5 never ran out: the sweep never ended; next() reads one item at most.
    # The last sweep bounds the deposit, which is no budget of compositions
    with pytest.raises(ValueError, match=rf"^{SWEEPS[sweep]} {re.escape(repr(budget))} is not an integer$"):
        next(sweep(budget))


def test_compositions_match_brute_force_and_take_many_parts():
    for parts in range(6):
        for budget in range(6):
            want = [t for t in product(range(budget + 1), repeat=parts) if sum(t) <= budget]
            assert list(compositions(parts, budget)) == want, (parts, budget)
    # no recursion per part, so more parts than the recursion limit allows frames
    assert sum(1 for _ in compositions(5000, 1)) == 5001


def test_multidegrees_up_to_ordering():
    ds = multidegrees_up_to(3, 2)
    totals = [d.total() for d in ds]
    assert totals == sorted(totals)
    assert len(ds) == len(set(ds)) == 6


def test_multidegrees_up_to_are_by_total_then_lex():
    # sorting the lexicographic odometer by total alone keeps lex order within each total
    bounds = [(n, top) for n in range(3, 8) for top in range(7)] + [(5, 10)]
    for n, top in bounds:
        want = sorted(compositions(n - 1, top), key=lambda c: (sum(c), c))
        assert [d.counts for d in multidegrees_up_to(n, top)] == want, (n, top)
    assert len(want) == 1_001
