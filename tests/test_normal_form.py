from itertools import product

import pytest

from partic.core import (
    AlgebraElement,
    MultiDegree,
    NormalMonomial,
    Word,
    multidegrees_up_to,
    nm_to_word,
)
from partic import normal_form
from partic.normal_form import (
    _monomial,
    _right_mul,
    element_product,
    enumerate_basis,
    gen_element,
    left_mul_gen,
    nm_product,
    normalize,
    normalize_right_to_left,
    right_mul_gen,
)
from partic.rewriting import congruence_partition, partic_rules

from rewriting_reference import multidegree


def nm(n, d, k):
    return NormalMonomial(n, tuple(d), tuple(k))


def all_words(n, max_len):
    for length in range(max_len + 1):
        yield from product(range(1, n), repeat=length)


def test_left_mul_examples():
    # saturated: d_2 = k_1, the letter passes through
    assert left_mul_gen(2, nm(3, (1,), (1, 0))) == nm(3, (1,), (1, 1))
    # unsaturated: d_2 grows
    assert left_mul_gen(2, nm(3, (0,), (1, 0))) == nm(3, (1,), (1, 0))
    # i = 1 always lands on k_1
    assert left_mul_gen(1, NormalMonomial.unit(4)) == nm(4, (0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        left_mul_gen(3, NormalMonomial.unit(3))


def test_right_mul_examples():
    # pending ascending a_2 absorbs the new a_1
    assert right_mul_gen(nm(3, (0,), (0, 1)), 1) == nm(3, (1,), (1, 0))
    # i = N-1 has nothing pending
    assert right_mul_gen(nm(3, (0,), (1, 0)), 2) == nm(3, (0,), (1, 1))
    assert right_mul_gen(NormalMonomial.unit(4), 3) == nm(4, (0, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        right_mul_gen(NormalMonomial.unit(3), 0)


def test_normalize_examples():
    assert normalize(Word(5, (1, 2, 3, 4))) == nm(5, (0, 0, 0), (1, 1, 1, 1))
    assert normalize(Word(5, (4, 3, 2, 1, 2))) == nm(5, (1, 1, 1), (1, 1, 0, 0))
    m = normalize(Word(3, (2, 1, 2, 1)))
    assert m == nm(3, (2,), (2, 0))
    assert m == normalize(Word(3, (2, 2, 1, 1)))


def test_normalize_unit():
    assert normalize(Word(4, ())) == NormalMonomial.unit(4)
    assert normalize_right_to_left(Word(4, ())) == NormalMonomial.unit(4)


def test_fold_directions_agree_exhaustive():
    for n in (3, 4):
        for letters in all_words(n, 6):
            w = Word(n, letters)
            assert normalize(w) == normalize_right_to_left(w)


def test_list_folds_match_validated_folds():
    # normalize and normalize_right_to_left fold on exponent lists and validate
    # once; folding the public rules validates every intermediate monomial
    for n in (3, 4, 5):
        for letters in all_words(n, 6):
            right = left = NormalMonomial.unit(n)
            for a in letters:
                right = right_mul_gen(right, a)
            for a in reversed(letters):
                left = left_mul_gen(a, left)
            w = Word(n, letters)
            assert normalize(w) == right, letters
            assert normalize_right_to_left(w) == left, letters


def test_grading_of_normalize_exhaustive():
    for n in (3, 4):
        for letters in all_words(n, 6):
            w = Word(n, letters)
            assert multidegree(nm_to_word(normalize(w))) == multidegree(w)


def test_normalize_already_normal_words_fixed():
    # expanding any basis monomial and renormalizing is the identity
    for n in (3, 4):
        for delta in multidegrees_up_to(n, 5):
            for m in enumerate_basis(delta):
                assert normalize(nm_to_word(m)) == m


def test_completeness_against_oracle():
    # words are congruent exactly when their normal forms coincide
    for n in (3, 4):
        rs = partic_rules(n)
        for delta in multidegrees_up_to(n, 6):
            seen = {}
            for cls in congruence_partition(delta, rs):
                forms = {normalize(Word(n, letters)) for letters in cls}
                assert len(forms) == 1
                nf = forms.pop()
                assert nf not in seen
                seen[nf] = cls
                assert nm_to_word(nf).letters in cls


def fresh_normalize(n, letters):
    # the right rule one letter at a time, with a monomial built and validated anew
    d, k = [0] * (n - 2), [0] * (n - 1)
    for a in letters:
        _right_mul(d, k, (a,))
    return NormalMonomial(n, tuple(d), tuple(k))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_interned_monomials_equal_fresh_ones(n):
    _monomial.cache_clear()
    for letters in all_words(n, 6):
        w, m = Word(n, letters), fresh_normalize(n, letters)
        assert normalize(w) == normalize_right_to_left(w) == m
        for cut in range(len(letters) + 1):
            u, v = letters[:cut], letters[cut:]
            assert nm_product(fresh_normalize(n, u), fresh_normalize(n, v)) == m
        if len(letters) < 6:
            for a in range(1, n):
                assert left_mul_gen(a, m) == fresh_normalize(n, (a,) + letters)
                assert right_mul_gen(m, a) == fresh_normalize(n, letters + (a,))
    rs = partic_rules(n)  # one rule set, so its levels are built once for every degree
    for delta in multidegrees_up_to(n, 6):
        words = congruence_partition(delta, rs)
        fresh = {fresh_normalize(n, letters) for cls in words for letters in cls}
        assert enumerate_basis(delta) == sorted(fresh)


def test_a_rule_that_breaks_the_condition_raises_on_every_call(monkeypatch):
    def broken(d, k, letters):  # a_i always lands on d_i, so d_2 <= k_1 fails on the word a_2
        for i in letters:
            if i >= 2:
                d[i - 2] += 1
            else:
                k[0] += 1

    _monomial.cache_clear()
    monkeypatch.setattr(normal_form, "_right_mul", broken)
    for _ in range(3):
        with pytest.raises(ValueError, match="normal-form condition"):
            normalize(Word(4, (2,)))
        with pytest.raises(ValueError, match="normal-form condition"):
            right_mul_gen(NormalMonomial.unit(4), 2)
        with pytest.raises(ValueError, match="normal-form condition"):
            nm_product(NormalMonomial.unit(4), nm(4, (0, 0), (0, 1, 0)))
    assert _monomial.cache_info().currsize == 0


def test_the_table_stays_bounded():
    _monomial.cache_clear()
    maxsize = _monomial.cache_info().maxsize
    basis = enumerate_basis(MultiDegree((16, 16, 16, 16)))
    assert len(basis) == 17**3 > maxsize
    assert _monomial.cache_info().currsize <= maxsize
    assert all(m == NormalMonomial(5, m.d, m.k) for m in basis)


def test_nm_product_unit_laws():
    m = nm(4, (1, 1), (2, 0, 1))
    u = NormalMonomial.unit(4)
    assert nm_product(m, u) == m
    assert nm_product(u, m) == m


def test_nm_product_noncommutative_example():
    a1 = nm(3, (0,), (1, 0))
    a2 = nm(3, (0,), (0, 1))
    assert nm_product(a1, a2) == nm(3, (0,), (1, 1))
    assert nm_product(a2, a1) == nm(3, (1,), (1, 0))


def test_nm_product_matches_concatenation():
    for n in (3, 4):
        for l1 in all_words(n, 3):
            m1 = normalize(Word(n, l1))
            for l2 in all_words(n, 3):
                m2 = normalize(Word(n, l2))
                assert nm_product(m1, m2) == normalize(Word(n, l1 + l2))


def test_nm_product_rank_mismatch():
    with pytest.raises(ValueError):
        nm_product(NormalMonomial.unit(3), NormalMonomial.unit(4))


def test_nm_product_associative_small():
    for n in (3, 4):
        monomials = [m for delta in multidegrees_up_to(n, 2) for m in enumerate_basis(delta)]
        for a in monomials:
            for b in monomials:
                ab = nm_product(a, b)
                for c in monomials:
                    assert nm_product(ab, c) == nm_product(a, nm_product(b, c))


def test_zero_divisor_witness():
    # a_2 (a3^5 a2^8 a1^8 a2^3 a3 - a3^5 a2^7 a1^8 a2^4 a3) = 0 at rank 4,
    # although the difference itself is a nonzero combination of two distinct
    # basis monomials
    m1 = nm(4, (8, 5), (8, 3, 1))
    m2 = nm(4, (7, 5), (8, 4, 1))
    assert m1 != m2
    diff = AlgebraElement(4, {m1: 1, m2: -1})
    assert diff != AlgebraElement(4)
    assert element_product(gen_element(4, 2), diff) == AlgebraElement(4)
    # right multiplication does not kill it
    assert element_product(diff, gen_element(4, 2)) != AlgebraElement(4)


def test_element_product_unit_and_distributivity():
    one = AlgebraElement.from_monomial(NormalMonomial.unit(3))
    a = AlgebraElement(3, {nm(3, (0,), (1, 0)): 2, nm(3, (1,), (1, 0)): -1})
    b = AlgebraElement(3, {nm(3, (0,), (0, 1)): 3})
    c = AlgebraElement(3, {nm(3, (0,), (1, 1)): 1, NormalMonomial.unit(3): 5})
    assert element_product(a, one) == a
    assert element_product(one, a) == a
    assert element_product(a + b, c) == element_product(a, c) + element_product(b, c)
    assert element_product(c, a + b) == element_product(c, a) + element_product(c, b)
    # operator sugar delegates to element_product
    assert a * b == element_product(a, b)


def test_enumerate_basis_examples():
    assert enumerate_basis(MultiDegree((1, 1))) == [nm(3, (0,), (1, 1)), nm(3, (1,), (1, 0))]
    assert enumerate_basis(MultiDegree((0, 2))) == [nm(3, (0,), (0, 2))]
    d = MultiDegree((1, 1, 1))
    assert len(enumerate_basis(d)) == len(congruence_partition(d, partic_rules(4)))


def test_enumerate_basis_sorted_unique():
    for n in (3, 4, 5):
        for delta in multidegrees_up_to(n, 4):
            basis = enumerate_basis(delta)
            assert basis == sorted(basis)
            assert len(basis) == len(set(basis))
            for m in basis:
                assert multidegree(nm_to_word(m)) == delta


def test_relation_identities_via_normalize():
    # all defining relations, the power identity, and the descending-run
    # commutation hold as equalities of normal forms
    for n in (3, 4, 5):
        eq = lambda l1, l2: normalize(Word(n, l1)) == normalize(Word(n, l2))
        for i in range(2, n):
            assert eq((i, i - 1, i), (i, i, i - 1))
        for i in range(1, n - 1):
            assert eq((i, i + 1, i), (i + 1, i, i))
        for i in range(1, n):
            for j in range(i + 2, n):
                assert eq((i, j), (j, i))
        for i in range(2, n - 1):
            assert eq((i, i - 1, i + 1, i), (i + 1, i, i - 1, i))
        for i in range(2, n):
            for m in range(4):
                assert eq((i,) * m + (i - 1,) * m, (i, i - 1) * m)
                block = (i,) * m + (i - 1,) * m
                assert eq((i,) + block, block + (i,))
        for i in range(1, n):
            for j in range(1, i + 1):
                run = tuple(range(i, j - 1, -1))
                for k in range(j, i + 1):
                    assert eq(run + (k,), (k,) + run)
