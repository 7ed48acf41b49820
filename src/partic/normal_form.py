"""Normalization of words to basis monomials, and exact products.

The whole engine is the pair of single-generator multiplication rules below;
normalization and monomial products are folds of them.  Soundness and
completeness against the rewriting oracle are certified by the test suite
and the ``verify`` CLI subcommand.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import product
from operator import sub

from .core import AlgebraElement, MultiDegree, NormalMonomial, Word, _check_gen, nm_to_word


def _left_mul(d: list[int], k: list[int], letters: tuple[int, ...]) -> None:
    """a_i * m for each letter i in turn, on m's exponent lists, in place (the rule of :func:`left_mul_gen`).

    The letters are multiplied in the order given, each on the left: (a, b)
    gives a_b a_a m.
    """
    for i in letters:
        if i == 1 or d[i - 2] == (d[i - 3] if i > 2 else 0) + k[i - 2]:
            k[i - 1] += 1
        else:
            d[i - 2] += 1


def _right_mul(d: list[int], k: list[int], letters: tuple[int, ...]) -> None:
    """m * a_i for each letter i in turn, on m's exponent lists, in place (the rule of :func:`right_mul_gen`).

    The letters are multiplied in the order given, each on the right: (a, b)
    gives m a_a a_b.
    """
    top = len(k)
    for i in letters:
        if i < top and k[i] >= 1:
            d[i - 1] += 1
            k[i - 1] += 1
            k[i] -= 1
        else:
            k[i - 1] += 1


Exponents = tuple[tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=1 << 12)
def _monomial(n: int, d: tuple[int, ...], k: tuple[int, ...]) -> NormalMonomial:
    """``NormalMonomial(n, d, k)``, validated once per distinct (n, d, k) while it stays in the table.

    Every kernel constructor below goes through this table, so a run that
    meets a few distinct forms many times (the normal forms of all words of
    a degree) validates each once.  The table is bounded, so a long run
    evicts old forms and revalidates them if they come back.  A key that
    fails validation raises and is not stored, and the value depends on the
    key alone: a faulty rule yields a different key, never a stale monomial.
    """
    return NormalMonomial(n, d, k)


def _step(rule: Callable[[list[int], list[int], tuple[int, ...]], None], m: Exponents, i: int) -> Exponents:
    """One rule (:func:`_left_mul` or :func:`_right_mul`) with the one letter a_i on the exponents (d, k), copied."""
    d, k = list(m[0]), list(m[1])
    rule(d, k, (i,))
    return tuple(d), tuple(k)


def left_mul_gen(i: int, m: NormalMonomial) -> NormalMonomial:
    """a_i * m, again in normal form.

    If the descending side is saturated (d_i = d_{i-1} + k_{i-1}, with
    d_1 = 0) the new letter passes through and k_i grows; otherwise it stays
    on the descending side and d_i grows.  For i = 1 the first branch always
    applies since there is no d_1 slot.
    """
    _check_gen(i, m.n)
    return _monomial(m.n, *_step(_left_mul, (m.d, m.k), i))


def right_mul_gen(m: NormalMonomial, i: int) -> NormalMonomial:
    """m * a_i, again in normal form.

    A pending ascending factor a_{i+1} absorbs the new letter into the
    descending side (d_{i+1} += 1, k_i += 1, k_{i+1} -= 1); with no such
    factor (k_{i+1} = 0, or i = N-1) the letter simply lands on k_i.
    """
    _check_gen(i, m.n)
    return _monomial(m.n, *_step(_right_mul, (m.d, m.k), i))


def normalize(w: Word) -> NormalMonomial:
    """Normal form of a word: fold right multiplications left to right.

    The fold runs on exponent lists (a word's letters are already in range)
    and takes one monomial from the table of :func:`_monomial` at the end.
    """
    d, k = [0] * (w.n - 2), [0] * (w.n - 1)
    _right_mul(d, k, w.letters)
    return _monomial(w.n, tuple(d), tuple(k))


def normalize_right_to_left(w: Word) -> NormalMonomial:
    """Cross-check fold: left multiplications applied right to left.

    Must agree with :func:`normalize` on every word.
    """
    d, k = [0] * (w.n - 2), [0] * (w.n - 1)
    _left_mul(d, k, w.letters[::-1])
    return _monomial(w.n, tuple(d), tuple(k))


def gen_monomial(n: int, i: int) -> NormalMonomial:
    """The generator a_i as a basis monomial (k_i = 1, all else 0)."""
    _check_gen(i, n)
    k = [0] * (n - 1)
    k[i - 1] = 1
    return _monomial(n, (0,) * (n - 2), tuple(k))


def gen_element(n: int, i: int) -> AlgebraElement:
    return AlgebraElement.from_monomial(gen_monomial(n, i))


def nm_product(m1: NormalMonomial, m2: NormalMonomial) -> NormalMonomial:
    """Product of two basis monomials (always again a basis monomial)."""
    if m1.n != m2.n:
        raise ValueError("rank mismatch")
    d, k = list(m1.d), list(m1.k)
    _right_mul(d, k, nm_to_word(m2).letters)
    return _monomial(m1.n, tuple(d), tuple(k))


def element_product(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Bilinear product; may vanish on nonzero inputs (zero divisors exist)."""
    if e1.n != e2.n:
        raise ValueError("rank mismatch")
    terms = [(nm_product(m1, m2), c1 * c2) for m1, c1 in e1.terms.items() for m2, c2 in e2.terms.items()]
    return AlgebraElement(e1.n, terms)


def _basis_exponents(delta: MultiDegree) -> Iterator[Exponents]:
    """The (d, k) exponents of :func:`enumerate_basis`, in its order, built but not validated."""
    n = delta.n
    c = delta.counts
    ranges = [range(min(c[i - 1], c[i - 2]) + 1) for i in range(2, n)]
    for d in product(*ranges):
        yield d, c[:1] + tuple(map(sub, c[1:], d))


def enumerate_basis(delta: MultiDegree) -> list[NormalMonomial]:
    """All basis monomials of one multidegree, ordered lexicographically by (d, k).

    Within a fixed multidegree the saturation bound d_i <= d_{i-1} + k_{i-1}
    becomes d_i <= delta_{i-1} (the right side always sums to delta_{i-1}),
    and d_i <= delta_i keeps k_i nonnegative, so the admissible d-tuples
    form a box and k is determined as delta - d.
    """
    return [_monomial(delta.n, d, k) for d, k in _basis_exponents(delta)]
