"""Desk-scale checks for the affine variant.

Generators a_0, ..., a_{N-1} have indices read modulo N and act on particle
configurations on a circle with N positions; a_0 moves a particle from
position N back to position 1 and bumps a wraparound marker exponent t.

A word with label (output I, minimal input J, wraparound count t0) maps
every c >= J to c - J + I, with t + t0, and annihilates every other c.  So two
words act differently on some configuration with at most P particles exactly
when their labels differ and min(|J_lhs|, |J_rhs|) <= P.  Every instance of
the relation families has equal labels, so each holds at every particle count.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .core import check_rank, compositions
from .particles import ANNIHILATED, _moved, _prepend_letters

Pair = tuple[tuple[int, ...], tuple[int, ...]]  # (lhs, rhs) letters of one relation instance


@dataclass(frozen=True, order=True, slots=True)
class AffineWord:
    """Word in the cyclic generators, letters in 0..N-1."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_rank(self.n)
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if letters and (min(letters) < 0 or max(letters) > self.n - 1):
            a = next(a for a in letters if not 0 <= a <= self.n - 1)
            raise ValueError(f"letter {a} out of range 0..{self.n - 1}")

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.letters)


@dataclass(frozen=True, order=True, slots=True)
class AffineConfiguration:
    """Counts (k_1, ..., k_N) on the circle plus the wraparound exponent t."""

    n: int
    occ: tuple[int, ...]
    t: int = 0

    def __post_init__(self) -> None:
        check_rank(self.n)
        object.__setattr__(self, "occ", tuple(self.occ))
        if len(self.occ) != self.n:
            raise ValueError(f"rank {self.n} needs {self.n} counts")
        if any(c < 0 for c in self.occ) or self.t < 0:
            raise ValueError("counts and the wraparound exponent must be nonnegative")

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.occ) + f" t={self.t}"


def affine_act_word(w: AffineWord, c: AffineConfiguration):
    """Apply a word, rightmost letter first; annihilation absorbs."""
    if w.n != c.n:
        raise ValueError("rank mismatch")
    occ = _moved(c.occ, w.letters)  # index -1 is position N, so a_0 moves N -> 1
    return ANNIHILATED if occ is None else AffineConfiguration(c.n, occ, c.t + w.letters.count(0))


def _label(n: int, letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(output, minimal input, wraparound count t0) of the word ``letters`` of rank n.

    The line's label, :func:`partic.particles._prepend_letters` on an empty
    one, whose index -1 is position N as in :func:`affine_act_word`; t0 is
    the number of a_0 letters.
    """
    out, inp = [0] * n, [0] * n
    _prepend_letters(out, inp, letters)
    return tuple(out), tuple(inp), letters.count(0)


def affine_word_label(w: AffineWord) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(output, minimal input, wraparound count t0) of an affine word.

    The line's :func:`partic.particles.word_label`, whose index -1 is position
    N as in :func:`affine_act_word`; t0 is the number of a_0 letters.
    """
    return _label(w.n, w.letters)


def affine_configurations(n: int, max_total: int) -> Iterator[AffineConfiguration]:
    """All t = 0 configurations with at most ``max_total`` particles, lexicographic."""
    check_rank(n)
    for body in compositions(n, max_total):
        yield AffineConfiguration(n, body, 0)


def affine_relation_instances(n: int, m_max: int, k_max: int) -> list[tuple[AffineWord, AffineWord]]:
    """Concrete instances of the cyclic relation families, as :func:`_relation_pairs` yields them."""
    return [(AffineWord(n, lhs), AffineWord(n, rhs)) for lhs, rhs in _relation_pairs(n, m_max, k_max)]


def _relation_pairs(n: int, m_max: int, k_max: int) -> Iterator[Pair]:
    """The distinct (lhs, rhs) letter pairs of the cyclic relation families, first occurrences in order.

    Emitted groups, all indices modulo N: distant commutation, the two
    three-letter bump rules, the four-letter exchange rule, and the two
    parametrized families with outer exponents m, m' <= m_max and a full
    cyclic middle block a_{i+1}^{k_{i+1}} ... a_{i-2}^{k_{i-2}} with every
    k_j <= k_max.  Degenerate parameter choices are kept.

    The exchange rule needs the outer neighbours i-1 and i+1 of its pivot to
    commute; on a circle with only 3 positions they are adjacent and the rule
    fails on the module (witness: a_0 a_2 a_1 a_0 vs a_1 a_0 a_2 a_0 on one
    particle at position 3), so that family is emitted for N >= 4 only.

    The pairs come lazily from :func:`_pair_stream`.
    """
    check_rank(n)
    if m_max < 0 or k_max < 0:  # raised here, not at the first next()
        raise ValueError("bounds must be nonnegative")
    return _pair_stream(n, m_max, k_max)


def _pair_stream(n: int, m_max: int, k_max: int) -> Iterator[Pair]:
    # distant commutation: a_i a_j = a_j a_i for i - j != +-1 mod N.  These pairs are
    # distinct, and no later pair repeats one: later pairs have 3 or more letters, or
    # (in the parametrized families) 2 or fewer and equal sides
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % n not in (1, n - 1):
                yield (i, j), (j, i)
    seen: set[Pair] = set()
    for pair in _repeating_pairs(n, m_max, k_max):
        if pair not in seen:
            seen.add(pair)
            yield pair


def _repeating_pairs(n: int, m_max: int, k_max: int) -> Iterator[Pair]:
    # a_i a_{i-1} a_i = a_i a_i a_{i-1}
    for i in range(n):
        im1 = (i - 1) % n
        yield (i, im1, i), (i, i, im1)
    # a_i a_{i+1} a_i = a_{i+1} a_i a_i
    for i in range(n):
        ip1 = (i + 1) % n
        yield (i, ip1, i), (ip1, i, i)
    # a_i a_{i-1} a_{i+1} a_i = a_{i+1} a_i a_{i-1} a_i; needs a_{i-1}, a_{i+1}
    # non-adjacent, which fails on a 3-cycle
    if n >= 4:
        for i in range(n):
            im1, ip1 = (i - 1) % n, (i + 1) % n
            yield (i, im1, ip1, i), (ip1, i, im1, i)
    # the two parametrized families
    for i in range(n):
        im1 = (i - 1) % n
        middle_positions = [(i + s) % n for s in range(1, n - 1)]
        mids = [
            tuple(p for p, e in zip(middle_positions, ks) for _ in range(e))
            for ks in product(range(k_max + 1), repeat=n - 2)
        ]
        for m in range(m_max + 1):
            head, tail = (i,) * m, (im1,) * m
            for mp in range(m_max + 1):
                for mid in mids:
                    yield (im1,) * mp + head + mid + tail, head + (im1,) * mp + mid + tail
                    yield head + mid + tail + (i,) * mp, head + mid + (i,) * mp + tail


def find_relation_counterexample(lhs: AffineWord, rhs: AffineWord, max_particles: int):
    """First t = 0 configuration (total <= bound) where the two words act differently."""
    if lhs.n != rhs.n:
        raise ValueError("rank mismatch")
    for c in affine_configurations(lhs.n, max_particles):
        a = affine_act_word(lhs, c)
        b = affine_act_word(rhs, c)
        if a != b:
            return c
    return None


def first_failing_instance(instances: list[tuple[AffineWord, AffineWord]], max_particles: int):
    """First (lhs, rhs, witness) among the instances whose words act differently, or None.

    Decided from labels by :func:`_first_failure`, one instance at a time as
    each word carries its own rank.
    """
    if max_particles < 0:
        raise ValueError(f"bound must be nonnegative, got {max_particles}")
    for lhs, rhs in instances:
        if lhs.n != rhs.n:
            raise ValueError("rank mismatch")
        failure = _first_failure(lhs.n, [(lhs.letters, rhs.letters)], max_particles)[1]
        if failure is not None:
            return failure
    return None


def _first_failure(n: int, pairs: Iterable[Pair], max_particles: int):
    """(pairs read, first (lhs, rhs, witness) whose words act differently or None).

    Each pair is decided from the labels of its letters; words are built only
    for the first failing pair, whose witness, the lexicographically first,
    comes from the sweep :func:`find_relation_counterexample`.
    """
    if max_particles < 0:
        raise ValueError(f"bound must be nonnegative, got {max_particles}")
    count = 0
    for lhs, rhs in pairs:
        count += 1
        if lhs == rhs:  # degenerate parameters: one word on both sides
            continue
        label, other = _label(n, lhs), _label(n, rhs)
        if label == other or min(sum(label[1]), sum(other[1])) > max_particles:
            continue
        lhs, rhs = AffineWord(n, lhs), AffineWord(n, rhs)
        witness = find_relation_counterexample(lhs, rhs, max_particles)
        if witness is None:  # then _label itself is wrong
            raise ValueError(
                f"[{lhs}] vs [{rhs}]: labels {label}, {other} differ, yet act alike "
                f"on every configuration with <= {max_particles} particles"
            )
        return count, (lhs, rhs, witness)
    return count, None
