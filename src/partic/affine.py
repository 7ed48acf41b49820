"""Desk-scale checks for the affine variant.

Generators a_0, ..., a_{N-1} have indices read modulo N and act on particle
configurations on a circle with N positions; a_0 moves a particle from
position N back to position 1 and bumps a wraparound marker exponent t.

A word with label (output I, minimal input J, wraparound count t0) maps
every c >= J to c - J + I, with t + t0, and annihilates every other c.  So two
words act differently on some configuration with at most P particles exactly
when their labels differ and min(|J_lhs|, |J_rhs|) <= P.  Every instance of
the relation families has equal labels, so each holds at every particle count.

The instances come from one stream, :func:`_relation_stream`, which yields
each distinct one whose two sides differ once, in order.  The two sides of a
parametrized instance share a suffix (first family) or a prefix (second
family); the stream folds that part once per pivot, outer exponent and middle
block, and each side then folds only its own letters, with
:func:`partic.particles._prepend_letters` before the suffix or
:func:`partic.particles._append_letters` after the prefix.  The fixed rules
are labelled by :func:`_label`, the reference, so every item carries the
labels it is decided by.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator

from .core import _check_bound, _refuse_assignment, _refuse_deletion, check_rank, compositions
from .particles import ANNIHILATED, _append_letters, _letters_label, _moved, _prepend_letters

Label = tuple[tuple[int, ...], tuple[int, ...], int]  # (output, minimal input, wraparound count)
# (lhs, rhs) letters of one relation instance, two different words, and the labels of both sides
Item = tuple[tuple[int, ...], tuple[int, ...], tuple[Label, Label]]


@dataclass(frozen=True, order=True, slots=True)
class AffineWord:
    """Word in the cyclic generators, letters in 0..N-1."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_rank(self.n)
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for a in letters:  # the first offending letter is named
            if type(a) is not int:  # bools too: True would index as a_1
                raise ValueError(f"letter {a!r} is not an integer")
            if not 0 <= a <= self.n - 1:
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
        if any(type(c) is not int for c in self.occ) or type(self.t) is not int:
            raise ValueError(f"counts and the wraparound exponent must be integers, got {self}")
        if any(c < 0 for c in self.occ) or self.t < 0:
            raise ValueError("counts and the wraparound exponent must be nonnegative")

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.occ) + f" t={self.t}"


# frozen as the core value types are (core._refuse_assignment says why)
for _cls in (AffineWord, AffineConfiguration):
    _cls.__setattr__, _cls.__delattr__ = _refuse_assignment, _refuse_deletion


def affine_act_word(w: AffineWord, c: AffineConfiguration):
    """Apply a word, rightmost letter first; annihilation absorbs."""
    if w.n != c.n:
        raise ValueError("rank mismatch")
    occ = _moved(c.occ, w.letters)  # index -1 is position N, so a_0 moves N -> 1
    return ANNIHILATED if occ is None else AffineConfiguration(c.n, occ, c.t + w.letters.count(0))


def _label(n: int, letters: tuple[int, ...]) -> Label:
    """(output, minimal input, wraparound count t0) of the word ``letters`` of rank n.

    The line's label, :func:`partic.particles._letters_label`, whose index -1 is
    position N as in :func:`affine_act_word`; t0 is the number of a_0 letters.
    """
    return (*_letters_label(n, letters), letters.count(0))


def affine_configurations(n: int, max_total: int) -> Iterator[AffineConfiguration]:
    """All t = 0 configurations with at most ``max_total`` particles, lexicographic."""
    check_rank(n)
    for body in compositions(n, max_total, "max_total"):
        yield AffineConfiguration(n, body, 0)


def affine_relation_instances(n: int, m_max: int, k_max: int) -> list[tuple[AffineWord, AffineWord]]:
    """Concrete instances of the cyclic relation families, as :func:`_relation_stream` yields them."""
    return [(AffineWord(n, lhs), AffineWord(n, rhs)) for lhs, rhs, _ in _relation_stream(n, m_max, k_max)]


def _relation_stream(n: int, m_max: int, k_max: int) -> Iterator[Item]:
    """The distinct (lhs, rhs, labels) of the cyclic relation families with lhs != rhs, in order.

    Emitted groups, all indices modulo N: distant commutation, the two
    three-letter bump rules, the four-letter exchange rule, and the two
    parametrized families with outer exponents 1 <= m, m' <= m_max and a
    full cyclic middle block a_{i+1}^{k_{i+1}} ... a_{i-2}^{k_{i-2}} with
    every k_j <= k_max.  The parameter choices m = 0 or m' = 0 put one word
    on both sides, so they state nothing and are not emitted.  The count is

        N(N-3)/2 + 2N + [N >= 4] N + 2 (N m_max^2 (k_max+1)^(N-2) - [m_max >= 1] N):

    the commutation pairs, the bump rules, the exchange rule, and per family
    every pivot, m, m' and middle block but the bump rules' m = m' = 1 with
    the empty middle block.

    The exchange rule needs the outer neighbours i-1 and i+1 of its pivot to
    commute; on a circle with only 3 positions they are adjacent and the rule
    fails on the module (witness: a_0 a_2 a_1 a_0 vs a_1 a_0 a_2 a_0 on one
    particle at position 3), so that family is emitted for N >= 4 only.

    ``labels`` is the pair of :func:`_label` values of the two sides.  The
    items come lazily from :func:`_pair_stream`.
    """
    check_rank(n)
    _check_bound(m_max, "m_max")  # raised here, not at the first next()
    _check_bound(k_max, "k_max")
    return _pair_stream(n, m_max, k_max)


def _pair_stream(n: int, m_max: int, k_max: int) -> Iterator[Item]:
    # distant commutation: a_i a_j = a_j a_i for i - j != +-1 mod N.  These pairs
    # and the bump and exchange rules below are distinct: the length and the first
    # two letters of the left side tell each from the others
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % n not in (1, n - 1):
                yield _fixed(n, (i, j), (j, i))
    # a_i a_{i-1} a_i = a_i a_i a_{i-1}
    for i in range(n):
        im1 = (i - 1) % n
        yield _fixed(n, (i, im1, i), (i, i, im1))
    # a_i a_{i+1} a_i = a_{i+1} a_i a_i
    for i in range(n):
        ip1 = (i + 1) % n
        yield _fixed(n, (i, ip1, i), (ip1, i, i))
    # a_i a_{i-1} a_{i+1} a_i = a_{i+1} a_i a_{i-1} a_i; needs a_{i-1}, a_{i+1}
    # non-adjacent, which fails on a 3-cycle
    if n >= 4:
        for i in range(n):
            im1, ip1 = (i - 1) % n, (i + 1) % n
            yield _fixed(n, (i, im1, ip1, i), (ip1, i, im1, i))
    # The two parametrized families at pivot i, with head = a_i^m, tail = a_{i-1}^m
    # and a middle block mid in the letters i+1, ..., i-2:
    #   family 1: a_{i-1}^{m'} head mid tail = head a_{i-1}^{m'} mid tail
    #   family 2: head mid tail a_i^{m'} = head mid a_i^{m'} tail
    # m and m' run over 1..m_max: with m = 0 or m' = 0 both sides are one word.
    # No pair is hashed: an instance with m, m' >= 1 repeats an earlier pair
    # only at m = m' = 1 with mid empty, which is skipped.  For such an instance
    # - family 1's sides start with a_{i-1} and a_i, family 2's both with a_i,
    #   so the first letters fix the family and the pivot;
    # - the left side then fixes (m, m', mid), read run by run, as mid holds
    #   neither a_{i-1} nor a_i;
    # - a side has 2m + m' + |mid| >= 3 letters, so it is no commutation pair;
    #   3 letters means m = m' = 1 with mid empty, a bump rule (family 1 at i is
    #   the second one at i-1, family 2 the first one at i); and the exchange
    #   rule's left side starts a_{i-1} a_{i-2}, family 1's a_{i-1} a_{i-1} or
    #   a_{i-1} a_i.
    # The two sides of family 1 share the suffix mid tail and those of family 2
    # the prefix head mid.  Each is folded once per (i, m, mid); each side then
    # copies it and folds only its own letters: family 1 prepends, family 2
    # appends.
    for i in range(n):
        im1 = (i - 1) % n
        middle_positions = [(i + s) % n for s in range(1, n - 1)]
        mids = [
            tuple(p for p, e in zip(middle_positions, ks) for _ in range(e))
            for ks in product(range(k_max + 1), repeat=n - 2)
        ]
        for m in range(1, m_max + 1):
            head, tail = (i,) * m, (im1,) * m
            suffixes = [_shared(n, mid + tail) for mid in mids]
            prefixes = [_shared(n, head + mid) for mid in mids]
            for mp in range(1, m_max + 1):
                left, right = (im1,) * mp + head, head + (im1,) * mp
                end_l, end_r = tail + (i,) * mp, (i,) * mp + tail
                left_t0, end_t0 = left.count(0), end_l.count(0)
                skip = 1 if m == mp == 1 else 0  # the bump rules, at the empty mid, first in mids
                shared = islice(zip(suffixes, prefixes), skip, None)
                for (suffix, s_out, s_inp, s_t0), (prefix, p_out, p_inp, p_t0) in shared:
                    t0 = s_t0 + left_t0
                    out, inp, out2, inp2 = list(s_out), list(s_inp), list(s_out), list(s_inp)
                    _prepend_letters(out, inp, left)
                    _prepend_letters(out2, inp2, right)
                    yield left + suffix, right + suffix, (
                        (tuple(out), tuple(inp), t0),
                        (tuple(out2), tuple(inp2), t0),
                    )
                    t0 = p_t0 + end_t0
                    out, inp, out2, inp2 = list(p_out), list(p_inp), list(p_out), list(p_inp)
                    _append_letters(out, inp, end_l)
                    _append_letters(out2, inp2, end_r)
                    yield prefix + end_l, prefix + end_r, (
                        (tuple(out), tuple(inp), t0),
                        (tuple(out2), tuple(inp2), t0),
                    )


def _fixed(n: int, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> Item:
    """A fixed rule's item, each side labelled by :func:`_label`."""
    return lhs, rhs, (_label(n, lhs), _label(n, rhs))


def _shared(n: int, letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """``letters`` with its :func:`_label`, to be copied and folded further."""
    return letters, *_label(n, letters)


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


def _first_failure(n: int, items: Iterable[Item], max_particles: int):
    """(items read, first (lhs, rhs, witness) whose words act differently or None).

    Each item is decided from the labels it carries, as :func:`_relation_stream`
    gives them, so an item without them raises.  Words are built only for the
    first failing pair, whose witness, the lexicographically first, comes from
    the sweep :func:`find_relation_counterexample`.
    """
    _check_bound(max_particles, "max_particles")
    count = 0
    for lhs, rhs, labels in items:
        count += 1
        label, other = labels
        if label == other or min(sum(label[1]), sum(other[1])) > max_particles:
            continue
        lhs, rhs = AffineWord(n, lhs), AffineWord(n, rhs)
        witness = find_relation_counterexample(lhs, rhs, max_particles)
        if witness is None:  # then a label is wrong
            raise ValueError(
                f"[{lhs}] vs [{rhs}]: labels {label}, {other} differ, yet act alike "
                f"on every configuration with <= {max_particles} particles"
            )
        return count, (lhs, rhs, witness)
    return count, None
