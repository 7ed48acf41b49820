"""The bosonic particle-configuration module and its monomial labelling.

A configuration holds particle counts at the line positions 1..N-1 plus a
deposit (position 0) which is written LAST, both in tuples and in the text
format: ``"3,0,0,1,0,1,2,0,1"`` at N = 9 has one particle in the deposit.
The generator a_i moves one particle from position i to position i+1, where
"position N" means the deposit; with no particle at i the result is
annihilated.

Action order: a word acts with its RIGHTMOST letter first, i.e. the word
(6, 5, 4) is the operator composition a6 after a5 after a4, so a4 moves
first.  Using the opposite order silently breaks every worked example in
the tests, so it is pinned there.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from .core import (
    MultiDegree,
    NormalMonomial,
    Word,
    _check_bound,
    _check_gen,
    _refuse_assignment,
    _refuse_deletion,
    check_rank,
    compositions,
    parse_ints,
)


class _AnnihilatedType:
    """Marker for a generator move with no particle to move.

    Distinct from every configuration, so single-configuration operations
    stay total; a linear extension maps it to zero.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "ANNIHILATED"


ANNIHILATED = _AnnihilatedType()


@dataclass(frozen=True, order=True, slots=True)
class Configuration:
    """Particle counts (k_1, ..., k_{N-1}, k_0), deposit last."""

    n: int
    occ: tuple[int, ...]

    def __post_init__(self) -> None:
        check_rank(self.n)
        object.__setattr__(self, "occ", tuple(self.occ))
        if len(self.occ) != self.n:
            raise ValueError(f"rank {self.n} needs {self.n} counts (deposit last)")
        if any(type(c) is not int for c in self.occ):
            raise ValueError(f"particle counts must be integers, got {self}")
        if any(c < 0 for c in self.occ):
            raise ValueError("particle counts must be nonnegative")

    @property
    def deposit(self) -> int:
        return self.occ[-1]

    @staticmethod
    def parse(n: int, text: str) -> Configuration:
        return Configuration(n, parse_ints(text))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.occ)


def act_gen(i: int, c: Configuration):
    """a_i applied to a configuration: move one particle i -> i+1, or annihilate."""
    _check_gen(i, c.n)
    return act_word(Word(c.n, (i,)), c)


def _moved(occ: tuple[int, ...], letters: tuple[int, ...]) -> tuple[int, ...] | None:
    """Counts after each letter moves one particle, rightmost first; None if one finds none.

    Letter a takes from index a-1 and gives to index a.  On the line the
    deposit sits right after position N-1; on the circle of
    :mod:`partic.affine` index -1 is position N, so a_0 moves N -> 1.
    """
    occ = list(occ)
    for a in reversed(letters):
        if occ[a - 1] == 0:
            return None
        occ[a - 1] -= 1
        occ[a] += 1
    return tuple(occ)


def act_word(w: Word, c: Configuration):
    """Apply a word, rightmost letter first; annihilation absorbs."""
    if w.n != c.n:
        raise ValueError("rank mismatch")
    occ = _moved(c.occ, w.letters)
    return ANNIHILATED if occ is None else Configuration(c.n, occ)


def _prepend_letters(out: list[int], inp: list[int], letters: tuple[int, ...]) -> None:
    """Turn the label (out, inp) of a word u into that of (letters) u, in place.

    Letters are prepended rightmost first.  Indices follow :func:`act_word`:
    index i-1 is position i and index i the spot after it, which for
    i = N-1 is the deposit.
    """
    for i in reversed(letters):
        if out[i - 1]:
            out[i - 1] -= 1  # the output particle at i moves on
        else:
            inp[i - 1] += 1  # a new particle starts at i
        out[i] += 1


def _append_letters(out: list[int], inp: list[int], letters: tuple[int, ...]) -> None:
    """Turn the label (out, inp) of a word u into that of u (letters), in place.

    The mirror of :func:`_prepend_letters`, with its indices: letters are
    appended leftmost first, and each acts before the word it is appended to.
    """
    for i in letters:
        inp[i - 1] += 1  # a new particle starts at i
        if inp[i]:
            inp[i] -= 1  # and is the input particle the word needed after i
        else:
            out[i] += 1  # and runs on to the output


def word_label(w: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(output, minimal input) counts of a word, deposit last, found in one pass.

    Letters act rightmost first, as in :func:`act_word`; wherever a letter
    finds its position empty, one particle is added to the input there.  The
    word maps every configuration c >= input (componentwise) to
    c - input + output and annihilates every other one, so two words act
    alike on every configuration exactly when their labels are equal.  The
    input's deposit is always 0 and the output's position 1 always empty:
    ``IoLabel(Configuration(n, out), Configuration(n, inp))`` accepts it.
    """
    return _letters_label(w.n, w.letters)


def _letters_label(n: int, letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`word_label` of the letters at rank n, unvalidated: :func:`_prepend_letters` from the empty label."""
    out = [0] * n
    inp = [0] * n
    _prepend_letters(out, inp, letters)
    return tuple(out), tuple(inp)


def _io_counts(d: tuple[int, ...], k: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The counts of ``(output_of(m), min_input(m))`` for m = (d, k), without building configurations.

    Position 1 empties, position i receives k_{i-1} + d_{i-1} - d_i, and the
    deposit receives k_{N-1} + d_{N-1}; the input is k with an empty deposit.
    """
    dd = (0,) + d  # dd[i - 1] is d_i, with d_1 = 0
    line = [ki + up - down for ki, up, down in zip(k, dd, dd[1:])]  # positions 2..N-1
    return (0, *line, k[-1] + dd[-1]), k + (0,)


def min_input(m: NormalMonomial) -> Configuration:
    """Smallest configuration the monomial does not annihilate: (k_1, ..., k_{N-1}, 0).

    The monomial acts without annihilating on c exactly when c has at least
    k_i particles at every line position i; the deposit is unconstrained.
    """
    return Configuration(m.n, _io_counts(m.d, m.k)[1])


def output_of(m: NormalMonomial) -> Configuration:
    """Image of ``min_input(m)`` under the monomial's action (:func:`_io_counts`)."""
    return Configuration(m.n, _io_counts(m.d, m.k)[0])


@dataclass(frozen=True, order=True, slots=True)
class IoLabel:
    """(output, minimal input) configuration pair; labels a basis monomial uniquely."""

    i_out: Configuration
    j_in: Configuration

    def __post_init__(self) -> None:
        if self.i_out.n != self.j_in.n:
            raise ValueError("label configurations must share the rank")
        if self.j_in.deposit != 0:
            raise ValueError("unrealizable label: input configuration has deposit particles")
        if self.i_out.occ[0] != 0:
            raise ValueError("unrealizable label: output configuration occupies position 1")
        if sum(self.i_out.occ) != sum(self.j_in.occ):
            raise ValueError("unrealizable label: particle counts differ")


# frozen as the core value types are (core._refuse_assignment says why)
for _cls in (Configuration, IoLabel):
    _cls.__setattr__, _cls.__delattr__ = _refuse_assignment, _refuse_deletion


def io_label(m: NormalMonomial) -> IoLabel:
    out, inp = _io_counts(m.d, m.k)
    return IoLabel(Configuration(m.n, out), Configuration(m.n, inp))


def monomial_from_io(label: IoLabel) -> NormalMonomial:
    """Invert :func:`io_label`; raises ValueError on labels no monomial produces."""
    n = label.j_in.n
    k = label.j_in.occ[:-1]
    d: list[int] = []
    prev = 0
    for i in range(2, n):
        di = k[i - 2] + prev - label.i_out.occ[i - 1]
        if di < 0:
            raise ValueError(f"unrealizable label: negative descending exponent at a_{i}")
        d.append(di)
        prev = di
    if label.i_out.deposit != k[-1] + prev:
        raise ValueError("unrealizable label: deposit count mismatch")
    return NormalMonomial(n, tuple(d), k)


def label_mul(label: IoLabel, i: int, side: str) -> IoLabel:
    """Multiply the labelled monomial by a_i on the given side, on labels only.

    Indices follow :func:`act_word`: index i-1 is position i and index i the
    spot after it, which for i = N-1 is the deposit.  Agrees with multiplying
    the underlying monomial and relabelling.
    """
    n = label.j_in.n
    _check_gen(i, n)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    out, inp = list(label.i_out.occ), list(label.j_in.occ)
    if side == "left":
        _prepend_letters(out, inp, (i,))
    else:
        _append_letters(out, inp, (i,))
    return IoLabel(Configuration(n, tuple(out)), Configuration(n, tuple(inp)))


def faithfulness_problem(
    delta: MultiDegree, basis: list[NormalMonomial], labels: list[tuple[tuple[int, ...], tuple[int, ...]]]
) -> str | None:
    """Why the labels of one degree's basis monomials fail faithfulness, or None.

    ``labels`` holds the (output, input) counts of each basis monomial, in
    order, as :func:`word_label` gives them for its expansion.  They must be
    pairwise distinct and each give back ``delta``: a_i moves a particle
    from i to i+1, so the count of a_i is the net number of particles
    leaving positions 1..i.  Labels of two degrees then differ too, so
    faithfulness is decided one degree at a time.
    """
    if len(set(labels)) < len(labels):
        return "two basis monomials share an (input, output) label"
    for m, (out, inp) in zip(basis, labels):
        flow = tuple(accumulate(x - y for x, y in zip(inp[:-1], out[:-1])))
        if flow != delta.counts:
            return f"the label of {m} gives the multidegree {flow}"
    return None


def configurations(n: int, max_particles: int, max_deposit: int | None = None) -> Iterator[Configuration]:
    """All configurations with at most ``max_particles`` on positions 1..N-1.

    The deposit ranges over 0..max_deposit (default: max_particles).
    Deterministic lexicographic order.  A negative bound raises ValueError,
    as a sweep over no configuration would pass having examined nothing; so
    does a bound that is not an int (a bool included).
    """
    check_rank(n)
    bodies = compositions(n - 1, max_particles, "max_particles")
    max_deposit = max_particles if max_deposit is None else _check_bound(max_deposit, "max_deposit")
    for body in bodies:
        for dep in range(max_deposit + 1):
            yield Configuration(n, body + (dep,))
