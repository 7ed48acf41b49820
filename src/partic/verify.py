"""Umbrella certification suite behind the ``verify`` CLI subcommand.

Three passes feed the checks.  One goes over multidegrees with their
congruence classes, each built from the classes one letter shorter as blocks
(a shorter class times a last letter, ``rewriting.BlockClasses``), and gives
each block one normal form, one step on its shorter class's form; one goes
over the basis monomials of each multidegree, with the run's labels of them;
one runs once.  Each check
returns the problem it finds on one item, or None.  The report lists checks
by name, so output is reproducible in any execution order.

The passes work on raw values: words are the oracle's integer codes, and
labels and (output, input) pairs are count tuples.  A ``Word``,
``Configuration`` or ``IoLabel`` is built only to confirm and report a
failure, and a message names words as letter tuples, decoded then.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial, prod
from typing import Callable, Iterator

from .center import center_basis_in_degree, theorem_mismatch
from .core import MultiDegree, NormalMonomial, Word, _check_bound, _nm_letters, multidegrees_up_to, nm_to_word
from .normal_form import (
    Exponents,
    _basis_exponents,
    _left_mul,
    _monomial,
    _right_mul,
    _step,
    enumerate_basis,
    normalize,
    normalize_right_to_left,
)
from .particles import Configuration, _letters_label, _prepend_letters, act_word, faithfulness_problem, word_label
from .rewriting import PARTIC, BlockClasses, _decode, _encode, partic_rules


Labels = dict[Exponents, tuple[tuple[int, ...], tuple[int, ...]]]  # {(d, k): word label of its expansion}


@dataclass(frozen=True)
class VerifyConfig:
    n: int
    max_len: int = 6
    max_degree: int | None = None  # set, it turns the center check on
    # read by no check, as no move reads the deposit; its last reader is bench/tracer.py:71 (traced rounds only)
    max_deposit: int = 1

    def __post_init__(self) -> None:
        for name in ("max_len", "max_degree", "max_deposit"):
            if (bound := getattr(self, name)) is not None:
                _check_bound(bound, name)


@dataclass
class VerifyCheck:
    name: str
    params: dict
    passed: bool
    counterexample: str | None
    seconds: float


@dataclass
class VerifyReport:
    checks: list[VerifyCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _degrees(cfg: VerifyConfig) -> Iterator[tuple[MultiDegree, list[dict], BlockClasses]]:
    # one degree at a time, by total, so a first failing word is shortest and the classes one
    # letter shorter are all there.  Only the partic rules: the plactic ones are a subset, so
    # their classes refine these and certify no more
    n = cfg.n
    rs = partic_rules(n)
    bits, letter = rs.bits, (1 << rs.bits) - 1
    # normalize applies _right_mul to the letters in turn, so the form of u a is R_a of the form
    # of u; while normal-form passes, every word of a class has the class's form, so a block
    # (C, a) has the one form R_a(form of C).  Distinct classes then have distinct forms, so
    # each step is taken once, and _monomial validates each distinct form once
    level = BlockClasses(rs)
    forms = [{0: _monomial(n, (0,) * (n - 2), (0,) * (n - 1))}]  # each class of the level as {block: form}
    for delta in multidegrees_up_to(n, cfg.max_len):
        if delta.total() != level.length:  # the form of each class one letter shorter is its seed block's
            prefix = [(m.d, m.k) for m in (next(iter(f.values())) for f in forms)]
            level = BlockClasses(rs, level)
            forms = [
                {b: _monomial(n, *_step(_right_mul, prefix[b >> bits], b & letter)) for b in cls}
                for cls in level.classes
            ]
        yield delta, [forms[j] for j in level.of(delta)], level


def _monomials(cfg: VerifyConfig) -> Iterator[tuple[MultiDegree, list[NormalMonomial], Labels]]:
    # the same degrees as _degrees, by total, so a first failing case has a shortest witness
    # word; a pass of its own, as the checks that read only the basis monomials would
    # otherwise be charged a share of the partitions in --timings
    labels: Labels = {}  # filled by action-factoring and faithfulness, each label computed once
    for delta in multidegrees_up_to(cfg.n, cfg.max_len):
        yield delta, enumerate_basis(delta), labels


def _once(cfg: VerifyConfig) -> Iterator[tuple]:
    yield ()


def _grading(cfg: VerifyConfig, delta: MultiDegree, classes: list[dict], level: BlockClasses) -> str | None:
    # the classes hold every word of delta and every word any rewrite of one of them reaches,
    # each once: so exactly multinomial(delta) words iff no rewrite leaves delta
    size = factorial(delta.total()) // prod(map(factorial, delta.counts))
    if (held := sum(level.size(b) for cls in classes for b in cls)) != size:
        return f"degree ({delta}): its classes hold {held} words, not the {size} of that multidegree"


def _basis_count(cfg: VerifyConfig, delta: MultiDegree, classes: list[dict], level: BlockClasses) -> str | None:
    # the basis is counted unvalidated, as the monomial pass validates each basis monomial
    nc, nb = len(classes), sum(1 for _ in _basis_exponents(delta))
    if nc != nb:
        return f"degree ({delta}): {nc} classes vs {nb} basis monomials"


def _normal_form(cfg: VerifyConfig, delta: MultiDegree, classes: list[dict], level: BlockClasses) -> str | None:
    # forms are compared by their exponents, as the dataclass __hash__ and __eq__ are Python-level
    # calls; within a run a class's forms are nearly always one object, so identity comes first.
    # A class is {block: form}, so a form's expansion is looked up by its block
    seen = {}  # {(d, k): the class with that form}
    for cls in classes:
        forms = iter(cls.values())
        nf = next(forms)
        dk = nf.d, nf.k
        if any(m is not nf and (m.d, m.k) != dk for m in forms):
            return f"class of {_least(level, cls)} has {len({(m.d, m.k) for m in cls.values()})} normal forms"
        if dk in seen:
            return f"classes of {_least(level, cls)} and {_least(level, seen[dk])} share a normal form"
        seen[dk] = cls
        if level.block(_encode(_nm_letters(*dk), level.rs.bits)) not in cls:
            return f"expansion of {nf} leaves the class of {_least(level, cls)}"


def _least(level: BlockClasses, blocks) -> tuple[int, ...]:
    """The lexicographically smallest word of a class given by its blocks, decoded for a message."""
    return min(_decode(c, level.rs.bits) for b in blocks for c in level.words(b))


def _fold_agreement(cfg: VerifyConfig, delta: MultiDegree, basis: list[NormalMonomial], labels: Labels) -> str | None:
    """``normalize == normalize_right_to_left`` on every word of length <= max_len, by induction.

    The folds send a letter a to R_a(1) and L_a(1), and a word a u b, where
    they agree on u at m, to R_b(L_a(m)) and L_a(R_b(m)) (R, L being
    ``_right_mul``, ``_left_mul``).  So the check compares these for every
    basis monomial m of length <= max_len - 2 and all a, b; m is a basis
    monomial as the degree pass validates the right fold of every word.
    The letters are compared at every bound, so no bound examines nothing.
    """
    n = cfg.n
    if not delta.total():
        unit = basis[0].d, basis[0].k
        for a in range(1, n):
            if _step(_right_mul, unit, a) != _step(_left_mul, unit, a):
                return _fold_problem(basis[0], a, None)
    if delta.total() > cfg.max_len - 2:
        return None
    for m in basis:
        dk = m.d, m.k
        right = [_step(_right_mul, dk, b) for b in range(1, n)]
        for a in range(1, n):
            left = _step(_left_mul, dk, a)
            for b in range(1, n):
                if _step(_left_mul, right[b - 1], a) != _step(_right_mul, left, b):
                    return _fold_problem(m, a, b)


def _fold_problem(m: NormalMonomial, a: int, b: int | None) -> str:
    # a local failure, reported on its word once the two folds confirm it
    w = Word(m.n, (a, *nm_to_word(m).letters) + ((b,) if b else ()))
    if normalize(w) != normalize_right_to_left(w):
        return f"folds disagree on {w.letters}"
    rules = f"L_{a} R_{b} and R_{b} L_{a} differ on {m}" if b else f"R_{a} and L_{a} differ on 1"
    return f"{rules}, but the folds agree on {w.letters}"


def _label(labels: Labels, n: int, dk: Exponents) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Store in ``labels`` and return the label of ``dk``: ``word_label``'s fold over its expansion."""
    label = labels[dk] = _letters_label(n, _nm_letters(*dk))
    return label


def _action_factoring(cfg: VerifyConfig, delta: MultiDegree, basis: list[NormalMonomial], labels: Labels) -> str | None:
    """Every word of length <= max_len acts like its normal form, by induction.

    A word acts by its label (``word_label``), and prepending a letter a
    changes the label by ``_prepend_letters((a,))``.  So if word(L_a(m)) has
    the label of word(m) with a prepended, for every basis monomial m of
    length <= max_len - 1 and every a, each word w has the label of the
    expansion of its left fold, ``normalize_right_to_left(w)``.  The check is
    about the left fold: it speaks for ``normalize`` together with
    fold-agreement.  At max_len 0 the words of length 1 are still checked.
    ``labels`` keeps each basis monomial's label once computed (``_label``),
    as a source or as one of up to N-1 targets: ``word_label``'s fold over
    the letters of its expansion, with no ``Word`` built.  Faithfulness
    decides on these same labels, so neither check calls ``_io_counts``;
    tests/action_reference.py sweeps configurations.
    """
    if delta.total() >= max(cfg.max_len, 1):
        return None
    n = cfg.n
    for m in basis:
        source = m.d, m.k
        label = labels.get(source) or _label(labels, n, source)
        for a in range(1, n):
            dk = _step(_left_mul, source, a)
            target = labels.get(dk) or _label(labels, n, dk)
            o, i = map(list, label)
            _prepend_letters(o, i, (a,))
            if target != (tuple(o), tuple(i)):
                return _action_problem(m, a)


def _action_problem(m: NormalMonomial, a: int) -> str:
    # a local failure, reported on its word once act_word confirms it
    w = Word(m.n, (a, *nm_to_word(m).letters))
    nf_word = nm_to_word(normalize_right_to_left(w))
    label, nf_label = word_label(w), word_label(nf_word)
    if label == nf_label:
        return f"the label of L_{a}({m}) is not that of a{a} {m}, but {w.letters} has the label of its normal form"
    # equal inputs: both words act there, with different images; otherwise the word
    # whose input does not dominate the other's annihilates the other's input
    inp, nf_inp = label[1], nf_label[1]
    c = Configuration(m.n, nf_inp if all(x >= y for x, y in zip(inp, nf_inp)) else inp)
    if act_word(w, c) == act_word(nf_word, c):  # then word_label itself is wrong
        return f"word {w.letters}: labels {label}, {nf_label} differ, yet act alike on {c}"
    return f"word {w.letters} and its normal form act differently on {c}"


def _faithfulness(cfg: VerifyConfig, delta: MultiDegree, basis: list[NormalMonomial], labels: Labels) -> str | None:
    # decided on the labels the action gives, those action-factoring checks; it has stored nearly all
    keys = [(m.d, m.k) for m in basis]
    return faithfulness_problem(delta, basis, [labels.get(dk) or _label(labels, cfg.n, dk) for dk in keys])


def _center(cfg: VerifyConfig) -> str | None:
    for delta in multidegrees_up_to(cfg.n, cfg.max_degree):
        problem = theorem_mismatch(delta, center_basis_in_degree(cfg.n, delta))
        if problem is not None:
            return f"degree ({delta}): {problem}"


CENTER = "center-dimensions"

# (name, pass, check, the config fields it reports besides N, max_len and relations),
# sorted by name; the center check runs only with a max_degree
CHECKS: tuple[tuple[str, Callable, Callable, tuple[str, ...]], ...] = (
    ("action-factoring", _monomials, _action_factoring, ()),
    ("basis-count", _degrees, _basis_count, ()),
    (CENTER, _once, _center, ("max_degree",)),
    ("faithfulness", _monomials, _faithfulness, ()),
    ("fold-agreement", _monomials, _fold_agreement, ()),
    ("grading", _degrees, _grading, ()),
    ("normal-form", _degrees, _normal_form, ()),
)


def run_verify(cfg: VerifyConfig) -> VerifyReport:
    base = {"N": cfg.n, "max_len": cfg.max_len, "relations": PARTIC}
    rows = [(VerifyCheck(name, base | {f: getattr(cfg, f) for f in fields}, True, None, 0.0), walk, check)
            for name, walk, check, fields in CHECKS if name != CENTER or cfg.max_degree is not None]
    t0 = time.perf_counter()
    for walk in dict.fromkeys(w for _, w, _ in rows):
        on_pass = [(record, check) for record, w, check in rows if w is walk]
        for item in walk(cfg):
            for record, check in on_pass:
                if record.passed:  # a check stops at its first problem
                    t = time.perf_counter()
                    record.counterexample = check(cfg, *item)
                    record.seconds += time.perf_counter() - t
                    record.passed = record.counterexample is None
            if not any(record.passed for record, _ in on_pass):
                break
        # the pass's shared work (partitions, normal forms, basis monomials) is split equally
        t1 = time.perf_counter()
        shared = (t1 - t0 - sum(record.seconds for record, _ in on_pass)) / len(on_pass)
        for record, _ in on_pass:
            record.seconds += shared
        t0 = t1
    return VerifyReport([record for record, _, _ in rows])
