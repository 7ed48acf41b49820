"""Umbrella certification suite behind the ``verify`` CLI subcommand.

A run lists the multidegrees once, numbers the basis monomials of length
<= max_len once (``_Run``) and keeps, for each, its single steps R_a and
L_a as numbers, its expansion and its fold label, each computed once.  Two
passes read this index.  One goes over multidegrees with their congruence
classes, each built from the classes one letter shorter as blocks (a
shorter class times a last letter, ``rewriting.BlockClasses``, which
applies each rule once per class of a prefix, so a passing run lists no
word; the run's own rule set grows the chain, ``RelationSet.level``), and
gives each block the number of its form, R_a of its shorter class's form,
read from the index; one goes over the numbers of the basis monomials of
each multidegree; one runs once.  Each check returns the problem it finds on
one item, or None.  The report lists checks by name, so output is
reproducible in any execution order.

The passes work on raw values: words are the oracle's integer codes,
basis monomials their numbers, and labels and (output, input) pairs are
count tuples.  A ``Word``, ``Configuration`` or ``IoLabel`` is built only
to confirm and report a failure, and a message names words as letter
tuples, listed from their blocks then.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial, prod
from typing import Callable, Iterator

from .center import center_bases, theorem_mismatch
from .core import MultiDegree, NormalMonomial, Word, _check_bound, _nm_letters, multidegrees_up_to, nm_to_word
from .normal_form import _left_mul, _right_mul, _step, enumerate_basis, normalize, normalize_right_to_left
from .particles import Configuration, _letters_label, _prepend_letters, act_word, faithfulness_problem, word_label
from .rewriting import PARTIC, BlockClasses, _encode, partic_rules


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


OUT = -1  # the number of a product that is no basis monomial of the index


class _Run:
    """One ``run_verify``: the bounds its checks read and its basis index, which walks and checks share.

    The index numbers the basis monomials of length <= ``bound``, which is
    ``max(max_len, 1)`` as action-factoring checks the words of length 1 at
    max_len 0.  Numbers follow ``enumerate_basis`` over ``multidegrees``,
    the run's one list of ``multidegrees_up_to``, so they run by total, and
    ``degrees`` maps a degree's counts to the range of its numbers.
    ``right[m][a]`` and ``left[m][a]`` are the numbers of R_a(m) and
    L_a(m), each one ``_step`` of ``_right_mul`` or ``_left_mul`` (this
    module's names, read when the run starts), for a = 1..N-1; slot 0 is
    unused.  A product that is no basis monomial of the index is ``OUT``,
    and so is every product of a monomial of length ``bound``, which is
    never taken.  The last row, the row of ``OUT``, is all ``OUT``, so a
    product of a product is ``OUT`` once either is.  ``letters[m]`` is the
    expansion of m, ``labels[m]`` its fold label, ``word_label``'s;
    ``labels`` alone holds None at ``OUT``.  Nothing outlives the run.
    """

    def __init__(self, cfg: VerifyConfig) -> None:
        n = self.n = cfg.n
        self.max_len, self.max_degree, self.bound = cfg.max_len, cfg.max_degree, max(cfg.max_len, 1)
        self.degrees: dict[tuple[int, ...], range] = {}
        self.monomials = monomials = []
        short = 0  # the monomials shorter than bound, whose products are taken
        self.multidegrees = multidegrees_up_to(n, self.bound)
        for delta in self.multidegrees:
            basis = enumerate_basis(delta)
            self.degrees[delta.counts] = range(len(monomials), len(monomials) + len(basis))
            monomials += basis
            if delta.total() < self.bound:
                short = len(monomials)
        ids = {(m.d, m.k): i for i, m in enumerate(monomials)}
        shorter = [(m.d, m.k) for m in monomials[:short]]
        out = [(OUT,) * n] * (len(monomials) - short + 1)
        self.right = [(OUT, *[ids.get(_step(_right_mul, dk, a), OUT) for a in range(1, n)]) for dk in shorter] + out
        self.left = [(OUT, *[ids.get(_step(_left_mul, dk, a), OUT) for a in range(1, n)]) for dk in shorter] + out
        self.letters = [_nm_letters(m.d, m.k) for m in monomials]
        self.labels = [_letters_label(n, w) for w in self.letters] + [None]


def _walked(run: _Run) -> Iterator[MultiDegree]:
    """The degrees of total <= max_len, by total: the front of the run's list, which runs to ``bound``."""
    for delta in run.multidegrees:
        if delta.total() > run.max_len:
            return
        yield delta


def _degrees(run: _Run) -> Iterator[tuple[MultiDegree, list[dict], BlockClasses]]:
    # one degree at a time, by total, so a first failing word is shortest and the classes one
    # letter shorter are all there.  Only the partic rules: the plactic ones are a subset, so
    # their classes refine these and certify no more
    rs = partic_rules(run.n)
    right, bits, letter = run.right, rs.bits, (1 << rs.bits) - 1
    # normalize applies _right_mul to the letters in turn, so the form of u a is R_a of the form
    # of u; while normal-form passes, every word of a class has the class's form, so a block
    # (C, a) has the one form R_a(form of C), the index's entry.  A form is the index's
    # number, OUT where the step left the index, and a class's is its seed block's
    level, prefix, forms = rs.level(0), [0], [{0: 0}]  # number 0 is the unit
    for delta in _walked(run):
        if delta.total() != level.length:
            level = rs.level(delta.total())
            steps = [[right[prefix[b >> bits]][b & letter] for b in cls] for cls in level.classes]
            prefix = [ids[0] for ids in steps]
            forms = [dict(zip(cls, ids)) for cls, ids in zip(level.classes, steps)]
        yield delta, [forms[j] for j in level.of(delta)], level


def _monomials(run: _Run) -> Iterator[tuple[MultiDegree, range]]:
    # the same degrees as _degrees, by total, so a first failing case has a shortest witness
    # word; a pass of its own, as the checks that read only the basis index would otherwise
    # be charged a share of the partitions in --timings
    degrees = run.degrees
    for delta in _walked(run):
        yield delta, degrees[delta.counts]


def _once(run: _Run) -> Iterator[tuple]:
    yield ()


def _grading(run: _Run, delta: MultiDegree, classes: list[dict], level: BlockClasses) -> str | None:
    # the classes hold every word of delta and every word any rewrite of one of them reaches,
    # each once: so exactly multinomial(delta) words iff no rewrite leaves delta
    size = factorial(delta.total()) // prod(map(factorial, delta.counts))
    if (held := sum(level.size(b) for cls in classes for b in cls)) != size:
        return f"degree ({delta}): its classes hold {held} words, not the {size} of that multidegree"


def _basis_count(run: _Run, delta: MultiDegree, classes: list[dict], level: BlockClasses) -> str | None:
    nc, nb = len(classes), len(run.degrees[delta.counts])
    if nc != nb:
        return f"degree ({delta}): {nc} classes vs {nb} basis monomials"


def _normal_form(run: _Run, delta: MultiDegree, classes: list[dict], level: BlockClasses) -> str | None:
    # a form is the index's number of a basis monomial, whose expansion the index holds
    seen = {}  # {number: the class with that form}
    for cls in classes:
        forms = iter(cls.values())
        i = next(forms)
        if i == OUT or any(f != i for f in forms):
            return _forms_problem(run, level, cls)
        if i in seen:
            return f"classes of {_least(level, cls)} and {_least(level, seen[i])} share a normal form"
        seen[i] = cls
        if level.block(_encode(run.letters[i], level.bits)) not in cls:
            return f"expansion of {run.monomials[i]} leaves the class of {_least(level, cls)}"


def _forms_problem(run: _Run, level: BlockClasses, cls: dict) -> str:
    """Why a class has no one form: a block whose step left the index, else its distinct forms."""
    least = _least(level, cls)
    off = [b for b, i in cls.items() if i == OUT]
    if not off:
        return f"class of {least} has {len(set(cls.values()))} normal forms"
    # while normal-form passes, every shorter word has its class's form, so the right fold of
    # a word of the block takes the step that left the index last
    w = min(level.words(off[0]))
    d, k = [0] * (run.n - 2), [0] * (run.n - 1)
    _right_mul(d, k, w)
    fold = f"the right fold of {w} is d={tuple(d)} k={tuple(k)}"
    return f"class of {least}: {fold}, no basis monomial of length <= {run.bound}"


def _least(level: BlockClasses, blocks) -> tuple[int, ...]:
    """The lexicographically smallest word of a class given by its blocks, listed for a message."""
    return min(w for b in blocks for w in level.words(b))


def _off_index(run: _Run, steps) -> str | None:
    """The first of ``steps``, (rule name, number, letter), whose product is ``OUT``, as a problem."""
    for name, m, a in steps:
        rule, table = (_right_mul, run.right) if name == "R" else (_left_mul, run.left)
        if table[m][a] == OUT:
            mono = run.monomials[m]
            d, k = _step(rule, (mono.d, mono.k), a)
            return f"{name}_{a}({mono}) is d={d} k={k}, no basis monomial of length <= {run.bound}"
    return None


def _fold_agreement(run: _Run, delta: MultiDegree, ids: range) -> str | None:
    """``normalize == normalize_right_to_left`` on every word of length <= max_len, by induction.

    The folds send a letter a to R_a(1) and L_a(1), and a word a u b, where
    they agree on u at m, to R_b(L_a(m)) and L_a(R_b(m)) (R, L being
    ``_right_mul``, ``_left_mul``).  So the check compares these for every
    basis monomial m of length <= max_len - 2 and all a, b; m is a basis
    monomial as the degree pass validates the right fold of every word.
    Each product is the index's entry, so a product outside the index
    fails the check.  The letters are compared at every bound, so no bound
    examines nothing.
    """
    n, right, left = run.n, run.right, run.left
    if not delta.total():
        for a in range(1, n):
            if right[0][a] != left[0][a] or right[0][a] == OUT:
                return _fold_problem(run, 0, a, None)
    if delta.total() > run.max_len - 2:
        return None
    for m in ids:
        rm, lm = right[m], left[m]
        for a in range(1, n):
            la = right[lm[a]]  # the right steps of L_a(m)
            for b in range(1, n):
                x = left[rm[b]][a]
                if x != la[b] or x == OUT:
                    return _fold_problem(run, m, a, b)


def _fold_problem(run: _Run, m: int, a: int, b: int | None) -> str:
    # a local failure: a product outside the index, or one reported on its word once the two
    # folds confirm it
    right, left = run.right, run.left
    steps = [("R", m, b), ("L", m, a), ("L", right[m][b], a), ("R", left[m][a], b)] if b else [("R", m, a), ("L", m, a)]
    if problem := _off_index(run, steps):
        return problem
    mono = run.monomials[m]
    w = Word(run.n, (a, *run.letters[m]) + ((b,) if b else ()))
    if normalize(w) != normalize_right_to_left(w):
        return f"folds disagree on {w.letters}"
    rules = f"L_{a} R_{b} and R_{b} L_{a} differ on {mono}" if b else f"R_{a} and L_{a} differ on 1"
    return f"{rules}, but the folds agree on {w.letters}"


def _action_factoring(run: _Run, delta: MultiDegree, ids: range) -> str | None:
    """Every word of length <= max_len acts like its normal form, by induction.

    A word acts by its label (``word_label``), and prepending a letter a
    changes the label by ``_prepend_letters((a,))``.  So if word(L_a(m)) has
    the label of word(m) with a prepended, for every basis monomial m of
    length <= max_len - 1 and every a, each word w has the label of the
    expansion of its left fold, ``normalize_right_to_left(w)``.  The check is
    about the left fold: it speaks for ``normalize`` together with
    fold-agreement.  At max_len 0 the words of length 1 are still checked.
    Labels and L_a(m) are the index's: ``word_label``'s fold over the
    letters of each basis monomial's expansion, with no ``Word`` built, and
    a product outside the index fails the check.  Faithfulness decides on
    these same labels, so neither check calls ``_io_counts``;
    tests/action_reference.py sweeps configurations.
    """
    if delta.total() >= max(run.max_len, 1):
        return None
    n, left, labels = run.n, run.left, run.labels
    for m in ids:
        label, row = labels[m], left[m]
        for a in range(1, n):
            o, i = map(list, label)
            _prepend_letters(o, i, (a,))
            if labels[row[a]] != (tuple(o), tuple(i)):
                return _off_index(run, [("L", m, a)]) or _action_problem(run.monomials[m], a)


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


def _faithfulness(run: _Run, delta: MultiDegree, ids: range) -> str | None:
    # decided on the labels the action gives, those action-factoring checks
    return faithfulness_problem(delta, run.monomials[ids.start:ids.stop], run.labels[ids.start:ids.stop])


def _center(run: _Run) -> str | None:
    for delta, basis in center_bases(run.n, run.max_degree):
        problem = theorem_mismatch(delta, basis)
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
    run = _Run(cfg)
    index = time.perf_counter() - t0  # the basis index's build, charged after the passes
    t0 += index
    for walk in dict.fromkeys(w for _, w, _ in rows):
        on_pass = [(record, check) for record, w, check in rows if w is walk]
        for item in walk(run):
            for record, check in on_pass:
                if record.passed:  # a check stops at its first problem
                    t = time.perf_counter()
                    record.counterexample = check(run, *item)
                    record.seconds += time.perf_counter() - t
                    record.passed = record.counterexample is None
            if not any(record.passed for record, _ in on_pass):
                break
        # the pass's shared work (partitions, block forms) is split equally
        t1 = time.perf_counter()
        shared = (t1 - t0 - sum(record.seconds for record, _ in on_pass)) / len(on_pass)
        for record, _ in on_pass:
            record.seconds += shared
        t0 = t1
    readers = [record for record, walk, _ in rows if walk is not _once]  # every check but the center's
    for record in readers:
        record.seconds += index / len(readers)  # an equal share of the index each
    return VerifyReport([record for record, _, _ in rows])
