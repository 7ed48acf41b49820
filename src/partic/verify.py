"""Umbrella certification suite behind the ``verify`` CLI subcommand.

One pass over multidegrees runs the word and class checks and normalizes each
word once.  Each check returns the problem it finds on one item, or None.  The
report lists checks by name, so output is reproducible in any execution order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial, prod
from typing import Callable, Iterator

from .center import center_basis_in_degree, theorem_mismatch
from .core import MultiDegree, Word, multidegrees_up_to, nm_to_word
from .normal_form import enumerate_basis, normalize, normalize_right_to_left
from .particles import Configuration, act_word, faithfulness_check, word_label
from .rewriting import PARTIC, congruence_partition, relation_set


@dataclass(frozen=True)
class VerifyConfig:
    n: int
    max_len: int = 6
    relations: str = PARTIC
    include_center: bool = False
    max_degree: int = 6
    max_deposit: int = 1

    def __post_init__(self) -> None:
        # a negative bound would make a check pass having examined nothing
        for name in ("max_len", "max_degree", "max_deposit"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


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


def _degrees(cfg: VerifyConfig) -> Iterator[tuple[MultiDegree, list[set], list[dict], dict]]:
    # one degree at a time, as all classes grow exponentially; by total, so a first failing word is shortest
    rs = relation_set(cfg.relations, cfg.n)
    partic = rs if cfg.relations == PARTIC else relation_set(PARTIC, cfg.n)
    for delta in multidegrees_up_to(cfg.n, cfg.max_len):
        classes = congruence_partition(delta, rs)
        partic_classes = classes if partic is rs else congruence_partition(delta, partic)
        # each partic class as {word: normal form}: these hold every word of delta, also under plactic
        forms = [{w: normalize(w) for w in (Word(cfg.n, t) for t in cls)} for cls in partic_classes]
        # and each distinct normal form expanded once
        yield delta, classes, forms, {nf: nm_to_word(nf) for nf in {nf for cls in forms for nf in cls.values()}}


def _once(cfg: VerifyConfig) -> Iterator[tuple]:
    yield ()


def _grading(cfg: VerifyConfig, delta: MultiDegree, classes: list[set], *_) -> str | None:
    # a class is a BFS closure, so it holds every one-step rewrite of its members: the
    # classes of delta hold exactly multinomial(delta) words iff no rewrite leaves delta
    size = factorial(delta.total()) // prod(map(factorial, delta.counts))
    if (held := sum(map(len, classes))) != size:
        return f"degree ({delta}): its classes hold {held} words, not the {size} of that multidegree"


def _basis_count(cfg: VerifyConfig, delta: MultiDegree, classes: list[set], *_) -> str | None:
    # plactic refines the partic classes, so there only ">=" can be asserted
    nc, nb = len(classes), len(enumerate_basis(delta))
    if not (nc == nb if cfg.relations == PARTIC else nc >= nb):
        return f"degree ({delta}): {nc} classes vs {nb} basis monomials"


def _normal_form(cfg: VerifyConfig, delta: MultiDegree, _, classes: list[dict], expansions: dict) -> str | None:
    seen = {}
    for cls in classes:
        forms, least = set(cls.values()), min(w.letters for w in cls)
        if len(forms) != 1:
            return f"class of {least} has {len(forms)} normal forms"
        nf = forms.pop()
        if nf in seen:
            return f"classes of {least} and {seen[nf]} share a normal form"
        seen[nf] = least
        if expansions[nf] not in cls:
            return f"expansion of {nf} leaves the class of {least}"


def _fold_agreement(cfg: VerifyConfig, delta: MultiDegree, _, forms: list[dict], _expansions) -> str | None:
    for cls in forms:
        for w, nf in cls.items():
            if nf != normalize_right_to_left(w):
                return f"folds disagree on {w.letters}"


def _action_factoring(cfg: VerifyConfig, delta: MultiDegree, _, forms: list[dict], expansions: dict) -> str | None:
    # a word acts by its (output, minimal input) label; tests/action_reference.py sweeps configurations.
    # Each word is compared with the label of its own normal form, labelled once per degree.
    labels = {nf: word_label(nf_word) for nf, nf_word in expansions.items()}
    for cls in forms:
        for w, nf in cls.items():
            label, nf_label = word_label(w), labels[nf]
            if label == nf_label:
                continue
            # equal inputs: both words act there, with different images; otherwise the word
            # whose input does not dominate the other's annihilates the other's input
            inp, nf_inp = label[1], nf_label[1]
            c = Configuration(cfg.n, nf_inp if all(a >= b for a, b in zip(inp, nf_inp)) else inp)
            if act_word(w, c) == act_word(expansions[nf], c):  # then word_label itself is wrong
                return f"word {w.letters}: labels {label}, {nf_label} differ, yet act alike on {c}"
            return f"word {w.letters} and its normal form act differently on {c}"


def _faithfulness(cfg: VerifyConfig) -> str | None:
    if not faithfulness_check(cfg.n, cfg.max_len):
        return "two basis monomials share an (input, output) label"


def _center(cfg: VerifyConfig) -> str | None:
    for delta in multidegrees_up_to(cfg.n, cfg.max_degree):
        problem = theorem_mismatch(delta, center_basis_in_degree(cfg.n, delta))
        if problem is not None:
            return f"degree ({delta}): {problem}"


CENTER = "center-dimensions"

# (name, pass, check, the config fields it reports besides N, max_len and relations),
# sorted by name; the center check runs only with include_center
CHECKS: tuple[tuple[str, Callable, Callable, tuple[str, ...]], ...] = (
    ("action-factoring", _degrees, _action_factoring, ("max_deposit",)),
    ("basis-count", _degrees, _basis_count, ()),
    (CENTER, _once, _center, ("max_degree",)),
    ("faithfulness", _once, _faithfulness, ()),
    ("fold-agreement", _degrees, _fold_agreement, ()),
    ("grading", _degrees, _grading, ()),
    ("normal-form", _degrees, _normal_form, ()),
)


def run_verify(cfg: VerifyConfig) -> VerifyReport:
    base = {"N": cfg.n, "max_len": cfg.max_len, "relations": cfg.relations}
    rows = [(VerifyCheck(name, base | {f: getattr(cfg, f) for f in fields}, True, None, 0.0), walk, check)
            for name, walk, check, fields in CHECKS if name != CENTER or cfg.include_center]
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
        # the pass's shared work (partitions, words, normal forms) is split equally
        t1 = time.perf_counter()
        shared = (t1 - t0 - sum(record.seconds for record, _ in on_pass)) / len(on_pass)
        for record, _ in on_pass:
            record.seconds += shared
        t0 = t1
    return VerifyReport([record for record, _, _ in rows])
