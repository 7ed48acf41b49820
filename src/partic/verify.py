"""Umbrella certification suite behind the ``verify`` CLI subcommand.

Each check is a pure function of its bounds; the report lists checks by
name so output is reproducible independent of execution order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator

from .center import center_basis_in_degree, theorem_mismatch
from .core import Word, multidegree, multidegrees_up_to, nm_to_word
from .normal_form import enumerate_basis, normalize, normalize_right_to_left
from .particles import Configuration, act_word, faithfulness_check, word_label
from .rewriting import (
    PARTIC,
    congruence_partition,
    count_classes,
    one_step_rewrites,
    partic_rules,
    relation_set,
)


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


def _all_words(n: int, max_len: int) -> Iterator[tuple[int, ...]]:
    for length in range(max_len + 1):
        yield from product(range(1, n), repeat=length)


def _check_grading(cfg: VerifyConfig):
    rs = relation_set(cfg.relations, cfg.n)
    for letters in _all_words(cfg.n, cfg.max_len):
        w = Word(cfg.n, letters)
        md = multidegree(w)
        for w2 in one_step_rewrites(w, rs):
            if multidegree(w2) != md:
                return False, f"{letters} -> {w2.letters} changes the multidegree"
    return True, None


def _check_basis_count(cfg: VerifyConfig):
    # plactic refines the partic classes, so there only ">=" can be asserted
    rs = relation_set(cfg.relations, cfg.n)
    for delta in multidegrees_up_to(cfg.n, cfg.max_len):
        nc = count_classes(delta, rs)
        nb = len(enumerate_basis(delta))
        ok = nc == nb if cfg.relations == PARTIC else nc >= nb
        if not ok:
            return False, f"degree ({delta}): {nc} classes vs {nb} basis monomials"
    return True, None


def _check_normal_form(cfg: VerifyConfig):
    rs = partic_rules(cfg.n)
    for delta in multidegrees_up_to(cfg.n, cfg.max_len):
        seen = {}
        for cls in congruence_partition(delta, rs):
            forms = {normalize(Word(cfg.n, letters)) for letters in cls}
            if len(forms) != 1:
                return False, f"class of {min(cls)} has {len(forms)} normal forms"
            nf = forms.pop()
            if nf in seen:
                return False, f"classes of {min(cls)} and {seen[nf]} share a normal form"
            seen[nf] = min(cls)
            if nm_to_word(nf).letters not in cls:
                return False, f"expansion of {nf} leaves the class of {min(cls)}"
    return True, None


def _check_fold_agreement(cfg: VerifyConfig):
    for letters in _all_words(cfg.n, cfg.max_len):
        w = Word(cfg.n, letters)
        if normalize(w) != normalize_right_to_left(w):
            return False, f"folds disagree on {letters}"
    return True, None


def _check_action_factoring(cfg: VerifyConfig):
    # a word acts by its (output, minimal input) label on every configuration,
    # whatever the deposit; tests/action_reference.py keeps the brute-force sweep
    for letters in _all_words(cfg.n, cfg.max_len):
        w = Word(cfg.n, letters)
        nf_word = nm_to_word(normalize(w))
        label, nf_label = word_label(w), word_label(nf_word)
        if label != nf_label:
            # equal inputs: both words act there, with different images; otherwise the word
            # whose input does not dominate the other's annihilates the other's input
            inp, nf_inp = label[1], nf_label[1]
            c = Configuration(cfg.n, nf_inp if all(a >= b for a, b in zip(inp, nf_inp)) else inp)
            if act_word(w, c) == act_word(nf_word, c):  # then word_label itself is wrong
                return False, f"word {letters}: labels {label}, {nf_label} differ, yet act alike on {c}"
            return False, f"word {letters} and its normal form act differently on {c}"
    return True, None


def _check_faithfulness(cfg: VerifyConfig):
    if faithfulness_check(cfg.n, cfg.max_len):
        return True, None
    return False, "two basis monomials share an (input, output) label"


def _check_center(cfg: VerifyConfig):
    for delta in multidegrees_up_to(cfg.n, cfg.max_degree):
        problem = theorem_mismatch(delta, center_basis_in_degree(cfg.n, delta))
        if problem is not None:
            return False, f"degree ({delta}): {problem}"
    return True, None


CENTER = "center-dimensions"

# (name, check, the config fields it reports besides N, max_len and relations),
# sorted by name; the center check runs only with include_center
CHECKS: tuple[tuple[str, Callable, tuple[str, ...]], ...] = (
    ("action-factoring", _check_action_factoring, ("max_deposit",)),
    ("basis-count", _check_basis_count, ()),
    (CENTER, _check_center, ("max_degree",)),
    ("faithfulness", _check_faithfulness, ()),
    ("fold-agreement", _check_fold_agreement, ()),
    ("grading", _check_grading, ()),
    ("normal-form", _check_normal_form, ()),
)


def run_verify(cfg: VerifyConfig) -> VerifyReport:
    report = VerifyReport()
    for name, fn, fields in CHECKS:
        if name == CENTER and not cfg.include_center:
            continue
        params = {"N": cfg.n, "max_len": cfg.max_len, "relations": cfg.relations}
        params.update((f, getattr(cfg, f)) for f in fields)
        t0 = time.perf_counter()
        passed, counterexample = fn(cfg)
        report.checks.append(
            VerifyCheck(name, params, passed, counterexample, time.perf_counter() - t0)
        )
    return report
