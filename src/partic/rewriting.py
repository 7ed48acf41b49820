"""Brute-force rewriting oracle over the free monoid.

Every defining relation permutes the letters of a word, so each congruence
class sits inside the finite set of words with one multidegree and can be
closed off by plain breadth-first search.  No term orders, no completion.

This module is deliberately independent of the normal-form code in
``partic.normal_form``; the two certify each other.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator

from .core import MultiDegree, Word, check_rank, multidegree

PLACTIC = "plactic"
PARTIC = "partic"

Letters = tuple[int, ...]
# (span, {lhs: right-hand sides}) per span, each rule entered in both directions
RuleTable = tuple[tuple[int, dict[Letters, list[Letters]]], ...]


@dataclass(frozen=True)
class RewriteRule:
    """An unoriented rule lhs = rhs between two concrete words."""

    lhs: Letters
    rhs: Letters

    def __post_init__(self) -> None:
        if Counter(self.lhs) != Counter(self.rhs):
            raise ValueError("a rewrite rule must preserve the multidegree")


@dataclass(frozen=True)
class RelationSet:
    """Concrete rule instances for one rank (no patterns at rewrite time).

    ``table`` indexes the rules, read in both directions, by left-hand side
    and groups them by span, so a rewrite step slides one window per span
    and looks each window up instead of comparing it with every rule.
    """

    name: str
    n: int
    rules: tuple[RewriteRule, ...]
    table: RuleTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_span: dict[int, dict[Letters, list[Letters]]] = {}
        for r in self.rules:
            for lhs, rhs in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                by_span.setdefault(len(lhs), {}).setdefault(lhs, []).append(rhs)
        object.__setattr__(self, "table", tuple(sorted(by_span.items())))


def plactic_rules(n: int) -> RelationSet:
    check_rank(n)
    rules = []
    # a_i a_{i-1} a_i = a_i a_i a_{i-1}
    for i in range(2, n):
        rules.append(RewriteRule((i, i - 1, i), (i, i, i - 1)))
    # a_i a_{i+1} a_i = a_{i+1} a_i a_i
    for i in range(1, n - 1):
        rules.append(RewriteRule((i, i + 1, i), (i + 1, i, i)))
    # distant generators commute
    for i in range(1, n):
        for j in range(i + 2, n):
            rules.append(RewriteRule((i, j), (j, i)))
    return RelationSet(PLACTIC, n, tuple(rules))


def partic_rules(n: int) -> RelationSet:
    # the extra exchange rule a_i a_{i-1} a_{i+1} a_i = a_{i+1} a_i a_{i-1} a_i
    base = plactic_rules(n).rules
    extra = tuple(
        RewriteRule((i, i - 1, i + 1, i), (i + 1, i, i - 1, i)) for i in range(2, n - 1)
    )
    return RelationSet(PARTIC, n, base + extra)


def relation_set(name: str, n: int) -> RelationSet:
    if name == PLACTIC:
        return plactic_rules(n)
    if name == PARTIC:
        return partic_rules(n)
    raise ValueError(f"unknown relation set {name!r} (expected {PLACTIC!r} or {PARTIC!r})")


def _steps(letters: Letters, table: RuleTable) -> Iterator[Letters]:
    """Every word one rule application away (tests/rewriting_reference.py scans rule by rule)."""
    for span, rules in table:
        for p in range(len(letters) - span + 1):
            for rhs in rules.get(letters[p : p + span], ()):
                yield letters[:p] + rhs + letters[p + span :]


def _closure(start: Letters, table: RuleTable) -> set[Letters]:
    seen = {start}
    queue = deque((start,))
    while queue:
        cur = queue.popleft()
        for nxt in _steps(cur, table):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _check_ranks(w: Word, rs: RelationSet) -> None:
    if w.n != rs.n:
        raise ValueError(f"word rank {w.n} does not match relation set rank {rs.n}")


def one_step_rewrites(w: Word, rs: RelationSet) -> set[Word]:
    """All words reachable by one rule application, in either direction."""
    _check_ranks(w, rs)
    return {Word(w.n, out) for out in _steps(w.letters, rs.table)}


def congruence_class(w: Word, rs: RelationSet) -> set[Word]:
    """The full (finite) equivalence class of w under the given relations."""
    _check_ranks(w, rs)
    return {Word(w.n, t) for t in _closure(w.letters, rs.table)}


def words_equivalent(w1: Word, w2: Word, rs: RelationSet) -> bool:
    _check_ranks(w1, rs)
    _check_ranks(w2, rs)
    if multidegree(w1) != multidegree(w2):
        return False
    return w2.letters in _closure(w1.letters, rs.table)


def words_with_degree(delta: MultiDegree) -> Iterator[Letters]:
    """All words with the given multidegree, in lexicographic order."""
    # Narayana's next permutation in place: from the sorted word, each step gives
    # the next distinct arrangement, so repeated letters are never permuted twice
    word = [a for a, c in enumerate(delta.counts, 1) for _ in range(c)]
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


def congruence_partition(delta: MultiDegree, rs: RelationSet) -> list[set[Letters]]:
    """Partition of all words of one multidegree into congruence classes.

    Classes appear in order of their lexicographically smallest member.  Each
    BFS terminates: ``RewriteRule`` refuses a rule that changes the letter
    multiset, so a class never leaves the finitely many words of its
    multidegree.  A class is a closure, so it holds every one-step rewrite of
    its members; ``verify`` reads grading off that.
    """
    if delta.n != rs.n:
        raise ValueError("multidegree rank does not match relation set rank")
    seen: set[Letters] = set()
    classes: list[set[Letters]] = []
    for letters in words_with_degree(delta):
        if letters in seen:
            continue
        cls = _closure(letters, rs.table)
        seen |= cls
        classes.append(cls)
    return classes


def count_classes(delta: MultiDegree, rs: RelationSet) -> int:
    """Number of congruence classes among all words of one multidegree."""
    return len(congruence_partition(delta, rs))
