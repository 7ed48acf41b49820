"""Rule-by-rule reference for the rewrite steps of ``partic.rewriting``, kept with the tests that compare against it.

Also the word-level views the tests take of the coded oracle: a word's
multidegree, its class and its one-step rewrites.
"""
from collections import deque
from itertools import product

from partic.core import MultiDegree, Word
from partic.rewriting import (
    PARTIC,
    Letters,
    RelationSet,
    _decode,
    _encode,
    _reader,
    _steps,
    congruence_partition,
    partic_rules,
    words_with_degree,
)

Pairs = list[tuple[Letters, Letters]]


def multidegree(w: Word) -> MultiDegree:
    """Occurrence counts of each generator in a word."""
    counts = [0] * (w.n - 1)
    for a in w.letters:
        counts[a - 1] += 1
    return MultiDegree(tuple(counts))


def without_exchange_rule(n: int) -> RelationSet:
    """The partic rules less the exchange rule a2 a1 a3 a2 = a3 a2 a1 a2, which N = 3 has none of."""
    return RelationSet(PARTIC, n, tuple(r for r in partic_rules(n).rules if r.lhs != (2, 1, 3, 2)))


def class_of(w: Word, rs: RelationSet) -> set[Letters]:
    """The congruence class of a word, read off the partition of its multidegree."""
    return next(cls for cls in congruence_partition(multidegree(w), rs) if w.letters in cls)


def coded_steps(letters: Letters, rs: RelationSet) -> set[Letters]:
    """The oracle's own one-step rewrites (``rewriting._steps`` on the coded word, nothing visited), decoded."""
    out: list[int] = []
    _steps([_encode(letters, rs.bits)], out, _reader(rs, len(letters)), rs, set())
    return {_decode(code, rs.bits) for code in out}


def oriented(rs: RelationSet) -> Pairs:
    """Every rule in both directions, as (lhs, rhs) pairs."""
    return [pair for r in rs.rules for pair in ((r.lhs, r.rhs), (r.rhs, r.lhs))]


def steps_reference(letters: Letters, pairs: Pairs) -> set[Letters]:
    """Every word one rule application away: try each pair at every position."""
    out = set()
    for lhs, rhs in pairs:
        span = len(lhs)
        for p in range(len(letters) - span + 1):
            if letters[p : p + span] == lhs:
                out.add(letters[:p] + rhs + letters[p + span :])
    return out


def closure_reference(start: Letters, pairs: Pairs) -> set[Letters]:
    seen = {start}
    queue = deque((start,))
    while queue:
        for nxt in steps_reference(queue.popleft(), pairs):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def partition_reference(delta: MultiDegree, rs: RelationSet) -> list[set[Letters]]:
    """Classes of one multidegree, in order of their smallest member."""
    pairs = oriented(rs)
    seen: set[Letters] = set()
    classes = []
    for letters in words_with_degree(delta):
        if letters not in seen:
            cls = closure_reference(letters, pairs)
            seen |= cls
            classes.append(cls)
    return classes


def grading_sweep(rs: RelationSet, max_len: int):
    """The rewrite sweep that ``verify`` grading replaced: every one-step rewrite of every word.

    The steps come from the coded tables the program's BFS reads, not from
    ``rs.rules``, so an entry planted in those tables alone is seen too.
    """
    for length in range(max_len + 1):
        for letters in product(range(1, rs.n), repeat=length):
            md = multidegree(Word(rs.n, letters))
            for other in coded_steps(letters, rs):
                if multidegree(Word(rs.n, other)) != md:
                    return False, f"{letters} -> {other} changes the multidegree"
    return True, None
