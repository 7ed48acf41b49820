"""Rule-by-rule reference for the rewrite steps of ``partic.rewriting``, kept with the tests that compare against it."""
from collections import deque

from partic.core import MultiDegree
from partic.rewriting import Letters, RelationSet, words_with_degree

Pairs = list[tuple[Letters, Letters]]


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
