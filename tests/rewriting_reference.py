"""Rule-by-rule reference for the rewrite steps of ``partic.rewriting``, kept with the tests that compare against it."""
from collections import deque
from itertools import product

from partic.core import MultiDegree, Word, multidegree
from partic.rewriting import Letters, RelationSet, one_step_rewrites, words_with_degree

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


def grading_sweep(rs: RelationSet, max_len: int):
    """The rewrite sweep that ``verify`` grading replaced: every one-step rewrite of every word."""
    for length in range(max_len + 1):
        for letters in product(range(1, rs.n), repeat=length):
            w = Word(rs.n, letters)
            md = multidegree(w)
            for w2 in one_step_rewrites(w, rs):
                if multidegree(w2) != md:
                    return False, f"{letters} -> {w2.letters} changes the multidegree"
    return True, None
