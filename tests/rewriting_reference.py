"""Rule-by-rule references for ``partic.rewriting``, kept with the tests that compare against it.

Also the word-level views the tests take of the oracle: a word's
multidegree, its class and its one-step rewrites, read from the coded rules
``RelationSet.by_span`` by a plain scan, so an entry planted there alone is
seen too.
"""
from collections import deque
from itertools import product

from partic.core import MultiDegree, Word
from partic.rewriting import (
    PARTIC,
    Letters,
    RelationSet,
    _encode,
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


def decode(code: int, bits: int) -> Letters:
    """The letters of a code, ``bits`` bits each, first letter lowest; letters are nonzero, so it ends at the last."""
    mask, out = (1 << bits) - 1, []
    while code:
        out.append(code & mask)
        code >>= bits
    return tuple(out)


def scan_codes(code: int, length: int, rs: RelationSet) -> list[int]:
    """The codes one rule application from a word's: every entry of ``rs.by_span`` tried at every start, in order of start."""
    bits, out = rs.bits, []
    for start in range(length):
        for span, rules in rs.by_span.items():
            if start + span <= length:
                window = code >> start * bits & (1 << span * bits) - 1
                out += [code + (diff << start * bits) for diff in rules.get(window, ())]
    return out


def coded_steps(letters: Letters, rs: RelationSet) -> set[Letters]:
    """The one-step rewrites of a word under the coded rules, decoded."""
    return {decode(code, rs.bits) for code in scan_codes(_encode(letters, rs.bits), len(letters), rs)}


def scan_classes(delta: MultiDegree, rs: RelationSet) -> list[list[int]]:
    """The classes of one multidegree by breadth-first search over words, as codes.

    Seeds come in lexicographic order and share one visited set; each class
    lists its seed first and then its codes in the order the search meets
    them.  A one-way rule makes a class the set of codes its seed reaches
    that no earlier class holds.
    """
    seen: set[int] = set()
    classes = []
    for letters in words_with_degree(delta):
        code = _encode(letters, rs.bits)
        if code in seen:
            continue
        seen.add(code)
        cls = [code]
        for cur in cls:  # reads what it appends
            for nxt in scan_codes(cur, len(letters), rs):
                if nxt not in seen:
                    seen.add(nxt)
                    cls.append(nxt)
        classes.append(cls)
    return classes


def scan_partition(delta: MultiDegree, rs: RelationSet) -> list[set[Letters]]:
    """``scan_classes`` as sets of letter tuples."""
    return [{decode(code, rs.bits) for code in cls} for cls in scan_classes(delta, rs)]


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

    The steps come from the coded rules ``rs.by_span``, not from
    ``rs.rules``, so an entry planted there alone is seen too.
    """
    for length in range(max_len + 1):
        for letters in product(range(1, rs.n), repeat=length):
            md = multidegree(Word(rs.n, letters))
            for other in coded_steps(letters, rs):
                if multidegree(Word(rs.n, other)) != md:
                    return False, f"{letters} -> {other} changes the multidegree"
    return True, None
