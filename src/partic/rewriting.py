"""Brute-force rewriting oracle over the free monoid.

Every defining relation permutes the letters of a word, so each congruence
class sits inside the finite set of words with one multidegree and can be
closed off by breadth-first search: over words (``code_classes``), or over
blocks, the classes one letter shorter times a last letter, joined by the
rule applications that end at the last letter, each rule applied once per
class of the prefix it extends rather than once per word
(``BlockClasses``).  No term orders, no completion.

This module is deliberately independent of the normal-form code in
``partic.normal_form``; the two certify each other.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import sub
from typing import Iterable, Iterator

from .core import MultiDegree, check_rank

PLACTIC = "plactic"
PARTIC = "partic"

Letters = tuple[int, ...]
Table = dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class RewriteRule:
    """An unoriented rule lhs = rhs between two concrete words."""

    lhs: Letters
    rhs: Letters

    def __post_init__(self) -> None:
        if sorted(self.lhs) != sorted(self.rhs):
            raise ValueError("a rewrite rule must preserve the multidegree")


# rule starts read by one window lookup but the last: a word of length 8 needs 2 lookups, not 7
_STARTS = 3


def _bits(n: int) -> int:
    """The bits per letter of a code at rank n, wide enough for every letter 1..n-1."""
    return n.bit_length()


@dataclass(frozen=True)
class RelationSet:
    """Concrete rule instances for one rank (no patterns at rewrite time).

    The oracle works on words coded as integers, ``bits`` bits per letter with
    the first letter lowest (``_encode``).  ``by_span`` holds the rules, read
    in both directions, as ``{span: {lhs code: [rhs code - lhs code]}}``, so
    each rewrite is ``code + diff``; ``BlockClasses`` reads only this.
    ``tables``, the word BFS's, holds one plain dict per ``(starts, shift)``
    met, mapping a window code to the differences of the rules starting in
    its first ``starts`` letters, each shifted to its rule's start and then
    left by ``shift`` bits more; ``_fill`` computes a window not yet met from
    ``by_span``, so a table holds only the windows met, whatever the rank,
    and ``interned`` keeps one copy of each tuple, as many windows share one.
    ``_reader`` gives the tables one word length reads.  Rule letters must
    lie in 1..n-1: letters are then nonzero, so a window running past the end
    of a word matches only the rules that fit, and each fits in its ``bits``
    bits.
    """

    name: str
    n: int
    rules: tuple[RewriteRule, ...]
    bits: int = field(init=False, repr=False, compare=False)
    by_span: dict[int, dict[int, list[int]]] = field(init=False, repr=False, compare=False)
    tables: dict[tuple[int, int], Table] = field(default_factory=dict, init=False, repr=False, compare=False)
    interned: dict[tuple[int, ...], tuple[int, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bits = _bits(self.n)
        by_span: dict[int, dict[int, list[int]]] = {}
        for r in self.rules:
            # a letter 0 would read as the end of a word, one of 2**bits or more spills over
            bad = [a for a in r.lhs if not 0 < a < self.n]
            if bad:
                raise ValueError(f"rule letter {bad[0]} is outside 1..{self.n - 1}")
            lhs, rhs = _encode(r.lhs, bits), _encode(r.rhs, bits)
            rules = by_span.setdefault(len(r.lhs), {})
            rules.setdefault(lhs, []).append(rhs - lhs)
            rules.setdefault(rhs, []).append(lhs - rhs)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "by_span", by_span)


def _fill(rs: RelationSet, table: Table, starts: int, shift: int, window: int) -> tuple[int, ...]:
    """Store in ``table``, the ``(starts, shift)`` table of ``rs``, the differences of ``window``; return them."""
    bits = rs.bits
    diffs = tuple(
        diff << start * bits + shift
        for start in range(starts)
        for span, rules in rs.by_span.items()
        for diff in rules.get(window >> start * bits & (1 << span * bits) - 1, ())
    )
    diffs = table[window] = rs.interned.setdefault(diffs, diffs)
    return diffs


Reader = tuple[int, dict[int, int], list[tuple[Table, int]]]


def _reader(rs: RelationSet, length: int) -> Reader:
    """The window mask, the rule starts of each window by its shift, and a (table, shift) pair per window read.

    A window is ``_STARTS - 1`` letters wider than the longest rule, so it
    holds every rule starting in its first ``_STARTS`` letters.  The last
    window reaches the word's end, so it holds every rule that fits from
    there on and takes every start that remains: a word of ``length``
    letters, ``span`` the longest rule's, reads ``1 + max(0, ceil((length -
    span - 2) / 3))`` windows, and one no longer than a window reads one, at
    shift 0.
    """
    spans = rs.by_span.keys() or (0,)
    bits, width, starts = rs.bits, max(spans) + _STARTS - 1, max(length - min(spans) + 1, 0)
    tail = max(0, -((width - length) // _STARTS) * _STARTS)  # the first window start that reaches the end
    plan = {p * bits: _STARTS for p in range(0, tail, _STARTS)}
    plan[tail * bits] = starts - tail
    tables = [(rs.tables.setdefault((k, shift), {}), shift) for shift, k in plan.items()]
    return (1 << width * bits) - 1, plan, tables


def _encode(letters: Letters, bits: int) -> int:
    code = 0
    for a in reversed(letters):
        code = code << bits | a
    return code


def _decode(code: int, bits: int) -> Letters:
    # every letter is nonzero, so the code ends with its last letter
    mask, out = (1 << bits) - 1, []
    while code:
        out.append(code & mask)
        code >>= bits
    return tuple(out)


def _plactic(n: int) -> tuple[RewriteRule, ...]:
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
    return tuple(rules)


def plactic_rules(n: int) -> RelationSet:
    return RelationSet(PLACTIC, n, _plactic(n))


def partic_rules(n: int) -> RelationSet:
    base = _plactic(n)
    # the extra exchange rule a_i a_{i-1} a_{i+1} a_i = a_{i+1} a_i a_{i-1} a_i
    extra = tuple(
        RewriteRule((i, i - 1, i + 1, i), (i + 1, i, i - 1, i)) for i in range(2, n - 1)
    )
    return RelationSet(PARTIC, n, base + extra)


def _steps(codes: list[int], out: list[int], reader: Reader, rs: RelationSet, seen: set[int]) -> None:
    """Append to ``out`` and add to ``seen`` each code not in ``seen`` one rule application from one of ``codes``.

    ``reader`` is ``_reader(rs, length)``, the window plan of the codes'
    common length.  Given one list as both ``codes`` and ``out``, the loop
    also reads what it appends, so the list grows to the BFS closure of its
    codes.  This loop is the oracle's whole cost; a window met for the first
    time raises KeyError (tests/rewriting_reference.py scans rule by rule).
    """
    mask, plan, tables = reader
    for cur in codes:
        for table, shift in tables:
            window = cur >> shift & mask
            try:
                diffs = table[window]
            except KeyError:
                diffs = _fill(rs, table, plan[shift], shift, window)
            for diff in diffs:
                nxt = cur + diff
                if nxt not in seen:
                    seen.add(nxt)
                    out.append(nxt)


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


@lru_cache(maxsize=1 << 10)
def _half_words(counts: tuple[int, ...], bits: int, shift: int) -> tuple[tuple[Letters, ...], tuple[int, ...]]:
    """The words of the degree ``counts`` in lexicographic order, and their codes shifted left by ``shift`` bits.

    ``_coded_words`` meets each half-degree in every degree that holds it; this lists it once.
    """
    words = tuple(words_with_degree(MultiDegree(counts)))
    return words, tuple(_encode(w, bits) << shift for w in words)


def _coded_words(delta: MultiDegree, bits: int) -> dict[int, Letters]:
    """``{_encode(w, bits): w for w in words_with_degree(delta)}``, in the same order.

    A word is its first ``h = L // 2`` letters, a word of a sub-degree of
    total ``h``, joined to the rest; both halves come from ``_half_words``.
    """
    *head, last = delta.counts
    h, halves = delta.total() // 2, []
    for sigma in product(*[range(c + 1) for c in head]):
        k = h - sum(sigma)  # the total fixes the last count, so only the head's box is walked
        if 0 <= k <= last:
            rest, shifted = _half_words((*map(sub, head, sigma), last - k), bits, h * bits)
            halves += [(p, cp, rest, shifted) for p, cp in zip(*_half_words((*sigma, k), bits, 0))]
    halves.sort()  # first halves are distinct, so no two tuples compare past them
    return {cp | cs: p + s for p, cp, rest, shifted in halves for s, cs in zip(rest, shifted)}


def code_classes(codes: Iterable[int], length: int, rs: RelationSet) -> list[list[int]]:
    """The congruence classes of the words of one multidegree, given by their codes (``_coded_words``).

    Each class is a list of codes, its seed (the first of its codes in the
    given order) first and the rest in BFS order; classes come in the order
    of their seeds.  Each BFS terminates: ``RewriteRule`` refuses a rule that
    changes the letter multiset, so a class never leaves the finitely many
    words of its multidegree.  The classes share one visited set and hold,
    once each, every given code and every code they rewrite to.  All the
    codes have one length, so the window plan (``_reader``) is built once per
    call.  ``congruence_partition`` decodes these classes, and the tests
    certify ``BlockClasses`` against them.
    """
    reader = _reader(rs, length)
    seen: set[int] = set()  # one visited set for the degree: the classes are disjoint
    classes = []
    for code in codes:
        if code in seen:
            continue
        seen.add(code)
        cls = [code]
        _steps(cls, cls, reader, rs, seen)
        classes.append(cls)
    return classes


def _walk(levels: list[BlockClasses], span: int, side: int, walked: dict[int, list[int]]) -> list[int]:
    """The block ``walk(X, side)`` for each class ``X`` of ``levels[span]``, ``side`` a code of ``span`` letters.

    ``levels[s]`` is the level ``s`` letters shorter than the one being
    built, ``levels[0]``.  After each letter but the last the walk moves to
    the owner of the block it reached.  ``walked`` keeps the list of each
    prefix of a side by its code, which fixes its length as letters are
    nonzero, so the sides of one span share the walks of their prefixes.
    """
    bits = levels[0].rs.bits
    xs: Iterable[int] = range(len(levels[span].classes))
    for i in range(1, span + 1):
        prefix = side & (1 << i * bits) - 1
        if prefix in walked:
            xs = walked[prefix]
            continue
        a = prefix >> (i - 1) * bits
        if i < span:
            owner = levels[span - i]._owner
            xs = walked[prefix] = [owner[x << bits | a] for x in xs]
        else:
            xs = walked[prefix] = [x << bits | a for x in xs]
    return xs


class BlockClasses:
    """The congruence classes of the words of one length, built from the classes one letter shorter.

    A relation is a congruence, so for a class ``C`` of the words one letter
    shorter and a letter ``a`` the words ``u a``, ``u`` in ``C``, lie in one
    class: they are the *block* ``(C, a)``.  A rule application that leaves
    the last letter alone rewrites ``u`` inside ``C``, so it stays in its
    block, and a degree's classes are its blocks joined by the rule
    applications that end at the last letter.  The constructor joins them
    for every degree of the length, in lexicographic order, by breadth-first
    search over blocks with one visited set per degree, seeded in order of
    each block's least word of the degree (``C``'s least word of the shorter
    degree, then ``a``), so the classes come in the order of
    ``code_classes`` and hold the words it gives them: a rewrite out of the
    degree pulls the block it reaches into the class.  A seed that a class
    of an earlier degree pulled in is that class, as the rules are read in
    both directions, so no two classes of one length hold the same block.

    The joins are found once per class of a prefix, not once per word.  A
    word's block is (the class of its prefix, its last letter), and the
    class of the prefix is the owner of the prefix's block, the first class
    of that length to hold it.  So for a class ``X`` of length ``L - s`` and
    a word ``v`` of ``s`` letters, every word ``x v``, ``x`` in ``X``, lies
    in the block ``walk(X, v)``: the block ``(X, v_1)``, then the block of
    its owner and ``v_2``, and so on to ``v_s``, under any rule set.  A rule
    application ``l -> r`` of span ``s`` that ends at the last letter takes
    ``x l`` to ``x r``, so the joins between blocks are exactly the directed
    edges ``walk(X, l) -> walk(X, r)`` over the classes ``X`` of length
    ``L - s`` and the entries of ``rs.by_span[s]``.  A level's work is
    therefore the sum over spans ``s`` of (classes of length ``L - s``) times
    (rules of span ``s``) walks, whatever the number of words.  The edges
    are directed, as the word BFS's rewrites are, so a rule read one way
    only, or one that changes the multidegree, joins blocks only in the
    direction it rewrites.  Only a rule read one way puts a word in two
    classes of one length; its block is then the one through the first.

    A block is the int ``j << bits | a``, ``j`` the index of ``C`` in the
    shorter classes; ``classes`` lists each class's blocks, its seed first.
    The length 0 has the one block 0, the empty word under the letter 0.  A
    level keeps ``shorter``, the level one letter shorter, the owner of each
    of its blocks, and the number of words of each class, so ``size`` reads
    a count, ``block`` walks the owners letter by letter and ``words`` lists
    a block's words down the levels; only failure messages and the tests
    list words.  Nothing here reads a normal form.
    """

    def __init__(self, rs: RelationSet, shorter: BlockClasses | None = None) -> None:
        self.rs = rs
        self.shorter = shorter
        self.length = 0 if shorter is None else shorter.length + 1
        self.shift = max(self.length - 1, 0) * rs.bits  # a word's last letter is code >> shift
        self.mask = (1 << self.shift) - 1  # and its prefix code & mask
        self.classes: list[list[int]] = []
        # {counts: [(the lexicographic code of the class's least word of the degree, class index)]}
        self._degrees: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        if shorter is None:  # the empty word, code 0, is the one block 0
            self.classes.append([0])
            self._degrees[(0,) * (rs.n - 1)] = [(0, 0)]
            self._owner, self._sizes = [0], [1]
        else:
            self._close(shorter)

    def of(self, delta: MultiDegree) -> list[int]:
        """The classes of the words of ``delta``, as indices into ``classes``, by least word of ``delta``."""
        if delta.n != self.rs.n or delta.total() != self.length:
            raise ValueError(f"multidegree {delta} is not of rank {self.rs.n} and total {self.length}")
        return [j for _, j in self._degrees[delta.counts]]

    def words(self, block: int) -> list[int]:
        """The codes of the words of a block, listed down the shorter levels."""
        shorter = self.shorter
        if shorter is None:
            return [0]
        top = (block & (1 << self.rs.bits) - 1) << self.shift
        return [c | top for b in shorter.classes[block >> self.rs.bits] for c in shorter.words(b)]

    def size(self, block: int) -> int:
        """The number of words of a block, without listing them."""
        return 1 if self.shorter is None else self.shorter._sizes[block >> self.rs.bits]

    def block(self, code: int) -> int | None:
        """The block of the word with this code, or None if no word of this length has it.

        It is the owner of the block of the word's prefix, one letter shorter, and its last letter.
        """
        shorter = self.shorter
        if shorter is None:
            return 0 if code == 0 else None
        prefix, a = shorter.block(code & self.mask), code >> self.shift
        return shorter._owner[prefix] << self.rs.bits | a if prefix is not None and 0 < a < self.rs.n else None

    def _close(self, shorter: BlockClasses) -> None:
        rs, length, bits = self.rs, self.length, self.rs.bits
        levels = [self, shorter]  # levels[s]: the level s letters shorter
        while levels[-1].shorter is not None:
            levels.append(levels[-1].shorter)
        edges: dict[int, list[int]] = {}  # {block: the blocks one rule application at the last letter away}
        for span, rules in rs.by_span.items():
            if span <= length:
                walked: dict[int, list[int]] = {}
                for lhs, diffs in rules.items():
                    sources = _walk(levels, span, lhs, walked)
                    for diff in diffs:
                        for b, nb in zip(sources, _walk(levels, span, lhs + diff, walked)):
                            if b in edges:
                                edges[b].append(nb)
                            else:
                                edges[b] = [nb]
        below = shorter._degrees
        degrees = sorted({c[:i] + (c[i] + 1,) + c[i + 1:] for c in below for i in range(len(c))})
        classes, sizes = self.classes, []
        self._sizes = sizes
        owner = self._owner = [-1] * (len(shorter.classes) << bits)  # {block: the first class to hold it}
        below_sizes = shorter._sizes
        for counts in degrees:
            seeds = sorted(
                (key << bits | a, j << bits | a)
                for a, c in enumerate(counts, 1) if c
                for key, j in below[(*counts[:a - 1], c - 1, *counts[a:])]
            )
            seen: set[int] = set()  # the blocks of this degree's classes
            listed = self._degrees[counts] = []
            for key, seed in seeds:
                if seed in seen:
                    continue
                j = owner[seed]
                if j >= 0:  # pulled in by a class of an earlier degree
                    seen.update(classes[j])
                    listed.append((key, j))
                    continue
                seen.add(seed)
                cls = [seed]
                for b in cls:  # reads what it appends
                    for nb in edges.get(b, ()):
                        if nb not in seen:
                            seen.add(nb)
                            cls.append(nb)
                j = len(classes)
                classes.append(cls)
                for b in cls:
                    if owner[b] < 0:
                        owner[b] = j
                sizes.append(sum(below_sizes[b >> bits] for b in cls))
                listed.append((key, j))


def congruence_partition(delta: MultiDegree, rs: RelationSet) -> list[set[Letters]]:
    """Partition of all words of one multidegree into congruence classes: ``code_classes``, decoded.

    Classes appear in order of their lexicographically smallest member, the
    order of ``_coded_words``.
    """
    if delta.n != rs.n:
        raise ValueError("multidegree rank does not match relation set rank")
    words = _coded_words(delta, rs.bits)
    classes = code_classes(words, delta.total(), rs)
    try:
        return [set(map(words.__getitem__, cls)) for cls in classes]
    except KeyError:  # a code outside the degree comes only from a rule that changes the multidegree
        return [{words.get(c) or _decode(c, rs.bits) for c in cls} for cls in classes]
