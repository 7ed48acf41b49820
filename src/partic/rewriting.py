"""Brute-force rewriting oracle over the free monoid.

Every defining relation permutes the letters of a word, so each congruence
class sits inside the finite set of words with one multidegree and can be
closed off by breadth-first search.  The search runs over blocks, the
classes one letter shorter times a last letter, joined by the rule
applications that end at the last letter, each rule applied once per class
of the prefix it extends rather than once per word (``BlockClasses``).
``congruence_partition`` and ``verify`` read a chain of these levels kept
on the ``RelationSet`` (``RelationSet.level``).  No term orders, no completion.

This module is deliberately independent of the normal-form code in
``partic.normal_form``; the two certify each other.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .core import MultiDegree, check_rank

PLACTIC = "plactic"
PARTIC = "partic"

Letters = tuple[int, ...]


@dataclass(frozen=True)
class RewriteRule:
    """An unoriented rule lhs = rhs between two concrete words."""

    lhs: Letters
    rhs: Letters

    def __post_init__(self) -> None:
        if sorted(self.lhs) != sorted(self.rhs):
            raise ValueError("a rewrite rule must preserve the multidegree")


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
    ``levels`` is the chain that ``congruence_partition`` and ``verify`` read
    through ``level``: ``levels[L]`` is the ``BlockClasses`` of length L, built
    from the one before when a call first needs it.  A level reads ``by_span``
    once, when it is built, so a change to ``by_span`` is seen once ``levels``
    is cleared.  Rule letters must lie in 1..n-1: letters are then nonzero, so
    a code fixes its word's length, and each fits in its ``bits`` bits.
    """

    name: str
    n: int
    rules: tuple[RewriteRule, ...]
    bits: int = field(init=False, repr=False, compare=False)
    by_span: dict[int, dict[int, list[int]]] = field(init=False, repr=False, compare=False)
    levels: list[BlockClasses] = field(default_factory=list, init=False, repr=False, compare=False)

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

    def level(self, length: int) -> BlockClasses:
        """``levels[length]``, the chain grown to it first."""
        levels = self.levels
        while len(levels) <= length:
            levels.append(BlockClasses(self, levels[-1] if levels else None))
        return levels[length]


def _encode(letters: Letters, bits: int) -> int:
    code = 0
    for a in reversed(letters):
        code = code << bits | a
    return code


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


def _walk(levels: list[BlockClasses], span: int, side: int, walked: dict[int, list[int]]) -> list[int]:
    """The block ``walk(X, side)`` for each class ``X`` of ``levels[span]``, ``side`` a code of ``span`` letters.

    ``levels[s]`` is the level ``s`` letters shorter than the one being
    built, ``levels[0]``.  After each letter but the last the walk moves to
    the owner of the block it reached.  ``walked`` keeps the list of each
    prefix of a side by its code, which fixes its length as letters are
    nonzero, so the sides of one span share the walks of their prefixes.
    """
    bits = levels[0].bits
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
    degree, then ``a``), so the classes come in the order of their least
    words and hold every word of the degree and every word a rewrite of one
    of them reaches: a rewrite out of the degree pulls the block it reaches
    into the class.  A seed that a class
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
    are directed, as rewrites are, so a rule read one way
    only, or one that changes the multidegree, joins blocks only in the
    direction it rewrites.  Only a rule read one way puts a word in two
    classes of one length; its block is then the one through the first.

    A block is the int ``j << bits | a``, ``j`` the index of ``C`` in the
    shorter classes; ``classes`` lists each class's blocks, its seed first.
    The length 0 has the one block 0, the empty word under the letter 0.  A
    level keeps ``shorter``, the level one letter shorter, the owner of each
    of its blocks, the number of words of each class, and the ``n`` and
    ``bits`` of its rule set, not the rule set, which keeps the chain in
    ``RelationSet.levels``: the two make no reference cycle.  So ``size``
    reads a count, ``block`` walks the owners letter by letter, and ``words`` and
    ``class_words`` list a block's or a class's words down the levels, as
    letter tuples; only ``congruence_partition``, failure messages and the
    tests list words.
    Nothing here reads a normal form.
    """

    def __init__(self, rs: RelationSet, shorter: BlockClasses | None = None) -> None:
        self.n, self.bits = rs.n, rs.bits  # not rs, which keeps the chain: the two would be a cycle
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
            self._close(rs, shorter)

    def of(self, delta: MultiDegree) -> list[int]:
        """The classes of the words of ``delta``, as indices into ``classes``, by least word of ``delta``."""
        if delta.n != self.n or delta.total() != self.length:
            raise ValueError(f"multidegree {delta} is not of rank {self.n} and total {self.length}")
        return [j for _, j in self._degrees[delta.counts]]

    def words(self, block: int) -> list[Letters]:
        """The words of the block ``j << bits | a``: ``w + (a,)`` for each word ``w`` of the shorter class ``j``."""
        if self.shorter is None:
            return [()]
        a = (block & (1 << self.bits) - 1,)
        return [w + a for w in self.shorter.class_words(block >> self.bits, {})]

    def class_words(self, j: int, memo: dict[tuple[int, int], list[Letters]]) -> list[Letters]:
        """The words of class ``j``, its blocks' in turn, listed once per ``memo``, keyed on (length, class)."""
        key = (self.length, j)
        words = memo.get(key)
        if words is None:
            shorter = self.shorter
            if shorter is None:
                words = [()]
            else:
                bits = self.bits
                letter = (1 << bits) - 1
                words = []
                for b in self.classes[j]:
                    a = (b & letter,)
                    words += [w + a for w in shorter.class_words(b >> bits, memo)]
            memo[key] = words
        return words

    def size(self, block: int) -> int:
        """The number of words of a block, without listing them."""
        return 1 if self.shorter is None else self.shorter._sizes[block >> self.bits]

    def block(self, code: int) -> int | None:
        """The block of the word with this code, or None if no word of this length has it.

        It is the owner of the block of the word's prefix, one letter shorter, and its last letter.
        """
        shorter = self.shorter
        if shorter is None:
            return 0 if code == 0 else None
        prefix, a = shorter.block(code & self.mask), code >> self.shift
        return shorter._owner[prefix] << self.bits | a if prefix is not None and 0 < a < self.n else None

    def _close(self, rs: RelationSet, shorter: BlockClasses) -> None:
        length, bits = self.length, self.bits
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
    """Partition of all words of one multidegree into congruence classes, read off the chain ``rs.levels``.

    The chain grows to ``delta.total()`` letters through ``rs.level``, which
    ``verify`` reads it through too, and each class of the degree is listed
    down the levels (``BlockClasses.class_words``), each shorter class once
    per call.  Classes appear in order of their lexicographically smallest
    word of ``delta``.  Under rules read both ways, as every ``RelationSet``
    built from ``RewriteRule``s has them, these are the congruence classes.
    A rule planted in ``by_span`` one way only makes the classes sets of
    words reached; from length 3 on a word may then lie in two of them and
    is listed with its block, the one through the first.
    """
    if delta.n != rs.n:
        raise ValueError("multidegree rank does not match relation set rank")
    level, memo = rs.level(delta.total()), {}
    return [set(level.class_words(j, memo)) for j in level.of(delta)]
