import ast
import gc
import random
import weakref
from collections import Counter
from functools import cache
from itertools import chain, permutations, product
from math import factorial, prod
from pathlib import Path

import pytest

from partic.core import MultiDegree, Word, multidegrees_up_to
from partic.normal_form import enumerate_basis
from partic.rewriting import (
    BlockClasses,
    RelationSet,
    RewriteRule,
    _encode,
    congruence_partition,
    partic_rules,
    plactic_rules,
    words_with_degree,
)
from rewriting_reference import (
    class_of,
    closure_reference,
    coded_steps,
    decode,
    left_sides,
    oriented,
    partition_reference,
    scan_classes,
    scan_partition,
    steps_reference,
    without_exchange_rule,
)


def equivalent(w1, w2, rs):
    return w2.letters in class_of(w1, rs)


def test_relation_set_contents():
    for n in (3, 4, 5):
        pl = plactic_rules(n)
        pa = partic_rules(n)
        assert set(pl.rules) <= set(pa.rules)
        if n >= 4:
            # the exchange rule needs an index with 2 <= i <= N-2
            assert set(pl.rules) < set(pa.rules)
        for r in pa.rules:
            assert sorted(r.lhs) == sorted(r.rhs)


def test_one_step_examples():
    assert coded_steps((1, 3), partic_rules(4)) == {(3, 1)}
    assert coded_steps((2, 1, 2), partic_rules(3)) == {(2, 2, 1)}
    assert coded_steps((1,), partic_rules(3)) == set()


def test_congruence_class_hand_enumerated():
    # the classes of 2132 were worked out by hand: plactic only commutes the
    # distant pair, the extra exchange rule opens up three more words
    w = Word(4, (2, 1, 3, 2))
    assert class_of(w, plactic_rules(4)) == {(2, 1, 3, 2), (2, 3, 1, 2)}
    assert class_of(w, partic_rules(4)) == {
        (2, 1, 3, 2),
        (2, 3, 1, 2),
        (3, 2, 1, 2),
        (3, 2, 2, 1),
        (2, 3, 2, 1),
    }


def test_congruence_class_trivial():
    assert class_of(Word(3, (1,)), partic_rules(3)) == {(1,)}


def test_congruence_class_idempotent():
    w = Word(4, (2, 1, 3, 2))
    cls = class_of(w, partic_rules(4))
    for member in cls:
        assert class_of(Word(4, member), partic_rules(4)) == cls


def test_words_equivalent_examples():
    rs3 = plactic_rules(3)
    assert equivalent(Word(3, (2, 2, 1, 1)), Word(3, (2, 1, 2, 1)), rs3)
    assert equivalent(Word(3, (2, 1, 2, 1)), Word(3, (2, 2, 1, 1)), rs3)
    # a class holds words of one multidegree only
    assert not equivalent(Word(4, (3, 2, 1)), Word(4, (2, 3, 2, 1)), partic_rules(4))


def test_power_identity_fixture():
    # a_i^m a_{i-1}^m = (a_i a_{i-1})^m and a_i commutes with that block
    for n in (3, 4, 5):
        rs = plactic_rules(n)
        for i in range(2, n):
            for m in range(4):
                lhs = Word(n, (i,) * m + (i - 1,) * m)
                rhs = Word(n, (i, i - 1) * m)
                assert equivalent(lhs, rhs, rs)
                block = lhs.letters
                assert equivalent(Word(n, (i,) + block), Word(n, block + (i,)), rs)


def test_descending_run_commutation_fixture():
    # (a_i a_{i-1} ... a_j) a_k = a_k (a_i ... a_j) whenever j <= k <= i
    for n in (3, 4, 5):
        rs = plactic_rules(n)
        for i in range(1, n):
            for j in range(1, i + 1):
                run = tuple(range(i, j - 1, -1))
                for k in range(j, i + 1):
                    assert equivalent(Word(n, run + (k,)), Word(n, (k,) + run), rs)


def test_count_classes_examples():
    assert len(congruence_partition(MultiDegree((1, 1)), partic_rules(3))) == 2
    assert len(congruence_partition(MultiDegree((1, 0)), partic_rules(3))) == 1
    d = MultiDegree((1, 2, 1))
    assert len(congruence_partition(d, partic_rules(4))) == len(enumerate_basis(d))


def test_plactic_refines_partic_with_strict_witness():
    d = MultiDegree((1, 2, 1, 1))
    n_plactic = len(congruence_partition(d, plactic_rules(5)))
    n_partic = len(congruence_partition(d, partic_rules(5)))
    assert n_plactic >= n_partic
    assert n_plactic > n_partic
    # the two plactic preimages of a4 a3 a2 a1 a2
    w1 = Word(5, (2, 4, 3, 2, 1))
    w2 = Word(5, (2, 1, 4, 3, 2))
    assert equivalent(w1, w2, partic_rules(5))
    assert not equivalent(w1, w2, plactic_rules(5))


def test_words_with_degree_lexicographic_and_complete():
    d = MultiDegree((2, 1))
    ws = list(words_with_degree(d))
    assert ws == sorted(ws)
    assert set(ws) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


@pytest.mark.parametrize("n", (3, 4, 5))
def test_words_with_degree_matches_distinct_permutations(n):
    for delta in multidegrees_up_to(n, 6):
        letters = [a for a, c in enumerate(delta.counts, 1) for _ in range(c)]
        assert list(words_with_degree(delta)) == sorted(set(permutations(letters))), delta


def direct_coded_words(delta, bits):
    return [(_encode(w, bits), w) for w in words_with_degree(delta)]


def listed_coded_words(delta, rs):
    """The words of ``delta``'s classes, listed down the chain ``rs.levels``, with their codes, by word.

    Each code's block, read by walking the owners letter by letter, must lie
    in the class that lists the word.
    """
    classes = congruence_partition(delta, rs)
    level, out = rs.levels[delta.total()], []
    for j, cls in zip(level.of(delta), classes, strict=True):
        for w in cls:
            code = _encode(w, rs.bits)
            assert level.block(code) in level.classes[j], (rs.name, w)
            out.append((code, w))
    return sorted(out, key=lambda item: item[1])


@pytest.mark.parametrize("n, max_total", [(3, 9), (4, 9), (5, 8), (6, 7)])
def test_coded_words_match_the_direct_walk(n, max_total):
    # the chain lists every word of a degree once, in one of the degree's classes, and its
    # code walks the owners to that class; by word, they are the direct walk with its codes
    for rs in (plactic_rules(n), partic_rules(n)):
        for delta in multidegrees_up_to(n, max_total):
            assert listed_coded_words(delta, rs) == direct_coded_words(delta, rs.bits), (rs.name, delta)


def spread(n, letters):
    """The multidegree at rank n with the given letter counts {letter: count}."""
    return MultiDegree(tuple(letters.get(a, 0) for a in range(1, n)))


@cache
def edge_rules(n):
    """The partic rules at rank n, one rule set per rank, so the edge degrees of a rank share its chain."""
    return partic_rules(n)


@pytest.mark.parametrize(
    "delta",
    [
        MultiDegree((0, 0)),
        MultiDegree((0, 0, 0, 0)),
        # one letter: the chain's first level below the empty word
        MultiDegree((1, 0)),
        MultiDegree((0, 0, 1)),
        MultiDegree((10, 0, 0)),
        MultiDegree((0, 9, 0, 0)),
        MultiDegree((0, 0, 8)),
        # 4 bits per letter, the top letter 8 = 0b1000 fills them
        spread(9, {1: 2, 4: 1, 7: 2, 8: 3}),
        spread(9, {2: 3, 5: 3, 8: 3}),
        # 5 bits per letter, the top letter 16 = 0b10000
        spread(17, {3: 2, 9: 2, 15: 2, 16: 2}),
        spread(17, {1: 1, 8: 2, 15: 3, 16: 3}),
    ],
    ids=str,
)
def test_coded_words_at_edge_degrees(delta):
    # the direct walk lists each arrangement of the degree's letters once, in lexicographic
    # order, and each code reads back to its word and has exactly its length's bits, the last
    # letter nonzero, so a code fixes its word's length
    bits = delta.n.bit_length()
    direct = direct_coded_words(delta, bits)
    letters = sorted(a for a, c in enumerate(delta.counts, 1) for _ in range(c))
    words = [w for _, w in direct]
    assert all(u < v for u, v in zip(words, words[1:]))
    assert all(sorted(w) == letters for w in words)
    assert len(words) == factorial(len(letters)) // prod(factorial(c) for c in delta.counts)
    for code, w in direct:
        assert decode(code, bits) == w
        assert code >> bits * len(w) == 0 and (not w or code >> bits * (len(w) - 1))
    # up to rank 9 the chain lists the same words with the same codes, in the classes of a
    # search over words; at rank 17 its level of length 7 alone holds 594,508 classes
    if delta.n <= 9:
        rs = edge_rules(delta.n)
        assert listed_coded_words(delta, rs) == direct
        assert congruence_partition(delta, rs) == scan_partition(delta, rs)


def test_partition_covers_degree():
    d = MultiDegree((1, 1, 1))
    classes = congruence_partition(d, partic_rules(4))
    union = set().union(*classes)
    assert union == set(words_with_degree(d))
    assert sum(len(c) for c in classes) == len(union)


@pytest.mark.parametrize("n", range(3, 9))
def test_rules_preserve_letter_multisets(n):
    # a rewrite step swaps one side of a rule for the other, so equal letter
    # multisets on both sides are what keep every step inside one multidegree
    for rs in (plactic_rules(n), partic_rules(n)):
        for r in rs.rules:
            assert Counter(r.lhs) == Counter(r.rhs), r


def test_rewrite_rule_rejects_degree_change():
    with pytest.raises(ValueError):
        RewriteRule((1, 2), (2, 2))
    with pytest.raises(ValueError):
        RewriteRule((1, 2, 1), (1, 2))


@pytest.mark.parametrize("bad", [0, 4], ids=["zero", "rank"])
def test_relation_set_rejects_rule_letters_outside_the_rank(bad):
    # the coded oracle cannot hold a letter outside 1..N-1: a 0 reads as the end of a
    # word and one of 2**bits or more spills into the next letter, so a BFS over such a
    # set need not end; only construction is tried.  The message names the first bad
    # letter, in rule order, not the later 5
    rules = (RewriteRule((1, 3), (3, 1)), RewriteRule((2, bad), (bad, 2)), RewriteRule((5, 1), (1, 5)))
    with pytest.raises(ValueError, match=rf"^rule letter {bad} is outside 1\.\.3$"):
        RelationSet("bad", 4, rules)


def test_normal_form_expansion_in_class():
    # desk-scale soundness of the normal form against the oracle
    from partic.core import nm_to_word
    from partic.normal_form import normalize

    for n in (3, 4):
        rs = partic_rules(n)
        for delta in multidegrees_up_to(n, 6):
            for cls in congruence_partition(delta, rs):
                for letters in cls:
                    assert nm_to_word(normalize(Word(n, letters))).letters in cls


def test_count_matches_basis_up_to_six():
    for n in (3, 4):
        rs = partic_rules(n)
        for delta in multidegrees_up_to(n, 6):
            assert len(congruence_partition(delta, rs)) == len(enumerate_basis(delta))


def ending_words(n, seed, heads=2):
    """For each length 9..12, ``heads`` random beginnings, each followed by every four-letter ending over 1..n-1.

    Every rule is then met at each start it can take near the end of a word.
    """
    rng = random.Random(seed)
    for length in range(9, 13):
        for _ in range(heads):
            head = tuple(rng.randrange(1, n) for _ in range(length - 4))
            yield from (head + end for end in product(range(1, n), repeat=4))


@pytest.mark.parametrize("n", range(3, 7))
def test_table_steps_match_rule_scan(n):
    # the coded rule table by_span, each entry tried at every start, gives the same neighbours
    # as trying every rule at every position; the partic rules are the plactic ones plus the
    # exchange rules.  Every word of length <= 8 (N = 3..5; <= 6 at N = 6, as the scan would
    # take 5^8 words), then words of length 9..12 with every ending
    plactic, partic = plactic_rules(n), partic_rules(n)
    base = oriented(plactic)
    extra = [pair for pair in oriented(partic) if pair not in base]
    base, extra = left_sides(base), left_sides(extra)
    exhaustive = (product(range(1, n), repeat=length) for length in range(9 if n <= 5 else 7))
    for letters in chain(*exhaustive, ending_words(n, n)):
        want = steps_reference(letters, base)
        assert coded_steps(letters, plactic) == want, letters
        assert coded_steps(letters, partic) == want | steps_reference(letters, extra), letters


@pytest.mark.parametrize("span", [None, 2, 3, 4], ids=["none", "span-2", "span-3", "span-4"])
def test_table_steps_match_rule_scan_for_partial_rule_sets(span):
    # no rules at all, or the partic rules of one span only (the commutations, the plactic
    # rules, the exchange rules), so that by_span holds one span or none
    rules = tuple(r for r in partic_rules(4).rules if len(r.lhs) == span)
    assert bool(rules) == (span is not None)
    rs = RelationSet(f"span-{span}", 4, rules)
    assert list(rs.by_span) == ([span] if rules else [])
    table = left_sides(oriented(rs))
    exhaustive = (product(range(1, 4), repeat=length) for length in range(9))
    for letters in chain(*exhaustive, ending_words(4, 4)):
        assert coded_steps(letters, rs) == steps_reference(letters, table), letters
    if span is None:
        assert congruence_partition(MultiDegree((1, 1, 1)), rs) == [{p} for p in permutations((1, 2, 3))]


@pytest.mark.parametrize("n, max_len", [(9, 4), (17, 3)])
def test_wide_letters_match_rule_scan(n, max_len):
    # ranks whose letters take 4 and 5 bits of a code
    rs = partic_rules(n)
    assert rs.bits == n.bit_length()
    table = left_sides(oriented(rs))
    classes = {}  # word -> its reference class, closed once per class
    for length in range(max_len + 1):
        for letters in product(range(1, n), repeat=length):
            if letters not in classes:
                cls = closure_reference(letters, table)
                classes.update(dict.fromkeys(cls, cls))
            assert coded_steps(letters, rs) == steps_reference(letters, table), letters
            assert class_of(Word(n, letters), rs) == classes[letters], letters


@pytest.mark.parametrize("n", (3, 4))
def test_clear_leaves_no_stale_table(n):
    # the levels congruence_partition builds stay on the rule set, and a level reads by_span
    # once, when it is built: a rule (1, 2) <-> (2, 2) planted in by_span after the calls, as
    # RewriteRule refuses it, is not seen by the levels already built, and is seen once
    # rs.levels is cleared.  At N = 3, whose rules all have span 3, it is the only rule of span 2
    rs = partic_rules(n)
    degrees = multidegrees_up_to(n, 6)
    before = [congruence_partition(delta, rs) for delta in degrees]
    assert len(rs.levels) == 7
    for lhs, rhs in (((1, 2), (2, 2)), ((2, 2), (1, 2))):
        code = _encode(lhs, rs.bits)
        rs.by_span.setdefault(2, {}).setdefault(code, []).append(_encode(rhs, rs.bits) - code)
    assert [congruence_partition(delta, rs) for delta in degrees] == before
    rs.levels.clear()
    after = [congruence_partition(delta, rs) for delta in degrees]
    assert after == [scan_partition(delta, rs) for delta in degrees] != before


def test_a_dropped_rule_set_dies_with_its_chain():
    # no level refers back to its rule set, so a rule set and the chain it keeps are no
    # cycle: dropping the last reference frees both at once, with the cycle collector idle
    rs = partic_rules(4)
    congruence_partition(MultiDegree((2, 2, 2)), rs)
    assert len(rs.levels) == 7
    dead, chain = weakref.ref(rs), weakref.ref(rs.levels[-1])
    gc.disable()
    try:
        del rs
        assert dead() is None and chain() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("rules", [plactic_rules, partic_rules])
def test_a_short_call_after_a_long_one_reads_the_cached_level(monkeypatch, rules):
    # the chain grows to the longest total asked for and stays on the rule set, so a call at
    # total 3 after one at total 8 builds no level and reads the one of length 3
    rs = rules(5)
    congruence_partition(MultiDegree((2, 2, 2, 2)), rs)
    levels = list(rs.levels)
    assert [level.length for level in levels] == list(range(9))
    built, real = [], BlockClasses.__init__
    monkeypatch.setattr(BlockClasses, "__init__", lambda self, *args: built.append(args) or real(self, *args))
    for counts in [(1, 0, 1, 1), (0, 3, 0, 0), (1, 1, 1, 0)]:
        delta = MultiDegree(counts)
        assert congruence_partition(delta, rs) == partition_reference(delta, rs), delta
    assert built == []
    assert all(a is b for a, b in zip(rs.levels, levels, strict=True))


@pytest.mark.parametrize("span", [None, 2, 3, 4], ids=["none", "span-2", "span-3", "span-4"])
def test_partition_of_partial_rule_sets_matches_rule_scan(span):
    # one visited set serves every class of a degree; with fewer rules there are more,
    # smaller classes, down to one word each, and each must still be a whole class
    rs = RelationSet(f"span-{span}", 4, tuple(r for r in partic_rules(4).rules if len(r.lhs) == span))
    for delta in multidegrees_up_to(4, 7):
        classes = congruence_partition(delta, rs)
        assert classes == partition_reference(delta, rs), delta
        assert sum(map(len, classes)) == len(set().union(*classes))


@pytest.mark.parametrize("n", (4, 5))
def test_partition_matches_rule_scan(n):
    for rs in (plactic_rules(n), partic_rules(n)):
        for delta in multidegrees_up_to(n, 6):
            assert congruence_partition(delta, rs) == partition_reference(delta, rs), delta


@pytest.mark.parametrize("rs", [plactic_rules(5), partic_rules(5)], ids=lambda rs: rs.name)
def test_partition_matches_rule_scan_at_the_largest_total_eight_degree(rs):
    delta = MultiDegree((2, 2, 2, 2))  # 2,520 words
    classes = congruence_partition(delta, rs)
    assert sum(map(len, classes)) == 2520
    assert classes == partition_reference(delta, rs)


@pytest.mark.parametrize("counts", [(3, 3, 2), (3, 3, 3)], ids=str)
@pytest.mark.parametrize("rs", [plactic_rules(4), partic_rules(4)], ids=lambda rs: rs.name)
def test_partition_matches_rule_scan_on_joined_words(rs, counts):
    # an even and an odd length, both at least 8 letters, listed down as many levels
    delta = MultiDegree(counts)
    assert congruence_partition(delta, rs) == partition_reference(delta, rs)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_code_classes_decode_to_the_partition(n):
    # the search over words gives its classes as codes; decoded one code at a time they must
    # be congruence_partition's classes, class by class and in order, and the blocks of a
    # class's codes must be the blocks of the chain's class
    for rs in (plactic_rules(n), partic_rules(n)):
        for delta in multidegrees_up_to(n, 7):
            codes = scan_classes(delta, rs)
            decoded = [{decode(c, rs.bits) for c in cls} for cls in codes]
            assert decoded == congruence_partition(delta, rs), (rs.name, delta)
            level = rs.levels[delta.total()]
            blocks = [{level.block(c) for c in cls} for cls in codes]
            assert blocks == [set(level.classes[j]) for j in level.of(delta)], (rs.name, delta)


def block_partitions(rs, max_len):
    """Each degree of total <= max_len, in verify's order, with its ``BlockClasses`` classes as word sets."""
    for delta in multidegrees_up_to(rs.n, max_len):
        level = rs.level(delta.total())
        yield delta, [{w for b in level.classes[j] for w in level.words(b)} for j in level.of(delta)]


@pytest.mark.parametrize("n, max_len", [(3, 9), (4, 8), (5, 7), (6, 6)])
@pytest.mark.parametrize("rules", [plactic_rules, partic_rules, without_exchange_rule])
def test_block_classes_are_the_bfs_classes(rules, n, max_len):
    # the blocks joined by the rewrites at the last letter are the classes a search over words
    # closes by scanning every rule at every position: the same word sets in the same order,
    # the order of their least words
    rs = rules(n)
    for delta, classes in block_partitions(rs, max_len):
        assert classes == scan_partition(delta, rs), (rs.name, delta)


def test_blocks_partition_the_words_of_each_length():
    # a block is a shorter class times a letter: the blocks of a length partition its words,
    # and each class holds whole blocks; at N = 5, L <= 6, 1,161 blocks make 595 classes
    rs = partic_rules(5)
    for delta in multidegrees_up_to(5, 6):
        rs.level(delta.total()).of(delta)
    levels = rs.levels
    assert sum(len(cls) for level in levels for cls in level.classes) == 1161
    assert sum(len(level.classes) for level in levels) == 595
    for length, level in enumerate(levels):
        blocks = [b for cls in level.classes for b in cls]
        words = [w for b in blocks for w in level.words(b)]
        assert len(blocks) == len(set(blocks))
        assert sorted(words) == list(product(range(1, 5), repeat=length))
        codes = {w: _encode(w, rs.bits) for w in words}
        assert all(level.block(codes[w]) in cls for cls in level.classes for b in cls for w in level.words(b))
        assert [level.size(b) for b in blocks] == [len(level.words(b)) for b in blocks]
        # a code of another length has no block
        assert level.block(_encode((1,) * (length + 1), rs.bits)) is None
        assert length == 0 or level.block(_encode((1,) * (length - 1), rs.bits)) is None


@pytest.mark.parametrize("n", (3, 4))
def test_a_rule_planted_between_levels_is_read_by_the_next(n):
    # a level reads by_span when it is built, so a rule planted in by_span once the levels to
    # length 3 are built is read by the level of length 4 with nothing cleared.  The rule
    # (1, 1, 2, 2) <-> (2, 2, 1, 1) spans the whole word, so it ends at the last letter wherever it applies, and it joins two
    # classes; at N = 3 it is the first rule of span 4, at N = 4 it joins the exchange rule
    rs, levels = partic_rules(n), []
    for _ in range(4):
        levels.append(BlockClasses(rs, levels[-1] if levels else None))
    before = len(BlockClasses(rs, levels[-1]).classes)
    degrees = [delta for delta in multidegrees_up_to(n, 4) if delta.total() == 4]
    lhs, rhs = _encode((1, 1, 2, 2), rs.bits), _encode((2, 2, 1, 1), rs.bits)
    rules = rs.by_span.setdefault(4, {})
    rules.setdefault(lhs, []).append(rhs - lhs)
    rules.setdefault(rhs, []).append(lhs - rhs)
    level = BlockClasses(rs, levels[-1])
    assert len(level.classes) == before - 1
    for delta in degrees:
        blocks = [{w for b in level.classes[j] for w in level.words(b)} for j in level.of(delta)]
        assert blocks == scan_partition(delta, rs), delta


def test_oracle_imports_only_core():
    # the oracle certifies the normal form, so it must not reach any other partic module
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "partic" / "rewriting.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    partic = {m for m in imported if m.startswith(".") or m.split(".")[0] == "partic"}
    assert partic == {".core"}, imported
