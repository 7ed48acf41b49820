import ast
import random
from collections import Counter
from itertools import chain, permutations, product
from pathlib import Path

import pytest

from partic import rewriting
from partic.core import MultiDegree, Word, multidegrees_up_to
from partic.normal_form import enumerate_basis
from partic.rewriting import (
    BlockClasses,
    RelationSet,
    RewriteRule,
    _coded_words,
    _decode,
    _encode,
    _half_words,
    _reader,
    _steps,
    code_classes,
    congruence_partition,
    partic_rules,
    plactic_rules,
    words_with_degree,
)
from rewriting_reference import (
    class_of,
    closure_reference,
    coded_steps,
    oriented,
    partition_reference,
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


@pytest.mark.parametrize("n, max_total", [(3, 9), (4, 9), (5, 8), (6, 7)])
def test_coded_words_match_the_direct_walk(n, max_total):
    # every word is joined from half-words; the join must list every word, with
    # its code, in lexicographic order
    bits = n.bit_length()
    for delta in multidegrees_up_to(n, max_total):
        assert list(_coded_words(delta, bits).items()) == direct_coded_words(delta, bits), delta


def spread(n, letters):
    """The multidegree at rank n with the given letter counts {letter: count}."""
    return MultiDegree(tuple(letters.get(a, 0) for a in range(1, n)))


@pytest.mark.parametrize(
    "delta",
    [
        MultiDegree((0, 0)),
        MultiDegree((0, 0, 0, 0)),
        # one letter: the first half is the empty word, the rest the whole degree
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
    bits = delta.n.bit_length()
    assert list(_coded_words(delta, bits).items()) == direct_coded_words(delta, bits)


def test_coded_words_from_cold_and_warm_half_word_tables():
    bits = (5).bit_length()
    for delta in multidegrees_up_to(5, 8):
        _half_words.cache_clear()
        cold = list(_coded_words(delta, bits).items())
        assert cold == direct_coded_words(delta, bits), delta
        assert list(_coded_words(delta, bits).items()) == cold, delta
    for rs in (plactic_rules(5), partic_rules(5)):
        _half_words.cache_clear()
        cold = congruence_partition(MultiDegree((2, 2, 2, 2)), rs)
        assert congruence_partition(MultiDegree((2, 2, 2, 2)), rs) == cold, rs.name


def test_half_word_table_lists_each_half_once_and_shares_only_tuples():
    # (2, 2, 2, 2) has 19 sub-degrees of total 4, each met once as a first half
    # (shift 0) and once as a rest (shift 4 letters)
    _half_words.cache_clear()
    _coded_words(MultiDegree((2, 2, 2, 2)), 3)
    assert _half_words.cache_info()[:2] == (0, 38)
    _coded_words(MultiDegree((2, 2, 2, 2)), 3)
    assert _half_words.cache_info()[:2] == (38, 38)
    words, codes = entry = _half_words((1, 1, 0, 2), 3, 12)
    assert _half_words((1, 1, 0, 2), 3, 12) is entry
    assert type(words) is tuple and type(codes) is tuple and all(type(w) is tuple for w in words)
    assert words == tuple(words_with_degree(MultiDegree((1, 1, 0, 2))))
    assert codes == tuple(_encode(w, 3) << 12 for w in words)


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

    The last window of a word takes every rule start that remains, 4 or 5 of
    them at these lengths under the full rule sets, so every rule is met at
    each start it can take near the end.
    """
    rng = random.Random(seed)
    for length in range(9, 13):
        for _ in range(heads):
            head = tuple(rng.randrange(1, n) for _ in range(length - 4))
            yield from (head + end for end in product(range(1, n), repeat=4))


@pytest.mark.parametrize("n", range(3, 7))
def test_table_steps_match_rule_scan(n):
    # one window per three rule starts, the last taking every start that remains (all of
    # them for a word that fits in one window), each from its own table, give the same
    # neighbours as trying every rule at every position; the partic rules are the plactic ones plus the exchange rules.  Every
    # word of length <= 8 (N = 3..5; <= 6 at N = 6, as the scan would take 5^8 words), then
    # words of length 9..12 with every ending
    plactic, partic = plactic_rules(n), partic_rules(n)
    base = oriented(plactic)
    extra = [pair for pair in oriented(partic) if pair not in base]
    exhaustive = (product(range(1, n), repeat=length) for length in range(9 if n <= 5 else 7))
    for letters in chain(*exhaustive, ending_words(n, n)):
        want = steps_reference(letters, base)
        assert coded_steps(letters, plactic) == want, letters
        assert coded_steps(letters, partic) == want | steps_reference(letters, extra), letters


@pytest.mark.parametrize("n, max_len", [(9, 4), (17, 3)])
def test_wide_letters_match_rule_scan(n, max_len):
    # ranks whose letters take 4 and 5 bits of a code
    rs = partic_rules(n)
    assert rs.bits == n.bit_length()
    pairs = oriented(rs)
    classes = {}  # word -> its reference class, closed once per class
    for length in range(max_len + 1):
        for letters in product(range(1, n), repeat=length):
            if letters not in classes:
                cls = closure_reference(letters, pairs)
                classes.update(dict.fromkeys(cls, cls))
            assert coded_steps(letters, rs) == steps_reference(letters, pairs), letters
            assert class_of(Word(n, letters), rs) == classes[letters], letters
    # words long enough to read the wide windows, over the top four letters so that many
    # rules apply and the highest bits are set
    rng = random.Random(n)
    for _ in range(400):
        letters = tuple(rng.randrange(n - 4, n) for _ in range(rng.randrange(7, 10)))
        assert coded_steps(letters, rs) == steps_reference(letters, pairs), letters


@pytest.mark.parametrize("rs", [plactic_rules(5), partic_rules(5)], ids=lambda rs: rs.name)
def test_steps_append_only_the_codes_not_yet_visited(rs):
    # congruence_partition keeps one visited set for a whole degree, so the loop must skip
    # every code already in it and append each other neighbour once, marking it visited
    rng = random.Random(5)
    pairs = oriented(rs)
    for _ in range(300):
        letters = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(7, 10)))
        neighbours = sorted(steps_reference(letters, pairs) - {letters})
        visited = set(rng.sample(neighbours, len(neighbours) // 2))
        code = _encode(letters, rs.bits)
        seen = {code} | {_encode(w, rs.bits) for w in visited}
        before, out = set(seen), []
        _steps([code], out, _reader(rs, len(letters)), rs, seen)
        assert sorted(_decode(c, rs.bits) for c in out) == [w for w in neighbours if w not in visited], letters
        assert seen == before | set(out)


def test_window_memo_holds_only_the_windows_met():
    # filled lazily from by_span, one plain dict per (rule starts in the window, shift), and
    # no table reads another: a rank-40 word of length 4 fits in one 6-letter window, so it
    # reads one window at shift 0 with its 3 rule starts, the table a full window reads
    # there.  A longer word reads one window per three starts, and its last window, which
    # reaches the word's end, takes every start that remains: 4 starts at shift 18 at
    # length 8, 5 there at length 9, so these two share only the table at shift 0, where
    # they meet one window; at length 10 the last window, at shift 36, takes 3 starts, and
    # at length 13 a full window reads that same table
    rs = partic_rules(40)

    def sizes():
        return {key: len(table) for key, table in rs.tables.items()}

    assert sizes() == {}
    short = (20, 19, 21, 20)
    assert coded_steps(short, rs) == steps_reference(short, oriented(rs))
    assert sizes() == {(3, 0): 1}
    long = short + (5, 4, 6, 5)
    assert coded_steps(long, rs) == steps_reference(long, oriented(rs))
    assert sizes() == {(3, 0): 2, (4, 18): 1}
    longer = long + (5,)
    assert coded_steps(longer, rs) == steps_reference(longer, oriented(rs))
    assert sizes() == {(3, 0): 2, (4, 18): 1, (5, 18): 1}
    longest = longer + (6,)
    assert coded_steps(longest, rs) == steps_reference(longest, oriented(rs))
    assert sizes() == {(3, 0): 2, (4, 18): 1, (5, 18): 1, (3, 18): 1, (3, 36): 1}
    for table in rs.tables.values():
        assert type(table) is dict
        for diffs in table.values():
            assert rs.interned[diffs] is diffs
    plans = {length: _reader(rs, length) for length in (8, 9, 10, 13)}
    assert {mask for mask, _, _ in plans.values()} == {(1 << 36) - 1}
    assert {length: plan for length, (_, plan, _) in plans.items()} == {
        8: {0: 3, 18: 4},
        9: {0: 3, 18: 5},
        10: {0: 3, 18: 3, 36: 3},
        13: {0: 3, 18: 3, 36: 3, 54: 3},
    }
    for _, plan, tables in plans.values():
        assert [shift for _, shift in tables] == list(plan)
        for (table, shift), starts in zip(tables, plan.values()):
            assert table is rs.tables[starts, shift]


@pytest.mark.parametrize("n", range(3, 7))
def test_window_lookups_per_word_have_the_closed_form(n):
    # the work count of a rewrite step: 1 + ceil((L - span - 2) / 3) lookups, span the longest
    # rule's, and one for a word that fits in one window; the windows read, in order, take
    # every rule start of the word exactly once.  A word shorter than the shortest rule
    # reads one window that holds nothing
    for rs in (plactic_rules(n), partic_rules(n)):
        lo, hi = min(rs.by_span), max(rs.by_span)
        for length in range(13):
            want = 1 + max(0, -(-(length - hi - 2) // 3))
            _, plan, tables = _reader(rs, length)
            assert len(tables) == want, (rs.name, length)
            starts = [shift // rs.bits + j for shift, count in plan.items() for j in range(count)]
            assert starts == list(range(length - lo + 1)), (rs.name, length)
            if length < lo:
                assert plan == {0: 0}
                letters = (1,) * length
                assert coded_steps(letters, rs) == steps_reference(letters, oriented(rs)) == set()
                assert set(rs.tables[0, 0].values()) == {()}
    assert len(_reader(partic_rules(5), 8)[2]) == len(_reader(plactic_rules(5), 8)[2]) == 2


@pytest.mark.parametrize("n", (3, 4))
def test_clear_leaves_no_stale_table(n):
    # every table in rs.tables, at each start count and shift, is filled at lengths
    # 0..9; then a rule (1, 2) <-> (2, 2) goes straight into by_span, as RewriteRule
    # refuses it, and at N = 3, whose rules all have span 3, it also moves the last
    # position a rule starts at
    rs = partic_rules(n)
    rng = random.Random(n)
    words = [
        list(product(range(1, n), repeat=length))
        if (n - 1) ** length <= 512
        else [tuple(rng.randrange(1, n) for _ in range(length)) for _ in range(512)]
        for length in range(10)
    ]
    for batch in words:
        for letters in batch:
            assert coded_steps(letters, rs) == steps_reference(letters, oriented(rs)), letters
    added = [((1, 2), (2, 2)), ((2, 2), (1, 2))]
    for lhs, rhs in added:
        code = _encode(lhs, rs.bits)
        rs.by_span.setdefault(2, {}).setdefault(code, []).append(_encode(rhs, rs.bits) - code)
    rs.tables.clear()
    for batch in words:
        for letters in batch:
            assert coded_steps(letters, rs) == steps_reference(letters, oriented(rs) + added), letters


@pytest.mark.parametrize("span", [None, 2, 3, 4], ids=["none", "span-2", "span-3", "span-4"])
def test_table_steps_match_rule_scan_for_partial_rule_sets(span):
    # no rules at all, or the partic rules of one span only (the commutations, the plactic
    # rules, the exchange rules), so that the shortest and longest rule differ from the
    # full sets' or there is none
    rules = tuple(r for r in partic_rules(4).rules if len(r.lhs) == span)
    assert bool(rules) == (span is not None)
    rs = RelationSet(f"span-{span}", 4, rules)
    pairs = oriented(rs)
    exhaustive = (product(range(1, 4), repeat=length) for length in range(9))
    for letters in chain(*exhaustive, ending_words(4, 4)):
        assert coded_steps(letters, rs) == steps_reference(letters, pairs), letters
    if span is None:
        assert congruence_partition(MultiDegree((1, 1, 1)), rs) == [{p} for p in permutations((1, 2, 3))]


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
    # an even and an odd length, both at least 8 letters, so the words come joined from halves
    delta = MultiDegree(counts)
    assert congruence_partition(delta, rs) == partition_reference(delta, rs)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_code_classes_decode_to_the_partition(n):
    # the tests read the BFS classes as codes straight from the coded words; decoded one code
    # at a time they must be congruence_partition's classes, class by class and in order
    for rs in (plactic_rules(n), partic_rules(n)):
        for delta in multidegrees_up_to(n, 7):
            codes = _coded_words(delta, rs.bits)
            decoded = [{_decode(c, rs.bits) for c in cls} for cls in code_classes(codes, delta.total(), rs)]
            assert decoded == congruence_partition(delta, rs), (rs.name, delta)


def block_partitions(rs, max_len):
    """Each degree of total <= max_len, in verify's order, with its ``BlockClasses`` classes as code sets."""
    level = BlockClasses(rs)
    for delta in multidegrees_up_to(rs.n, max_len):
        if delta.total() != level.length:
            level = BlockClasses(rs, level)
        yield delta, [{c for b in level.classes[j] for c in level.words(b)} for j in level.of(delta)]


@pytest.mark.parametrize("n, max_len", [(3, 9), (4, 8), (5, 7), (6, 6)])
@pytest.mark.parametrize("rules", [plactic_rules, partic_rules, without_exchange_rule])
def test_block_classes_are_the_bfs_classes(rules, n, max_len):
    # the blocks joined by the rewrites at the last letter are the classes code_classes closes
    # word by word: the same code sets in the same order, the order of their least words
    rs, reference = rules(n), rules(n)
    for delta, classes in block_partitions(rs, max_len):
        codes = _coded_words(delta, rs.bits)
        assert classes == [set(cls) for cls in code_classes(codes, delta.total(), reference)], (rs.name, delta)


def test_blocks_partition_the_words_of_each_length():
    # a block is a shorter class times a letter: the blocks of a length partition its words,
    # and each class holds whole blocks; at N = 5, L <= 6, 1,161 blocks make 595 classes
    rs, levels = partic_rules(5), []
    for delta in multidegrees_up_to(5, 6):
        if not levels or delta.total() != levels[-1].length:
            levels.append(BlockClasses(rs, levels[-1] if levels else None))
        levels[-1].of(delta)
    assert sum(len(cls) for level in levels for cls in level.classes) == 1161
    assert sum(len(level.classes) for level in levels) == 595
    for length, level in enumerate(levels):
        blocks = [b for cls in level.classes for b in cls]
        words = [w for b in blocks for w in level.words(b)]
        assert len(blocks) == len(set(blocks))
        assert sorted(words) == sorted(_encode(w, rs.bits) for w in product(range(1, 5), repeat=length))
        assert all(level.block(w) in cls for cls in level.classes for b in cls for w in level.words(b))
        assert [level.size(b) for b in blocks] == [len(level.words(b)) for b in blocks]
        # a code of another length has no block
        assert level.block(_encode((1,) * (length + 1), rs.bits)) is None
        assert length == 0 or level.block(_encode((1,) * (length - 1), rs.bits)) is None


@pytest.mark.parametrize("n", (3, 4))
def test_a_rule_planted_between_levels_is_read_by_the_next(n):
    # the block route's counterpart of test_clear_leaves_no_stale_table: it keeps no table,
    # so a rule planted in by_span once the levels to length 3 are built is read by the
    # level of length 4 with nothing cleared.  The rule (1, 1, 2, 2) <-> (2, 2, 1, 1) spans
    # the whole word, so it ends at the last letter wherever it applies, and it joins two
    # classes; at N = 3 it is the first rule of span 4, at N = 4 it joins the exchange rule
    rs, levels = partic_rules(n), []
    for _ in range(4):
        levels.append(BlockClasses(rs, levels[-1] if levels else None))
    before = len(BlockClasses(rs, levels[-1]).classes)
    degrees = [delta for delta in multidegrees_up_to(n, 4) if delta.total() == 4]
    for delta in degrees:  # the word BFS fills its window tables under the rules as they were
        code_classes(_coded_words(delta, rs.bits), 4, rs)
    lhs, rhs = _encode((1, 1, 2, 2), rs.bits), _encode((2, 2, 1, 1), rs.bits)
    rules = rs.by_span.setdefault(4, {})
    rules.setdefault(lhs, []).append(rhs - lhs)
    rules.setdefault(rhs, []).append(lhs - rhs)
    level = BlockClasses(rs, levels[-1])
    assert len(level.classes) == before - 1
    rs.tables.clear()
    for delta in degrees:
        blocks = [{c for b in level.classes[j] for c in level.words(b)} for j in level.of(delta)]
        assert blocks == [set(cls) for cls in code_classes(_coded_words(delta, rs.bits), 4, rs)], delta


@pytest.mark.parametrize("rs", [plactic_rules(5), partic_rules(5)], ids=lambda rs: rs.name)
def test_code_classes_read_one_window_plan_per_call(monkeypatch, rs):
    # every code of a degree has one length, so one window plan serves all of its classes
    plans = []
    monkeypatch.setattr(rewriting, "_reader", lambda rs, length: plans.append(length) or _reader(rs, length))
    for counts in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)]:
        delta = MultiDegree(counts)
        plans.clear()
        classes = code_classes(_coded_words(delta, rs.bits), delta.total(), rs)
        assert plans == [delta.total()]
        assert len(classes) > 1 or not delta.total()
        plans.clear()
        assert len(congruence_partition(delta, rs)) == len(classes)
        assert plans == [delta.total()]


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
