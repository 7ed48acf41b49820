import json
import random
import re
from collections import Counter
from itertools import islice, product

import pytest

import affine_reference
from partic import affine, particles
from partic.affine import (
    AffineConfiguration,
    AffineWord,
    affine_act_word,
    affine_configurations,
    affine_relation_instances,
    find_relation_counterexample,
)
from partic.cli import main
from partic.core import Word, compositions
from partic.particles import ANNIHILATED, Configuration, act_word, word_label


def acfg(n, occ, t=0):
    return AffineConfiguration(n, tuple(occ), t)


def affine_act_gen(i, c):
    return affine_act_word(AffineWord(c.n, (i,)), c)


def label(w):
    return affine._label(w.n, w.letters)


def item(lhs, rhs):
    """The pair of words as an item of the relation stream, each side labelled by ``affine._label``."""
    return lhs.letters, rhs.letters, (label(lhs), label(rhs))


def instance_count(n, m_max, k_max):
    """The number of items of the relation stream, in closed form."""
    # the fixed rules: distant commutation, the two bump rules, and the exchange rule from N=4
    fixed = n * (n - 3) // 2 + 2 * n + (n if n >= 4 else 0)
    # both families, every pivot, m and m' in 1..m_max, all but the bump rules' empty middle block
    per_family = n * m_max * m_max * (k_max + 1) ** (n - 2) - (n if m_max else 0)
    return fixed + 2 * per_family


def eager_pairs(n, m_max, k_max):
    """The reference list without its instances of one word on both sides, which the stream leaves out."""
    return [(lhs, rhs) for lhs, rhs in affine_reference.relation_pairs_eager(n, m_max, k_max) if lhs != rhs]


def test_affine_act_gen_examples():
    # a_0 moves a particle N -> 1 and bumps t
    assert affine_act_gen(0, acfg(4, (0, 0, 0, 1))) == acfg(4, (1, 0, 0, 0), t=1)
    assert affine_act_gen(0, acfg(4, (1, 0, 0, 0))) is ANNIHILATED
    assert affine_act_gen(2, acfg(4, (0, 2, 0, 0))) == acfg(4, (0, 1, 1, 0))
    with pytest.raises(ValueError):
        affine_act_gen(4, acfg(4, (1, 0, 0, 0)))


def test_affine_figure_example():
    c = acfg(8, (3, 1, 0, 0, 2, 0, 0, 1))
    out = affine_act_word(AffineWord(8, (6, 5, 3, 2, 5)), c)
    assert out == acfg(8, (3, 0, 0, 1, 0, 1, 1, 1), t=0)


def test_affine_word_validation():
    AffineWord(4, (0, 3, 1, 0))
    with pytest.raises(ValueError):
        AffineWord(4, (4,))
    # the first offending letter is named, whichever bound it breaks
    with pytest.raises(ValueError, match=r"^letter 5 out of range 0\.\.3$"):
        AffineWord(4, (1, 5, -1))
    with pytest.raises(ValueError, match=r"^letter -1 out of range 0\.\.3$"):
        AffineWord(4, (2, -1, 7))
    assert AffineWord(4, []).letters == ()


@pytest.mark.parametrize("letters, bad", [((0.5,), "0.5"), ((1, True), "True"), ((2, 3.0, 9), "3.0")])
def test_affine_word_refuses_non_integer_letters(letters, bad):
    # a float letter would break the label's list indexing; True would act as a_1
    with pytest.raises(ValueError, match=rf"^letter {bad} is not an integer$"):
        AffineWord(4, letters)


@pytest.mark.parametrize("occ, t", [((1, 0, 0, 0), 0.5), ((1.5, 0, 0, 0), 0), ((1, 0, 0, 0), True), ((0, False, 1, 0), 0)])
def test_affine_configuration_refuses_non_integers(occ, t):
    with pytest.raises(ValueError, match=r"^counts and the wraparound exponent must be integers, got "):
        AffineConfiguration(4, occ, t)


def test_wraparound_marker_counts_a0():
    w = AffineWord(3, (0, 2, 0, 1))
    c = acfg(3, (1, 0, 1))
    out = affine_act_word(w, c)
    assert out is not ANNIHILATED
    assert out.t == 2
    assert sum(out.occ) == sum(c.occ)


def test_instances_include_examples():
    insts = affine_relation_instances(4, 1, 0)
    pairs = {(l.letters, r.letters) for l, r in insts}
    # the four-letter exchange rule read cyclically at i = 0
    assert ((0, 3, 1, 0), (1, 0, 3, 0)) in pairs
    # the three-letter bump rule a_i a_{i+1} a_i = a_{i+1} a_i a_i at i = 0
    assert ((0, 1, 0), (1, 0, 0)) in pairs


def test_instances_letter_multisets_match():
    for n in (3, 4, 5):
        for lhs, rhs in affine_relation_instances(n, 2, 1):
            assert Counter(lhs.letters) == Counter(rhs.letters)
            assert lhs.n == rhs.n == n


def test_no_commutation_instances_at_rank_three():
    # on a 3-cycle every pair of distinct indices is adjacent
    insts = affine_relation_instances(3, 0, 0)
    assert all(len(l.letters) != 2 for l, _ in insts)


def test_exchange_rule_fails_on_three_cycle():
    # the four-letter exchange rule is NOT a module relation at N=3: its
    # outer letters a_{i-1}, a_{i+1} are adjacent there; this witness forces
    # the N >= 4 restriction in affine_relation_instances
    lhs = AffineWord(3, (0, 2, 1, 0))
    rhs = AffineWord(3, (1, 0, 2, 0))
    witness = find_relation_counterexample(lhs, rhs, 2)
    assert witness == acfg(3, (0, 0, 1))
    assert affine_act_word(lhs, witness) == acfg(3, (1, 0, 0), t=2)
    assert affine_act_word(rhs, witness) is ANNIHILATED
    # consequently no four-letter exchange instance is emitted at N=3
    insts = affine_relation_instances(3, 2, 1)
    assert ((0, 2, 1, 0), (1, 0, 2, 0)) not in {(l.letters, r.letters) for l, r in insts}
    # a fixed rule's item labels each side on its own, so the label route finds the witness too
    assert affine._first_failure(3, [affine._fixed(3, lhs.letters, rhs.letters)], 2) == (1, (lhs, rhs, witness))


def test_first_failing_instance_reports_the_first_witness():
    good = [item(lhs, rhs) for lhs, rhs in affine_relation_instances(3, 1, 0)]
    assert affine._first_failure(3, good, 2) == (len(good), None)
    bad = (AffineWord(3, (0, 2, 1, 0)), AffineWord(3, (1, 0, 2, 0)))
    items = good + [item(*bad), item(*bad[::-1])]
    assert affine._first_failure(3, items, 2) == (len(good) + 1, (*bad, acfg(3, (0, 0, 1))))


def test_an_unlabelled_item_with_two_sides_raises():
    # _first_failure labels nothing itself, so an item the stream left unlabelled cannot pass
    with pytest.raises(TypeError):
        affine._first_failure(4, [((0, 2), (2, 0), None)], 2)


def test_verify_relation_trivial_and_false():
    w1 = AffineWord(4, (1,))
    w2 = AffineWord(4, (2,))
    assert find_relation_counterexample(w1, w1, 3) is None
    assert find_relation_counterexample(w1, w2, 2) is not None
    witness = find_relation_counterexample(w1, w2, 2)
    assert witness is not None and witness.t == 0


def test_relation_soundness_small():
    for n in (3, 4):
        for lhs, rhs in affine_relation_instances(n, 2, 1):
            assert find_relation_counterexample(lhs, rhs, 4) is None, (lhs.letters, rhs.letters)


def test_affine_configurations_bounds():
    cs = list(affine_configurations(3, 2))
    assert len(cs) == len(set(cs)) == 10
    assert all(sum(c.occ) <= 2 and c.t == 0 for c in cs)


def test_particle_count_preserved():
    for c in affine_configurations(4, 3):
        for i in range(4):
            out = affine_act_gen(i, c)
            if out is not ANNIHILATED:
                assert sum(out.occ) == sum(c.occ)
                assert out.t == c.t + (1 if i == 0 else 0)


# a_0 a_2 a_1 carries one particle once around the 3-cycle, the doubled word twice:
# equal (output, input), wraparound counts 1 and 2
ONCE_AROUND = (AffineWord(3, (0, 2, 1)), AffineWord(3, (0, 2, 1, 0, 2, 1)))


def random_pairs(seed, count):
    """Seeded word pairs at N=3..5: a word against a shuffle of it or against another word."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n = rng.randint(3, 5)
        letters = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        other = rng.sample(letters, len(letters)) if rng.random() < 0.7 else [
            rng.randrange(n) for _ in range(rng.randint(0, 6))
        ]
        pairs.append((AffineWord(n, letters), AffineWord(n, other)))
    return pairs


def test_affine_word_label_examples():
    assert label(AffineWord(4, ())) == ((0, 0, 0, 0), (0, 0, 0, 0), 0)
    # a_0 takes its particle from position N
    assert label(AffineWord(4, (0,))) == ((1, 0, 0, 0), (0, 0, 0, 1), 1)
    assert label(ONCE_AROUND[0]) == ((1, 0, 0), (1, 0, 0), 1)
    assert label(ONCE_AROUND[1]) == ((1, 0, 0), (1, 0, 0), 2)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_affine_word_label_predicts_the_action(n):
    rng = random.Random(700 + n)
    configs = list(affine_configurations(n, 4))
    for _ in range(150):
        w = AffineWord(n, [rng.randrange(n) for _ in range(rng.randint(0, 7))])
        out, inp, t0 = label(w)
        for c in configs:
            if all(a >= b for a, b in zip(c.occ, inp)):
                expected = acfg(n, [a - b + o for a, b, o in zip(c.occ, inp, out)], t0)
            else:
                expected = ANNIHILATED
            assert affine_act_word(w, c) == expected, (w.letters, c)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_the_line_is_the_circle_without_a_0(n):
    # letters 1..N-1 never wrap, so the line's move and label are the circle's with t = 0
    configs = [Configuration(n, occ) for occ in compositions(n, 3)]
    for length in range(5):
        for letters in product(range(1, n), repeat=length):
            w, aw = Word(n, letters), AffineWord(n, letters)
            assert word_label(w) == label(aw)[:2], letters
            for c in configs:
                line, circle = act_word(w, c), affine_act_word(aw, acfg(n, c.occ))
                expected = ANNIHILATED if line is ANNIHILATED else acfg(n, line.occ)
                assert circle == expected, (letters, c)


def test_first_failing_instance_matches_the_sweep():
    # the per-instance sweep acts both words on every configuration within the bound;
    # one pair per call, as the random pairs mix ranks
    cases = [inst for n in (3, 4, 5) for inst in affine_relation_instances(n, 2, 1)]
    cases += random_pairs(71, 400) + [ONCE_AROUND]
    failing = 0
    for particles in range(5):
        for lhs, rhs in cases:
            witness = find_relation_counterexample(lhs, rhs, particles)
            expected = None if witness is None else (lhs, rhs, witness)
            assert affine._first_failure(lhs.n, [item(lhs, rhs)], particles) == (1, expected), (lhs, rhs, particles)
            failing += witness is not None
    assert failing > 500  # the random pairs include failing ones at every bound


@pytest.mark.parametrize(
    "pair",
    [
        ONCE_AROUND,
        # the exchange rule on a 3-cycle, which fails there on one particle
        (AffineWord(3, (0, 2, 1, 0)), AffineWord(3, (1, 0, 2, 0))),
        # minimal inputs of 1 and 3 particles: the smaller one decides
        (AffineWord(4, (2,)), AffineWord(4, (3, 3, 3))),
        (AffineWord(5, (1, 1, 1)), AffineWord(5, (2, 2, 2))),
    ],
)
def test_first_failing_instance_at_the_particle_bound(pair):
    smaller = min(sum(label(w)[1]) for w in pair)
    n = pair[0].n
    assert affine._first_failure(n, [item(*pair)], smaller - 1) == (1, None)
    assert find_relation_counterexample(*pair, smaller - 1) is None
    lhs, rhs, witness = affine._first_failure(n, [item(*pair)], smaller)[1]
    assert (lhs, rhs) == pair and sum(witness.occ) == smaller
    assert affine_act_word(lhs, witness) != affine_act_word(rhs, witness)


def test_every_instance_has_equal_labels():
    # so each instance holds on configurations with any number of particles
    for n in (3, 4, 5, 6):
        for lhs, rhs in affine_relation_instances(n, 2, 2):
            assert label(lhs) == label(rhs), (lhs.letters, rhs.letters)


def test_first_failing_instance_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="^max_particles must be nonnegative, got -1$"):
        affine._first_failure(3, affine._relation_stream(3, 1, 0), -1)


@pytest.mark.parametrize("bound", [2.5, True])
def test_first_failing_instance_refuses_a_non_integer_bound(bound):
    # both read (6, None): every instance passed at a bound that bounds nothing
    items = affine._relation_stream(3, 1, 0)
    with pytest.raises(ValueError, match=rf"^max_particles {re.escape(repr(bound))} is not an integer$"):
        affine._first_failure(3, items, bound)
    assert len(list(items)) == 6  # refused before any item was read


@pytest.mark.parametrize(
    "m_max, k_max, message",
    [
        # 1.5 raised TypeError at the first next(), and True ran as k_max 1
        (1.5, 1, "m_max 1.5 is not an integer"),
        (1, True, "k_max True is not an integer"),
        (-1, 1, "m_max must be nonnegative, got -1"),
        (1, -1, "k_max must be nonnegative, got -1"),
    ],
)
def test_the_stream_refuses_a_bad_bound_at_the_call(m_max, k_max, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        affine._relation_stream(3, m_max, k_max)


def test_labels_that_the_sweep_does_not_confirm_fail(monkeypatch, capsys):
    # a wrong label must fail the run, never pass it; the label function that labels
    # the items here and the fixed rules of the stream the CLI reads is patched
    monkeypatch.setattr(affine, "_label", lambda n, letters: ((), (), letters))
    commuting = (AffineWord(4, (0, 2)), AffineWord(4, (2, 0)))
    with pytest.raises(ValueError, match=r"\[0 2\] vs \[2 0\]: labels .* differ, yet act alike"):
        affine._first_failure(4, [item(*commuting)], 2)
    assert main(["affine-verify", "--N", "4", "--particles", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "labels" in err


@pytest.mark.parametrize(
    "n, m_max, k_max",
    [(n, m, k) for n in (3, 4, 5, 6) for m, k in ((0, 0), (1, 0), (2, 1), (3, 2))]
    # where the pairs are not hashed, repeats must be known in advance: wide middle
    # blocks at N=3, large outer exponents, and many pivots with short blocks
    + [(7, 2, 1), (3, 5, 4), (4, 4, 3), (5, 4, 2), (8, 1, 1)],
)
def test_the_stream_is_the_eager_list(n, m_max, k_max):
    # in order and in count, and the public list reads the same stream
    expected = eager_pairs(n, m_max, k_max)
    assert [(l, r) for l, r, _ in affine._relation_stream(n, m_max, k_max)] == expected
    assert [(l.letters, r.letters) for l, r in affine_relation_instances(n, m_max, k_max)] == expected


@pytest.mark.parametrize("n, m_max, k_max", [(n, 3, 2) for n in (3, 4, 5, 6)] + [(7, 3, 1)])
def test_stream_labels_are_the_labels_of_the_letters(n, m_max, k_max):
    # the shared-fold fast path against the reference fold of each whole word
    count = 0
    for lhs, rhs, labels in affine._relation_stream(n, m_max, k_max):
        assert lhs != rhs, lhs
        assert labels == (affine._label(n, lhs), affine._label(n, rhs)), (lhs, rhs)
        count += 1
    assert count == instance_count(n, m_max, k_max)


@pytest.mark.parametrize("n", range(3, 9))
def test_append_after_prepend_is_the_label(n):
    # any split u v of a word: fold u from the empty label, then append v
    rng = random.Random(2800 + n)
    for _ in range(300):
        letters = tuple(rng.randrange(n) for _ in range(rng.randint(0, 10)))
        cut = rng.randint(0, len(letters))
        out, inp = [0] * n, [0] * n
        particles._prepend_letters(out, inp, letters[:cut])
        particles._append_letters(out, inp, letters[cut:])
        assert (tuple(out), tuple(inp)) == affine._label(n, letters)[:2], (letters, cut)


@pytest.mark.parametrize("n, m_max, k_max", [(2, 0, 0), (4, -1, 0), (4, 0, -1)])
def test_the_stream_refuses_bad_bounds_at_the_call(n, m_max, k_max):
    # raised by the call itself, with no next(): a generator function would raise on iteration only
    with pytest.raises(ValueError):
        affine._relation_stream(n, m_max, k_max)


def test_the_stream_is_lazy():
    # the first commutation pairs come at once, labelled, though N=1500 has about 1.1 million
    first = list(islice(affine._relation_stream(1500, 0, 0), 3))
    assert [(lhs, rhs) for lhs, rhs, _ in first] == [((0, 2), (2, 0)), ((0, 3), (3, 0)), ((0, 4), (4, 0))]
    for lhs, rhs, labels in first:
        assert labels == (affine._label(1500, lhs), affine._label(1500, rhs)), (lhs, rhs)


@pytest.mark.parametrize(
    "argv",
    [
        ["--N", "4", "--m-max", "-1"],
        ["--N", "4", "--k-max", "-1"],
        ["--N", "2"],
        ["--N", "3", "--particles", "-2"],
    ],
)
def test_affine_verify_refuses_bad_bounds(capsys, argv):
    assert main(["affine-verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("n", (3, 4, 5))
def test_affine_verify_counts_every_instance(capsys, n):
    assert main(["affine-verify", "--N", str(n), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # counted against the reference list, not the stream the CLI reads
    assert payload["passed"] and payload["instances"] == len(eager_pairs(n, 2, 1))


@pytest.mark.parametrize(
    "n, m_max, k_max",
    [(3, 0, 0), (3, 1, 0), (3, 4, 3), (4, 0, 2), (4, 2, 0), (5, 3, 1), (6, 1, 2), (8, 3, 2)],
)
def test_affine_verify_counts_the_closed_form(capsys, n, m_max, k_max):
    argv = ["--N", str(n), "--particles", "0", "--m-max", str(m_max), "--k-max", str(k_max), "--json"]
    assert main(["affine-verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["instances"] == instance_count(n, m_max, k_max)


def test_the_closed_form_at_the_certified_bounds():
    # the runs of scripts/certify_all.py: N=3..8 with m, m' <= 3 and k <= 2
    assert [instance_count(n, 3, 2) for n in range(3, 9)] == [162, 654, 2440, 8763, 30639, 105_004]
