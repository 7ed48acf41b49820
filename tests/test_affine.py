from collections import Counter

import pytest

from partic.affine import (
    AffineConfiguration,
    AffineWord,
    affine_act_gen,
    affine_act_word,
    affine_configurations,
    affine_relation_instances,
    find_relation_counterexample,
    first_failing_instance,
    verify_relation_on_module,
)
from partic.particles import ANNIHILATED


def acfg(n, occ, t=0):
    return AffineConfiguration(n, tuple(occ), t)


def test_affine_act_gen_examples():
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


def test_wraparound_marker_counts_a0():
    w = AffineWord(3, (0, 2, 0, 1))
    c = acfg(3, (1, 0, 1))
    out = affine_act_word(w, c)
    assert out is not ANNIHILATED
    assert out.t == 2
    assert out.total() == c.total()


def test_instances_include_examples():
    insts = affine_relation_instances(4, 1, 0)
    pairs = {(l.letters, r.letters) for l, r in insts}
    # the four-letter exchange rule read cyclically at i = 0
    assert ((0, 3, 1, 0), (1, 0, 3, 0)) in pairs
    # degenerate family parameters reduce to a three-letter bump rule
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


def test_first_failing_instance_reports_the_first_witness():
    good = affine_relation_instances(3, 1, 0)
    assert first_failing_instance(good, 2) is None
    bad = (AffineWord(3, (0, 2, 1, 0)), AffineWord(3, (1, 0, 2, 0)))
    assert first_failing_instance(good + [bad, bad[::-1]], 2) == (*bad, acfg(3, (0, 0, 1)))


def test_verify_relation_trivial_and_false():
    w1 = AffineWord(4, (1,))
    w2 = AffineWord(4, (2,))
    assert verify_relation_on_module(w1, w1, 3)
    assert not verify_relation_on_module(w1, w2, 2)
    witness = find_relation_counterexample(w1, w2, 2)
    assert witness is not None and witness.t == 0


def test_relation_soundness_small():
    for n in (3, 4):
        for lhs, rhs in affine_relation_instances(n, 2, 1):
            assert verify_relation_on_module(lhs, rhs, 4), (lhs.letters, rhs.letters)


def test_affine_configurations_bounds():
    cs = list(affine_configurations(3, 2))
    assert len(cs) == len(set(cs)) == 10
    assert all(c.total() <= 2 and c.t == 0 for c in cs)


def test_particle_count_preserved():
    for c in affine_configurations(4, 3):
        for i in range(4):
            out = affine_act_gen(i, c)
            if out is not ANNIHILATED:
                assert out.total() == c.total()
                assert out.t == c.t + (1 if i == 0 else 0)
