"""The ``verify`` checks against their brute-force references and the sweeps they replaced."""
import time
from itertools import product

import pytest

import action_reference
import rewriting_reference
from partic import normal_form, particles, rewriting, verify
from partic.core import Word, multidegrees_up_to, nm_to_word
from partic.rewriting import PARTIC, PLACTIC, congruence_partition
from partic.verify import VerifyConfig

SWEPT = ("action-factoring", "basis-count", "fold-agreement", "grading", "normal-form")


def verdicts(cfg):
    """Each check's (passed, counterexample), read from one ``run_verify``."""
    return {c.name: (c.passed, c.counterexample) for c in verify.run_verify(cfg).checks}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_action_factoring_agrees_with_reference(n):
    cfg = VerifyConfig(n, max_len=4)
    reference = action_reference.action_factoring_bruteforce(cfg)
    assert verdicts(cfg)["action-factoring"] == reference == (True, None)


def _normalize_mapping(letters, image):
    real = normal_form.normalize

    def broken(w):
        return real(Word(w.n, image) if w.letters == letters else w)

    return broken


@pytest.mark.parametrize(
    "letters, image",
    [
        ((1, 2), (2, 1)),  # minimal inputs (1,1,0) and (1,0,0): a1 a2 annihilates (1,0,0)
        ((1,), (2, 1)),  # both minimal inputs (1,0,0), outputs (0,1,0) and (0,0,1)
    ],
)
def test_broken_normalize_fails_both_routes_on_the_same_word(monkeypatch, letters, image):
    broken = _normalize_mapping(letters, image)
    monkeypatch.setattr(verify, "normalize", broken)
    monkeypatch.setattr(action_reference, "normalize", broken)
    cfg = VerifyConfig(3, max_len=3)
    prefix = f"word {letters} and its normal form act differently on "
    reference = action_reference.action_factoring_bruteforce(cfg)
    for passed, counterexample in (verdicts(cfg)["action-factoring"], reference):
        assert not passed
        assert counterexample.startswith(prefix)


def test_labels_that_tell_apart_words_acting_alike_fail_the_check(monkeypatch):
    # a wrong labelling must fail the check, not pass it
    real = particles.word_label
    monkeypatch.setattr(verify, "word_label", lambda w: (w.letters, real(w)[1]))
    passed, counterexample = verdicts(VerifyConfig(3, max_len=3))["action-factoring"]
    assert not passed
    assert "differ, yet act alike" in counterexample


def old_sweeps(cfg, rs, partic):
    """The verdict of each check as it was decided before the shared passes: one sweep per check."""
    normalize = normal_form.normalize  # looked up at call time, so a monkeypatched one is used
    letters = (t for length in range(cfg.max_len + 1) for t in product(range(1, cfg.n), repeat=length))
    words = [Word(cfg.n, t) for t in letters]
    degrees = multidegrees_up_to(cfg.n, cfg.max_len)

    def normal_forms_biject(delta):
        classes = congruence_partition(delta, partic)
        forms = [{normalize(Word(cfg.n, t)) for t in cls} for cls in classes]
        if any(len(f) != 1 for f in forms):
            return False
        forms = [f.pop() for f in forms]
        expansions_inside = all(nm_to_word(nf).letters in cls for nf, cls in zip(forms, classes))
        return len(set(forms)) == len(forms) and expansions_inside

    def counts_match(delta):
        nc, nb = len(congruence_partition(delta, rs)), len(normal_form.enumerate_basis(delta))
        return nc == nb if cfg.relations == PARTIC else nc >= nb

    return {
        "action-factoring": all(
            particles.word_label(w) == particles.word_label(nm_to_word(normalize(w))) for w in words
        ),
        "basis-count": all(map(counts_match, degrees)),
        "fold-agreement": all(normalize(w) == normal_form.normalize_right_to_left(w) for w in words),
        "grading": rewriting_reference.grading_sweep(rs, cfg.max_len)[0],
        "normal-form": all(map(normal_forms_biject, degrees)),
    }


def assert_same_verdicts(cfg, rs, partic):
    new = verdicts(cfg)
    assert {name: new[name][0] for name in SWEPT} == old_sweeps(cfg, rs, partic)
    return new


@pytest.mark.parametrize("relations", [PARTIC, PLACTIC])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_shared_passes_agree_with_the_old_sweeps(n, relations):
    cfg = VerifyConfig(n, max_len=5, relations=relations)
    new = assert_same_verdicts(cfg, rewriting.relation_set(relations, n), rewriting.partic_rules(n))
    assert all(passed for passed, _ in new.values())


def _with_degree_change(name, n):
    # (1, 2) <-> (2, 2) keeps the length but not the multidegree; RewriteRule refuses it,
    # so it goes straight into the coded rules, and the window memo is cleared
    rs = rewriting.relation_set(name, n)
    for lhs, rhs in (((1, 2), (2, 2)), ((2, 2), (1, 2))):
        code = rewriting._encode(lhs, rs.bits)
        rs.windows.by_span.setdefault(2, {}).setdefault(code, []).append(rewriting._encode(rhs, rs.bits) - code)
    rs.windows.clear()
    return rs


@pytest.mark.parametrize("relations", [PARTIC, PLACTIC])
def test_a_rule_that_changes_the_multidegree_fails_grading_on_both_routes(monkeypatch, relations):
    monkeypatch.setattr(verify, "relation_set", _with_degree_change)
    cfg = VerifyConfig(3, max_len=3, relations=relations)
    new = assert_same_verdicts(cfg, _with_degree_change(relations, 3), _with_degree_change(PARTIC, 3))
    assert not new["grading"][0]
    assert "not the" in new["grading"][1]
    assert not rewriting_reference.grading_sweep(_with_degree_change(relations, 3), 3)[0]


@pytest.mark.parametrize(
    "letters, image",
    [
        ((1, 2), (2, 1)),
        ((2, 1, 2), (1,)),
        ((3, 2, 1, 2), (1,)),
        ((1, 1, 1, 1), (1, 1, 1, 2)),  # in (4, 0, 0), the last multidegree the pass visits
    ],
)
def test_broken_normalize_fails_the_word_checks_on_both_routes(monkeypatch, letters, image):
    broken = _normalize_mapping(letters, image)
    monkeypatch.setattr(verify, "normalize", broken)
    monkeypatch.setattr(normal_form, "normalize", broken)
    cfg = VerifyConfig(4, max_len=4)
    new = assert_same_verdicts(cfg, rewriting.partic_rules(4), rewriting.partic_rules(4))
    assert not any(new[name][0] for name in ("action-factoring", "fold-agreement", "normal-form"))


@pytest.mark.parametrize("relations", [PARTIC, PLACTIC])
def test_each_word_is_normalized_once(monkeypatch, relations):
    calls = []
    monkeypatch.setattr(verify, "normalize", lambda w: calls.append(w.letters) or normal_form.normalize(w))
    assert verify.run_verify(VerifyConfig(4, max_len=5, relations=relations)).passed
    assert len(calls) == len(set(calls)) == sum(3**length for length in range(6)) == 364


def test_each_normal_form_is_expanded_once(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "nm_to_word", lambda nf: calls.append(nf) or nm_to_word(nf))
    assert verify.run_verify(VerifyConfig(4, max_len=5)).passed
    distinct = {normal_form.normalize(Word(4, t)) for length in range(6) for t in product(range(1, 4), repeat=length)}
    assert len(calls) == len(set(calls)) == len(distinct)


def test_a_pass_stops_once_all_its_checks_have_failed(monkeypatch):
    items, calls = [], []

    def walk(cfg):
        for i in range(10):
            items.append(i)
            yield (i,)

    def check(name, first_bad):
        def run(cfg, i):
            calls.append((name, i))
            return f"{name} fails at {i}" if i >= first_bad else None

        return run

    monkeypatch.setattr(verify, "CHECKS", (("a", walk, check("a", 2), ()), ("b", walk, check("b", 0), ())))
    report = verify.run_verify(VerifyConfig(3, max_len=1))
    assert [(c.name, c.passed, c.counterexample) for c in report.checks] == [
        ("a", False, "a fails at 2"),
        ("b", False, "b fails at 0"),
    ]
    assert items == [0, 1, 2]
    assert calls == [("a", 0), ("b", 0), ("a", 1), ("a", 2)]


def test_check_seconds_add_up_to_the_wall_time():
    # each pass's shared work (words, normal forms, partitions) is charged to its checks
    cfg = VerifyConfig(5, max_len=5, include_center=True, max_degree=4)
    t0 = time.perf_counter()
    report = verify.run_verify(cfg)
    wall = time.perf_counter() - t0
    total = sum(c.seconds for c in report.checks)
    assert 0.95 * wall <= total <= wall
    assert all(c.seconds > 0 for c in report.checks)
