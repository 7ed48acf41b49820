"""The ``verify`` checks against their brute-force references and the sweeps they replaced."""
import re
import time
import weakref
from itertools import product
from types import SimpleNamespace

import pytest

import action_reference
import fold_reference
import rewriting_reference
from partic import normal_form, particles, rewriting, verify
from partic.core import MultiDegree, NormalMonomial, Word, _nm_letters, multidegrees_up_to, nm_to_word
from partic.normal_form import gen_monomial
from partic.rewriting import PARTIC, congruence_partition
from partic.verify import VerifyConfig

SWEPT = ("action-factoring", "basis-count", "fold-agreement", "grading", "normal-form")


def verdicts(cfg):
    """Each check's (passed, counterexample), read from one ``run_verify``."""
    return {c.name: (c.passed, c.counterexample) for c in verify.run_verify(cfg).checks}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_action_factoring_agrees_with_reference(n):
    cfg = VerifyConfig(n, max_len=4)
    reference = action_reference.action_factoring_bruteforce(n, 4, max_deposit=1)
    assert verdicts(cfg)["action-factoring"] == reference == (True, None)


def _normalize_mapping(letters, image):
    real = normal_form.normalize

    def broken(w):
        return real(Word(w.n, image) if w.letters == letters else w)

    return broken


REAL_RIGHT, REAL_LEFT = normal_form._right_mul, normal_form._left_mul
REAL_WALK = normal_form._basis_exponents


def _absorbs_from_2(d, k, letters):
    # _right_mul that absorbs only when k_{i+1} >= 2
    for i in letters:
        if i < len(k) and k[i] >= 2:
            d[i - 1] += 1
            k[i - 1] += 1
            k[i] -= 1
        else:
            k[i - 1] += 1


def _never_absorbs_at_n_minus_2(d, k, letters):
    # _right_mul that never absorbs at i = N-2
    for i in letters:
        if i != len(k) - 1:
            REAL_RIGHT(d, k, (i,))
        else:
            k[i - 1] += 1


def _passes_through_at_n_minus_1(d, k, letters):
    # _left_mul that never lets a_{N-1} stay on the descending side
    for i in letters:
        if i != len(k):
            REAL_LEFT(d, k, (i,))
        else:
            k[i - 1] += 1


def _rule_mapping(rule, i, before, after):
    """The rule, except that a_i takes the monomial ``before`` to ``after``."""

    def broken(d, k, letters):
        for j in letters:
            if j == i and (tuple(d), tuple(k)) == (before.d, before.k):
                d[:], k[:] = after.d, after.k
            else:
                rule(d, k, (j,))

    return broken


def _patch_rules(monkeypatch, right=REAL_RIGHT, left=REAL_LEFT):
    # the folds of normal_form and the checks of verify read the rules at call time
    for module in (normal_form, verify):
        monkeypatch.setattr(module, "_right_mul", right)
        monkeypatch.setattr(module, "_left_mul", left)


@pytest.mark.parametrize(
    "letters, image",
    [
        ((1, 2), (2, 1)),  # minimal inputs (1,1,0) and (1,0,0): a1 a2 annihilates (1,0,0)
        ((1,), (2, 1)),  # both minimal inputs (1,0,0), outputs (0,1,0) and (0,0,1)
    ],
)
def test_broken_normalize_fails_both_routes_on_the_same_word(monkeypatch, letters, image):
    # action-factoring certifies the left fold, so there the left rule takes letters to image
    monkeypatch.setattr(action_reference, "normalize", _normalize_mapping(letters, image))
    before = normal_form.normalize_right_to_left(Word(3, letters[1:]))
    _patch_rules(monkeypatch, left=_rule_mapping(REAL_LEFT, letters[0], before, normal_form.normalize(Word(3, image))))
    cfg = VerifyConfig(3, max_len=3)
    prefix = f"word {letters} and its normal form act differently on "
    reference = action_reference.action_factoring_bruteforce(3, 3, max_deposit=1)
    for passed, counterexample in (verdicts(cfg)["action-factoring"], reference):
        assert not passed
        assert counterexample.startswith(prefix)


def test_labels_that_tell_apart_words_acting_alike_fail_the_check(monkeypatch):
    # a wrong labelling must fail the check, not pass it: this label step also
    # writes the letters into position 1's output, which a true label leaves empty
    real = particles._prepend_letters

    def step(out, inp, letters):
        for i in reversed(letters):
            real(out, inp, (i,))
            out[0] = 4 * out[0] + i

    monkeypatch.setattr(particles, "_prepend_letters", step)
    monkeypatch.setattr(verify, "_prepend_letters", step)
    passed, counterexample = verdicts(VerifyConfig(3, max_len=3))["action-factoring"]
    assert not passed
    assert "differ, yet act alike" in counterexample


def old_sweeps(cfg, rs):
    """The verdict of each check as it was decided before the shared passes: one sweep per check."""
    normalize = normal_form.normalize  # looked up at call time, so a monkeypatched one is used
    degrees = multidegrees_up_to(cfg.n, cfg.max_len)

    def normal_forms_biject(delta):
        classes = congruence_partition(delta, rs)
        forms = [{normalize(Word(cfg.n, t)) for t in cls} for cls in classes]
        if any(len(f) != 1 for f in forms):
            return False
        forms = [f.pop() for f in forms]
        expansions_inside = all(nm_to_word(nf).letters in cls for nf, cls in zip(forms, classes))
        return len(set(forms)) == len(forms) and expansions_inside

    def counts_match(delta):
        return len(congruence_partition(delta, rs)) == len(normal_form.enumerate_basis(delta))

    return {
        "action-factoring": action_reference.action_factoring_label_sweep(cfg.n, cfg.max_len)[0],
        "basis-count": all(map(counts_match, degrees)),
        "fold-agreement": fold_reference.fold_agreement_sweep(cfg.n, cfg.max_len)[0],
        "grading": rewriting_reference.grading_sweep(rs, cfg.max_len)[0],
        "normal-form": all(map(normal_forms_biject, degrees)),
    }


def assert_same_verdicts(cfg, rs):
    new = verdicts(cfg)
    assert {name: new[name][0] for name in SWEPT} == old_sweeps(cfg, rs)
    return new


# verify partitions under the partic rules only; the plactic classes refine them strictly
# (test_rewriting.py::test_plactic_refines_partic_with_strict_witness)
RELATIONS = [PARTIC]


@pytest.mark.parametrize("relations", RELATIONS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_shared_passes_agree_with_the_old_sweeps(n, relations):
    cfg = VerifyConfig(n, max_len=5)
    new = assert_same_verdicts(cfg, rewriting.partic_rules(n))
    assert all(passed for passed, _ in new.values())
    assert {c.params["relations"] for c in verify.run_verify(cfg).checks} == {relations}


def _with_degree_change(n):
    # (1, 2) <-> (2, 2) keeps the length but not the multidegree; RewriteRule refuses it,
    # so it goes straight into the coded rules of a rule set that has built no level yet
    rs = rewriting.partic_rules(n)
    for lhs, rhs in (((1, 2), (2, 2)), ((2, 2), (1, 2))):
        code = rewriting._encode(lhs, rs.bits)
        rs.by_span.setdefault(2, {}).setdefault(code, []).append(rewriting._encode(rhs, rs.bits) - code)
    return rs


@pytest.mark.parametrize("relations", RELATIONS)
def test_a_rule_that_changes_the_multidegree_fails_grading_on_both_routes(monkeypatch, relations):
    monkeypatch.setattr(verify, "partic_rules", _with_degree_change)
    cfg = VerifyConfig(3, max_len=3)
    new = assert_same_verdicts(cfg, _with_degree_change(3))
    assert not new["grading"][0]
    assert "not the" in new["grading"][1]
    assert not rewriting_reference.grading_sweep(_with_degree_change(3), 3)[0]


def _one_way(n):
    # (1, 2) -> (2, 2) and (2, 1) -> (2, 2), without their reverses
    rs = rewriting.partic_rules(n)
    target = rewriting._encode((2, 2), rs.bits)
    for lhs in ((1, 2), (2, 1)):
        code = rewriting._encode(lhs, rs.bits)
        rs.by_span.setdefault(2, {}).setdefault(code, []).append(target - code)
    return rs


def test_a_one_way_rewrite_out_of_the_degree_fails_grading(monkeypatch):
    # both classes of (1, 1) reach (2, 2), which the visited set of the degree hands to the first only
    assert congruence_partition(MultiDegree((1, 1)), _one_way(3)) == [{(1, 2), (2, 2)}, {(2, 1)}]
    monkeypatch.setattr(verify, "partic_rules", _one_way)
    assert verdicts(VerifyConfig(3, max_len=2))["grading"] == (
        False,
        "degree (1,1): its classes hold 3 words, not the 2 of that multidegree",
    )


class WordBlocks:
    """The BFS route's classes in the shape the checks read: every word its own block."""

    def __init__(self, rs):
        self.rs = rs

    def words(self, code):
        return [rewriting_reference.decode(code, self.rs.bits)]

    def size(self, code):
        return 1

    def block(self, code):
        return code


def bfs_degrees(run):
    """``verify._degrees`` by the BFS route: a search over words on each degree, one normal form per word.

    It takes its own steps and reads only the run's numbering, to hand each form over as its number.
    """
    n = run.n
    rs = verify.partic_rules(n)
    level, bits = WordBlocks(rs), rs.bits
    numbers = {(m.d, m.k): i for i, m in enumerate(run.monomials)}
    prefix_forms, steps = {}, {}
    unit = (0,) * (n - 2), (0,) * (n - 1)
    for delta in multidegrees_up_to(n, run.max_len):
        length = delta.total()
        shift = max(length - 1, 0) * bits
        forms = []
        for cls in rewriting_reference.scan_classes(delta, rs):
            cls_forms = {}
            for code in cls:
                if code:
                    p, a = prefix_forms[code & (1 << shift) - 1], code >> shift
                    if (p, a) not in steps:
                        steps[p, a] = normal_form._step(verify._right_mul, p, a)
                    cls_forms[code] = steps[p, a]
                else:
                    cls_forms[code] = unit
            if length < run.max_len:
                prefix_forms.update(cls_forms)
            forms.append({code: numbers.get(dk, verify.OUT) for code, dk in cls_forms.items()})
        yield delta, forms, level


ROUTE_RULES = {
    "partic": rewriting.partic_rules,
    "plactic": rewriting.plactic_rules,
    "without an exchange rule": rewriting_reference.without_exchange_rule,
    "one way": _one_way,
    "degree change": _with_degree_change,
}


@pytest.mark.parametrize("rules", ROUTE_RULES)
@pytest.mark.parametrize("n, max_len", [(3, 8), (4, 6), (5, 5), (6, 5)])
def test_the_block_route_gives_the_bfs_verdicts(monkeypatch, rules, n, max_len):
    # every degree-pass check, run on the blocks and on the BFS classes with one normal form
    # per word, under rules that pass, that fail basis-count, and that rewrite out of the degree.
    # A one-way rule makes the BFS classes reach sets, not congruence classes: from length 2 on
    # (2, 2) lies in a class of (0, 2) and in one of (1, 1), so from length 3 on blocks overlap;
    # the routes still count the same classes, and grading fails at length 2 on both
    monkeypatch.setattr(verify, "partic_rules", ROUTE_RULES[rules])
    degree_checks = tuple(c for c in verify.CHECKS if c[1] is verify._degrees)
    for bound in range(max_len + 1):
        monkeypatch.setattr(verify, "CHECKS", degree_checks)
        blocks = verdicts(VerifyConfig(n, max_len=bound))
        bfs_checks = tuple((name, bfs_degrees, check, fields) for name, _, check, fields in degree_checks)
        monkeypatch.setattr(verify, "CHECKS", bfs_checks)
        bfs = verdicts(VerifyConfig(n, max_len=bound))
        assert blocks == bfs, bound


def mutant_classes(rules, n, max_len):
    """Each degree of total <= max_len with its ``BlockClasses`` classes and its ``scan_partition``, as word sets."""
    rs = rules(n)
    for delta in multidegrees_up_to(n, max_len):
        level = rs.level(delta.total())
        blocks = [{w for b in level.classes[j] for w in level.words(b)} for j in level.of(delta)]
        yield delta, blocks, rewriting_reference.scan_partition(delta, rs)


def length_two(rules):
    """The ``BlockClasses`` classes at N = 3 of the degrees of length 2 that hold a 2, as word sets."""
    return {d.counts: blocks for d, blocks, _ in mutant_classes(rules, 3, 2) if d.total() == 2 and d.counts[1]}


@pytest.mark.parametrize("n", [3, 4])
def test_block_classes_follow_a_rule_in_the_direction_it_rewrites(n):
    # the block route joins walk(X, l) -> walk(X, r), one way, as a search over words rewrites x l to
    # x r.  The rule that changes the multidegree is read both ways, so its classes are unions
    # of blocks, and both routes give the same words, pulled in across degrees alike: (2, 2)
    # rewrites back to (1, 2), so the class of (0, 2) holds it
    for delta, blocks, words in mutant_classes(_with_degree_change, n, 6):
        assert blocks == words, delta
    assert length_two(_with_degree_change) == {(0, 2): [{(1, 2), (2, 2)}], (1, 1): [{(1, 2), (2, 2)}, {(2, 1)}]}
    # a rule read one way keeps its classes apart: (1, 2) and (2, 1) both reach (2, 2), but
    # neither each other nor back from (2, 2), which edges read both ways would join into one
    # class.  From length 3 on a word can lie in two classes, and in two blocks; its block
    # is then the one through the first class, so the words may differ from the BFS's, while
    # the classes are as many, with the same least words in the same order
    for delta, blocks, words in mutant_classes(_one_way, n, 6):
        assert delta.total() > 2 or blocks == words, delta
        assert [min(cls) for cls in blocks] == [min(cls) for cls in words], delta
    assert length_two(_one_way) == {(0, 2): [{(2, 2)}], (1, 1): [{(1, 2), (2, 2)}, {(2, 1)}]}


def test_a_passing_run_lists_no_word(monkeypatch):
    # the classes are closed, counted and searched by block: a word is listed only to name it
    # in a failure message
    def listed(self, block):
        raise AssertionError(f"listed the words of block {block} at length {self.length}")

    monkeypatch.setattr(rewriting.BlockClasses, "words", listed)
    report = verify.run_verify(VerifyConfig(5, max_len=8))
    assert report.passed and len(report.checks) == 6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_no_chain_outlives_a_verify_run(monkeypatch, n):
    # the degree pass grows its chain of levels on the run's own rule set, so the chain dies
    # with the run, and a second run builds a rule set, and a chain, of its own.  The levels
    # refer back to the rule set, so the pass drops the chain when it ends: the rule set is
    # freed when the run returns, not at the cycle collector's next pass
    built, real = [], verify.partic_rules

    def watched(n):
        rs = real(n)
        built.append(weakref.ref(rs))
        return rs

    monkeypatch.setattr(verify, "partic_rules", watched)
    for runs in (1, 2):
        assert verify.run_verify(VerifyConfig(n)).passed
        assert len(built) == runs
        assert built[-1]() is None


def test_grading_reference_reads_the_coded_tables():
    # the mutant lives in the coded rules only, not in rs.rules, so a reference built
    # from the rule list would miss it
    rs = _with_degree_change(3)
    assert not any((1, 2) in (r.lhs, r.rhs) for r in rs.rules)
    assert rewriting_reference.grading_sweep(rs, 2) == (False, "(1, 2) -> (2, 2) changes the multidegree")
    assert rewriting_reference.grading_sweep(rewriting.partic_rules(3), 4) == (True, None)


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
    cfg = VerifyConfig(4, max_len=4)
    monkeypatch.setattr(normal_form, "normalize", _normalize_mapping(letters, image))
    reference = old_sweeps(cfg, rewriting.partic_rules(4))
    monkeypatch.undo()
    # the program normalizes by the right rule, which here takes letters to image; action-factoring
    # certifies the left fold, which that fault leaves intact, so only there the verdicts part
    before = normal_form.normalize(Word(4, letters[:-1]))
    right = _rule_mapping(REAL_RIGHT, letters[-1], before, normal_form.normalize(Word(4, image)))
    _patch_rules(monkeypatch, right=right)
    new = verdicts(cfg)
    assert {name: new[name][0] for name in SWEPT} == reference | {"action-factoring": True}
    assert not reference["action-factoring"]
    assert not any(new[name][0] for name in ("fold-agreement", "normal-form"))
    assert new["action-factoring"] == (True, None)


def count_validations(monkeypatch) -> list:
    """Clear the table of normal_form._monomial and record each NormalMonomial validated from then on."""
    validated, real = [], NormalMonomial.__post_init__
    normal_form._monomial.cache_clear()
    monkeypatch.setattr(NormalMonomial, "__post_init__", lambda m: validated.append((m.d, m.k)) or real(m))
    return validated


DISTINCT_4_5 = {normal_form.normalize(Word(4, t)) for length in range(6) for t in product(range(1, 4), repeat=length)}


@pytest.mark.parametrize("relations", RELATIONS)
def test_each_form_is_validated_once_and_each_word_costs_one_step(monkeypatch, relations):
    # words whose prefixes share a normal form and that end in the same letter share one step:
    # the run's basis index takes one step per (basis monomial of length <= 4, letter), and the
    # degree pass reads every block's form from it, taking no step of its own
    steps = []
    monkeypatch.setattr(verify, "_right_mul", lambda d, k, letters: steps.extend(letters) or REAL_RIGHT(d, k, letters))
    monkeypatch.setattr(verify, "CHECKS", tuple(c for c in verify.CHECKS if c[1] is verify._degrees))
    validated = count_validations(monkeypatch)
    assert verify.run_verify(VerifyConfig(4, max_len=5)).passed
    assert len(validated) == len(set(validated)) == len(DISTINCT_4_5)
    words = [t for length in range(1, 6) for t in product(range(1, 4), repeat=length)]
    pairs = {(normal_form.normalize(Word(4, t[:-1])), t[-1]) for t in words}
    assert len(steps) == len(pairs) == 183 < len(words) == 363
    run = verify._Run(VerifyConfig(4, max_len=5))
    steps.clear()
    assert sum(len(classes) for _, classes, _ in verify._degrees(run)) == len(DISTINCT_4_5)
    assert steps == []


def test_word_label_is_computed_once_per_basis_monomial(monkeypatch):
    # the index labels each basis monomial once; action-factoring reads the label as a source
    # and as up to N-1 targets, and faithfulness reads it again
    calls = []
    real = particles._letters_label
    monkeypatch.setattr(verify, "_letters_label", lambda n, letters: calls.append(letters) or real(n, letters))
    cfg = VerifyConfig(4, max_len=5)
    basis = [m for delta in multidegrees_up_to(4, 5) for m in normal_form.enumerate_basis(delta)]
    for _ in range(2):  # the labels live for one run, so a second run computes them again
        calls.clear()
        assert verify.run_verify(cfg).passed
        assert sorted(calls) == sorted(nm_to_word(m).letters for m in basis)
        assert len(calls) == 116


def index_work(monkeypatch, cfg) -> dict:
    """Run ``run_verify`` on ``cfg`` and return the work its basis index was built from, as counted in ``verify``."""
    work = {"R": [], "L": [], "expansions": [], "basis walks": []}

    def logged(rule, log):
        return lambda d, k, letters: log.append((tuple(d), tuple(k), *letters)) or rule(d, k, letters)

    monkeypatch.setattr(verify, "_right_mul", logged(REAL_RIGHT, work["R"]))
    monkeypatch.setattr(verify, "_left_mul", logged(REAL_LEFT, work["L"]))
    monkeypatch.setattr(verify, "_nm_letters", lambda d, k: work["expansions"].append((d, k)) or _nm_letters(d, k))
    walks = work["basis walks"]
    monkeypatch.setattr(normal_form, "_basis_exponents", lambda delta: walks.append(delta) or REAL_WALK(delta))
    assert verify.run_verify(cfg).passed
    return work


def test_the_index_takes_each_step_expansion_and_basis_walk_once(monkeypatch):
    # one R and one L step per (basis monomial of length <= L-1, letter), one expansion per
    # basis monomial, one walk of each degree's basis: both passes read them all from the index
    n, max_len = 5, 6
    basis = [(m.d, m.k) for delta in multidegrees_up_to(n, max_len) for m in normal_form.enumerate_basis(delta)]
    shorter = [(d, k) for d, k in basis if sum(d) + sum(k) < max_len]
    work = index_work(monkeypatch, VerifyConfig(n, max_len=max_len))
    for rule in ("R", "L"):
        assert sorted(work[rule]) == sorted((d, k, a) for d, k in shorter for a in range(1, n))
    assert len(work["R"]) == len(work["L"]) == 4 * 290
    assert sorted(work["expansions"]) == sorted(basis) and len(basis) == 595
    assert work["basis walks"] == multidegrees_up_to(n, max_len) and len(work["basis walks"]) == 210


def test_a_second_run_builds_its_own_index(monkeypatch):
    # the index lives for one run: a second run takes every step, expansion and walk again
    cfg = VerifyConfig(4, max_len=5)
    first, second = index_work(monkeypatch, cfg), index_work(monkeypatch, cfg)
    assert first == second
    assert [len(first[key]) for key in ("R", "L", "expansions", "basis walks")] == [183, 183, 116, 56]


@pytest.mark.parametrize(
    "target, problem",
    [
        ((), "the label of L_1(1) is not that of a1 1, but (1,) has the label of its normal form"),
        ((2, 1), "the label of L_2(a1) is not that of a2 a1, but (2, 1) has the label of its normal form"),
    ],
)
def test_a_label_wrong_on_one_basis_monomial_fails_action_factoring(monkeypatch, target, problem):
    # the unit's word is first read as a source, that of a2 a1 as a target; a remembered
    # label must not hide either
    real = particles._letters_label
    monkeypatch.setattr(verify, "_letters_label", lambda n, letters: real(n, (1,) if letters == target else letters))
    for max_len in (2, 3, 4):
        assert verdicts(VerifyConfig(3, max_len=max_len))["action-factoring"] == (False, problem)


def test_both_passes_validate_each_form_once(monkeypatch):
    validated = count_validations(monkeypatch)
    assert verify.run_verify(VerifyConfig(4, max_len=5)).passed
    assert len(validated) == len(set(validated)) == len(DISTINCT_4_5)


def _at_rank_3(d, k):
    return NormalMonomial(3, d, k)


# right rules that give a word of length 2 or 3 a wrong form, at N=3
TWO_FORMS = _rule_mapping(REAL_RIGHT, 1, _at_rank_3((0,), (1, 1)), _at_rank_3((0,), (2, 1)))  # (1, 2, 1)
SHARED = _rule_mapping(REAL_RIGHT, 1, _at_rank_3((0,), (0, 1)), _at_rank_3((0,), (1, 1)))  # (2, 1) as (1, 2)
SWAPPED = _rule_mapping(  # (1, 2) and (2, 1) trade forms
    _rule_mapping(REAL_RIGHT, 2, _at_rank_3((0,), (1, 0)), _at_rank_3((1,), (1, 0))),
    1, _at_rank_3((0,), (0, 1)), _at_rank_3((0,), (1, 1)),
)


@pytest.mark.parametrize(
    "right, message",
    [
        (TWO_FORMS, "class of (1, 2, 1) has 2 normal forms"),
        (SHARED, "classes of (2, 1) and (1, 2) share a normal form"),
        (SWAPPED, "expansion of a2 a1 leaves the class of (1, 2)"),
    ],
)
def test_normal_form_messages_name_the_least_word_of_each_class(monkeypatch, right, message):
    # the degree pass works on integer codes; a message decodes them to letters
    _patch_rules(monkeypatch, right=right)
    assert verdicts(VerifyConfig(3, max_len=3))["normal-form"] == (False, message)
    least = {min(cls) for delta in multidegrees_up_to(3, 3) for cls in congruence_partition(delta, rewriting.partic_rules(3))}
    named = re.findall(r"\(([\d, ]*)\)", message)
    assert named and all(tuple(map(int, w.split(", "))) in least for w in named)


def test_messages_on_a_rule_out_of_the_degree_name_words(monkeypatch):
    # (1, 2) <-> (2, 2): grading names the degree and counts its words; normal-form names
    # the least word of the class of (2, 2), (1, 2), whose code lies outside that degree
    monkeypatch.setattr(verify, "partic_rules", _with_degree_change)
    new = verdicts(VerifyConfig(3, max_len=2))
    assert new["grading"] == (False, "degree (0,2): its classes hold 2 words, not the 1 of that multidegree")
    assert new["normal-form"] == (False, "class of (1, 2) has 2 normal forms")


def _leaves_the_basis_at_2(d, k, letters):
    # _right_mul that raises d_2 for a2 whenever k_1 >= 1, without moving k: a1 a2 a2 then
    # folds to d=(2,) k=(1, 0), which violates the normal-form condition
    for i in letters:
        if i == 2 and k[0] >= 1:
            d[0] += 1
        else:
            REAL_RIGHT(d, k, (i,))


def test_a_product_outside_the_basis_fails_checks_instead_of_raising(monkeypatch):
    # the degree pass validated every step, so this rule raised ValueError at (1, 2, 2) and lost
    # the whole report; the index holds such a step as outside the basis, which no check reads
    # here, as normal-form and fold-agreement fail at length 2 already
    _patch_rules(monkeypatch, right=_leaves_the_basis_at_2)
    assert verdicts(VerifyConfig(3, max_len=4)) == {
        "action-factoring": (True, None),
        "basis-count": (True, None),
        "faithfulness": (True, None),
        "fold-agreement": (False, "folds disagree on (1, 2)"),
        "grading": (True, None),
        "normal-form": (False, "expansion of a2 a1 leaves the class of (1, 2)"),
    }


OFF_BASIS = " no basis monomial of length <= 3"


@pytest.mark.parametrize(
    "rules, problems",
    [
        (  # a1 a2 times a1 goes to d=(2,) k=(1, 0)
            {"right": _rule_mapping(REAL_RIGHT, 1, _at_rank_3((0,), (1, 1)), SimpleNamespace(d=(2,), k=(1, 0)))},
            {
                "fold-agreement": "R_1(a1 a2) is d=(2,) k=(1, 0)," + OFF_BASIS,
                "normal-form": "class of (1, 2, 1): the right fold of (1, 2, 1) is d=(2,) k=(1, 0)," + OFF_BASIS,
            },
        ),
        (  # a2 times a1 goes to d=(1,) k=(0, 1)
            {"left": _rule_mapping(REAL_LEFT, 2, _at_rank_3((0,), (1, 0)), SimpleNamespace(d=(1,), k=(0, 1)))},
            {
                "action-factoring": "L_2(a1) is d=(1,) k=(0, 1)," + OFF_BASIS,
                "fold-agreement": "L_2(a1) is d=(1,) k=(0, 1)," + OFF_BASIS,
            },
        ),
    ],
)
def test_a_product_outside_the_basis_is_named_with_its_exponents(monkeypatch, rules, problems):
    # a step that leaves the basis fails the checks that read it, never a KeyError: normal-form
    # names the class's least word and the fold of a word of the block that left
    _patch_rules(monkeypatch, **rules)
    new = verdicts(VerifyConfig(3, max_len=3))
    assert {name: problem for name, (passed, problem) in new.items() if not passed} == problems


@pytest.mark.parametrize("n", [3, 4, 5])
def test_memoized_forms_are_the_normal_forms(n):
    # the pass computes one form per block, R_a of its shorter class's form, as the index's
    # number: the monomial of that number must be the normal form of every word of the block
    run, seen = verify._Run(VerifyConfig(n, max_len=7)), 0
    for _, forms, level in verify._degrees(run):
        for cls in forms:
            for block, i in cls.items():
                for letters in level.words(block):
                    assert run.monomials[i] == normal_form.normalize(Word(n, letters))
                    seen += 1
    assert seen == sum((n - 1) ** length for length in range(8))


def pairwise_distinct_labels(n, max_len, swap):
    """The faithfulness sweep before the per-degree check: fold labels distinct over all degrees at once.

    Each basis monomial in ``swap`` is labelled as its image there.
    """
    seen = {}
    for delta in multidegrees_up_to(n, max_len):
        for m in normal_form.enumerate_basis(delta):
            if seen.setdefault(particles.word_label(nm_to_word(swap.get(m, m))), m) != m:
                return False
    return True


@pytest.mark.parametrize(
    "target, source, problem",
    [
        # two basis monomials of degree (1, 1) get one label
        (NormalMonomial(3, (1,), (1, 0)), NormalMonomial(3, (0,), (1, 1)), "two basis monomials share"),
        # a1 gets the label of a2, which gives the multidegree of a2
        (gen_monomial(3, 1), gen_monomial(3, 2), "the label of a1 gives the multidegree (0, 1)"),
    ],
)
def test_labels_that_merge_or_change_degree_fail_faithfulness(monkeypatch, target, source, problem):
    # the label is swapped on the fold route, where faithfulness reads it
    real = verify._letters_label
    swap = {_nm_letters(target.d, target.k): _nm_letters(source.d, source.k)}
    monkeypatch.setattr(verify, "_letters_label", lambda n, letters: real(n, swap.get(letters, letters)))
    for max_len in range(1, 4):
        reference = pairwise_distinct_labels(3, max_len, {target: source})
        passed, counterexample = verdicts(VerifyConfig(3, max_len=max_len))["faithfulness"]
        assert passed == reference == (sum(target.d) + sum(target.k) > max_len)
        assert passed or counterexample.startswith(problem)


RULES = {
    "real": {},
    "absorbs from 2": {"right": _absorbs_from_2},
    "never absorbs at N-2": {"right": _never_absorbs_at_n_minus_2},
    "passes through at N-1": {"left": _passes_through_at_n_minus_1},
}
LOCAL = ("action-factoring", "faithfulness", "fold-agreement")


def _first_word(counterexample):
    return tuple(int(x) for x in re.search(r"\(([\d, ]*)\)", counterexample).group(1).replace(",", " ").split())


@pytest.mark.parametrize("rules", RULES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_local_checks_agree_with_the_word_sweeps(monkeypatch, n, rules):
    _patch_rules(monkeypatch, **RULES[rules])
    monkeypatch.setattr(verify, "CHECKS", tuple(c for c in verify.CHECKS if c[0] in LOCAL))
    for max_len in range(7):
        local = verdicts(VerifyConfig(n, max_len=max_len))
        fold = fold_reference.fold_agreement_sweep(n, max_len)
        left = action_reference.action_factoring_label_sweep(n, max_len, normal_form.normalize_right_to_left)
        right = action_reference.action_factoring_label_sweep(n, max_len)
        assert local["fold-agreement"][0] == fold[0]
        # action-factoring is about the left fold, and speaks for normalize with fold-agreement
        assert local["action-factoring"][0] == left[0]
        assert (local["fold-agreement"][0] and local["action-factoring"][0]) == (fold[0] and right[0])
        assert local["faithfulness"] == (True, None)
        # the first local failure is confirmed on a shortest failing word
        for name, sweep in (("fold-agreement", fold), ("action-factoring", left)):
            if not sweep[0]:
                assert len(_first_word(local[name][1])) == len(sweep[1])
        # every mutant breaks a word of length 2, and no shorter one
        assert all(passed for passed, _ in local.values()) == (rules == "real" or max_len < 2)


@pytest.mark.parametrize("max_len", [0, 1, 2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_local_checks_examine_cases_at_small_bounds(monkeypatch, n, max_len):
    calls = []
    checks = verify.CHECKS
    monkeypatch.setattr(verify, "_left_mul", lambda d, k, letters: calls.extend(letters) or REAL_LEFT(d, k, letters))
    for name in ("action-factoring", "fold-agreement"):
        calls.clear()
        monkeypatch.setattr(verify, "CHECKS", tuple(c for c in checks if c[0] == name))
        assert verdicts(VerifyConfig(n, max_len=max_len))[name] == (True, None)
        assert calls  # each case applies the left rule at least once


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
    cfg = VerifyConfig(5, max_len=5, max_degree=4)
    t0 = time.perf_counter()
    report = verify.run_verify(cfg)
    wall = time.perf_counter() - t0
    total = sum(c.seconds for c in report.checks)
    assert 0.95 * wall <= total <= wall
    assert all(c.seconds > 0 for c in report.checks)


def test_the_index_build_is_charged_to_the_checks_that_read_it(monkeypatch):
    # a basis index slowed by a known delay: each of the six word checks takes an equal
    # share of it, and the center check, which reads no index, none
    delay = 0.3
    real_run = verify._Run

    def slow_run(cfg):
        time.sleep(delay)
        return real_run(cfg)

    monkeypatch.setattr(verify, "_Run", slow_run)
    report = verify.run_verify(VerifyConfig(3, max_len=3, max_degree=3))
    seconds = {c.name: c.seconds for c in report.checks}
    assert len(seconds) == 7
    assert seconds.pop(verify.CENTER) < delay / 12
    assert all(s >= delay / 6 for s in seconds.values()), seconds


def test_max_degree_alone_turns_the_center_check_on():
    assert verify.CENTER not in verdicts(VerifyConfig(3, max_len=2))
    checks = {c.name: c for c in verify.run_verify(VerifyConfig(3, max_len=2, max_degree=0)).checks}
    assert checks[verify.CENTER].passed
    assert checks[verify.CENTER].params == {"N": 3, "max_len": 2, "relations": PARTIC, "max_degree": 0}
    with pytest.raises(ValueError):
        VerifyConfig(3, max_degree=-1)


@pytest.mark.parametrize(
    "bound, value, message",
    [
        # the non-integers were taken as bounds, or raised TypeError ("6"), not ValueError
        ("max_len", 1.5, "max_len 1.5 is not an integer"),
        ("max_len", True, "max_len True is not an integer"),
        ("max_len", "6", "max_len '6' is not an integer"),
        ("max_len", -1, "max_len must be nonnegative, got -1"),
        ("max_degree", 2.5, "max_degree 2.5 is not an integer"),
        ("max_degree", -1, "max_degree must be nonnegative, got -1"),
        ("max_deposit", -1, "max_deposit must be nonnegative, got -1"),
    ],
)
def test_config_refuses_a_bound_that_is_no_nonnegative_int(bound, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        VerifyConfig(5, **{bound: value})


def test_a_local_failure_no_word_confirms_still_fails(monkeypatch):
    # the checks read a broken left rule, the folds that confirm a witness the real one
    monkeypatch.setattr(verify, "_left_mul", _passes_through_at_n_minus_1)
    local = verdicts(VerifyConfig(3, max_len=2))
    assert local["fold-agreement"] == (False, "L_2 R_1 and R_1 L_2 differ on 1, but the folds agree on (2, 1)")
    assert local["action-factoring"] == (
        False,
        "the label of L_2(a1) is not that of a2 a1, but (2, 1) has the label of its normal form",
    )
