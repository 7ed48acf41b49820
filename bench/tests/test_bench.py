"""Tests of the benchmark itself: its independent routes agree with the program
at tiny bounds, and every correctness check rejects a doctored result.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import types
from itertools import product

import pytest

from partic import affine, center, cli, core, normal_form, particles, rewriting

import routes
import workloads
from clock import Clock
from tracer import Tracer, layer_metrics
from worker import merge_traced

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def run_cli(argv):
    clock = Clock()
    try:
        return workloads.call_cli(clock, argv)
    finally:
        clock.finish()


# independent routes agree with the program ---------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_greedy_label_matches_program(n):
    words = routes.words_up_to(n, 4)
    assert len(words) == routes.sweep_size(n, 4)
    assert workloads.check_word_labels(n, words, lambda w: workloads.program_label(n, w)) == []


def test_line_mover_matches_act_word():
    n = 4
    configs = routes.line_configurations(n, 3, 1)
    assert sorted(configs) == sorted(c.occ for c in particles.configurations(n, 3, 1))
    assert len(configs) == routes.line_config_count(n, 3, 1)
    for w in routes.words_up_to(n, 3):
        for c in configs:
            got = particles.act_word(core.Word(n, w), particles.Configuration(n, c))
            want = routes.move(c, w)
            assert (None if got is particles.ANNIHILATED else got.occ) == want


@pytest.mark.parametrize("n", [3, 4])
def test_cyclic_mover_matches_affine_act_word(n):
    configs = routes.circle_configurations(n, 3)
    assert sorted(configs) == sorted(c.occ for c in affine.affine_configurations(n, 3))
    assert len(configs) == routes.circle_config_count(n, 3)
    for w in product(range(n), repeat=3):
        for c in configs:
            got = affine.affine_act_word(affine.AffineWord(n, w), affine.AffineConfiguration(n, c, 0))
            want = routes.cyclic_move(c, 0, w)
            assert (None if got is particles.ANNIHILATED else (got.occ, got.t)) == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_counting_formulas_match_program(n):
    for counts in routes.degrees_up_to(n, 4):
        delta = core.MultiDegree(counts)
        basis = normal_form.enumerate_basis(delta)
        assert len(basis) == routes.basis_size(counts)
        assert sum(1 for _ in rewriting.words_with_degree(delta)) == routes.multinomial(counts)
        rows, cols = routes.center_shape(counts)
        assert cols == len(basis)
        assert rows == sum(len(normal_form.enumerate_basis(delta.bump(i))) for i in range(1, n))
        assert routes.center_dimension(counts) == center.expected_center_dimension(delta)
        for m in basis:
            assert routes.degree_of_exponents(m.d, m.k) == counts
            assert routes.monomial_word(m.d, m.k) == core.nm_to_word(m).letters
    assert len(routes.degrees_up_to(n, 4)) == len(core.multidegrees_up_to(n, 4))
    for r in range(3):
        m = center.central_candidate(n, r)
        assert routes.candidate_exponents(n, r) == (m.d, m.k)
        assert normal_form.normalize(core.Word(n, routes.descending_cycle(n, r))) == m


# checks pass on the program's output and fail on doctored output ---------


def test_verify_check():
    rc, text = run_cli(["verify", "--N", "4", "--max-len", "3", "--json"])
    assert workloads.check_verify_output(rc, text, 4, 3) == []
    assert workloads.check_verify_output(rc, text, 4, 4) != []
    payload = json.loads(text)
    payload["checks"][2]["passed"] = False
    assert workloads.check_verify_output(rc, json.dumps(payload), 4, 3) != []
    payload = json.loads(text)
    del payload["checks"][0]
    assert workloads.check_verify_output(rc, json.dumps(payload), 4, 3) != []
    assert workloads.check_verify_output(1, text, 4, 3) != []
    assert workloads.check_verify_output(0, "not json", 4, 3) != []


def test_label_check_rejects_swapped_label():
    words = routes.words_up_to(4, 3)

    def swapped(w):
        out, inp = workloads.program_label(4, w)
        return inp, out

    assert workloads.check_word_labels(4, words, swapped) != []


def partition_data(counts):
    delta = core.MultiDegree(counts)
    n = delta.n
    partic_classes = rewriting.congruence_partition(delta, rewriting.partic_rules(n))
    forms = [[(m.d, m.k) for m in (normal_form.normalize(core.Word(n, w)) for w in cls)] for cls in partic_classes]
    plactic_classes = rewriting.congruence_partition(delta, rewriting.plactic_rules(n))
    return partic_classes, forms, plactic_classes


def test_partition_check():
    counts = (2, 2, 1)
    partic_classes, forms, plactic_classes = partition_data(counts)
    assert len(plactic_classes) > len(partic_classes) > 1
    assert workloads.check_partition(counts, partic_classes, forms, plactic_classes) == []

    merged = [partic_classes[0] | partic_classes[1]] + partic_classes[2:]
    merged_forms = [forms[0] + forms[1]] + forms[2:]
    assert workloads.check_partition(counts, merged, merged_forms, plactic_classes) != []

    shared = [forms[0], [forms[0][0]] * len(forms[1])] + forms[2:]
    assert workloads.check_partition(counts, partic_classes, shared, plactic_classes) != []

    mixed = [forms[0][:-1] + [forms[1][0]]] + forms[1:]
    assert workloads.check_partition(counts, partic_classes, mixed, plactic_classes) != []

    # a plactic class that straddles two partic classes
    a, b = next(iter(partic_classes[0])), next(iter(partic_classes[1]))
    straddling = [{a, b}] + [cls - {a, b} for cls in plactic_classes]
    straddling = [cls for cls in straddling if cls]
    assert workloads.check_partition(counts, partic_classes, forms, straddling) != []

    dropped = [set(cls) for cls in partic_classes]
    dropped[0].pop()
    assert workloads.check_partition(counts, dropped, forms, plactic_classes) != []


def test_center_check():
    rc, text = run_cli(["center", "--N", "3", "--max-degree", "5", "--expect-theorem", "--json"])
    problems, vectors = workloads.check_center_output(rc, text, 3, 5)
    assert problems == []
    assert [r for r, _, _ in vectors] == [0, 1, 2]
    for r, d, k in vectors:
        assert workloads.check_commutes_on_module(3, r, d, k, 4) == []

    payload = json.loads(text)
    entry = next(e for e in payload["degrees"] if e["degree"] == [1, 0])
    entry["dimension"] = 1
    assert workloads.check_center_output(rc, json.dumps(payload), 3, 5)[0] != []

    payload = json.loads(text)
    entry = next(e for e in payload["degrees"] if e["degree"] == [1, 1])
    entry["basis"][0][0][1]["k"] = [0, 1]
    assert workloads.check_center_output(rc, json.dumps(payload), 3, 5)[0] != []

    payload = json.loads(text)
    payload["degrees"].pop()
    assert workloads.check_center_output(rc, json.dumps(payload), 3, 5)[0] != []


def test_commutation_check_rejects_non_central_monomial():
    # a_1 alone does not commute with a_2
    assert workloads.check_commutes_on_module(3, 1, (0,), (1, 0), 4) != []
    # a_2 a_1 a_2 is not (a_2 a_1)^1 on the module
    assert workloads.check_commutes_on_module(3, 1, (1,), (1, 1), 4) != []


def test_affine_checks():
    rc, text = run_cli(["affine-verify", "--N", "4", "--particles", "3", "--json"])
    n_instances = len(affine.affine_relation_instances(4, 2, 1))
    assert workloads.check_affine_output(rc, text, n_instances) == []
    assert workloads.check_affine_output(rc, text, n_instances + 1) != []
    payload = json.loads(text)
    payload["passed"] = False
    assert workloads.check_affine_output(1, json.dumps(payload), n_instances) != []

    n, lhs, rhs = workloads.NEGATIVE_CONTROL
    witness = affine.find_relation_counterexample(affine.AffineWord(n, lhs), affine.AffineWord(n, rhs), 6)
    assert workloads.check_negative_control(witness.occ) == []
    assert workloads.check_negative_control(None) != []
    assert workloads.check_negative_control((0, 0, 0)) != []

    pairs = [(lhs.letters, rhs.letters) for lhs, rhs in affine.affine_relation_instances(4, 1, 1)]
    assert workloads.check_relations_hold(4, pairs, 3) == []
    # a_0 a_1 = a_1 a_0 is false: the generators are adjacent
    assert workloads.check_relations_hold(4, pairs + [((0, 1), (1, 0))], 3) != []


def test_merge_rejects_counts_that_differ():
    rounds = [{"x.calls": 3, "x.s": 1.0}, {"x.calls": 3, "x.s": 3.0}]
    assert merge_traced(rounds) == ({"x.calls": 3, "x.s": 2.0}, [])
    assert merge_traced(rounds + [{"x.calls": 4, "x.s": 2.0}])[1] != []


# the tracer ----------------------------------------------------------------


def test_tracer_counts_calls_at_every_binding_and_restores():
    original = normal_form.normalize
    tracer = Tracer()
    tracer.install()
    try:
        assert normal_form.normalize is not original
        assert cli.normalize is normal_form.normalize
        clock = Clock(tracer)
        rc, text = workloads.call_cli(clock, ["verify", "--N", "3", "--max-len", "3", "--json"])
        normal_form.normalize(core.Word(3, (1, 2)))  # outside the timed region: not counted
    finally:
        tracer.uninstall()
    clock.finish()
    assert normal_form.normalize is original and cli.normalize is original
    assert core.Word.__init__.__name__ == "__init__"
    m = layer_metrics(tracer.snapshot())
    words = routes.sweep_size(3, 3)
    assert m["particles.pairs"] == words * routes.line_config_count(3, 3, 1)
    assert m["particles.act_word.calls"] >= m["particles.pairs"]
    assert m["normal_form.normalize.calls"] >= words
    assert m["rewriting.words_closed"] >= words
    assert m["verify.calls"] == 1 and m["cli.calls"] >= 2
    assert m["core.Word.created"] > 0 and m["particles.Configuration.created"] > 0
    assert all(v >= 0 for v in m.values())
    assert m["verify.action-factoring.s"] > 0
    # self times add up to no more than the time inside the program
    assert sum(m[f"{layer}.self_s"] for layer in ("core", "normal_form", "rewriting", "particles",
                                                 "center", "affine", "verify", "cli")) <= clock.seconds


def test_center_hooks_use_closed_forms():
    tracer = Tracer()
    tracer.install()
    try:
        workloads.call_cli(Clock(tracer), ["center", "--N", "3", "--max-degree", "4", "--json"])
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.snapshot())
    degrees = routes.degrees_up_to(3, 4)
    assert m["center.nullspace.calls"] == len(degrees)
    assert m["center.matrix.cols"] == sum(routes.basis_size(c) for c in degrees)
    assert m["center.kernel_dim"] == 3
    assert m["center.rank"] == m["center.matrix.cols"] - 3


# the command -----------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "affine", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_clock_scales_each_stretch_by_the_reference_around_it(monkeypatch):
    import clock

    # pieces as if the machine ran at half, then a third of the reference speed
    timings = iter([2 * clock.REFERENCE_S, 2 * clock.REFERENCE_S, 4 * clock.REFERENCE_S])
    monkeypatch.setattr(clock, "reference", lambda: next(timings))
    c = clock.Clock(tracer=types.SimpleNamespace(active=False))  # a tracing clock takes no timer samples
    with c.program():
        pass
    c._sample()
    with c.program():
        pass
    c.finish()
    (s1, e1), (s2, e2) = c._calls
    assert c.seconds == pytest.approx((e1 - s1) + (e2 - s2))
    assert c.scaled == pytest.approx((e1 - s1) / 2 + (e2 - s2) / 3)


def test_clock_leaves_out_the_time_of_the_pieces():
    import time

    import clock

    c = clock.Clock()
    with c.program():
        t_end = time.perf_counter() + 4 * clock.SAMPLE_EVERY_S
        while time.perf_counter() < t_end:
            pass
    c.finish()
    assert len(c._samples) >= 4
    pieces = sum(e - s for s, e, _ in c._samples[1:-1])
    (start, end), = c._calls
    assert c.seconds == pytest.approx(end - start - pieces)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
