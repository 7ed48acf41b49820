import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from normal_condition_reference import normal_condition_scan
from partic.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize_text(capsys):
    code, out, _ = run(capsys, "normalize", "--N", "5", "--word", "4 3 2 1 2")
    assert code == 0
    assert out.splitlines() == ["d=[1,1,1], k=[1,1,0,0]  (a4 a3 a2 a1 a2)"]


def test_normalize_empty_word_is_unit(capsys):
    code, out, _ = run(capsys, "normalize", "--N", "5", "--word", "")
    assert code == 0
    assert out.splitlines() == ["d=[0,0,0], k=[0,0,0,0]  (1)"]


def test_normalize_json_schema(capsys):
    code, out, _ = run(capsys, "normalize", "--N", "5", "--word", "4,3,2,1,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["result"] == {"N": 5, "d": [1, 1, 1], "k": [1, 1, 0, 0]}


def test_normalize_malformed_word(capsys):
    code, _, err = run(capsys, "normalize", "--N", "5", "--word", "4 x 2")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "normalize", "--N", "5", "--word", "7")
    assert code == 2


def test_mul_words_and_json(capsys):
    code, out, _ = run(capsys, "mul", "--N", "3", "2 1", "2")
    assert code == 0
    assert out.splitlines() == ["d=[1], k=[1,1]  (a2 a1 a2)"]
    lhs = json.dumps({"N": 3, "d": [1], "k": [1, 0]})
    rhs = json.dumps({"N": 3, "d": [0], "k": [0, 1]})
    code, out2, _ = run(capsys, "mul", "--N", "3", lhs, rhs)
    assert code == 0
    assert out2 == out


def test_act_figure_example(capsys):
    code, out, _ = run(
        capsys, "act", "--N", "9", "--word", "6 5 4", "--config", "3,0,0,1,0,1,2,0,1"
    )
    assert code == 0
    assert out.strip() == "3,0,0,0,0,1,3,0,1"


def test_act_annihilated(capsys):
    code, out, _ = run(capsys, "act", "--N", "3", "--word", "1", "--config", "0,1,0")
    assert code == 0
    assert out.strip() == "annihilated"


def test_act_dot_export(capsys):
    code, out, _ = run(capsys, "act", "--N", "3", "--dot", "--particles", "1")
    assert code == 0
    assert out.startswith("digraph action")
    assert '"1,0,0" -> "0,1,0" [label="a1"];' in out
    assert '"0,1,0" -> "0,0,1" [label="a2"];' in out
    # dot without particle bound is malformed input
    code, _, _ = run(capsys, "act", "--N", "3", "--dot")
    assert code == 2


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "--N", "3", "--degree", "1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total: 2"
    assert len(lines) == 3
    code, _, _ = run(capsys, "basis", "--N", "4", "--degree", "1,1")
    assert code == 2


def test_center_expect_prediction(capsys):
    code, out, _ = run(capsys, "center", "--N", "3", "--max-degree", "4", "--expect-theorem")
    assert code == 0
    assert "prediction check: ok" in out
    assert "degree (1,1): dimension 1  basis: a2 a1" in out


def test_verify_small_pass(capsys):
    code, out, _ = run(capsys, "verify", "--N", "3", "--max-len", "4")
    assert code == 0
    assert out.strip().endswith("all checks passed")
    assert "[PASS] basis-count" in out


def test_verify_with_center_and_determinism(capsys):
    args = ["verify", "--N", "3", "--max-len", "3", "--max-degree", "4", "--json"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert "center-dimensions" in names
    assert all("seconds" not in c for c in payload["checks"])


@pytest.mark.parametrize("flag", [["--relations", "plactic"], ["--center"]])
def test_verify_has_no_relations_or_center_option(capsys, flag):
    # verify partitions under the partic rules only, and --max-degree alone turns the center check on
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--N", "3", "--max-len", "2", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_affine_verify_small(capsys):
    code, out, _ = run(
        capsys, "affine-verify", "--N", "3", "--particles", "3", "--m-max", "1", "--k-max", "1"
    )
    assert code == 0
    assert "verified" in out


def test_quiet_suppresses_text(capsys):
    code, out, _ = run(capsys, "normalize", "--N", "5", "--word", "1 2", "--quiet")
    assert code == 0
    assert out == ""


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "partic", "normalize", "--N", "5", "--word", "4 3 2 1 2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "d=[1,1,1], k=[1,1,0,0]" in proc.stdout


# literal stdout, recorded before any refactoring; output must stay byte-identical

GOLDEN_VERIFY_TEXT = """\
[PASS] action-factoring (N=3, max_deposit=1, max_len=3, relations=partic)
[PASS] basis-count (N=3, max_len=3, relations=partic)
[PASS] faithfulness (N=3, max_len=3, relations=partic)
[PASS] fold-agreement (N=3, max_len=3, relations=partic)
[PASS] grading (N=3, max_len=3, relations=partic)
[PASS] normal-form (N=3, max_len=3, relations=partic)
all checks passed
"""

GOLDEN_VERIFY_JSON = (
    '{"checks": ['
    '{"counterexample": null, "name": "action-factoring", "params": '
    '{"N": 3, "max_deposit": 1, "max_len": 3, "relations": "partic"}, "passed": true}, '
    '{"counterexample": null, "name": "basis-count", "params": '
    '{"N": 3, "max_len": 3, "relations": "partic"}, "passed": true}, '
    '{"counterexample": null, "name": "faithfulness", "params": '
    '{"N": 3, "max_len": 3, "relations": "partic"}, "passed": true}, '
    '{"counterexample": null, "name": "fold-agreement", "params": '
    '{"N": 3, "max_len": 3, "relations": "partic"}, "passed": true}, '
    '{"counterexample": null, "name": "grading", "params": '
    '{"N": 3, "max_len": 3, "relations": "partic"}, "passed": true}, '
    '{"counterexample": null, "name": "normal-form", "params": '
    '{"N": 3, "max_len": 3, "relations": "partic"}, "passed": true}'
    '], "command": "verify", "passed": true, "schema": 1}\n'
)

GOLDEN_CENTER = """\
degree (0,0): dimension 1  basis: 1
degree (0,1): dimension 0
degree (1,0): dimension 0
degree (0,2): dimension 0
degree (1,1): dimension 1  basis: a2 a1
degree (2,0): dimension 0
degree (0,3): dimension 0
degree (1,2): dimension 0
degree (2,1): dimension 0
degree (3,0): dimension 0
prediction check: ok
"""

GOLDEN_AFFINE = "all 13 relation instances verified on configurations with <= 2 particles\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("verify --N 3 --max-len 3", GOLDEN_VERIFY_TEXT),
        ("verify --N 3 --max-len 3 --json", GOLDEN_VERIFY_JSON),
        ("center --N 3 --max-degree 3 --expect-theorem", GOLDEN_CENTER),
        ("affine-verify --N 3 --particles 2 --m-max 1 --k-max 0", GOLDEN_AFFINE),
    ],
)
def test_golden_output(capsys, argv, expected):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out == expected


# first 16 hex digits of the sha256 of stdout, recorded before the center peel

@pytest.mark.parametrize(
    "argv, digest",
    [
        ("center --N 6 --max-degree 6 --expect-theorem", "54047e68b91d961e"),
        ("center --N 5 --max-degree 10 --expect-theorem --json", "34c4891df995e1ab"),
    ],
)
def test_golden_output_hash(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv",
    [
        # bounds that would certify nothing
        ["verify", "--N", "3", "--max-len", "-1"],
        ["verify", "--N", "3", "--max-len", "2", "--max-deposit", "-1"],
        ["verify", "--N", "3", "--max-len", "2", "--max-degree", "-1"],
        ["affine-verify", "--N", "3", "--particles", "-2"],
        ["center", "--N", "3", "--max-degree", "-1"],
        ["act", "--N", "3", "--dot", "--particles", "-1"],
        ["act", "--N", "0", "--dot", "--particles", "0"],
        # JSON monomials with a missing key or an ill-typed value
        ["mul", "--N", "4", '{"N": 4}', "1"],
        ["mul", "--N", "4", '{"N": 4, "d": 0, "k": [0, 0, 0]}', "1"],
        # JSON numbers that are not integers, and a string where a list belongs
        ["mul", "--N", "4", '{"N": 4, "d": [1e400, 0], "k": [1, 0, 0]}', "1"],
        ["mul", "--N", "4", '{"N": 4, "d": [Infinity, 0], "k": [1, 0, 0]}', "1"],
        ["mul", "--N", "4", '{"N": 4, "d": [0.5, 0], "k": [1, 0, 0]}', "1"],
        ["mul", "--N", "4", '{"N": 4.7, "d": [0, 0], "k": [1, 0, 0]}', "1"],
        ["mul", "--N", "4", '{"N": 4, "d": "12", "k": [1, 0, 0]}', "1"],
        ["mul", "--N", "4", '{"N": true, "d": [0, 0], "k": [1, 0, 0]}', "1"],
        # nesting deep enough to exhaust the JSON decoder's recursion
        ["mul", "--N", "4", '{"N": 4, "d": ' + "[" * 100_000 + "]" * 100_000 + "}", "1"],
        # ranks that fail Python's size checks before anything is allocated: 2**62 is
        # too many list items (MemoryError), 10**19 is no index at all (OverflowError)
        *(
            [cmd, "--N", n, *rest]
            for n in ("4611686018427387904", "10000000000000000000")
            for cmd, *rest in (
                ["normalize", "--word", "1"],
                ["verify", "--max-len", "0"],
                ["center", "--max-degree", "0"],
            )
        ),
    ],
)
def test_malformed_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        # one configuration and one degree: the rank alone must not exhaust the recursion limit
        "act --N 1500 --dot --particles 0",
        "center --N 1500 --max-degree 0",
    ],
)
def test_large_rank_with_one_case_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0
    assert err == ""
    assert out


# argv fuzzing: every subcommand, N in -1..6, every integer bound in -2..3

bounds = st.integers(-2, 3).map(str)
numbers = st.lists(st.integers(-1, 6).map(str), max_size=4)


def option(flag, values):
    return values.map(lambda v: [flag, v])


def maybe(flag, values):
    return st.one_of(st.just([]), option(flag, values))


def switch(flag):
    return st.sampled_from([[], [flag]])


# integer bounds are always given: their defaults are sized for real runs, not for a fuzz loop
SUBCOMMAND_PARTS = {
    "normalize": [maybe("--word", numbers.map(" ".join))],
    "mul": [numbers.map(lambda w: [" ".join(w)]), numbers.map(lambda w: [",".join(w)])],
    "basis": [maybe("--degree", numbers.map(",".join))],
    "act": [
        maybe("--word", numbers.map(" ".join)),
        maybe("--config", numbers.map(",".join)),
        switch("--dot"),
        option("--particles", bounds),
    ],
    "center": [option("--max-degree", bounds), switch("--expect-theorem")],
    "verify": [
        option("--max-len", bounds),
        option("--max-degree", bounds),
        option("--max-deposit", bounds),
    ],
    # the largest case, N=6 with m-max = k-max = 3, is 38,968 relation instances: about 0.8 s
    "affine-verify": [option("--particles", bounds), option("--m-max", bounds), option("--k-max", bounds)],
}


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from(sorted(SUBCOMMAND_PARTS)))
    argv = [sub, "--N", str(draw(st.integers(-1, 6)))]
    for part in SUBCOMMAND_PARTS[sub]:
        argv += draw(part)
    return argv + draw(switch("--json")) + draw(switch("--quiet"))


@settings(max_examples=100, deadline=None)
@given(argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# JSON fuzzing: words and monomials with entries in -1..3 (letters in -1..N), each list of
# the right length or one off either way; mul reads JSON monomials and rejects JSON words


@st.composite
def json_inputs(draw):
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):
        letters = draw(st.lists(st.integers(-1, n), max_size=4))
        return {"N": n, "letters": letters}, all(1 <= a < n for a in letters)
    d, k = (draw(st.lists(st.integers(-1, 3), min_size=size, max_size=size))
            for size in (n - 2 + draw(st.integers(-1, 1)), n - 1 + draw(st.integers(-1, 1))))
    return {"N": n, "d": d, "k": k}, len(d) == n - 2 and normal_condition_scan(d, k)


@settings(max_examples=100, deadline=None)
@given(json_inputs(), json_inputs(), st.integers(3, 5))
def test_fuzzed_json_words_and_monomials_exit_cleanly(left, right, n):
    (lhs, lhs_ok), (rhs, rhs_ok) = left, right
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mul", "--N", str(n), json.dumps(lhs), json.dumps(rhs)])
    if lhs_ok and rhs_ok and "d" in lhs and "d" in rhs and lhs["N"] == rhs["N"] == n:
        assert (code, err.getvalue()) == (0, ""), (lhs, rhs)
        assert len(out.getvalue().splitlines()) == 1
    else:
        assert code == 2, (lhs, rhs)
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: "), err.getvalue()
