import importlib.util
import shlex
from pathlib import Path

import pytest

from partic.cli import build_parser

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "certify_all.py"


@pytest.fixture
def certify_all():
    spec = importlib.util.spec_from_file_location("certify_all", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_run_parses(certify_all):
    parser = build_parser()
    for argv in certify_all.RUNS:
        assert parser.parse_args(list(argv)).subcommand in ("verify", "center", "affine-verify"), argv


def test_runs_cover_the_certification_bounds(certify_all):
    runs = [build_parser().parse_args(list(argv)) for argv in certify_all.RUNS]
    verify = [(a.N, a.max_len, a.max_degree) for a in runs if a.subcommand == "verify"]
    center = [(a.N, a.max_degree, a.expect_theorem) for a in runs if a.subcommand == "center"]
    affine = [(a.N, a.particles, a.m_max, a.k_max) for a in runs if a.subcommand == "affine-verify"]
    # every check with words to length 16 at N=3, 12 at N=4, 12 at N=5 and 10 at N=6, the
    # center to degree 12 at N=3, 4, 16 at N=5 and 10 at N=6
    assert verify == [(3, 16, 12), (4, 12, 12), (5, 12, 16), (6, 10, 10)]
    # the center theorem at N=6 to degree 14
    assert center == [(6, 14, True)]
    assert affine == [(n, 6, 3, 2) for n in range(3, 9)]
    assert len(runs) == len(verify) + len(center) + len(affine)


def test_a_small_table_prints_the_cli_output(certify_all, monkeypatch, capsys):
    monkeypatch.setattr(certify_all, "RUNS", (("affine-verify", "--N", "3", "--m-max", "1", "--k-max", "0"),))
    assert certify_all.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "$ partic affine-verify --N 3 --m-max 1 --k-max 0",
        "all 6 relation instances verified on configurations with <= 6 particles",
        "certification passed",
    ]


def test_one_failing_run_fails_the_certification(certify_all, monkeypatch, capsys):
    calls = []

    def run(argv):
        calls.append(argv)
        return 1 if argv[:3] == ["affine-verify", "--N", "5"] else 0

    monkeypatch.setattr(certify_all, "run", run)
    assert certify_all.main() == 1
    # a failure does not stop the runs after it
    assert calls == [list(argv) for argv in certify_all.RUNS]
    assert capsys.readouterr().out.splitlines() == [
        *("$ partic " + shlex.join(argv) for argv in certify_all.RUNS),
        "certification FAILED",
    ]
