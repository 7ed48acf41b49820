"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 malformed input.  Output is
deterministic for fixed flags; per-check wall times are only shown when
explicitly requested (``verify --timings``).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .affine import _first_failure, _relation_stream
from .center import center_bases, theorem_mismatch
from .core import (
    MultiDegree,
    NormalMonomial,
    Word,
    check_rank,
    compositions,
    parse_ints,
)
from .normal_form import enumerate_basis, nm_product, normalize
from .particles import ANNIHILATED, Configuration, act_gen, act_word
from .verify import VerifyConfig, run_verify

SCHEMA = 1


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    elif not args.quiet:
        for line in lines:
            print(line)


def _fmt_monomial(m: NormalMonomial) -> str:
    d = ",".join(str(x) for x in m.d)
    k = ",".join(str(x) for x in m.k)
    return f"d=[{d}], k=[{k}]"


def _parse_monomial_arg(n: int, text: str) -> NormalMonomial:
    """A word string like '2 1 2' or a JSON monomial {'N':..,'d':..,'k':..}."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nesting level
            raise ValueError(f"bad JSON monomial: {exc}") from None
        m = NormalMonomial.from_json(obj)
        if m.n != n:
            raise ValueError(f"monomial rank {m.n} does not match --N {n}")
        return m
    return normalize(Word.parse(n, text))


def cmd_normalize(args) -> int:
    m = normalize(Word.parse(args.N, args.word))
    _emit(args, {"command": "normalize", "result": m.to_json()}, [f"{_fmt_monomial(m)}  ({m})"])
    return 0


def cmd_mul(args) -> int:
    left = _parse_monomial_arg(args.N, args.left)
    right = _parse_monomial_arg(args.N, args.right)
    m = nm_product(left, right)
    _emit(args, {"command": "mul", "result": m.to_json()}, [f"{_fmt_monomial(m)}  ({m})"])
    return 0


def cmd_basis(args) -> int:
    counts = parse_ints(args.degree)
    if len(counts) != args.N - 1:
        raise ValueError(f"--degree needs {args.N - 1} components for --N {args.N}")
    basis = enumerate_basis(MultiDegree(counts))
    _emit(
        args,
        {"command": "basis", "degree": list(counts), "result": [m.to_json() for m in basis]},
        [f"{_fmt_monomial(m)}  ({m})" for m in basis] + [f"total: {len(basis)}"],
    )
    return 0


def _action_graph_dot(n: int, particles: int) -> list[str]:
    check_rank(n)  # compositions cannot take a negative number of parts
    lines = ["digraph action {", "  rankdir=LR;"]
    # exactly `particles` in all; compositions come in lexicographic order, so the nodes come sorted
    bodies = compositions(n - 1, particles, "particles")
    nodes = [Configuration(n, body + (particles - sum(body),)) for body in bodies]
    for c in nodes:
        lines.append(f'  "{c}";')
    for c in nodes:
        for i in range(1, n):
            out = act_gen(i, c)
            if out is not ANNIHILATED:
                lines.append(f'  "{c}" -> "{out}" [label="a{i}"];')
    lines.append("}")
    return lines


def cmd_act(args) -> int:
    if args.dot:
        if args.particles is None:
            raise ValueError("--dot requires --particles")
        lines = _action_graph_dot(args.N, args.particles)
        _emit(args, {"command": "act", "dot": "\n".join(lines)}, lines)
        return 0
    if args.word is None or args.config is None:
        raise ValueError("act requires --word and --config (or --dot --particles)")
    w = Word.parse(args.N, args.word)
    c = Configuration.parse(args.N, args.config)
    out = act_word(w, c)
    if out is ANNIHILATED:
        _emit(args, {"command": "act", "annihilated": True}, ["annihilated"])
    else:
        _emit(args, {"command": "act", "annihilated": False, "config": list(out.occ)}, [str(out)])
    return 0


def cmd_center(args) -> int:
    # only the output _emit prints is built: the JSON entries, the text lines, or neither
    lines = []
    degrees = []
    mismatch = None
    for delta, basis in center_bases(args.N, args.max_degree):
        if mismatch is None and theorem_mismatch(delta, basis) is not None:
            mismatch = str(delta)
        if args.json:
            degrees.append({
                "degree": list(delta.counts),
                "dimension": len(basis),
                "basis": [[[str(c), m.to_json()] for m, c in b.sorted_terms()] for b in basis],
            })
        elif not args.quiet:
            line = f"degree ({delta}): dimension {len(basis)}"
            if basis:
                line += "  basis: " + "; ".join(b.pretty() for b in basis)
            lines.append(line)
    if args.expect_theorem:
        lines.append("prediction check: " + ("ok" if mismatch is None else f"MISMATCH at ({mismatch})"))
    _emit(args, {"command": "center", "degrees": degrees, "mismatch": mismatch}, lines)
    return 1 if (args.expect_theorem and mismatch is not None) else 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(args.N, args.max_len, max_degree=args.max_degree)
    report = run_verify(cfg)
    lines = []
    payload_checks = []
    for c in report.checks:
        params = ", ".join(f"{k}={v}" for k, v in sorted(c.params.items()))
        status = "PASS" if c.passed else "FAIL"
        line = f"[{status}] {c.name} ({params})"
        if args.timings:
            line += f"  [{c.seconds:.2f}s]"
        lines.append(line)
        if c.counterexample:
            lines.append(f"       counterexample: {c.counterexample}")
        entry = {
            "name": c.name,
            "params": c.params,
            "passed": c.passed,
            "counterexample": c.counterexample,
        }
        if args.timings:
            entry["seconds"] = round(c.seconds, 3)
        payload_checks.append(entry)
    lines.append("all checks passed" if report.passed else "VERIFICATION FAILED")
    _emit(args, {"command": "verify", "checks": payload_checks, "passed": report.passed}, lines)
    return 0 if report.passed else 1


def cmd_affine_verify(args) -> int:
    instances, failure = _first_failure(args.N, _relation_stream(args.N, args.m_max, args.k_max), args.particles)
    if failure is not None:
        lhs, rhs, witness = failure
        _emit(
            args,
            {
                "command": "affine-verify",
                "passed": False,
                "lhs": list(lhs.letters),
                "rhs": list(rhs.letters),
                "witness": list(witness.occ),
            },
            [f"FAIL: [{lhs}] vs [{rhs}] differ on configuration {witness}"],
        )
        return 1
    _emit(
        args,
        {"command": "affine-verify", "passed": True, "instances": instances},
        [
            f"all {instances} relation instances verified on configurations "
            f"with <= {args.particles} particles"
        ],
    )
    return 0


@functools.cache  # built once per process; main looks each command up when it runs
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--quiet", action="store_true", help="suppress text output")
    common.add_argument("--N", type=int, required=True)

    parser = argparse.ArgumentParser(prog="partic", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("normalize", parents=[common], help="normal form of a word")
    p.add_argument("--word", required=True, help="letters, e.g. '4 3 2 1 2' (empty = unit)")

    p = sub.add_parser("mul", parents=[common], help="product of two words or JSON monomials")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("basis", parents=[common], help="basis monomials of one multidegree")
    p.add_argument("--degree", required=True, help="occurrence counts, e.g. '1,1,1'")

    p = sub.add_parser("act", parents=[common], help="act with a word on a configuration")
    p.add_argument("--word", help="rightmost letter acts first")
    p.add_argument("--config", help="counts k_1,...,k_{N-1},k_0 (deposit last)")
    p.add_argument("--dot", action="store_true", help="emit the action graph as DOT")
    p.add_argument("--particles", type=int, help="particle number for --dot")

    p = sub.add_parser("center", parents=[common], help="graded center basis")
    p.add_argument(
        "--max-degree",
        type=int,
        required=True,
        help="total-degree bound (at N=5: 10 takes about 0.1 s, 14 about 0.12-0.17 s, 16 about 0.13-0.2 s; "
        "at N=6: 10 about 0.11-0.16 s, 12 about 0.18-0.22 s, 14 about 0.2-0.3 s)",
    )
    p.add_argument(
        "--expect-theorem",
        action="store_true",
        help="exit nonzero unless dimensions are 1 at r*(1,...,1) and 0 elsewhere",
    )

    p = sub.add_parser("verify", parents=[common], help="run the certification suite")
    p.add_argument(
        "--max-len", type=int, default=6, help="word-length bound (at N=5: 6 or 7 takes about 0.2 s, 8 to 10 about 0.25-0.3 s, 11 about 0.45 s, 12 about 0.6 s)"
    )
    p.add_argument(
        "--max-degree",
        type=int,
        help="also certify graded center dimensions to this degree (the check alone, at N=5: 10 takes "
        "about 0.01 s, 14 about 0.02-0.04 s, 16 about 0.04-0.06 s; at N=6: 10 about 0.02-0.04 s, "
        "12 about 0.08-0.09 s, 14 about 0.1-0.17 s)",
    )
    p.add_argument("--timings", action="store_true", help="include wall times (non-reproducible)")

    p = sub.add_parser("affine-verify", parents=[common], help="check the cyclic relation families")
    p.add_argument(
        "--particles",
        type=int,
        default=6,
        help="configurations with at most this many particles, decided from word labels, "
        "so the cost does not grow with it",
    )
    p.add_argument(
        "--m-max",
        type=int,
        default=2,
        help="bound on the outer exponents m, m' of the two parametrized families "
        "(at N=8 with --k-max 2: 2 takes about 0.2 s, 3 about 0.35 s, 4 about 0.6 s)",
    )
    p.add_argument(
        "--k-max",
        type=int,
        default=1,
        help="bound on each of the N-2 exponents of the families' middle block, so the cost grows "
        "as (k+1)^(N-2) (at N=8 with --m-max 2: 1 takes about 0.1 s, 2 about 0.2 s, 3 about 1.0 s)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.subcommand.replace("-", "_")](args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # raised without a message, e.g. by [0] * n for a huge rank
        print("error: out of memory: the rank or a bound is too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
