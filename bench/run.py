"""Benchmark of the partic certification engine: time to verdict, set-up, memory, per-layer cost.

    python3 bench/run.py --workload {words,oracle,center,affine} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports partic from ``src/`` there and
fails, printing no result, when that is missing. Each run starts fresh
processes one after another, never two at once: with ``--trace 0``,
``SETUP_PROBES`` processes that only set up, then one worker that sets up and
runs whole rounds for ``--seconds``; with ``--trace 1``, one worker that
alternates untraced and traced rounds. The metrics and their units are those
named in ``BENCHMARK.json``. Every metric is printed by name and unit, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("words", "oracle", "center", "affine")
SETUP_PROBES = 8
DEADLINE_S = 170.0


def start_worker(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)] + extra,
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "partic", "__init__.py")):
        print(f"error: no partic package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        setup = [] if args.trace else [
            start_worker(args, ["--setup-only"], 30)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        remaining = DEADLINE_S - (time.perf_counter() - started)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = start_worker(args, extra, remaining)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = result["layers"]
    else:
        setup.append(result["setup_s"])
        values = {
            "setup_s": statistics.median(setup),
            "verdict_s": statistics.median(result["verdicts"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    rounds = len(result["verdicts"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rounds} untraced round(s), {result['attempted']} operations, {result['failed']} failed")
    for name in units:
        print(f"  {name} = {values[name]} {units[name]}")
    print(f"  unscaled median program time per round = {statistics.median(result['raw_verdicts'])} s")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
