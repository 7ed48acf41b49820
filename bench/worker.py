"""One workload in one fresh process: set up, run whole rounds, report one JSON line.

``run.py`` starts this script; it is not meant to be run by hand.

    python3 bench/worker.py --workload NAME --seed N --t0 T --setup-only
    python3 bench/worker.py --workload NAME --seed N --t0 T --seconds S --trace 0|1

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process. On Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
``setup_s`` counts interpreter start, the import of partic and the building
of the workload's inputs. With ``--trace 0`` the script runs untraced rounds
until ``--seconds`` have passed. With ``--trace 1`` it alternates an
untraced and a traced round until then, and writes the aggregated spans of
the traced rounds to ``bench/out/`` once, at the end. Each round's program
time is reported in wall seconds and at the reference speed of ``clock.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def is_time(name: str) -> bool:
    return name.endswith((".s", "_s"))


def merge_traced(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time over the traced rounds; counts must agree exactly."""
    merged, problems = {}, []
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if is_time(name):
            merged[name] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            problems.append(f"count {name} differs between traced rounds: {values}")
        merged[name] = values[0]
    return merged, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    import partic
    import workloads
    from clock import Clock

    if os.path.dirname(os.path.abspath(partic.__file__)) != os.path.join(SRC, "partic"):
        print(f"error: partic was imported from {partic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = perf_counter() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    plain, raw, traced, layers, snapshots = [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    start = perf_counter()
    while True:
        clock = Clock()
        outcome = workload.run_round(clock)
        clock.finish()
        plain.append(clock.scaled)
        raw.append(clock.seconds)
        rounds_outcomes = [outcome]
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                clock = Clock(tracer)
                traced_outcome = workload.run_round(clock)
                clock.finish()
            finally:
                tracer.uninstall()
            traced.append(clock.scaled)
            snap = tracer.snapshot()
            snapshots.append(snap)
            layers.append(layer_metrics(snap) | {"cli.output_bytes": traced_outcome.output_bytes})
            rounds_outcomes.append(traced_outcome)
        for o in rounds_outcomes:
            attempted += o.attempted
            failed += o.failed
            problems += o.problems
        if perf_counter() - start >= args.seconds:
            break

    result |= {"verdicts": plain, "raw_verdicts": raw, "attempted": attempted, "failed": failed}
    if tracer is None:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        merged, count_problems = merge_traced(layers)
        problems += count_problems
        merged["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["layers"] = merged
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "plain_s": plain,
                       "traced_s": traced, "rounds": snapshots}, f, indent=1)
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
