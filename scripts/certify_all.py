#!/usr/bin/env python3
"""Run the full desk-scale certification: every check of ``partic verify``
(oracle vs normal form, action factoring, faithfulness, graded center), the
center theorem at rank 6 with ``partic center``, and the affine relation
families of ``partic affine-verify``.

Each entry of RUNS is one ``partic`` command line, run in process; what it
prints is the CLI's own output.  Exits 1 if any run exits nonzero.
"""
from __future__ import annotations

import shlex
import sys

from partic.cli import main as run

RUNS: tuple[tuple[str, ...], ...] = (
    *(("verify", "--N", str(n), "--max-len", str(length), "--max-degree", str(d), "--timings")
      for n, length, d in ((3, 16, 12), (4, 12, 12), (5, 12, 16), (6, 10, 10))),
    ("center", "--N", "6", "--max-degree", "14", "--expect-theorem"),
    *(("affine-verify", "--N", str(n), "--particles", "6", "--m-max", "3", "--k-max", "2") for n in range(3, 9)),
)


def main() -> int:
    failed = False
    for argv in RUNS:
        print("$ partic", shlex.join(argv), flush=True)
        failed |= run(list(argv)) != 0
    print("certification", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
