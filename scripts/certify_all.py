#!/usr/bin/env python3
"""Run the full desk-scale certification: oracle vs normal form, action
factoring, faithfulness, graded center, and the affine relation families.

Exits nonzero if anything fails.  Bounds are small enough to finish in well
under a minute; push them up via the config below if you have patience.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

from partic import VerifyConfig, run_verify
from partic.affine import affine_relation_instances, first_failing_instance


@dataclass(frozen=True)
class CertificationPlan:
    classical_ranks: tuple[int, ...] = (3, 4, 5)
    max_len: int = 8
    center_max_degree: int = 12
    affine_ranks: tuple[int, ...] = (3, 4, 5, 6, 7)
    affine_particles: int = 6
    affine_m_max: int = 3
    affine_k_max: int = 2


def main() -> int:
    plan = CertificationPlan()
    failed = False

    for n in plan.classical_ranks:
        cfg = VerifyConfig(
            n=n,
            max_len=plan.max_len,
            include_center=True,
            max_degree=plan.center_max_degree,
        )
        report = run_verify(cfg)
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] N={n} {check.name} ({check.seconds:.2f}s)")
            if check.counterexample:
                print(f"       counterexample: {check.counterexample}")
        failed |= not report.passed

    for n in plan.affine_ranks:
        instances = affine_relation_instances(n, plan.affine_m_max, plan.affine_k_max)
        bad = first_failing_instance(instances, plan.affine_particles)
        if bad is None:
            print(f"[PASS] N={n} affine-relations ({len(instances)} instances)")
        else:
            lhs, rhs, witness = bad
            print(f"[FAIL] N={n} affine-relations: [{lhs}] vs [{rhs}] differ on {witness}")
            failed = True

    print("certification", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
