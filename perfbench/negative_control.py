#!/usr/bin/env python3
"""Negative control: show that the benchmark's output checks can fail.

    python3 perfbench/negative_control.py

Runs tiny instances of each workload's jobs through the same checks as
run.py: once untouched, where every workload must report fail_frac = 0, and
once per corruption of one output between the job and its check, where the
corrupted workload must report fail_frac > 0.  Exits 0 only when both hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1
TINY = {
    "circulant": {"cli_n": 48, "lib_n": 64},
    "general-io": {"n": 24},
    "verify-battery": {"trials": 1, "jobs": 1},
}


def perturb_csv(name: str, delta: float = 1e-6):
    def corrupt(job, outcome):
        path = job.out / name
        table = np.loadtxt(path, delimiter=",", ndmin=2)
        table[0, -1] += delta
        np.savetxt(path, table, fmt="%.16e", delimiter=",")
        return outcome
    return corrupt


def fail_verify_json(job, outcome):
    path = job.out / "verify.json"
    report = json.loads(path.read_text())
    report["passed"] = False
    path.write_text(json.dumps(report))
    return outcome


def fail_degree_report(job, outcome):
    return dataclasses.replace(
        outcome, value=dataclasses.replace(outcome.value, synthesis_ok=False)
    )


def miss_knot(job, outcome):
    (residual, _), edge_residual = outcome.value
    return dataclasses.replace(outcome, value=((residual, False), edge_residual))


CORRUPTIONS = [
    ("general-io", "operators", "Lpinv.csv entry +1e-6", perturb_csv("Lpinv.csv")),
    ("general-io", "operators", "S.csv entry +1e-6", perturb_csv("S.csv")),
    ("general-io", "analysis_basis", "basis.csv entry +1e-6", perturb_csv("basis.csv")),
    ("general-io", "synth", "signal.csv entry +1e-6", perturb_csv("signal.csv")),
    ("circulant", "figures", "atoms_banded.csv entry +1e-6", perturb_csv("atoms_banded.csv")),
    ("circulant", "figures", "signal_banded.csv entry +1e-6",
     perturb_csv("signal_banded.csv")),
    ("circulant", "analysis_basis", "basis.csv entry +1e-6", perturb_csv("basis.csv")),
    ("circulant", "synth", "signal.csv entry +1e-6", perturb_csv("signal.csv")),
    ("circulant", "degree_report", "DegreeReport.synthesis_ok = False", fail_degree_report),
    ("circulant", "knot_check", "knot match = False", miss_knot),
    ("verify-battery", "verify", "verify.json passed = false", fail_verify_json),
]


def run_round(plan, oracle, kind=None, corrupt=None) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for job in plan.jobs:
        if job.out is not None:
            shutil.rmtree(job.out, ignore_errors=True)
        outcome = workloads.run_job(job)
        if job.kind == kind:
            outcome = corrupt(job, outcome)
        found = checks.check(job, outcome, oracle)
        attempted += 1
        failed += bool(found)
        problems += found
    return attempted, failed, problems


def main() -> int:
    work = ROOT / ".perfbench_work" / f"negative-control-{os.getpid()}"
    ok = True
    try:
        plans, oracles = {}, {}
        for name, sizes in TINY.items():
            plans[name] = workloads.BUILDERS[name](SEED, work / name, **sizes)
            checks.compute_oracles(plans[name].oracle_request, work / name / "oracle")
            oracles[name] = checks.Oracle(work / name / "oracle")
            attempted, failed, problems = run_round(plans[name], oracles[name])
            ok &= failed == 0
            print(f"clean     {name:15s} fail_frac {failed / attempted:.3f}  {problems or ''}")
        for name, kind, label, corrupt in CORRUPTIONS:
            attempted, failed, problems = run_round(plans[name], oracles[name], kind, corrupt)
            ok &= failed > 0
            print(f"corrupted {name:15s} fail_frac {failed / attempted:.3f}  {kind}: {label}"
                  f"  -> {problems[0] if problems else 'NOT DETECTED'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("negative control " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
