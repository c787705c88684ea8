"""Seeded inputs, warm-up and job execution for the lapsig benchmark.

A workload is a fixed list of jobs, one *round*, built from the workload
seed.  The benchmark repeats the round in one process, as one client in a
closed loop.  CLI jobs call ``lapsig.cli.main(argv)`` in-process; library
jobs call the public function.  Both look their entry point up through the
module at call time, so the tracer's wrappers are seen when installed.

Why each workload exists:

* ``circulant``: the CLI jobs at n=2048 are dominated by the dense O(n^3)
  eigensolve and the assembly of L^+, and their input is a CirculantSpec,
  so a one-spectrum or FFT path shows here.  The library jobs at n=1024
  put the per-atom degree profiling and the all-pairs BFS of the knot check
  on the blocking path.
* ``general-io``: a sparse general Graph given as an edge-list file.
  ``operators`` is bound by CSV output, and a circulant fast path is
  bypassed, so the prediction for such a path is no change.
* ``verify-battery``: thousands of n <= 64 problems, where per-call
  overhead dominates; a change that adds per-call cost shows here.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lapsig import cli, graphs, linalg, synthesis

SUPPORT_SIZE = 8
VERIFY_JOBS_PER_ROUND = 4

# Tiny instances of each workload, run once during set-up so that code
# paths, imports and the BLAS thread pool are warm before timing.
_WARMUP = {
    "circulant": {"cli_n": 32, "lib_n": 32},
    "general-io": {"n": 24},
    "verify-battery": {"trials": 1, "jobs": 1},
}


@dataclass
class Job:
    """One unit of work.  Exactly one of ``argv`` and ``call`` is set."""

    kind: str
    argv: list[str] | None = None
    call: object = None
    out: Path | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    """One round of jobs plus what the checks and the record need."""

    workload: str
    jobs: list[Job]
    inputs: list[dict]
    oracle_request: dict


@dataclass
class Outcome:
    value: object  # exit code of a CLI job, return value of a library job
    seconds: float
    error: str | None = None  # traceback of a raised exception
    stderr: str = ""


def _support(rng: np.random.Generator, n: int, size: int = SUPPORT_SIZE) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=size, replace=False))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _alternating(count: int) -> list[float]:
    """The CLI's default ``synth`` coefficients."""
    return [1.0 if t % 2 == 0 else -1.0 for t in range(count)]


def _circulant_desc(spec) -> dict:
    return {"circulant": graphs.circulant_spec_to_json(spec)}


def circulant_plan(seed: int, work: Path, cli_n: int = 2048, lib_n: int = 1024) -> Plan:
    rng = np.random.default_rng(seed)
    spec = graphs.random_circulant_spec(cli_n, rng, weights="integer")
    spec_json = json.dumps(graphs.circulant_spec_to_json(spec))
    atoms = _support(rng, cli_n, 2)
    basis_support = _support(rng, cli_n)
    synth_support = _support(rng, cli_n)
    lib_spec = graphs.random_circulant_spec(lib_n, rng, weights="integer")
    lib_graph = graphs.compile_circulant(lib_spec)
    lib_cosupport = graphs.Cosupport.from_support(lib_n, _support(rng, lib_n))
    knot_vertex = int(rng.integers(lib_n))
    hops = _csv(spec.hops)

    def degree_report():
        return synthesis.model_degree_report(lib_spec, lib_cosupport)

    def knot_check():
        return (
            synthesis.two_hop_knot_check(lib_graph, knot_vertex),
            synthesis.edge_knot_residual(lib_graph),
        )

    jobs = [
        Job(
            "figures",
            ["figures", "--n", str(cli_n), "--hops", hops, "--atoms", _csv(atoms),
             "--out", str(work / "figures")],
            out=work / "figures",
            expect={"atoms": atoms},
        ),
        Job(
            "analysis_basis",
            ["analysis-basis", "--circulant", spec_json, "--support", _csv(basis_support),
             "--out", str(work / "analysis_basis")],
            out=work / "analysis_basis",
            expect={"graph": "spec", "support": basis_support, "nullspace": "basis"},
        ),
        Job(
            "synth",
            ["synth", "--circulant", spec_json, "--support", _csv(synth_support),
             "--out", str(work / "synth")],
            out=work / "synth",
            expect={"graph": "spec", "support": synth_support,
                    "coeffs": _alternating(len(synth_support))},
        ),
        Job("degree_report", call=degree_report),
        Job(
            "knot_check",
            call=knot_check,
            expect={"lap_max": 2.0 * sum(d for _, d in lib_spec.generators)},
        ),
    ]
    banded = graphs.CirculantSpec(cli_n, tuple((h, 1.0) for h in spec.hops))
    request = {
        "graphs": {
            "spec": _circulant_desc(spec),
            "cycle": _circulant_desc(graphs.CirculantSpec(cli_n, ((1, 1.0),))),
            "banded": _circulant_desc(banded),
        },
        "nullspaces": {"basis": {"graph": "spec", "support": basis_support}},
    }
    inputs = [
        {"name": "cli_spec", "n": cli_n, "edges": graphs.compile_circulant(spec).num_edges,
         "hops": list(spec.hops), "weights": [d for _, d in spec.generators]},
        {"name": "figures_banded", "n": cli_n, "edges": cli_n * len(spec.hops)},
        {"name": "lib_spec", "n": lib_n, "edges": lib_graph.num_edges,
         "hops": list(lib_spec.hops), "weights": [d for _, d in lib_spec.generators]},
    ]
    return Plan("circulant", jobs, inputs, request)


def general_io_plan(seed: int, work: Path, n: int = 512) -> Plan:
    rng = np.random.default_rng(seed)
    g = graphs.random_connected_graph(n, rng, extra_edge_prob=4.0 / n)
    path = work / "inputs" / "graph.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(graphs.format_edge_list(g))
    basis_support = _support(rng, n)
    synth_support = _support(rng, n)
    source = ["--graph", str(path)]
    jobs = [
        Job(
            "operators",
            ["operators", *source, "--out", str(work / "operators")],
            out=work / "operators",
            expect={"graph": "graph", "edges": g.num_edges},
        ),
        Job(
            "analysis_basis",
            ["analysis-basis", *source, "--support", _csv(basis_support),
             "--out", str(work / "analysis_basis")],
            out=work / "analysis_basis",
            expect={"graph": "graph", "support": basis_support, "nullspace": "basis"},
        ),
        Job(
            "synth",
            ["synth", *source, "--support", _csv(synth_support),
             "--out", str(work / "synth")],
            out=work / "synth",
            expect={"graph": "graph", "support": synth_support,
                    "coeffs": _alternating(len(synth_support))},
        ),
    ]
    request = {
        "graphs": {"graph": {"edge_list": str(path)}},
        "nullspaces": {"basis": {"graph": "graph", "support": basis_support}},
    }
    inputs = [{"name": "graph", "n": n, "edges": g.num_edges}]
    return Plan("general-io", jobs, inputs, request)


def verify_battery_plan(
    seed: int, work: Path, trials: int | None = None, jobs: int = VERIFY_JOBS_PER_ROUND
) -> Plan:
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=jobs)]
    extra = [] if trials is None else ["--trials", str(trials)]
    job_list = [
        Job("verify", ["verify", "--seed", str(s), *extra, "--out", str(work / f"verify{k}")],
            out=work / f"verify{k}")
        for k, s in enumerate(seeds)
    ]
    inputs = [{"name": "verify_seeds", "seeds": seeds, "trials": trials or "default"}]
    return Plan("verify-battery", job_list, inputs, {"graphs": {}, "nullspaces": {}})


BUILDERS = {
    "circulant": circulant_plan,
    "general-io": general_io_plan,
    "verify-battery": verify_battery_plan,
}


def run_job(job: Job) -> Outcome:
    """Run one job and time it.  A raised exception is recorded, not raised."""
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        if job.argv is not None:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                value = cli.main(job.argv)
        else:
            value = job.call()
    except (Exception, SystemExit):
        return Outcome(None, time.perf_counter() - start, traceback.format_exc())
    return Outcome(value, time.perf_counter() - start, stderr=stderr.getvalue())


def prepare(workload: str, seed: int, work: Path) -> Plan:
    """Set-up: warm up, then generate the seeded inputs of one workload."""
    linalg.pseudoinverse(graphs.laplacian(graphs.cycle_graph(256)))
    warm = BUILDERS[workload](seed, work / "warmup", **_WARMUP[workload])
    for job in warm.jobs:
        outcome = run_job(job)
        if outcome.error is not None or (job.argv is not None and outcome.value != 0):
            raise RuntimeError(
                f"warm-up {job.kind} failed: "
                f"{outcome.error or f'exit {outcome.value}: {outcome.stderr}'}"
            )
    return BUILDERS[workload](seed, work)
