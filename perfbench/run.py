#!/usr/bin/env python3
"""The lapsig benchmark: one workload, one seeded run, one JSON result line.

    python3 perfbench/run.py --workload circulant --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; lapsig is imported from ``src/``.  The
phases of a run:

1. One untimed set-up process, which absorbs the cold start of the
   interpreter, numpy and the BLAS library (the page cache), so that
   ``setup_s`` does not depend on whether the run came first.
2. The set-up in this process: import lapsig, warm up on tiny inputs,
   generate the seeded inputs.  Then the independent oracle, in a process
   of its own (checks.py).
3. The timed phase: whole rounds of the workload's jobs, one after the
   other, until ``--seconds`` of job time has passed.  Each job's output is
   checked right after it, with the clock stopped.  Between jobs, also with
   the clock stopped, SETUP_SAMPLES fresh processes each repeat step 2's
   set-up; ``setup_s`` is their median.
4. With ``--trace 1``, untraced and traced rounds alternate; the result
   holds the per-layer metrics per traced round, and the tracing overhead
   is the traced minus the untraced wall time per round.

The last line of stdout is the result; the lines before it print every
metric with its unit and sample count, the environment, and the per-command
medians.  A full record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("circulant", "general-io", "verify-battery")
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 150
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

# Spans predicted to hold the largest self time of a job kind: the
# prediction holds when these are the top len(set) spans of that kind.
PREDICTIONS = {
    "circulant": {
        "figures": {"linalg.eig_symmetric", "linalg.pseudoinverse"},
        "analysis_basis": {"linalg.eig_symmetric", "linalg.pseudoinverse"},
        "synth": {"linalg.eig_symmetric", "linalg.pseudoinverse"},
        "knot_check": {"graphs.hop_distances"},
    },
    "general-io": {"operators": {"linalg.save_matrix_csv"}},
    "verify-battery": {"verify": {"circulant.to_matrix", "linalg.eig_symmetric"}},
}


def _parse(argv):
    parser = argparse.ArgumentParser(description="lapsig benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{Path(args[0]).name} failed:\n{done.stderr}")
    return done.stdout


class SetupSampler:
    """Times the set-up in fresh processes, spread over the timed phase.

    One untimed first process absorbs the cold start of the interpreter,
    numpy and the BLAS library.  The SETUP_SAMPLES timed ones run between
    jobs, with the job clock stopped, at even steps of job time: on a shared
    VM the CPU speed drifts on a scale of seconds, and samples taken back to
    back would all land in one state of it.
    """

    def __init__(self, workload: str, seed: int, work: Path, seconds: float):
        self.args = [workload, str(seed)]
        self.work = work
        self.step = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        self._sample()
        self.samples.clear()

    def _sample(self) -> None:
        out = self.work / f"setup{len(self.samples)}"
        stdout = _child([str(HERE / "setup_probe.py"), *self.args, str(out), str(SRC)])
        self.samples.append(json.loads(stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(out, ignore_errors=True)

    def due(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * self.step:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self._sample()
        return self.samples


def _blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _environment(args, plan) -> dict:
    import numpy as np
    import lapsig

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lapsig": lapsig.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "inputs": plan.inputs,
    }


def _digests(out: Path) -> tuple[dict[str, str], int]:
    digests, size = {}, 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


class Tally:
    """Per-job-kind samples, check counts and output digests of one run."""

    def __init__(self):
        self.seconds = defaultdict(list)
        self.checks = defaultdict(int)
        self.failures = defaultdict(int)
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}
        self.digests_stable: dict[str, bool] = {}
        self.traced_out_bytes = 0
        self.attempted = 0
        self.ok_untraced = 0

    def add(self, job, outcome, problems, traced: bool) -> None:
        self.attempted += 1
        # The output check ran unless the job raised or exited nonzero.
        self.checks[job.kind] += outcome.error is None and (
            job.argv is None or outcome.value == 0)
        if problems:
            self.failures[job.kind] += 1
            if len(self.problems) < 20:
                self.problems.append(f"{job.kind}: {'; '.join(problems)}")
        elif not traced:
            self.ok_untraced += 1
        if not traced:
            self.seconds[job.kind].append(outcome.seconds)
        if job.out is not None and job.out.is_dir():
            digests, size = _digests(job.out)
            key = job.out.name
            if key in self.digests:
                self.digests_stable[key] &= self.digests[key] == digests
            else:
                self.digests_stable[key] = True
            self.digests[key] = digests
            if traced:
                self.traced_out_bytes += size

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _timed_phase(plan, seconds, oracle, tracer, sampler):
    """Whole rounds until ``seconds`` of job time; with a tracer, untraced
    and traced rounds alternate and end on a complete pair."""
    import checks
    import workloads

    tally = Tally()
    wall = {False: 0.0, True: 0.0}
    rounds = {False: 0, True: 0}
    while True:
        traced = tracer is not None and rounds[False] > rounds[True]
        if traced:
            tracer.install()
        try:
            for idx, job in enumerate(plan.jobs):
                if job.out is not None:
                    shutil.rmtree(job.out, ignore_errors=True)
                if traced:
                    tracer.job = (rounds[True], idx)
                outcome = workloads.run_job(job)
                wall[traced] += outcome.seconds
                tally.add(job, outcome, checks.check(job, outcome, oracle), traced)
                if sampler is not None:
                    sampler.due(wall[False] + wall[True])
        finally:
            if traced:
                tracer.uninstall()
        rounds[traced] += 1
        pair_done = tracer is None or rounds[True] == rounds[False]
        if pair_done and wall[False] + wall[True] >= seconds:
            return tally, wall, rounds


def _predictions(workload, plan, tracer) -> list[dict]:
    by_kind: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for job_id, selfs in tracer.self_by_job().items():
        if job_id is None:
            continue
        kind = plan.jobs[job_id[1]].kind
        for name, value in selfs.items():
            by_kind[kind][name] += value
    out = []
    for kind, selfs in sorted(by_kind.items()):
        total = sum(selfs.values()) or 1.0
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
        predicted = PREDICTIONS[workload].get(kind)
        held = None
        if predicted is not None:
            held = {name for name, _ in ranked[: len(predicted)]} == predicted
        out.append({
            "kind": kind,
            "top_self": [[name, value / total] for name, value in ranked[:5]],
            "predicted_top": sorted(predicted) if predicted else None,
            "held": held,
        })
    return out


def _per_layer(entries, tracer, table, tally, wall, rounds) -> dict[str, dict]:
    n = rounds[True]
    special = {
        "cli.out_bytes": tally.traced_out_bytes / n,
        "trace.overhead_s": wall[True] / n - wall[False] / rounds[False],
        "trace.spans": len(tracer) / n,
        "trace.wrapper_s": tracer.wrapper_cost() * len(tracer) / n,
    }
    metrics = {}
    for entry in entries:
        name = entry["name"]
        if name in special:
            value = special[name]
        else:
            base = name.rsplit(".", 1)[0]
            if not (name.startswith("layer.") or base in tracer.wrapped_names
                    or base.startswith("cli.")):
                raise ValueError(f"per-layer metric {name} names no traced span")
            value = table.get(name, 0.0) / n
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def _run(args, work: Path) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sampler = None if args.trace else SetupSampler(args.workload, args.seed, work, args.seconds)

    sys.path.insert(0, str(SRC))
    import lapsig

    if Path(lapsig.__file__).resolve().parent != (SRC / "lapsig").resolve():
        print(f"error: lapsig imported from {lapsig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    plan = workloads.prepare(args.workload, args.seed, work / "main")
    request = work / "oracle-request.json"
    request.write_text(json.dumps(plan.oracle_request))
    _child([str(HERE / "checks.py"), str(request), str(work / "oracle")])
    oracle = checks.Oracle(work / "oracle")
    tracer = tracing.Tracer() if args.trace else None

    gc.collect()
    tally, wall, rounds = _timed_phase(plan, args.seconds, oracle, tracer, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup = sampler.finish() if sampler is not None else []

    kinds = list(dict.fromkeys(job.kind for job in plan.jobs))
    missing = [kind for kind in kinds if tally.checks[kind] == 0]
    correct = tally.failed == 0 and not missing
    env = _environment(args, plan)
    record = {
        "environment": env,
        "setup_samples_s": setup,
        "rounds": rounds[False] + rounds[True],
        "commands": {k: {"median_s": statistics.median(v), "samples": len(v), "all_s": v}
                     for k, v in tally.seconds.items()},
        "checks": {k: {"ran": tally.checks[k], "failed": tally.failures[k]} for k in kinds},
        "problems": tally.problems,
        "digests": tally.digests,
        "digests_stable": tally.digests_stable,
    }
    print("env " + json.dumps(env, sort_keys=True))
    for kind, info in record["commands"].items():
        print(f"command {kind}: median {info['median_s']:.6f} s (n={info['samples']})")
    for kind, info in record["checks"].items():
        print(f"checks {kind}: ran {info['ran']}, failed {info['failed']}")
    for problem in tally.problems:
        print(f"problem {problem}")
    if missing:
        print(f"problem: no output check ran for {missing}")
    print(f"fail_frac = {tally.failed / tally.attempted:.6f} ratio (n={tally.attempted})")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), len(setup)),
            "jobs_per_s": (tally.ok_untraced / wall[False], tally.attempted),
            "peak_rss_mb": (peak_rss_mb, 1),
        }
        result = {}
        for entry in bench["end_to_end"]:
            value, count = metrics[entry["name"]]
            print(f"metric {entry['name']} = {value:.6f} {entry['unit']} (n={count})")
            result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        table = tracer.table()
        result = _per_layer(bench["per_layer"], tracer, table, tally, wall, rounds)
        record["per_layer_per_round"] = {k: v / rounds[True] for k, v in table.items()}
        record["traced_rounds"] = rounds[True]
        record["predictions"] = _predictions(args.workload, plan, tracer)
        for name, entry in result.items():
            print(f"layer {name} = {entry['value']:.6g} {entry['unit']} "
                  f"per round (rounds={rounds[True]})")
        for pred in record["predictions"]:
            top = ", ".join(f"{name} {share:.0%}" for name, share in pred["top_self"][:3])
            verdict = {None: "no prediction", True: "held", False: "did not hold"}[pred["held"]]
            print(f"self-time {args.workload}/{pred['kind']}: {top}; prediction "
                  f"{pred['predicted_top']} {verdict}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}-spans.jsonl.gz")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lapsig" / "__init__.py").is_file():
        print(f"error: no lapsig sources under {SRC}; run from a lapsig checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
