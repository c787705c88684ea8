"""Output checks against an independent dense oracle.

The oracle uses numpy alone and never imports lapsig: it builds each
Laplacian from the edge list or generating set itself, takes L^+ from
``numpy.linalg.pinv`` (an SVD) and the nullspace of the sampled Laplacian
rows from a full SVD.  Run as a script, this module computes the oracle for
a request file in a process of its own, before the timed phase, so that
neither its time nor its memory counts in the workload's metrics:

    python3 perfbench/checks.py REQUEST.json OUT_DIR

The checks compare values within stated tolerances, never bytes: a faster
path may move the last bits of the CSV output.
"""

from __future__ import annotations

import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

# Tolerances, each relative to max(1, largest |entry| of the reference).
EXACT_RTOL = 1e-12  # L.csv and S^T S == L: no solve is involved
PINV_RTOL = 1e-8  # anything derived from L^+
SPAN_TOL = 1e-8  # entrywise projection residual between orthonormal bases
RESIDUAL_RTOL = 1e-9  # the knot identities' own residuals


def circulant_edges(n: int, generators) -> np.ndarray:
    rows = [(i, (i + s) % n, d) for s, d in generators for i in range(n)]
    return np.array(rows, dtype=float)


def dense_laplacian(desc: dict) -> np.ndarray:
    if "circulant" in desc:
        spec = desc["circulant"]
        n = int(spec["n"])
        edges = circulant_edges(n, spec["generators"])
    else:
        edges = np.loadtxt(desc["edge_list"], comments="#", ndmin=2)
        n = int(edges[:, :2].max()) + 1
    i, j = edges[:, 0].astype(int), edges[:, 1].astype(int)
    w = edges[:, 2] if edges.shape[1] > 2 else np.ones(len(edges))
    adj = np.zeros((n, n))
    np.add.at(adj, (i, j), w)
    np.add.at(adj, (j, i), w)
    return np.diag(adj.sum(axis=1)) - adj


def svd_nullspace(a: np.ndarray) -> np.ndarray:
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    cut = max(a.shape) * np.finfo(float).eps * float(s.max())
    return vt[int(np.count_nonzero(s > cut)):].T


def compute_oracles(request: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    laps = {}
    for name, desc in request["graphs"].items():
        lap = dense_laplacian(desc)
        laps[name] = lap
        np.save(out / f"lap-{name}.npy", lap)
        np.save(out / f"pinv-{name}.npy", np.linalg.pinv(lap))
    for name, desc in request["nullspaces"].items():
        lap = laps[desc["graph"]]
        rows = np.setdiff1d(np.arange(lap.shape[0]), desc["support"])
        np.save(out / f"null-{name}.npy", svd_nullspace(lap[rows]))


class Oracle:
    """Loads oracle arrays on demand, so none stays resident between checks."""

    def __init__(self, directory: Path):
        self.dir = directory

    def lap(self, name: str) -> np.ndarray:
        return np.load(self.dir / f"lap-{name}.npy")

    def pinv(self, name: str) -> np.ndarray:
        return np.load(self.dir / f"pinv-{name}.npy")

    def null(self, name: str) -> np.ndarray:
        return np.load(self.dir / f"null-{name}.npy")


def _load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _close(problems: list, label: str, got, want, rtol: float) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{label}: shape {got.shape}, expected {want.shape}")
        return
    gap = float(np.abs(got - want).max()) if got.size else 0.0
    allow = rtol * max(1.0, float(np.abs(want).max()) if want.size else 0.0)
    if not gap <= allow:
        problems.append(f"{label}: max gap {gap:.3e} exceeds {allow:.3e}")


def _close_indexed(problems: list, label: str, table, columns, rtol: float) -> None:
    """A CSV of rows ``i, values...``: exact row indices, values within ``rtol``."""
    want = np.column_stack(columns)
    if table.shape != (want.shape[0], want.shape[1] + 1):
        expected = (want.shape[0], want.shape[1] + 1)
        problems.append(f"{label}: shape {table.shape}, expected {expected}")
        return
    if not np.array_equal(table[:, 0], np.arange(want.shape[0])):
        problems.append(f"{label}: the first column is not the row index")
    _close(problems, label, table[:, 1:], want, rtol)


def _orthonormal_range(a: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > max(a.shape) * np.finfo(float).eps * float(s.max())]


def _check_svg(problems: list, path: Path) -> None:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        problems.append(f"{path.name}: {exc}")
        return
    if not root.tag.endswith("svg"):
        problems.append(f"{path.name}: root element is {root.tag!r}")


def _check_operators(out: Path, exp: dict, oracle: Oracle) -> list[str]:
    problems: list[str] = []
    lap = oracle.lap(exp["graph"])
    pinv = oracle.pinv(exp["graph"])
    n = lap.shape[0]
    _close(problems, "L.csv", _load_csv(out / "L.csv"), lap, EXACT_RTOL)
    inc = _load_csv(out / "S.csv")
    if inc.shape != (exp["edges"], n):
        problems.append(f"S.csv: shape {inc.shape}, expected {(exp['edges'], n)}")
    else:
        _close(problems, "S^T S vs L", inc.T @ inc, lap, EXACT_RTOL)
        _close(problems, "Spinv.csv", _load_csv(out / "Spinv.csv"), pinv @ inc.T, PINV_RTOL)
    _close(problems, "Lpinv.csv", _load_csv(out / "Lpinv.csv"), pinv, PINV_RTOL)
    report = json.loads((out / "report.json").read_text())
    if report.get("rank") != n - 1 or report.get("components") != 1:
        problems.append(
            f"report.json: rank {report.get('rank')}, components "
            f"{report.get('components')}, expected {n - 1} and 1"
        )
    return problems


def _check_figures(out: Path, exp: dict, oracle: Oracle) -> list[str]:
    problems: list[str] = []
    i, j = exp["atoms"]
    for tag in ("cycle", "banded"):
        pinv = oracle.pinv(tag)
        diff = pinv[:, i] - pinv[:, j]
        _close_indexed(problems, f"atoms_{tag}.csv", _load_csv(out / f"atoms_{tag}.csv"),
                       [pinv[:, i], pinv[:, j], diff], PINV_RTOL)
        _check_svg(problems, out / f"atoms_{tag}.svg")
        banded_diff = diff
    _close_indexed(problems, "signal_banded.csv", _load_csv(out / "signal_banded.csv"),
                   [banded_diff], PINV_RTOL)
    _check_svg(problems, out / "signal_banded.svg")
    return problems


def _check_analysis_basis(out: Path, exp: dict, oracle: Oracle) -> list[str]:
    problems: list[str] = []
    basis = _load_csv(out / "basis.csv")
    null = oracle.null(exp["nullspace"])
    if basis.shape != null.shape:
        return [f"basis.csv: shape {basis.shape}, oracle nullspace {null.shape}"]
    q = _orthonormal_range(basis)
    if q.shape[1] != null.shape[1]:
        return [f"basis.csv: rank {q.shape[1]}, oracle nullspace dimension {null.shape[1]}"]
    residual = max(
        float(np.abs(q - null @ (null.T @ q)).max()),
        float(np.abs(null - q @ (q.T @ null)).max()),
    )
    if not residual <= SPAN_TOL:
        problems.append(f"basis.csv: span differs from the SVD nullspace by {residual:.3e}")
    n = basis.shape[0]
    expected = sorted(set(range(n)) - set(exp["support"]))
    if json.loads((out / "cosupport.json").read_text()) != expected:
        problems.append("cosupport.json: not the complement of the support")
    return problems


def _check_synth(out: Path, exp: dict, oracle: Oracle) -> list[str]:
    problems: list[str] = []
    pinv = oracle.pinv(exp["graph"])
    x = pinv[:, exp["support"]] @ np.asarray(exp["coeffs"])
    _close_indexed(problems, "signal.csv", _load_csv(out / "signal.csv"), [x], PINV_RTOL)
    return problems


def _check_verify(out: Path, exp: dict, oracle: Oracle) -> list[str]:
    report = json.loads((out / "verify.json").read_text())
    suites = report.get("suites", [])
    failing = [s.get("name") for s in suites if not s.get("passed")]
    if report.get("passed") is not True or len(suites) != 9 or failing:
        return [f"verify.json: passed={report.get('passed')}, {len(suites)} suites, "
                f"failing {failing}"]
    return []


def _check_degree_report(value, exp: dict) -> list[str]:
    if getattr(value, "passed", False) is not True:
        return [f"DegreeReport did not pass: {value!r}"]
    return []


def _check_knot(value, exp: dict) -> list[str]:
    (residual, match), edge_residual = value
    scale = max(1.0, float(exp["lap_max"]))
    problems = []
    if not residual <= RESIDUAL_RTOL * scale * scale:
        problems.append(f"two_hop_knot_check residual {residual:.3e}")
    if match is not True:
        problems.append(f"two_hop_knot_check knot match is {match!r}")
    if not edge_residual <= RESIDUAL_RTOL * scale:
        problems.append(f"edge_knot_residual {edge_residual:.3e}")
    return problems


_FILE_CHECKS = {
    "operators": _check_operators,
    "figures": _check_figures,
    "analysis_basis": _check_analysis_basis,
    "synth": _check_synth,
    "verify": _check_verify,
}
_VALUE_CHECKS = {"degree_report": _check_degree_report, "knot_check": _check_knot}


def check(job, outcome, oracle: Oracle) -> list[str]:
    """Problems with one job's result; an empty list means it passed."""
    if outcome.error is not None:
        return [outcome.error.strip().splitlines()[-1]]
    try:
        if job.argv is not None:
            if outcome.value != 0:
                return [f"exit code {outcome.value}: {outcome.stderr.strip()[-300:]}"]
            return _FILE_CHECKS[job.kind](job.out, job.expect, oracle)
        return _VALUE_CHECKS[job.kind](outcome.value, job.expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def main(argv: list[str]) -> int:
    request_path, out = argv
    compute_oracles(json.loads(Path(request_path).read_text()), Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
