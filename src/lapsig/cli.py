"""Command-line front end.

Subcommands: ``operators`` (dump L, S and their pseudoinverses), ``figures``
(atom/difference comparison curves on the cycle and a banded circulant),
``verify`` (run every verification suite), ``analysis-basis`` (closed-form
nullspace basis for a cosupport) and ``synth`` (combine pseudoinverse
atoms).  CSV files carry 17 significant digits and are byte-reproducible
for identical inputs; SVG plots are a convenience.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import ZERO_TEST_TOL, _annihilated, cosparsity, nullspace_basis
from .circulant import _pinv_columns
from .graphs import (
    CirculantSpec,
    Cosupport,
    Graph,
    _apply_laplacian,
    circulant_spec_from_json,
    compile_circulant,
    connected_components,
    graph_from_json,
    incidence,
    laplacian,
    parse_edge_list,
)
from .linalg import _centring_residual, _csv_blocks, eig_symmetric, mpp_axiom_residuals, rank
from .linalg import save_matrix_csv
from .svgplot import line_plot_svg
from .synthesis import structured_sparsity_check, synthesize
from .verification import run_all

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated float list, got {text!r}") from exc


def _load_spec_argument(value: str) -> CirculantSpec:
    text = value.strip()
    if not text.startswith("{"):
        text = Path(value).read_text()
    return circulant_spec_from_json(text)


def _load_graph(args) -> Graph | CirculantSpec:
    """The input graph: a Graph from --graph, the generating set from --circulant."""
    if getattr(args, "graph", None):
        path = Path(args.graph)
        text = path.read_text()
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            return graph_from_json(text)
        return parse_edge_list(text)
    return _load_spec_argument(args.circulant)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_indexed_csv(path: Path, *columns) -> None:
    """One line per vertex: its index, then each column's value there."""
    lines = b"".join(_csv_blocks(np.column_stack(columns))).split(b"\n")[:-1]
    path.write_bytes(b"".join(b"%d,%s\n" % (i, line) for i, line in enumerate(lines)))


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_operators(args) -> int:
    g = _load_graph(args)
    if isinstance(g, CirculantSpec):
        g = compile_circulant(g)  # S needs the edge list
    out = _out_dir(args)
    lap = laplacian(g)
    inc = incidence(g)
    dec = eig_symmetric(lap)
    l_pinv = dec.pinv()
    s_pinv = l_pinv @ inc.T
    save_matrix_csv(out / "L.csv", lap)
    save_matrix_csv(out / "S.csv", inc)
    save_matrix_csv(out / "Lpinv.csv", l_pinv)
    save_matrix_csv(out / "Spinv.csv", s_pinv)
    comps = connected_components(g)
    report = {
        "n": g.n,
        "edges": g.num_edges,
        "rank": dec.rank,
        "components": comps,
        "projection_residual": _centring_residual(lap, l_pinv) if comps == 1 else None,
        "mpp_axiom_residuals": mpp_axiom_residuals(lap, l_pinv),
    }
    _write_json(out / "report.json", report)
    print(f"wrote L, S, Lpinv, Spinv and report.json for n={g.n} to {out}")
    return EXIT_OK


def cmd_figures(args) -> int:
    atoms = _parse_indices(args.atoms)
    if len(atoms) != 2:
        raise ValueError("--atoms expects exactly two indices, e.g. 21,41")
    i, j = atoms
    for t in (i, j):
        if t < 0 or t >= args.n:
            raise ValueError(f"atom index {t} out of range for n={args.n}")
    hops = _parse_indices(args.hops)
    panels = {
        "cycle": CirculantSpec(args.n, ((1, 1.0),)),
        "banded": CirculantSpec(args.n, tuple((h, 1.0) for h in hops)),
    }
    for tag, spec in panels.items():
        comps = connected_components(spec)
        if comps != 1:
            raise ValueError(
                f"the {tag} panel (hops {list(spec.hops)}, n={args.n}) has {comps} "
                "connected components; atoms need a connected graph"
            )
    out = _out_dir(args)
    differences = {}
    for tag, spec in panels.items():
        atom_a, atom_b = _pinv_columns(spec, (i, j)).T
        diff = atom_a - atom_b
        differences[tag] = diff
        _write_indexed_csv(out / f"atoms_{tag}.csv", atom_a, atom_b, diff)
        hop_label = ",".join(str(h) for h in spec.hops)
        line_plot_svg(
            out / f"atoms_{tag}.svg",
            [(f"atom {i}", atom_a), (f"atom {j}", atom_b), ("difference", diff)],
            title=f"Pseudoinverse atoms and difference, hops {{{hop_label}}}, n={args.n}",
            xlabel="vertex",
            ylabel="value",
        )
    _write_indexed_csv(out / "signal_banded.csv", differences["banded"])
    line_plot_svg(
        out / "signal_banded.svg",
        [(f"atom {i} minus atom {j}", differences["banded"])],
        title=f"Two-point difference signal on the banded circulant, n={args.n}",
        xlabel="vertex",
        ylabel="value",
    )
    print(f"wrote atom curves and the difference signal for n={args.n} to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(seed=args.seed, trials=args.trials)
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "passed": all(r.passed for r in results),
        "suites": [r.to_json() for r in results],
    }
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    if args.out:
        _write_json(_out_dir(args) / "verify.json", report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    if not report["passed"]:
        first = next(r for r in results if not r.passed)
        message = first.details.get("first_failure", "unspecified check")
        print(f"verification failed: {first.name}: {message}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cosupport_from_args(args, n: int) -> Cosupport:
    if args.cosupport is not None and args.support is not None:
        raise ValueError("give either --cosupport or --support, not both")
    if args.cosupport is not None:
        return Cosupport(n, _parse_indices(args.cosupport))
    if args.support is not None:
        return Cosupport.from_support(n, _parse_indices(args.support))
    raise ValueError("one of --cosupport or --support is required")


def cmd_analysis_basis(args) -> int:
    g = _load_graph(args)
    cos = _cosupport_from_args(args, g.n)
    mat = nullspace_basis(g, cos).matrix()
    images = _apply_laplacian(g, mat)
    columns = []
    for idx in range(mat.shape[1]):
        count, recovered = _annihilated(images[:, idx], args.tol)
        columns.append(
            {
                "column": idx,
                "cosparsity": count,
                "cosupport": list(recovered.members),
            }
        )
    report = {
        "n": g.n,
        "cosupport": list(cos.members),
        "support": list(cos.complement),
        "rank": rank(mat),
        "columns": columns,
    }
    out = _out_dir(args)
    save_matrix_csv(out / "basis.csv", mat)
    _write_json(out / "cosupport.json", list(cos.members))
    _write_json(out / "report.json", report)
    print(f"wrote a {mat.shape[1]}-column nullspace basis to {out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    g = _load_graph(args)
    support = _parse_indices(args.support)
    if args.coeffs is not None:
        coeffs = _parse_floats(args.coeffs)
    else:
        coeffs = [1.0 if t % 2 == 0 else -1.0 for t in range(len(support))]
    x = synthesize(g, support, coeffs)
    dense_coeffs = np.zeros(g.n)
    dense_coeffs[support] = coeffs
    structured = structured_sparsity_check(dense_coeffs, tol=args.tol)
    count, recovered = cosparsity(g, x, tol=args.tol)
    report = {
        "n": g.n,
        "support": support,
        "coeffs": coeffs,
        "cosparsity": count,
        "cosupport": list(recovered.members),
        "structured_sparsity": structured,
    }
    if not structured:
        report["warning"] = (
            "coefficients are not zero-sum: the synthesized signal is not "
            "sparse under the Laplacian"
        )
        print(f"warning: {report['warning']}")
    out = _out_dir(args)
    _write_indexed_csv(out / "signal.csv", x)
    _write_json(out / "report.json", report)
    print(f"wrote synthesized signal (cosparsity {count}) to {out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="graph file: JSON {n, edges} or an 'i j w' edge list")
    src.add_argument("--circulant", help="circulant spec: inline JSON or a path to one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapsig",
        description=(
            "Graph Laplacian operators, pseudoinverses and (co)sparse signal "
            "subspaces on undirected and circulant graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("operators", help="dump L, S, their pseudoinverses and a summary report")
    _add_graph_source(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_operators)

    p = sub.add_parser(
        "figures",
        help="atom/difference comparison curves on the cycle and a banded circulant",
    )
    p.add_argument("--n", type=int, default=64, help="vertex count (default 64)")
    p.add_argument(
        "--atoms",
        default="21,41",
        help="the two atom indices to plot and difference (default 21,41)",
    )
    p.add_argument(
        "--hops",
        default="1,2,3",
        help="generating hops of the banded panel (default 1,2,3)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("verify", help="run every verification suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the per-suite randomized trial counts",
    )
    p.add_argument("--out", default=None, help="directory for verify.json (default: stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "analysis-basis", help="closed-form nullspace basis of a sampled Laplacian"
    )
    _add_graph_source(p)
    p.add_argument("--cosupport", default=None, help="comma list of annihilated vertices")
    p.add_argument("--support", default=None, help="comma list of complement vertices")
    p.add_argument("--tol", type=float, default=ZERO_TEST_TOL, help="cosparsity zero threshold")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analysis_basis)

    p = sub.add_parser("synth", help="combine pseudoinverse atoms into a signal")
    _add_graph_source(p)
    p.add_argument("--support", required=True, help="comma list of atom indices")
    p.add_argument(
        "--coeffs",
        default=None,
        help="comma list of coefficients (default: alternating +1,-1)",
    )
    p.add_argument("--tol", type=float, default=ZERO_TEST_TOL, help="cosparsity zero threshold")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
