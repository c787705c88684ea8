"""End-to-end CLI behaviour: artifacts, reports, exit codes, determinism."""

import json

import numpy as np
import pytest

from lapsig import analysis, circulant, cli, graphs, synthesis
from lapsig.analysis import zero_sum_basis
from lapsig.cli import main
from lapsig.circulant import cycle_pinv, laplacian_pinv
from lapsig.linalg import save_matrix_csv

FOUR_CYCLE = '{"n": 4, "generators": [[1, 1.0]]}'
BANDED_64 = '{"n": 64, "generators": [[1, 1.0], [2, 1.0], [3, 1.0]]}'


def _read_json(path):
    return json.loads(path.read_text())


class TestOperators:
    def test_four_cycle_outputs(self, tmp_path):
        out = tmp_path / "ops"
        assert main(["operators", "--circulant", FOUR_CYCLE, "--out", str(out)]) == 0
        for name in ("L.csv", "S.csv", "Lpinv.csv", "Spinv.csv", "report.json"):
            assert (out / name).exists()
        np.testing.assert_allclose(
            np.loadtxt(out / "Lpinv.csv", delimiter=",", ndmin=2)[0],
            [0.3125, -0.0625, -0.1875, -0.0625],
            atol=1e-9,
        )
        report = _read_json(out / "report.json")
        assert report["rank"] == 3
        assert report["components"] == 1
        assert report["projection_residual"] < 1e-9

    def test_complete_graph_scaled_pinv(self, tmp_path):
        graph = tmp_path / "k4.json"
        edges = [[i, j, 1.0] for i in range(4) for j in range(i + 1, 4)]
        graph.write_text(json.dumps({"n": 4, "edges": edges}))
        out = tmp_path / "ops"
        assert main(["operators", "--graph", str(graph), "--out", str(out)]) == 0
        lap = np.loadtxt(out / "L.csv", delimiter=",", ndmin=2)
        l_pinv = np.loadtxt(out / "Lpinv.csv", delimiter=",", ndmin=2)
        assert np.abs(l_pinv - lap / 16.0).max() < 1e-12

    def test_disconnected_still_emits(self, tmp_path):
        graph = tmp_path / "two_edges.txt"
        graph.write_text("0 1 1.0\n2 3 1.0\n")
        out = tmp_path / "ops"
        assert main(["operators", "--graph", str(graph), "--out", str(out)]) == 0
        report = _read_json(out / "report.json")
        assert report["components"] == 2
        assert report["rank"] == 2
        assert report["projection_residual"] is None
        assert (out / "Lpinv.csv").exists()

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(["operators", "--graph", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2


class TestFigures:
    def test_default_artifacts(self, tmp_path):
        out = tmp_path / "fig"
        assert main(["figures", "--out", str(out)]) == 0
        names = [
            "atoms_cycle.csv",
            "atoms_cycle.svg",
            "atoms_banded.csv",
            "atoms_banded.svg",
            "signal_banded.csv",
            "signal_banded.svg",
        ]
        for name in names:
            assert (out / name).exists()
        rows = np.loadtxt(out / "atoms_cycle.csv", delimiter=",")
        assert rows.shape == (64, 4)
        # cycle difference column equals the closed-form column difference
        mat = cycle_pinv(64)
        np.testing.assert_allclose(rows[:, 3], mat[:, 21] - mat[:, 41], atol=1e-9)
        svg = (out / "atoms_cycle.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg and "vertex" in svg

    def test_equal_atoms_give_zero_difference(self, tmp_path):
        out = tmp_path / "fig"
        assert main(["figures", "--n", "16", "--atoms", "5,5", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "atoms_banded.csv", delimiter=",")
        np.testing.assert_allclose(rows[:, 3], np.zeros(16), atol=1e-12)

    def test_byte_identical_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["figures", "--n", "32", "--atoms", "5,20", "--out", str(out_a)])
        main(["figures", "--n", "32", "--atoms", "5,20", "--out", str(out_b)])
        for name in ("atoms_cycle.csv", "atoms_banded.csv", "signal_banded.csv", "atoms_cycle.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_atom_list(self, tmp_path):
        assert main(["figures", "--atoms", "1,2,3", "--out", str(tmp_path / "x")]) == 2

    def test_atom_out_of_range(self, tmp_path):
        assert main(["figures", "--n", "32", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("atoms", ["3,3", "3,5"])
    def test_disconnected_panel_is_usage_error(self, tmp_path, capsys, atoms):
        # hop 2 on n=16 splits the banded panel into even and odd cycles
        out = tmp_path / "fig"
        code = main(["figures", "--n", "16", "--hops", "2", "--atoms", atoms, "--out", str(out)])
        assert code == 2
        assert "2 connected components" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "--trials", "6", "--out", str(out)]) == 0
        report = _read_json(out / "verify.json")
        assert report["passed"] is True
        assert len(report["suites"]) >= 7
        assert all(s["passed"] for s in report["suites"])

    def test_report_carries_residuals_and_tolerances(self, tmp_path):
        out = tmp_path / "verify"
        main(["verify", "--trials", "4", "--out", str(out)])
        suites = {s["name"]: s["details"] for s in _read_json(out / "verify.json")["suites"]}
        tolerances = {
            "mpp_axioms": {"axiom_rtol": 1e-9, "projection_tol": 1e-9, "library_pinv_rtol": 1e-10},
            "nullspace_basis_vs_oracle": {"subspace_tol": 1e-9},
            "cycle_factorization": {
                "product_tol_float": 1e-12,
                "pinv_residual_rtol": 1e-8,
                "inverse_agreement_rtol": 1e-10,
                "spectral_pinv_rtol": 1e-10,
            },
            "cycle_pinv_closed_form": {"tol": 1e-9},
            "model_degrees": {},
            "analysis_synthesis_closure": {},
            "uniqueness_randomized": {"gap_tol": 1e-6},
            "complete_graph_identities": {"tol": 1e-10},
            "discontinuity_absorption": {},
        }
        assert set(suites) == set(tolerances)
        for name, expected in tolerances.items():
            reported = {k: v for k, v in suites[name].items() if "tol" in k}
            assert reported == expected, name
        assert "max_axiom_residual_rel" in suites["mpp_axioms"]
        assert suites["mpp_axioms"]["max_library_pinv_gap_rel"] <= 1e-10
        assert suites["cycle_factorization"]["max_spectral_pinv_gap_rel"] <= 1e-10
        assert "min_gap" in suites["uniqueness_randomized"]

    def test_report_counts_checks(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "--trials", "4", "--out", str(out)]) == 0
        checks = {s["name"]: s["checks"] for s in _read_json(out / "verify.json")["suites"]}
        assert len(checks) == 9 and all(count >= 1 for count in checks.values())
        assert checks["cycle_factorization"] == 6 * 4
        assert checks["mpp_axioms"] == 4 * 4  # axioms, centring, oracle gap, localisation
        assert checks["uniqueness_randomized"] == 33

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_rejects_trials_below_one(self, tmp_path, trials):
        out = tmp_path / "verify"
        assert main(["verify", "--trials", trials, "--out", str(out)]) == 2
        assert not (out / "verify.json").exists()

    def test_deterministic_given_seed(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["verify", "--trials", "4", "--seed", "11", "--out", str(out_a)])
        main(["verify", "--trials", "4", "--seed", "11", "--out", str(out_b)])
        assert (out_a / "verify.json").read_bytes() == (out_b / "verify.json").read_bytes()

    def test_failing_suite_exits_one_and_names_the_check(self, tmp_path, monkeypatch, capsys):
        import lapsig.cli as cli
        from lapsig.verification import SuiteResult

        def broken(seed=42, trials=None):
            return [SuiteResult("stub_suite", False, {"first_failure": "stub check broke"})]

        monkeypatch.setattr(cli, "run_all", broken)
        assert main(["verify", "--out", str(tmp_path / "v")]) == 1
        err = capsys.readouterr().err
        assert "stub_suite" in err and "stub check broke" in err


class TestAnalysisBasis:
    def test_eight_cycle_two_point_support(self, tmp_path):
        out = tmp_path / "basis"
        code = main(
            [
                "analysis-basis",
                "--circulant",
                '{"n": 8, "generators": [[1, 1.0]]}',
                "--support",
                "2,5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        basis = np.loadtxt(out / "basis.csv", delimiter=",", ndmin=2)
        assert basis.shape == (8, 2)
        assert _read_json(out / "cosupport.json") == [0, 1, 3, 4, 6, 7]
        report = _read_json(out / "report.json")
        assert report["rank"] == 2
        assert report["support"] == [2, 5]
        smooth = next(c for c in report["columns"] if c["column"] == 1)
        assert smooth["cosparsity"] == 6
        assert smooth["cosupport"] == [0, 1, 3, 4, 6, 7]

    def test_cosupport_flag_equivalent(self, tmp_path):
        out = tmp_path / "basis"
        code = main(
            [
                "analysis-basis",
                "--circulant",
                '{"n": 8, "generators": [[1, 1.0]]}',
                "--cosupport",
                "0,1,3,4,6,7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert _read_json(out / "report.json")["support"] == [2, 5]

    def test_forms_the_laplacian_once(self, tmp_path, monkeypatch):
        # the column images: a spec forms no dense Laplacian, a Graph forms one
        graph = tmp_path / "banded.txt"
        spec = graphs.circulant_spec_from_json(BANDED_64)
        graph.write_text(graphs.format_edge_list(graphs.compile_circulant(spec)))
        calls = []
        laplacian = graphs.laplacian

        def counted(g):
            calls.append(g.n)
            return laplacian(g)

        for module in (cli, analysis, graphs):
            monkeypatch.setattr(module, "laplacian", counted)
        for source, formed in ((["--circulant", BANDED_64], []), (["--graph", str(graph)], [64])):
            calls.clear()
            out = tmp_path / source[0][2:]
            assert main(["analysis-basis", *source, "--support", "3,9,21,41,50",
                         "--out", str(out)]) == 0
            assert len(_read_json(out / "report.json")["columns"]) == 5
            assert calls == formed

    def test_disconnected_refused(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n2 3\n")
        code = main(
            ["analysis-basis", "--graph", str(graph), "--support", "0", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_out_of_range_support(self, tmp_path):
        code = main(
            [
                "analysis-basis",
                "--circulant",
                FOUR_CYCLE,
                "--support",
                "9",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2


    def test_duplicate_support_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["analysis-basis", "--circulant", BANDED_64, "--support", "3,3,5",
                     "--out", str(out)])
        assert code == 2
        assert "duplicate index 3" in capsys.readouterr().err
        assert not out.exists()


class TestSynth:
    def test_non_zero_sum_warning(self, tmp_path):
        out = tmp_path / "synth"
        code = main(
            [
                "synth",
                "--circulant",
                '{"n": 8, "generators": [[1, 1.0]]}',
                "--support",
                "0",
                "--coeffs",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = _read_json(out / "report.json")
        assert report["structured_sparsity"] is False
        assert "warning" in report
        assert report["cosparsity"] == 0

    def test_signal_matches_figures_byte_for_byte(self, tmp_path):
        fig_out = tmp_path / "fig"
        synth_out = tmp_path / "synth"
        main(["figures", "--out", str(fig_out)])
        code = main(
            [
                "synth",
                "--circulant",
                BANDED_64,
                "--support",
                "21,41",
                "--coeffs",
                "1,-1",
                "--out",
                str(synth_out),
            ]
        )
        assert code == 0
        assert (synth_out / "signal.csv").read_bytes() == (fig_out / "signal_banded.csv").read_bytes()
        report = _read_json(synth_out / "report.json")
        assert report["structured_sparsity"] is True
        assert report["cosparsity"] == 62
        assert report["cosupport"] == [i for i in range(64) if i not in (21, 41)]

    def test_default_alternating_coefficients(self, tmp_path):
        out = tmp_path / "synth"
        code = main(
            ["synth", "--circulant", FOUR_CYCLE, "--support", "0,2", "--out", str(out)]
        )
        assert code == 0
        assert _read_json(out / "report.json")["coeffs"] == [1.0, -1.0]

    def test_non_finite_coefficient_is_usage_error(self, tmp_path):
        code = main(
            [
                "synth",
                "--circulant",
                FOUR_CYCLE,
                "--support",
                "0,2",
                "--coeffs",
                "nan,1",
                "--out",
                str(tmp_path / "synth"),
            ]
        )
        assert code == 2

    def test_numerically_disconnected_circulant_is_usage_error(self, tmp_path, capsys):
        spec = '{"n": 6, "generators": [[1, 1e-300], [2, 1.0]]}'
        code = main(
            ["synth", "--circulant", spec, "--support", "0,3", "--out", str(tmp_path / "s")]
        )
        assert code == 2
        assert "numerically disconnected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, text",
    [
        ("--circulant", '{"n": 16.7, "generators": [[1, 1.0]]}'),
        ("--circulant", '{"n": 16, "generators": [[1.9, 1.0]]}'),
        ("--circulant", '{"n": 1e400, "generators": [[1, 1.0]]}'),
        ("--graph", '{"n": 16, "edges": [[0, 1.6, 1.0]]}'),
        ("--graph", '{"n": 16, "edges": [[0, Infinity, 1.0]]}'),
    ],
)
def test_non_whole_json_is_usage_error(tmp_path, capsys, source, text):
    # refused with exit 2, neither truncated nor raised as OverflowError
    if source == "--graph":
        path = tmp_path / "input.json"
        path.write_text(text)
        text = str(path)
    out = tmp_path / "o"
    code = main(["synth", source, text, "--support", "0,3", "--out", str(out)])
    assert code == 2
    assert "must be a whole number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "analysis-basis"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tol_is_usage_error(tmp_path, capsys, command, tol):
    spec = '{"n": 16, "generators": [[1, 1.0], [2, 1.0]]}'
    out = tmp_path / "o"
    code = main([command, "--circulant", spec, "--support", "3,9", "--tol", tol, "--out", str(out)])
    assert code == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


class TestInputPath:
    """A circulant input takes the DFT path; a connected non-circulant --graph
    takes the certified solve, in operators too."""

    def test_circulant_commands_skip_the_eigensolve(self, tmp_path, eigh_calls):
        support = ["--support", "21,41"]
        assert main(["figures", "--out", str(tmp_path / "f")]) == 0
        assert main(["analysis-basis", "--circulant", BANDED_64, *support,
                     "--out", str(tmp_path / "b")]) == 0
        assert main(["synth", "--circulant", BANDED_64, *support,
                     "--out", str(tmp_path / "s")]) == 0
        assert eigh_calls == []

    def test_connected_graph_inputs_take_the_certified_solve(
        self, tmp_path, eigh_calls, cholesky_calls
    ):
        # every command is routed by its Laplacian: a path takes one Cholesky
        # certificate and no eigensolve, the 4-cycle is exactly circulant
        path = tmp_path / "p4.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        cycle = tmp_path / "c4.txt"
        cycle.write_text("0 1\n1 2\n2 3\n0 3\n")
        assert main(["operators", "--circulant", FOUR_CYCLE, "--out", str(tmp_path / "o")]) == 0
        assert eigh_calls == [] and cholesky_calls == []
        assert main(["operators", "--graph", str(path), "--out", str(tmp_path / "q")]) == 0
        assert eigh_calls == [] and cholesky_calls == [(4, 4)]
        assert _read_json(tmp_path / "q" / "report.json")["rank"] == 3
        assert main(["synth", "--graph", str(path), "--support", "0,2",
                     "--out", str(tmp_path / "p")]) == 0
        assert eigh_calls == [] and cholesky_calls == [(4, 4), (4, 4)]
        assert main(["synth", "--graph", str(cycle), "--support", "0,2",
                     "--out", str(tmp_path / "c")]) == 0
        assert eigh_calls == [] and cholesky_calls == [(4, 4), (4, 4)]

    @pytest.mark.parametrize("command", ["synth", "analysis-basis"])
    def test_graph_commands_count_components_once(self, tmp_path, monkeypatch, command):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n1 4\n")
        counted = []
        count = graphs.connected_components

        def counting(g):
            counted.append(g.n)
            return count(g)

        for module in (graphs, circulant, analysis, synthesis, cli):
            monkeypatch.setattr(module, "connected_components", counting, raising=False)
        assert main([command, "--graph", str(graph), "--support", "0,3",
                     "--out", str(tmp_path / "o")]) == 0
        assert counted == [5]

    def test_spec_paths_form_no_dense_matrix(self, tmp_path, monkeypatch):
        # the expected files come from columns of the dense L^+, formed first
        want = tmp_path / "want"
        want.mkdir()
        support = [3, 9, 21, 41, 50]
        spec = graphs.circulant_spec_from_json(BANDED_64)
        for tag, hops in (("cycle", ((1, 1.0),)), ("banded", ((1, 1.0), (2, 1.0), (3, 1.0)))):
            l_pinv = laplacian_pinv(graphs.CirculantSpec(64, hops))
            diff = l_pinv[:, 21] - l_pinv[:, 41]
            cli._write_indexed_csv(want / f"atoms_{tag}.csv", l_pinv[:, 21], l_pinv[:, 41], diff)
        cli._write_indexed_csv(want / "signal_banded.csv", diff)
        l_pinv = laplacian_pinv(spec)
        smooth = np.take(l_pinv, support, axis=1) @ zero_sum_basis(len(support))
        save_matrix_csv(want / "basis.csv", np.column_stack([np.ones(64), smooth]))
        cli._write_indexed_csv(want / "signal.csv", l_pinv[:, support] @ [1.0, -1.0, 1.0, -1.0, 1.0])
        cos = graphs.Cosupport.from_support(64, support)
        report = synthesis.model_degree_report(spec, cos)

        def refuse(*args, **kwargs):
            raise AssertionError("dense n x n matrix on a spec path")

        monkeypatch.setattr(graphs, "_circulant", refuse)
        monkeypatch.setattr(circulant, "_circulant", refuse)
        for module in (graphs, analysis, cli, circulant):
            monkeypatch.setattr(module, "laplacian", refuse)
        out = tmp_path / "got"
        text = ",".join(map(str, support))
        assert main(["figures", "--out", str(out)]) == 0
        assert main(["analysis-basis", "--circulant", BANDED_64, "--support", text,
                     "--out", str(out)]) == 0
        assert main(["synth", "--circulant", BANDED_64, "--support", text,
                     "--out", str(out)]) == 0
        for name in ("atoms_cycle.csv", "atoms_banded.csv", "signal_banded.csv", "basis.csv",
                     "signal.csv"):
            assert (out / name).read_bytes() == (want / name).read_bytes(), name
        assert synthesis.model_degree_report(spec, cos) == report
        assert report.passed

    def test_circulant_commands_never_build_the_graph(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("edge walk on a circulant input")

        monkeypatch.setattr(graphs, "adjacency", refuse)
        monkeypatch.setattr(graphs, "_neighbor_lists", refuse)
        support = ["--support", "21,41"]
        assert main(["figures", "--out", str(tmp_path / "f")]) == 0
        assert main(["analysis-basis", "--circulant", BANDED_64, *support,
                     "--out", str(tmp_path / "b")]) == 0
        assert main(["synth", "--circulant", BANDED_64, *support,
                     "--out", str(tmp_path / "s")]) == 0
