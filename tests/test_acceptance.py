"""Acceptance gate: every criterion the build must meet, one test each.

Run  pytest tests/test_acceptance.py -v -s  to get one PASS/FAIL line per
criterion.  All randomized criteria are seeded and deterministic; the whole
module targets desk scale (n <= 256) and finishes well inside a minute.
"""

import itertools

import numpy as np
import pytest

import lapsig.analysis as analysis
from lapsig.analysis import (
    cosparsity,
    max_cosparse_dim_bruteforce,
    nullspace_basis,
    randomized_uniqueness_check,
    sampling_matrix,
    spark_bruteforce,
    zero_sum_basis,
)
from lapsig.circulant import (
    cycle_laplacian,
    cycle_pinv,
    perturbation_factor,
    pinv_factorization,
)
from lapsig.cli import main
from lapsig.graphs import (
    CirculantSpec,
    Cosupport,
    compile_circulant,
    complete_graph,
    cycle_graph,
    laplacian,
    incidence,
    connected_components,
    random_circulant_spec,
    random_connected_graph,
)
from lapsig.linalg import (
    column_space_equal,
    mpp_axiom_residuals,
    nullspace_oracle,
    pseudoinverse,
    rank,
)
from lapsig.synthesis import cyclic_difference, structured_sparsity_check, synthesize
from lapsig.verification import closure_suite, nullspace_vs_oracle_suite

BANDED_64 = CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0)))


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_mpp_axioms():
    rng = np.random.default_rng(42)
    worst_axiom = 0.0
    worst_proj = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 65))
        g = random_connected_graph(n, rng, weights="uniform")
        lap = laplacian(g)
        l_pinv = pseudoinverse(lap)
        allow = 1e-9 * max(1.0, float(np.abs(lap).max()))
        worst_axiom = max(worst_axiom, max(mpp_axiom_residuals(lap, l_pinv).values()) / allow)
        centering = np.eye(n) - np.ones((n, n)) / n
        worst_proj = max(worst_proj, float(np.abs(lap @ l_pinv - centering).max()))
    ok = worst_axiom <= 1.0 and worst_proj < 1e-9
    _criterion(
        1,
        "four Penrose axioms and the centring projection on 50 random graphs",
        ok,
        f"worst axiom residual {worst_axiom:.2e} of allowance, projection {worst_proj:.2e}",
    )


def test_criterion_02_nullspace_basis_equivalence():
    rng = np.random.default_rng(42)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(3, 33))
        g = random_connected_graph(n, rng)
        size = int(rng.integers(0, n))
        members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        cos = Cosupport(n, members)
        basis = nullspace_basis(g, cos).matrix()
        sampled = sampling_matrix(members, n) @ laplacian(g)
        if rank(basis) != len(cos.complement):
            failures += 1
        elif not column_space_equal(basis, nullspace_oracle(sampled)):
            failures += 1
    _criterion(
        2,
        "closed-form nullspace basis matches the SVD oracle on 200 pairs",
        failures == 0,
        f"{failures} failing pairs",
    )


def test_criterion_03_cycle_pinv_closed_form():
    worst = 0.0
    for n in range(3, 257):
        gap = float(np.abs(cycle_pinv(n) - pseudoinverse(cycle_laplacian(n))).max())
        worst = max(worst, gap)
    _criterion(
        3,
        "closed-form cycle pseudoinverse within 1e-9 of dense for n in 3..256",
        worst < 1e-9,
        f"max gap {worst:.2e}",
    )


def _factorization_specs():
    rng = np.random.default_rng(42)
    specs = []
    for t in range(100):
        n = int(rng.integers(6, 65))
        kind = "integer" if t % 2 == 0 else "uniform"
        specs.append((random_circulant_spec(n, rng, weights=kind), kind))
    return specs


def test_criterion_04_laplacian_factorization_exact():
    ok = True
    detail = ""
    for spec, kind in _factorization_specs():
        factor = perturbation_factor(spec)
        gap = float(
            np.abs(factor.to_matrix() @ cycle_laplacian(spec.n) - laplacian(compile_circulant(spec))).max()
        )
        limit_ok = gap == 0.0 if kind == "integer" else gap < 1e-12
        if not limit_ok or factor.eigenvalues().min() <= 0.0:
            ok = False
            detail = f"n={spec.n} hops={spec.hops} gap={gap:.2e}"
            break
    _criterion(
        4,
        "L = P @ L_cycle exact for integer weights, <1e-12 float, P positive definite",
        ok,
        detail,
    )


def test_criterion_05_pinv_factorization_residual():
    worst = 0.0
    for spec, _ in _factorization_specs():
        l_pinv = pseudoinverse(laplacian(compile_circulant(spec)))
        _, residual = pinv_factorization(spec, l_pinv=l_pinv)
        allow = 1e-8 * max(1.0, float(np.abs(l_pinv).max()))
        worst = max(worst, residual / allow)
    _criterion(
        5,
        "pseudoinverse splits as P^-1 @ cycle pseudoinverse within 1e-8 scale",
        worst <= 1.0,
        f"worst residual at {worst:.2e} of allowance",
    )


def test_criterion_06_unperturbed_degrees():
    g = compile_circulant(BANDED_64)
    l_pinv = pseudoinverse(laplacian(g))
    p_mat = perturbation_factor(BANDED_64).to_matrix()
    idx = np.arange(64)

    # analysis side: second differences of P @ (basis columns) vanish off-knot
    basis = nullspace_basis(g, Cosupport.from_support(64, (21, 41)))
    worst_analysis = 0.0
    off = [i for i in range(64) if i not in (21, 41)]
    for col in basis.smooth_part.T:
        second = cyclic_difference(p_mat @ col, 2)
        worst_analysis = max(worst_analysis, float(np.abs(second[off]).max()))

    # synthesis side: third differences of P @ atoms vanish beyond the knot stencil
    worst_synthesis = 0.0
    for j in range(64):
        third = cyclic_difference(p_mat @ l_pinv[:, j], 3)
        dist = np.minimum(np.abs(idx - j), 64 - np.abs(idx - j))
        worst_synthesis = max(worst_synthesis, float(np.abs(third[dist > 2]).max()))

    ok = worst_analysis < 1e-10 and worst_synthesis < 1e-10
    _criterion(
        6,
        "unperturbed basis signals piecewise linear, atoms piecewise quadratic",
        ok,
        f"analysis 2nd-diff {worst_analysis:.2e}, synthesis 3rd-diff {worst_synthesis:.2e}",
    )


def test_criterion_07_complete_graph_identities():
    worst = 0.0
    for n in range(2, 33):
        g = complete_graph(n)
        lap = laplacian(g)
        st = incidence(g).T
        l_pinv = pseudoinverse(lap)
        worst = max(worst, float(np.abs(l_pinv @ st - st / n).max()))
        worst = max(worst, float(np.abs(l_pinv - lap / float(n * n)).max()))
    _criterion(
        7,
        "complete-graph pseudoinverses are the scaled transposes for n in 2..32",
        worst < 1e-10,
        f"max residual {worst:.2e}",
    )


def test_criterion_08_discontinuity_identity():
    rng = np.random.default_rng(42)
    graphs = [cycle_graph(4), cycle_graph(8), complete_graph(4), compile_circulant(BANDED_64)]
    graphs += [random_connected_graph(int(rng.integers(3, 33)), rng, weights="uniform") for _ in range(20)]
    worst = 0.0
    for g in graphs:
        lap = laplacian(g)
        st = incidence(g).T
        residual = float(np.abs(lap @ (pseudoinverse(lap) @ st) - st).max())
        scale = max(1.0, float(np.abs(st).max()))
        worst = max(worst, residual / scale)
    _criterion(
        8,
        "L (L^+ S^T) = S^T within 1e-9 scale on all test graphs",
        worst < 1e-9,
        f"worst residual {worst:.2e} relative",
    )


def test_criterion_09_exhaustive_small_circulants():
    ok = True
    detail = ""
    checked = 0
    for n in range(3, 7):
        for r in range(1, n // 2 + 1):
            for hops in itertools.combinations(range(1, n // 2 + 1), r):
                spec = CirculantSpec(n, tuple((h, 1.0) for h in hops))
                g = compile_circulant(spec)
                if connected_components(g) != 1:
                    continue
                checked += 1
                for level in range(0, n):
                    if max_cosparse_dim_bruteforce(g, level) != n - level:
                        ok = False
                        detail = f"dim mismatch n={n} hops={hops} l={level}"
                if spark_bruteforce(pseudoinverse(laplacian(g))) != n:
                    ok = False
                    detail = f"spark != n for n={n} hops={hops}"
    _criterion(
        9,
        "exhaustive cosupport/spark enumeration on all connected circulants n<=6",
        ok and checked >= 8,
        detail or f"{checked} graphs enumerated",
    )


def test_criterion_10_randomized_uniqueness():
    check = randomized_uniqueness_check(cycle_graph(6), 4, 4, trials=100, seed=42)
    _criterion(
        10,
        "no measurement collision over 100 seeded trials at m = 2(n - l)",
        check.passed,
        f"min gap {check.min_gap:.2e} (evidence, not proof)",
    )


def test_criterion_11_figure_reproduction(tmp_path):
    out = tmp_path / "figures"
    assert main(["figures", "--out", str(out)]) == 0
    cyc = np.loadtxt(out / "atoms_cycle.csv", delimiter=",")
    banded = np.loadtxt(out / "atoms_banded.csv", delimiter=",")
    idx = np.arange(64)
    off = (idx != 21) & (idx != 41)

    # cycle atoms: constant curvature 1/64 away from the knot
    atoms_ok = True
    for col, knot in ((1, 21), (2, 41)):
        second = cyclic_difference(cyc[:, col], 2)
        atoms_ok &= float(np.abs(second[idx != knot] - 1.0 / 64).max()) < 1e-10

    # cycle difference: exactly piecewise linear (second difference zero off-knot)
    second = cyclic_difference(cyc[:, 3], 2)
    diff_ok = float(np.abs(second[off]).max()) < 1e-10

    # banded difference deviates from the rescaled cycle difference only near knots
    p_at_one = float(perturbation_factor(BANDED_64).eigenvalues()[0])
    deviation = banded[:, 3] - cyc[:, 3] / p_at_one
    dist = np.minimum(
        np.minimum(np.abs(idx - 21), 64 - np.abs(idx - 21)),
        np.minimum(np.abs(idx - 41), 64 - np.abs(idx - 41)),
    )
    concentration = float(np.abs(deviation[dist > 5]).max()) / float(np.abs(deviation).max())
    concentrated = concentration < 0.02

    # the vertex-domain signal is annihilated everywhere but the two knots
    signal = np.loadtxt(out / "signal_banded.csv", delimiter=",")[:, 1]
    count, cos = cosparsity(compile_circulant(BANDED_64), signal)
    signal_ok = count == 62 and cos.complement == (21, 41)

    ok = atoms_ok and diff_ok and concentrated and signal_ok
    _criterion(
        11,
        "figure artifacts: linear difference, knot-local perturbation, 2-sparse image",
        ok,
        f"concentration ratio {concentration:.3f}",
    )


def test_criterion_12_negative_controls(monkeypatch):
    # off-by-one diagonal in the zero-sum basis must break the oracle equivalence
    original = zero_sum_basis

    def corrupted(m: int):
        w = original(m)
        for k in range(w.shape[1]):
            w[k, k] += 1.0
        return w

    monkeypatch.setattr(analysis, "zero_sum_basis", corrupted)
    corrupted_suite = nullspace_vs_oracle_suite(seed=42, trials=25)
    monkeypatch.undo()
    clean_suite = nullspace_vs_oracle_suite(seed=42, trials=25)

    # a non-zero-sum synthesis coefficient must fail the closure suite
    impulse = np.zeros(8)
    impulse[0] = 1.0
    injected = closure_suite(seed=42, trials=5, inject_coeffs=[impulse])
    assert not structured_sparsity_check(impulse)
    x = synthesize(cycle_graph(8), (0,), (1.0,))
    count, _ = cosparsity(cycle_graph(8), x)

    ok = (not corrupted_suite.passed) and clean_suite.passed and (not injected.passed) and count == 0
    _criterion(
        12,
        "injected defects (skewed basis, non-zero-sum coefficient) fail their suites",
        ok,
        f"corrupted suite failed: {not corrupted_suite.passed}, injection failed: {not injected.passed}",
    )
