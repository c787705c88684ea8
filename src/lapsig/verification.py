"""Aggregated verification suites wiring the library's identities together.

Each suite exercises one family of claims end to end on randomized or
pinned instances and returns a SuiteResult carrying the measured residuals
next to the tolerance it enforced.  The CLI's verify command renders the
results as JSON and folds them into the exit status; the test suite reuses
them directly (including as negative-control targets).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, circulant, graphs, linalg, synthesis

__all__ = [
    "SuiteResult",
    "mpp_axiom_suite",
    "nullspace_vs_oracle_suite",
    "factorization_suite",
    "cycle_pinv_suite",
    "model_degree_suite",
    "closure_suite",
    "uniqueness_suite",
    "complete_graph_suite",
    "absorption_suite",
    "run_all",
]

# Tolerances the suites enforce and report in their details.
AXIOM_RTOL = 1e-9  # Penrose residual relative to max(|L|_max, 1)
PROJECTION_TOL = 1e-9  # |L L^+ - (I - 11^T/n)|_max
PRODUCT_TOL = 1e-12  # |P L_C - L|_max for real weights; integer weights must hit 0
INVERSE_RTOL = 1e-10  # dense vs transform inverse, relative to max(|P^-1|_max, 1)
SPECTRAL_PINV_RTOL = 1e-10  # DFT vs eigensolve L^+, relative to max(|L^+|_max, 1)
CYCLE_PINV_TOL = 1e-9  # closed-form vs eigensolve cycle pseudoinverse
COMPLETE_GRAPH_TOL = 1e-10  # complete-graph closed-form residuals
MPP_MAX_N, NULLSPACE_MAX_N, CLOSURE_MAX_N, COMPLETE_GRAPH_MAX_N = 64, 24, 20, 32
IDENTIFIABILITY_MAX_N = 5  # uniqueness_suite enumerates the circulants up to this n


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    checks: int = 0

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "checks": self.checks,
                "details": self.details}


def _worst(*residuals: float) -> float:
    """The largest residual, NaN when any is NaN: the built-in ``max`` skips
    a NaN that is not first (``max(0.0, nan)`` is 0.0)."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


class _Checks:
    """The check recorder every suite goes through.

    ``check(ok, message)`` counts one check and keeps the first failing
    message as ``details["first_failure"]``.  Each condition is written as
    the passing test, so a NaN residual fails.  A suite that ran no check
    fails too: it has shown nothing.  ``bound`` checks a residual against its
    limit and keeps the worst one seen in the details.
    """

    def __init__(self, name: str, details: dict):
        self.name, self.details = name, details
        self.count, self.passed = 0, True

    def __call__(self, ok, message: str) -> None:
        self.count += 1
        if not ok:
            self.passed = False
            self.details.setdefault("first_failure", message)

    def bound(self, key: str, value: float, limit: float, message: str) -> None:
        """Check ``value <= limit`` and keep ``_worst`` of the values in details[key]."""
        self.details[key] = _worst(self.details.get(key, 0.0), value)
        self(value <= limit, message)

    def result(self) -> SuiteResult:
        if not self.count:
            self.passed = False
            self.details.setdefault("first_failure", "no check ran")
        return SuiteResult(self.name, self.passed, self.details, self.count)


def mpp_axiom_suite(seed: int = 42, graph_count: int = 50) -> SuiteResult:
    """Penrose axioms, centring projection and two-hop L^2 localisation on random graphs."""
    rng = np.random.default_rng(seed)
    details: dict = {"graphs": graph_count, "axiom_rtol": AXIOM_RTOL,
                     "projection_tol": PROJECTION_TOL}
    check = _Checks("mpp_axioms", details)
    for _ in range(graph_count):
        n = int(rng.integers(3, MPP_MAX_N + 1))
        g = graphs.random_connected_graph(n, rng)
        lap = graphs.laplacian(g)
        l_pinv = linalg.pseudoinverse(lap)
        scale = max(1.0, float(np.abs(lap).max()))
        axioms = linalg.mpp_axiom_residuals(lap, l_pinv)
        rel = _worst(*axioms.values()) / scale
        check.bound("max_axiom_residual_rel", rel, AXIOM_RTOL,
                    f"penrose axiom residual {rel:.3e} on n={n}")
        proj = linalg._centring_residual(lap, l_pinv)
        check.bound("max_projection_residual", proj, PROJECTION_TOL,
                    f"projection residual {proj:.3e} on n={n}")
        check(graphs.khop_localization_check(g, 2), f"L^2 not zero beyond 2 hops on n={n}")
    return check.result()


def nullspace_vs_oracle_suite(seed: int = 42, trials: int = 200) -> SuiteResult:
    """Closed-form sampled-Laplacian nullspace basis against the SVD oracle."""
    rng = np.random.default_rng(seed)
    details: dict = {"trials": trials, "subspace_tol": linalg.SUBSPACE_TOL}
    check = _Checks("nullspace_basis_vs_oracle", details)
    for _ in range(trials):
        n = int(rng.integers(3, NULLSPACE_MAX_N + 1))
        g = graphs.random_connected_graph(n, rng)
        size = int(rng.integers(0, n))  # |cosupport| < n
        members = tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))
        cos = graphs.Cosupport(n, members)
        basis = analysis.nullspace_basis(g, cos).matrix()
        sampled = analysis.sampling_matrix(cos.members, n) @ graphs.laplacian(g)
        m = len(cos.complement)
        check(linalg.rank(basis) == m, f"basis rank != {m} on n={n}, |cosupport|={size}")
        if size:
            check(linalg.rank(sampled) == size, f"sampled rows not full rank on n={n}")
        check(linalg.column_space_equal(basis, linalg.nullspace_oracle(sampled)),
              f"basis span != oracle span on n={n}, |cosupport|={size}")
    return check.result()


def factorization_suite(seed: int = 42, trials: int = 100) -> SuiteResult:
    """Cycle factorisation of circulant Laplacians, as matrices and as
    representer polynomials, and of their pseudoinverses, and the DFT
    pseudoinverse against the dense eigensolve (the oracle)."""
    rng = np.random.default_rng(seed)
    details: dict = {
        "trials": trials,
        "product_tol_float": PRODUCT_TOL,
        "pinv_residual_rtol": circulant.PINV_RESIDUAL_RTOL,
        "inverse_agreement_rtol": INVERSE_RTOL,
        "spectral_pinv_rtol": SPECTRAL_PINV_RTOL,
    }
    check = _Checks("cycle_factorization", details)
    kinds = ("integer", "unit", "uniform")
    for t in range(trials):
        kind = kinds[t % len(kinds)]
        n = int(rng.integers(6, 64))
        spec = graphs.random_circulant_spec(n, rng, weights=kind)
        factor = circulant.perturbation_factor(spec)
        p_mat = factor.to_matrix()
        lap = graphs.laplacian(graphs.compile_circulant(spec))
        product_gap = float(np.abs(p_mat @ circulant.cycle_laplacian(n) - lap).max())
        details["max_product_gap"] = _worst(details.get("max_product_gap", 0.0), product_gap)
        exact = kind in ("integer", "unit")
        check(product_gap == 0.0 if exact else product_gap < PRODUCT_TOL,
              f"factor product gap {product_gap:.3e} (n={n}, {kind})")
        product = circulant.poly_multiply_mod(factor, circulant.cycle_representer(n))
        target = circulant.laplacian_representer(spec)
        poly_gap = float(np.abs(product.first_row() - target.first_row()).max())
        check(poly_gap == 0.0 if exact else poly_gap < PRODUCT_TOL,
              f"representer product gap {poly_gap:.3e} (n={n}, {kind})")
        check(float(factor.eigenvalues().min()) > 0.0, f"factor not positive definite (n={n})")
        l_pinv = linalg.pseudoinverse(lap)
        p_inv, residual = circulant.pinv_factorization(spec, l_pinv=l_pinv)
        allow = circulant.pinv_residual_allowance(l_pinv)
        check.bound("max_pinv_residual_vs_allowance", residual / allow, 1.0,
                    f"pinv split residual {residual:.3e} (n={n})")
        spectral_gap = float(np.abs(circulant.laplacian_pinv(spec) - l_pinv).max())
        spectral_rel = spectral_gap / max(1.0, float(np.abs(l_pinv).max()))
        check.bound("max_spectral_pinv_gap_rel", spectral_rel, SPECTRAL_PINV_RTOL,
                    f"DFT vs eigensolve L^+ gap {spectral_rel:.3e} (n={n})")
        via_transform = circulant.transform_inverse(factor)
        agree = float(np.abs(p_inv - via_transform).max())
        allow_inv = INVERSE_RTOL * max(1.0, float(np.abs(p_inv).max()))
        check.bound("max_inverse_gap_vs_allowance", agree / allow_inv, 1.0,
                    f"dense vs transform inverse gap {agree:.3e} (n={n})")
    return check.result()


def cycle_pinv_suite(n_max: int = 128) -> SuiteResult:
    """Closed-form cycle pseudoinverse against the dense eigensolve, n = 3..n_max."""
    details: dict = {"n_range": [3, n_max], "tol": CYCLE_PINV_TOL}
    check = _Checks("cycle_pinv_closed_form", details)
    for n in range(3, n_max + 1):
        gap = float(
            np.abs(
                circulant.cycle_pinv(n)
                - linalg.pseudoinverse(circulant.cycle_laplacian(n))
            ).max()
        )
        check.bound("max_gap", gap, CYCLE_PINV_TOL, f"closed form off by {gap:.3e} at n={n}")
    return check.result()


def model_degree_suite() -> SuiteResult:
    """Piecewise-degree split between the models on pinned circulant cases."""
    cases = [
        (graphs.CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))), (21, 41)),
        (graphs.CirculantSpec(32, ((1, 1.0), (2, 1.0))), (4, 20)),
        (graphs.CirculantSpec(16, ((1, 1.0),)), (3, 11)),
    ]
    details: dict = {"cases": []}
    check = _Checks("model_degrees", details)
    for spec, support in cases:
        cos = graphs.Cosupport.from_support(spec.n, support)
        report = synthesis.model_degree_report(spec, cos)
        details["cases"].append(
            {
                "n": spec.n,
                "hops": list(spec.hops),
                "analysis_max_degree": report.analysis_max_degree,
                "synthesis_max_degree": report.synthesis_max_degree,
                "factorization_residual": report.factorization_residual,
                "passed": report.passed,
            }
        )
        check(report.passed, f"degree report failed on n={spec.n}, hops={spec.hops}")
    return check.result()


def closure_suite(seed: int = 42, trials: int = 25, inject_coeffs=None) -> SuiteResult:
    """Analysis-to-synthesis loop closure.

    Signals built from a nullspace basis must be annihilated on their
    cosupport and their Laplacian image must pass the zero-sum structured
    sparsity test.  ``inject_coeffs`` lets tests feed extra coefficient
    vectors through the structured check (a failing vector must fail the
    suite, guarding against a vacuous test).
    """
    rng = np.random.default_rng(seed)
    details: dict = {"trials": trials}
    check = _Checks("analysis_synthesis_closure", details)
    for _ in range(trials):
        n = int(rng.integers(4, CLOSURE_MAX_N + 1))
        g = graphs.random_connected_graph(n, rng)
        size = int(rng.integers(1, n))
        members = tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))
        cos = graphs.Cosupport(n, members)
        basis = analysis.nullspace_basis(g, cos)
        x = basis.matrix() @ rng.standard_normal(basis.dim)
        count, recovered = analysis.cosparsity(g, x)
        check(set(members) <= set(recovered.members), f"cosupport not annihilated on n={n}")
        if count < n:
            image = graphs.laplacian(g) @ x
            check(synthesis.structured_sparsity_check(image),
                  f"Laplacian image failed the zero-sum test on n={n}")
    for vec in inject_coeffs or ():
        check(synthesis.structured_sparsity_check(vec),
              "injected coefficient vector is not zero-sum")
    return check.result()


def _connected_unit_circulants(max_n: int):
    """Every connected unit-weight circulant graph with 3 <= n <= max_n."""
    for n in range(3, max_n + 1):
        hops = range(1, n // 2 + 1)
        for r in range(1, len(hops) + 1):
            for subset in itertools.combinations(hops, r):
                spec = graphs.CirculantSpec(n, tuple((h, 1.0) for h in subset))
                if graphs.connected_components(spec) == 1:
                    yield spec


def uniqueness_suite(seed: int = 42, trials: int = 100) -> SuiteResult:
    """Identifiability chain: a randomized at-most-one-solution probe at the
    measurement bound 2(n - l), then, on every connected unit-weight
    circulant up to IDENTIFIABILITY_MAX_N, the two facts behind that bound
    by exhaustive search: the L^+ dictionary has spark n and the maximal
    cosparse dimension at level l is n - l."""
    g = graphs.cycle_graph(6)
    level = 4
    m = analysis.uniqueness_bound(g.n, level)
    probe = analysis.randomized_uniqueness_check(g, level, m, trials=trials, seed=seed)
    gap_tol = analysis.UNIQUENESS_GAP_TOL
    details = {
        "n": g.n,
        "cosparsity": level,
        "measurements": m,
        "trials": probe.trials,
        "min_gap": probe.min_gap,
        "gap_tol": gap_tol,
    }
    check = _Checks("uniqueness_randomized", details)
    check(probe.passed, f"measurement gap {probe.min_gap:.3e} under {gap_tol:.0e}")
    for spec in _connected_unit_circulants(IDENTIFIABILITY_MAX_N):
        n = spec.n
        spark = analysis.spark_bruteforce(circulant.laplacian_pinv(spec))
        check(spark == n, f"spark of L^+ is {spark}, not n={n} (hops {spec.hops})")
        for l in range(n):
            dim = analysis.max_cosparse_dim_bruteforce(spec, l)
            check(dim == n - l,
                  f"max cosparse dim {dim} at l={l}, not n - l = {n - l} (hops {spec.hops})")
    return check.result()


def complete_graph_suite() -> SuiteResult:
    """Closed-form pseudoinverse identities on complete graphs."""
    details: dict = {"n_range": [2, COMPLETE_GRAPH_MAX_N], "tol": COMPLETE_GRAPH_TOL}
    check = _Checks("complete_graph_identities", details)
    for n in range(2, COMPLETE_GRAPH_MAX_N + 1):
        residual = _worst(*synthesis.complete_graph_identities(n))
        check.bound("max_residual", residual, COMPLETE_GRAPH_TOL,
                    f"complete-graph residual {residual:.3e} at n={n}")
    return check.result()


def absorption_suite() -> SuiteResult:
    """Factor-absorbing coefficient constructions on pinned cases."""
    cases = [
        (graphs.CirculantSpec(12, ((1, 1.0),)), 3, 2, 7),
        (graphs.CirculantSpec(16, ((1, 1.0), (2, 1.0))), 0, 2, 9),
        (graphs.CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))), 0, 21, 41),
    ]
    details: dict = {"cases": []}
    check = _Checks("discontinuity_absorption", details)
    for spec, j, k, l in cases:
        _, _, report = synthesis.absorb_discontinuity(spec, j, k, l)
        details["cases"].append(
            {
                "n": spec.n,
                "hops": list(spec.hops),
                "cycle_support": list(report.cycle_support),
                "laplacian_support": list(report.laplacian_support),
                "passed": report.passed,
            }
        )
        check(report.passed, f"absorption supports mismatch on n={spec.n}")
    return check.result()


def run_all(seed: int = 42, trials: int | None = None) -> list[SuiteResult]:
    """Run every suite; ``trials`` >= 1 overrides each randomized suite's count."""
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return [
        mpp_axiom_suite(seed=seed, graph_count=trials or 50),
        nullspace_vs_oracle_suite(seed=seed, trials=trials or 200),
        factorization_suite(seed=seed, trials=trials or 100),
        cycle_pinv_suite(n_max=min(128, 3 + 5 * (trials or 100))),
        model_degree_suite(),
        closure_suite(seed=seed, trials=trials or 25),
        uniqueness_suite(seed=seed, trials=trials or 100),
        complete_graph_suite(),
        absorption_suite(),
    ]
