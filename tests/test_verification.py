"""The check recorder behind every verification suite: counts, zero-check
failures, NaN residuals and negative controls for the identifiability and
representer-product checks."""

import math

import numpy as np
import pytest

from lapsig import analysis, circulant, graphs, linalg, synthesis, verification
from lapsig.circulant import RepresenterPolynomial
from lapsig.verification import (
    closure_suite,
    complete_graph_suite,
    cycle_pinv_suite,
    factorization_suite,
    mpp_axiom_suite,
    nullspace_vs_oracle_suite,
    uniqueness_suite,
)


class TestCheckRecorder:
    def test_counts_and_keeps_first_failure(self):
        details = {}
        check = verification._Checks("demo", details)
        check(True, "fine")
        check(False, "first")
        check(False, "second")
        result = check.result()
        assert (result.name, result.passed, result.checks) == ("demo", False, 3)
        assert details["first_failure"] == "first"


@pytest.mark.parametrize(
    "run",
    [
        lambda: closure_suite(trials=0),
        lambda: cycle_pinv_suite(n_max=2),
        lambda: nullspace_vs_oracle_suite(trials=0),
        lambda: mpp_axiom_suite(graph_count=0),
        lambda: factorization_suite(trials=0),
    ],
    ids=["closure", "cycle_pinv", "nullspace", "mpp_axioms", "factorization"],
)
def test_suite_that_checked_nothing_fails(run):
    result = run()
    assert result.passed is False
    assert result.checks == 0
    assert result.details["first_failure"] == "no check ran"


def test_nan_pseudoinverse_fails_cycle_pinv_suite(monkeypatch):
    monkeypatch.setattr(linalg, "pseudoinverse", lambda a: np.full(np.shape(a), np.nan))
    result = cycle_pinv_suite(n_max=8)
    assert result.passed is False
    assert result.checks == 6
    assert math.isnan(result.details["max_gap"])


def test_nan_residual_after_the_first_fails_and_is_reported(monkeypatch):
    monkeypatch.setattr(synthesis, "complete_graph_identities", lambda n: (0.0, np.nan))
    result = complete_graph_suite()
    assert result.passed is False
    assert math.isnan(result.details["max_residual"])


@pytest.mark.parametrize(
    "residuals",
    [(0.0, math.nan), (math.nan, 1.0), (1.0, math.nan, 2.0), (0.0, 0.5, 0.25)],
)
def test_worst_residual_propagates_nan(residuals):
    worst = verification._worst(*residuals)
    if any(map(math.isnan, residuals)):
        assert math.isnan(worst)
    else:
        assert worst == max(residuals)


def test_wrong_spark_fails_uniqueness_suite(monkeypatch):
    monkeypatch.setattr(analysis, "spark_bruteforce", lambda a: np.shape(a)[1] - 1)
    result = uniqueness_suite(trials=5)
    assert result.passed is False
    assert "spark" in result.details["first_failure"]


def test_wrong_cosparse_dimension_fails_uniqueness_suite(monkeypatch):
    original = analysis.max_cosparse_dim_bruteforce
    monkeypatch.setattr(analysis, "max_cosparse_dim_bruteforce",
                        lambda g, l: original(g, l) + (l == 2))
    result = uniqueness_suite(trials=5)
    assert result.passed is False
    assert "cosparse dim" in result.details["first_failure"]


def test_perturbed_representer_fails_factorization_suite(monkeypatch):
    original = circulant.laplacian_representer

    def perturbed(spec):
        poly = original(spec)
        return RepresenterPolynomial(poly.n, poly.coeffs[:-1] + (poly.coeffs[-1] + 1e-9,))

    monkeypatch.setattr(circulant, "laplacian_representer", perturbed)
    result = factorization_suite(trials=3)
    assert result.passed is False
    assert "representer" in result.details["first_failure"]


def test_mpp_suite_builds_each_laplacian_once(monkeypatch):
    # one build per graph through the L^+ door; the k-hop check builds its own
    built, inside_khop = [], []
    laplacian, khop = graphs.laplacian, graphs.khop_localization_check

    def counted(g):
        if not inside_khop:
            built.append(g)
        return laplacian(g)

    def khop_counted(g, k):
        inside_khop.append(g)
        try:
            return khop(g, k)
        finally:
            inside_khop.pop()

    for module in (graphs, circulant):
        monkeypatch.setattr(module, "laplacian", counted)
    monkeypatch.setattr(graphs, "khop_localization_check", khop_counted)
    assert mpp_axiom_suite(seed=3, graph_count=6).passed
    assert len(built) == 6
    assert len({id(g) for g in built}) == 6
