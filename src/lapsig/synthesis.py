"""Sparse synthesis machinery over the Laplacian-pseudoinverse dictionary.

Covers signal synthesis from pseudoinverse atoms, the structured (zero-sum)
sparsity constraint, knot-location identities, piecewise-polynomial
profiling by cyclic finite differences, the analysis-vs-synthesis degree
comparison on circulant graphs, complete-graph closed forms, and the
discontinuity-absorbing coefficient construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import cycle_laplacian, laplacian_pinv, perturbation_factor
from .circulant import pinv_factorization, pinv_residual_allowance
from .graphs import (
    CirculantSpec,
    Cosupport,
    Graph,
    complete_graph,
    connected_components,
    incidence,
    laplacian,
)
from .linalg import ZERO_FLOOR, _laplacian_pinv, _require_finite, _require_tolerance
from .analysis import _basis_from_pinv

__all__ = [
    "synthesize",
    "structured_sparsity_check",
    "edge_knot_residual",
    "two_hop_knot_check",
    "cyclic_difference",
    "PiecewiseProfile",
    "piecewise_degree_profile",
    "DegreeReport",
    "model_degree_report",
    "complete_graph_identities",
    "AbsorptionReport",
    "absorb_discontinuity",
]

KNOT_TOL = 1e-7  # relative size at which an entry or a difference counts as nonzero


def synthesize(g: Graph | CirculantSpec, support, coeffs) -> np.ndarray:
    """Combine pseudoinverse atoms: x = L^+ restricted to the support columns
    times the coefficients.

    The output always lies in the range of L^+, i.e. it is orthogonal to the
    constant vector.  Coefficients pair with the support in the order given.
    A graph ``laplacian_pinv`` sees as numerically disconnected raises.
    """
    if connected_components(g) != 1:
        raise ValueError("synthesis assumes a connected graph")
    sup = [int(i) for i in support]
    for i in sup:
        if i < 0 or i >= g.n:
            raise ValueError(f"support index {i} out of range for n={g.n}")
    if len(set(sup)) != len(sup):
        raise ValueError("support indices must be distinct")
    vec = _require_finite(coeffs, "coefficients")
    if vec.shape != (len(sup),):
        raise ValueError(
            f"coefficient count {vec.shape} does not match support size {len(sup)}"
        )
    l_pinv = laplacian_pinv(g)
    if not sup:
        return np.zeros(g.n)
    return l_pinv[:, sup] @ vec


def structured_sparsity_check(c, tol: float = 1e-9) -> bool:
    """Whether a coefficient vector is admissible as a Laplacian image.

    On a connected graph a vector can equal L x only if its entries sum to
    zero; the test is |sum c| <= tol * ||c||_1, with ``tol`` finite and >= 0.
    """
    _require_tolerance(tol)
    vec = np.asarray(c, dtype=float)
    return abs(float(vec.sum())) <= tol * float(np.abs(vec).sum())


def edge_knot_residual(g: Graph) -> float:
    """Max-norm residual of  L (L^+ S^T) = S^T.

    L^+ S^T collects the edge Green's functions (the pseudoinverse of the
    incidence operator); applying L must return the two-point columns of
    S^T, which pins each atom's discontinuities to its edge's endpoints.
    """
    if connected_components(g) != 1:
        raise ValueError("identity stated for connected graphs")
    lap = laplacian(g)
    st = incidence(g).T
    return float(np.abs(lap @ (_laplacian_pinv(lap, 1) @ st) - st).max())


def two_hop_knot_check(g: Graph, j: int) -> tuple[float, bool | None]:
    """Knot localisation of the pseudoinverse atom j under the squared Laplacian.

    Returns (residual, knot_match) where residual = ||L^2 L^+ - L||_inf and
    knot_match says whether the detected support of L^2 applied to atom j
    equals the support of Laplacian column j.  When the graph has diameter
    <= 2 the squared Laplacian has no structural zeros, the atom is not
    sparse with respect to it, and knot_match is None (not applicable).
    """
    if connected_components(g) != 1:
        raise ValueError("identity stated for connected graphs")
    if j < 0 or j >= g.n:
        raise ValueError(f"vertex {j} out of range for n={g.n}")
    lap = laplacian(g)
    lap2 = lap @ lap
    l_pinv = _laplacian_pinv(lap, 1)
    residual = float(np.abs(lap2 @ l_pinv - lap).max())
    if _diameter_at_most_two(lap):
        return residual, None
    col = lap2 @ l_pinv[:, j]
    detected = _support(col)
    expected = frozenset(int(i) for i in np.flatnonzero(lap[:, j] != 0.0))
    return residual, detected == expected


def _diameter_at_most_two(lap: np.ndarray) -> bool:
    """Whether every vertex pair of a connected graph is at most two hops apart.

    Pattern test on I + A: its square is positive everywhere iff the
    diameter is at most 2.  The products are 0/1 counts no larger than n,
    so the float test is exact.
    """
    pattern = (lap != 0.0).astype(float)
    np.fill_diagonal(pattern, 1.0)
    return bool((pattern @ pattern > 0.0).all())


def _support(vec: np.ndarray) -> frozenset[int]:
    scale = float(np.abs(vec).max())
    if scale <= ZERO_FLOOR:
        return frozenset()
    return frozenset(int(i) for i in np.flatnonzero(np.abs(vec) > KNOT_TOL * scale))


def cyclic_difference(x, order: int) -> np.ndarray:
    """Order-th cyclic finite difference, shifted so stencils straddle their
    output index (order 2 at i uses x[i-1], x[i], x[i+1])."""
    if order < 1:
        raise ValueError("difference order must be >= 1")
    y = np.asarray(x, dtype=float)
    for _ in range(order):
        y = np.roll(y, -1) - y
    return np.roll(y, order // 2)


@dataclass(frozen=True)
class PiecewiseProfile:
    """Knots and per-segment polynomial degrees of a cyclic signal.

    knots: indices where the annihilator output deviates from its ambient
    level.  segments: the open cyclic index runs between consecutive knots
    (all of them, including empty runs); segment_degrees holds the smallest
    degree whose finite differences vanish on each run, or None for runs
    too short to carry structure.  operator_order records the
    vanishing-moment order of the annihilator used (1: incidence-like,
    2: Laplacian-like, 4: squared-Laplacian-like).
    """

    knots: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]
    segment_degrees: tuple[int | None, ...]
    operator_order: int

    @property
    def max_degree(self) -> int:
        real = [d for d in self.segment_degrees if d is not None]
        return max(real) if real else 0


def piecewise_degree_profile(x, annihilator_order: int = 2) -> PiecewiseProfile:
    """Locate knots and fit per-segment polynomial degrees of a cyclic signal.

    The annihilator is the cyclic finite difference of the given order.  An
    index is a knot when the annihilator output there deviates from the
    output's median by more than KNOT_TOL relative to the largest deviation; the
    median removes the constant background that a pure curvature term (for
    example the 1/n second difference of a quadratic atom) would otherwise
    spread across every vertex.  Segment degrees are fitted with plain
    one-sided differences inside each run between consecutive knots.
    """
    if annihilator_order not in (1, 2, 4):
        raise ValueError("annihilator order must be 1, 2 or 4")
    vec = np.asarray(x, dtype=float)
    n = vec.size
    out = cyclic_difference(vec, annihilator_order)
    dev = np.abs(out - np.median(out))
    scale = float(dev.max())
    if scale <= ZERO_FLOOR:
        knots: tuple[int, ...] = ()
    else:
        knots = tuple(int(i) for i in np.flatnonzero(dev > KNOT_TOL * scale))
    if not knots:
        segments: tuple[tuple[int, ...], ...] = (tuple(range(n)),)
    else:
        runs = []
        for t, k in enumerate(knots):
            nxt = knots[(t + 1) % len(knots)]
            run = []
            i = (k + 1) % n
            while i != nxt:
                run.append(i)
                i = (i + 1) % n
            runs.append(tuple(run))
        segments = tuple(runs)
    degrees = tuple(
        _segment_degree(vec[list(run)]) if run else None for run in segments
    )
    return PiecewiseProfile(knots, segments, degrees, annihilator_order)


def _segment_degree(vals: np.ndarray) -> int:
    """Smallest degree whose successive differences vanish on the segment."""
    m = vals.size
    if m <= 1:
        return 0
    scale = max(float(np.abs(vals).max()), 1.0)
    for p in range(0, m - 1):
        if float(np.abs(np.diff(vals, p + 1)).max()) <= KNOT_TOL * scale:
            return p
    return m - 1


@dataclass(frozen=True)
class DegreeReport:
    """Degree comparison of the two signal models on a circulant graph.

    After multiplying through by the banded factor P (which maps the graph
    pseudoinverse onto the cycle pseudoinverse), analysis-side basis signals
    must be piecewise linear with knots inside the cosupport complement,
    while synthesis atoms must be piecewise quadratic with their single knot
    at the atom index.  perturbed_offknot_second_difference records, for
    information only, how far the raw (unmultiplied) analysis signals sit
    from exact piecewise linearity; the factor inverse smears them and no
    bound is asserted.
    """

    analysis_max_degree: int
    analysis_ok: bool
    synthesis_max_degree: int
    synthesis_ok: bool
    factorization_residual: float
    residual_tol: float
    perturbed_offknot_second_difference: float

    @property
    def residual_ok(self) -> bool:
        return self.factorization_residual <= self.residual_tol

    @property
    def passed(self) -> bool:
        return self.analysis_ok and self.synthesis_ok and self.residual_ok


def model_degree_report(spec: CirculantSpec, cosupport: Cosupport) -> DegreeReport:
    """Verify the smoothness split between the analysis and synthesis models.

    Checks, on the circulant graph of ``spec``: (a) every unperturbed
    analysis basis signal P @ x is piecewise linear away from knots inside
    the cosupport complement; (b) every unperturbed synthesis atom
    P @ (L^+)_j, which equals the cycle pseudoinverse column j, is piecewise
    quadratic with its knot at j; (c) the pseudoinverse factorisation
    residual stays within tolerance, so the perturbation is exactly the
    inverse factor.
    """
    p_mat = perturbation_factor(spec).to_matrix()
    l_pinv = laplacian_pinv(spec)
    basis = _basis_from_pinv(l_pinv, cosupport)
    comp = set(cosupport.complement)

    analysis_deg = 0
    analysis_ok = True
    perturbed_dev = 0.0
    for col in basis.smooth_part.T:
        prof = piecewise_degree_profile(p_mat @ col, 2)
        analysis_ok &= set(prof.knots) <= comp
        analysis_deg = max(analysis_deg, prof.max_degree)
        raw = cyclic_difference(col, 2)
        off = [i for i in range(spec.n) if i not in comp]
        if off:
            perturbed_dev = max(perturbed_dev, float(np.abs(raw[off]).max()))
    analysis_ok &= analysis_deg <= 1

    synthesis_deg = 0
    synthesis_ok = True
    for j in range(spec.n):
        prof = piecewise_degree_profile(p_mat @ l_pinv[:, j], 2)
        synthesis_ok &= prof.knots == (j,)
        synthesis_deg = max(synthesis_deg, prof.max_degree)
    synthesis_ok &= synthesis_deg <= 2

    _, residual = pinv_factorization(spec, l_pinv=l_pinv)
    return DegreeReport(
        analysis_max_degree=analysis_deg,
        analysis_ok=analysis_ok,
        synthesis_max_degree=synthesis_deg,
        synthesis_ok=synthesis_ok,
        factorization_residual=residual,
        residual_tol=pinv_residual_allowance(l_pinv),
        perturbed_offknot_second_difference=perturbed_dev,
    )


def complete_graph_identities(n: int) -> tuple[float, float]:
    """Closed-form pseudoinverse residuals on the unweighted complete graph.

    Returns (||S^+ - S^T / n||_inf, ||L^+ - L / n^2||_inf); both vanish to
    rounding accuracy because the complete-graph Laplacian acts as n times
    the identity on the zero-sum subspace.
    """
    g = complete_graph(n)
    lap = laplacian(g)
    st = incidence(g).T
    l_pinv = _laplacian_pinv(lap, 1)
    s_pinv = l_pinv @ st
    residual_s = float(np.abs(s_pinv - st / n).max())
    residual_l = float(np.abs(l_pinv - lap / float(n * n)).max())
    return residual_s, residual_l


@dataclass(frozen=True)
class AbsorptionReport:
    """Support checks for a factor-absorbing coefficient construction."""

    cycle_support: tuple[int, ...]
    cycle_support_expected: tuple[int, ...]
    laplacian_support: tuple[int, ...]
    laplacian_support_expected: tuple[int, ...]

    @property
    def cycle_match(self) -> bool:
        return self.cycle_support == self.cycle_support_expected

    @property
    def laplacian_match(self) -> bool:
        return self.laplacian_support == self.laplacian_support_expected

    @property
    def passed(self) -> bool:
        return self.cycle_match and self.laplacian_match


def absorb_discontinuity(
    spec: CirculantSpec, j: int, k: int, l: int
) -> tuple[np.ndarray, np.ndarray, AbsorptionReport]:
    """Coefficients that absorb the banded factor into the basis choice.

    Builds p as the cyclic convolution of column j of the factor P with a
    two-point pulse e_k - e_l, then synthesises x = L^+ p.  Because all
    circulants commute, applying the simple-cycle Laplacian to x collapses
    the factor and leaves the two-point pulse shifted by j, while applying
    the graph Laplacian reproduces p itself.  The report compares both
    detected supports against those patterns: x is sparse with respect to
    the cycle operator in addition to the graph's own Laplacian.
    """
    if k == l:
        raise ValueError("pulse endpoints k and l must differ")
    for name, v in (("j", j), ("k", k), ("l", l)):
        if v < 0 or v >= spec.n:
            raise ValueError(f"vertex {name}={v} out of range for n={spec.n}")
    factor_col = np.roll(perturbation_factor(spec).first_row(), j)
    p = np.roll(factor_col, k) - np.roll(factor_col, l)
    lap = laplacian(spec)
    x = laplacian_pinv(spec) @ p
    cyc_out = cycle_laplacian(spec.n) @ x
    report = AbsorptionReport(
        cycle_support=tuple(sorted(_support(cyc_out))),
        cycle_support_expected=tuple(sorted({(j + k) % spec.n, (j + l) % spec.n})),
        laplacian_support=tuple(sorted(_support(lap @ x))),
        laplacian_support_expected=tuple(sorted(_support(p))),
    )
    return p, x, report
