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

from .circulant import _connected_pinv, _cycle_pinv_value, _inverse_row, _invertible_spectrum
from .circulant import perturbation_factor, pinv_residual_allowance
from .graphs import CirculantSpec, Cosupport, Graph, _apply_laplacian, _circulant_times
from .graphs import _circulant_view, _whole, _within_hops, complete_graph
from .linalg import ZERO_FLOOR, _require_finite, _require_tolerance
from .analysis import ZERO_TEST_TOL, _annihilated, nullspace_basis

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
_EDGE_BLOCK_CELLS = 1 << 16  # values gathered per block of edges; bounds the temporaries


def synthesize(g: Graph | CirculantSpec, support, coeffs) -> np.ndarray:
    """Combine pseudoinverse atoms: x = L^+ restricted to the support columns
    times the coefficients.

    The output always lies in the range of L^+, i.e. it is orthogonal to the
    constant vector.  Coefficients pair with the support in the order given.
    A disconnected graph, or one ``laplacian_pinv`` sees as numerically
    disconnected, raises.  The columns are multiplied F-ordered, as
    ``l_pinv[:, support]`` holds them, so BLAS rounds the product the same
    way for a Graph and a spec.
    """
    sup = [_whole(i, "support index") for i in support]
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
    return np.asfortranarray(_connected_pinv(g, sup)[1]) @ vec


def structured_sparsity_check(c, tol: float = ZERO_TEST_TOL) -> bool:
    """Whether a coefficient vector is admissible as a Laplacian image.

    On a connected graph a vector can equal L x only if its entries sum to
    zero; the test is |sum c| <= tol * ||c||_1, with ``tol`` finite and >= 0.
    """
    _require_tolerance(tol)
    vec = _require_finite(c, "coefficients")
    return abs(float(vec.sum())) <= tol * float(np.abs(vec).sum())


def edge_knot_residual(g: Graph) -> float:
    """Max-norm residual of  L (L^+ S^T) = S^T.

    L^+ S^T collects the edge Green's functions (the pseudoinverse of the
    incidence operator); applying L must return the two-point columns of
    S^T, which pins each atom's discontinuities to its edge's endpoints.

    The residual is M S^T with M = L L^+ - I, and its column for edge
    (i, j) is sqrt(w) (M[:, i] - M[:, j]).  When L is circulant so is M,
    and that column is the column of edge (0, j - i) shifted by i; vertex
    0's edges carry every offset s with its weight, so they alone decide
    the max: max_s sqrt(w_s) |m - roll(m, s)|_max, with m the first row of
    M, a product of first rows.  So a circulant knot pair that the edge-list
    test recognises (whole-number weights; see ``laplacian_pinv``) forms no
    n x n array; a circulant with other weights builds L for the dense test
    first.  Any other Graph forms M^T = L^+ L - I at the vertices its edges
    touch.
    """
    lap, l_pinv, circulant = _connected_pinv(g)
    if circulant:
        row = lap[0]
        m_row = _circulant_times(row, l_pinv[0])
        m_row[0] -= 1.0
        hops = np.flatnonzero(row[1:]) + 1  # vertex 0's edges (0, s)
        ends = np.column_stack([np.zeros_like(hops), hops])
        return _max_abs_times_incidence_t(_circulant_view(m_row), ends, np.sqrt(-row[hops]))
    ends, roots = _edge_ends(g)
    verts, ends = np.unique(ends, return_inverse=True)
    rows = l_pinv[verts]
    del l_pinv  # freed before the product
    m_t = rows @ lap  # rows verts of M^T = L^+ L - I
    m_t[np.arange(verts.size), verts] -= 1.0
    return _max_abs_times_incidence_t(m_t, ends.reshape(-1, 2), roots)


def _edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints (i_e, j_e) of every edge, one row each, and sqrt(w_e)."""
    edges = np.array(g.edges, dtype=float).reshape(-1, 3)
    return edges[:, :2].astype(np.intp), np.sqrt(edges[:, 2])


def _max_abs_times_incidence_t(a_t: np.ndarray, ends: np.ndarray, roots: np.ndarray) -> float:
    """|A S^T|_max for the incidence S of the edges whose endpoints index
    the rows ``ends`` of ``a_t`` = A^T and whose sqrt(w) are ``roots``,
    with no n x m array.

    Row e of S carries +sqrt(w_e) at i_e and -sqrt(w_e) at j_e, so column e
    of A S^T is sqrt(w_e) (A[:, i_e] - A[:, j_e]): rows i_e and j_e of A^T,
    gathered for a block of edges at a time.  0.0 when there are no edges.
    """
    step = max(1, _EDGE_BLOCK_CELLS // max(a_t.shape[1], 1))
    peaks = []
    for first in range(0, len(ends), step):
        part = slice(first, first + step)
        cols = a_t[ends[part, 0]]  # reads a strided view in place; np.take copies it whole
        cols -= a_t[ends[part, 1]]
        cols *= roots[part, None]
        peaks.append(np.abs(cols).max())
    return float(np.max(peaks, initial=0.0))


def two_hop_knot_check(g: Graph, j: int) -> tuple[float, bool | None]:
    """Knot localisation of the pseudoinverse atom j under the squared Laplacian.

    Returns (residual, knot_match) where residual = ||L^2 L^+ - L||_inf and
    knot_match says whether the detected support of L^2 applied to atom j
    equals the support of Laplacian column j.  When the graph has diameter
    <= 2 the squared Laplacian has no structural zeros, the atom is not
    sparse with respect to it, and knot_match is None (not applicable).

    When L is circulant every column of L (L L^+) - L is a cyclic shift of
    column 0, so first rows decide: the residual is |L (L p) - r|_max with
    r and p the first rows of L and L^+, the diameter is at most 2 when
    vertex 0's hops and their pairwise sums cover Z_n, and column j is
    column 0 shifted by j.  So a circulant knot pair that the edge-list test
    recognises (whole-number weights; see ``laplacian_pinv``) forms no n x n
    array; a circulant with other weights builds L for the dense test first.
    Any other Graph forms L (L L^+) and the pattern of (I + A)^2.
    """
    if j < 0 or j >= g.n:
        raise ValueError(f"vertex {j} out of range for n={g.n}")
    lap, l_pinv, circulant = _connected_pinv(g)
    if circulant:
        row = lap[0]
        prod = _circulant_times(row, _circulant_times(row, l_pinv[0]))
        residual = float(np.abs(prod - row).max())
        reach = (row != 0.0).astype(float)  # vertex 0 and its hops
        if (_circulant_times(reach, reach) > 0.0).all():  # diameter at most 2
            return residual, None
        detected = _support(np.roll(prod, j))
        return residual, detected == tuple(np.flatnonzero(np.roll(row, j)).tolist())
    prod = lap @ (lap @ l_pinv)
    prod -= lap
    residual = float(np.abs(prod, out=prod).max())
    del prod  # freed before the pattern test forms its n x n arrays
    if _within_hops(lap, 2).all():  # diameter at most 2
        return residual, None
    detected = _support(lap @ (lap @ l_pinv[:, j]))
    return residual, detected == tuple(np.flatnonzero(lap[:, j]).tolist())


def _support(vec: np.ndarray) -> tuple[int, ...]:
    """Ascending indices where ``vec`` is nonzero at KNOT_TOL: the complement
    of what ``cosparsity``'s relative zero rule counts as annihilated."""
    return _annihilated(vec, KNOT_TOL)[1].complement


def cyclic_difference(x, order: int) -> np.ndarray:
    """Order-th cyclic finite difference, shifted so stencils straddle their
    output index (order 2 at i uses x[i-1], x[i], x[i+1])."""
    if order < 1:
        raise ValueError("difference order must be >= 1")
    return _cyclic_difference(_require_finite(x, "signal"), order)


def _cyclic_difference(y: np.ndarray, order: int) -> np.ndarray:
    """``cyclic_difference`` along axis 0: of a vector, or of every column."""
    for _ in range(order):
        y = np.roll(y, -1, axis=0) - y
    return np.roll(y, order // 2, axis=0)


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
    vec = _require_finite(x, "signal")
    if vec.size == 0:
        raise ValueError("signal is empty: there is nothing to profile")
    return _profile(vec, annihilator_order)


def _profile(vec: np.ndarray, order: int) -> PiecewiseProfile:
    """``piecewise_degree_profile`` of a finite vector."""
    if order not in (1, 2, 4):
        raise ValueError("annihilator order must be 1, 2 or 4")
    out = _cyclic_difference(vec, order)
    dev = np.abs(out - np.median(out))
    scale = float(dev.max())
    knots = tuple(np.flatnonzero(dev > KNOT_TOL * scale).tolist()) if scale > ZERO_FLOOR else ()
    segments, degrees = _runs(vec, knots)
    return PiecewiseProfile(knots, segments, degrees, order)


def _runs(vec: np.ndarray, knots: tuple[int, ...]):
    """The open cyclic runs between consecutive knots, with their degrees."""
    n = vec.size
    if not knots:
        return (tuple(range(n)),), (_segment_degree(vec) if n else None,)
    segments, degrees = [], []
    for k, nxt in zip(knots, knots[1:] + knots[:1]):
        if nxt > k:
            run = tuple(range(k + 1, nxt))
            vals = vec[k + 1 : nxt]
        else:  # the run that wraps past n - 1
            run = (*range(k + 1, n), *range(nxt))
            vals = np.concatenate([vec[k + 1 :], vec[:nxt]])
        segments.append(run)
        degrees.append(_segment_degree(vals) if run else None)
    return tuple(segments), tuple(degrees)


def _segment_degree(vals: np.ndarray) -> int:
    """Smallest degree whose successive differences vanish on the segment."""
    m = vals.size
    if m <= 1:
        return 0
    scale = max(float(np.abs(vals).max()), 1.0)
    diff = vals
    for p in range(0, m - 1):
        diff = np.diff(diff)  # the (p + 1)-th difference
        if float(np.abs(diff).max()) <= KNOT_TOL * scale:
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
    inverse factor.  The analysis signals come from ``nullspace_basis``, so
    its guards apply to the cosupport.  No n x n matrix is formed.  Atom j
    is atom 0 shifted cyclically by j, and the profile commutes with cyclic
    shifts (its difference, median, threshold and runs all do), so atom 0
    alone decides (b): its knots are (0,) exactly when every atom's knots
    are (j,).  P is applied by shifts of its band, and the factorisation
    P^{-1} L_C^+ for (c) is one circulant row from the spectra of P and
    L_C^+.
    """
    factor = perturbation_factor(spec)
    p_row = factor.first_row()
    smooth = nullspace_basis(spec, cosupport).smooth_part
    row = _connected_pinv(spec)[1][0]  # the first row of L^+
    comp = set(cosupport.complement)
    off = [i for i in range(spec.n) if i not in comp]

    analysis = [_profile(col, 2) for col in _circulant_times(p_row, smooth).T]
    analysis_deg = max((prof.max_degree for prof in analysis), default=0)
    analysis_ok = all(set(prof.knots) <= comp for prof in analysis) and analysis_deg <= 1
    perturbed_dev = 0.0
    if off and analysis:
        perturbed_dev = float(np.abs(_cyclic_difference(smooth, 2)[off]).max())

    atom = _profile(_circulant_times(p_row, row), 2)
    synthesis_deg = atom.max_degree
    synthesis_ok = atom.knots == (0,) and synthesis_deg <= 2

    # every entry of a circulant sits in its first row
    cycle_row = _cycle_pinv_value(spec.n, np.arange(spec.n))
    split = _inverse_row(np.fft.fft(cycle_row).real / _invertible_spectrum(factor))
    return DegreeReport(
        analysis_max_degree=analysis_deg,
        analysis_ok=analysis_ok,
        synthesis_max_degree=synthesis_deg,
        synthesis_ok=synthesis_ok,
        factorization_residual=float(np.abs(split - row).max()),
        residual_tol=pinv_residual_allowance(row),
        perturbed_offknot_second_difference=perturbed_dev,
    )


def complete_graph_identities(n: int) -> tuple[float, float]:
    """Closed-form pseudoinverse residuals on the unweighted complete graph.

    Returns (||S^+ - S^T / n||_inf, ||L^+ - L / n^2||_inf); both vanish to
    rounding accuracy because the complete-graph Laplacian acts as n times
    the identity on the zero-sum subspace.
    """
    g = complete_graph(n)
    lap, l_pinv, _ = _connected_pinv(g)
    # S^+ - S^T / n = (L^+ - I / n) S^T, a symmetric matrix times S^T
    residual_s = _max_abs_times_incidence_t(l_pinv - np.eye(n) / n, *_edge_ends(g))
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
    the cycle operator in addition to the graph's own Laplacian.  Every
    product takes shifts of a first row; no n x n matrix is formed.
    """
    if k == l:
        raise ValueError("pulse endpoints k and l must differ")
    for name, v in (("j", j), ("k", k), ("l", l)):
        if v < 0 or v >= spec.n:
            raise ValueError(f"vertex {name}={v} out of range for n={spec.n}")
    factor_col = np.roll(perturbation_factor(spec).first_row(), j)
    p = np.roll(factor_col, k) - np.roll(factor_col, l)
    x = _circulant_times(_connected_pinv(spec)[1][0], p)
    cyc_out = _apply_laplacian(CirculantSpec(spec.n, ((1, 1.0),)), x)
    report = AbsorptionReport(
        cycle_support=_support(cyc_out),
        cycle_support_expected=tuple(sorted({(j + k) % spec.n, (j + l) % spec.n})),
        laplacian_support=_support(_apply_laplacian(spec, x)),
        laplacian_support_expected=_support(p),
    )
    return p, x, report
