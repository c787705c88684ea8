"""Representer polynomials, the closed-form cycle pseudoinverse and the
banded factorisation of circulant Laplacians."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lapsig.circulant import (
    RepresenterPolynomial,
    _certified_pinv,
    _connected_pinv,
    _dense_pinv,
    _first_row,
    cycle_laplacian,
    cycle_pinv,
    cycle_representer,
    laplacian_pinv,
    laplacian_representer,
    perturbation_factor,
    pinv_factorization,
    poly_multiply_mod,
    transform_inverse,
)
from lapsig.analysis import nullspace_basis
from lapsig.graphs import CirculantSpec, Cosupport, Graph, compile_circulant, complete_graph
from lapsig.graphs import connected_components, cycle_graph, laplacian, random_circulant_spec
from lapsig.graphs import _as_circulant, _circulant_view, _laplacian_row, random_connected_graph
from lapsig.linalg import column_space_equal, eig_symmetric, mpp_axiom_residuals, pseudoinverse
from lapsig.synthesis import cyclic_difference, synthesize
from lapsig.verification import AXIOM_RTOL, SPECTRAL_PINV_RTOL

from conftest import circulant_specs


def _dense_split(spec):
    """``pinv_factorization`` against the eigensolve L^+ of the compiled graph."""
    return pinv_factorization(spec, pseudoinverse(laplacian(compile_circulant(spec))))


class TestRepresenterPolynomial:
    def test_first_row_layout(self):
        poly = RepresenterPolynomial(8, (4.0, -1.0, -1.0))
        np.testing.assert_array_equal(poly.first_row(), [4, -1, -1, 0, 0, 0, -1, -1])

    def test_wrap_coefficient_counted_once(self):
        poly = RepresenterPolynomial(4, (2.0, 0.0, -1.0))
        np.testing.assert_array_equal(poly.first_row(), [2, 0, -1, 0])
        np.testing.assert_allclose(poly.eigenvalues(), [1.0, 3.0, 1.0, 3.0])

    def test_matrix_rows_are_shifts(self):
        poly = RepresenterPolynomial(6, (3.0, 1.0, -0.5))
        mat = poly.to_matrix()
        for i in range(6):
            np.testing.assert_array_equal(mat[i], np.roll(mat[0], i))

    def test_eigenvalues_match_dense_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(0, n // 2 + 1))
            poly = RepresenterPolynomial(n, tuple(rng.standard_normal(m + 1)))
            dense = np.sort(eig_symmetric(poly.to_matrix()).eigenvalues)
            np.testing.assert_allclose(np.sort(poly.eigenvalues()), dense, atol=1e-9)

    def test_rejects_overwide_band(self):
        with pytest.raises(ValueError, match="bandwidth"):
            RepresenterPolynomial(6, (1.0, 1.0, 1.0, 1.0, 1.0))

    def test_from_first_row_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            RepresenterPolynomial.from_first_row(np.array([1.0, 2.0, 0.0, 3.0]))

    def test_from_first_row_rejects_nan(self):
        # a NaN difference would pass the symmetry test, and the tail is dropped
        with pytest.raises(ValueError, match="non-finite"):
            RepresenterPolynomial.from_first_row([2.0, -1.0, 0, 0, 0, 0, 0, np.nan])


class TestLaplacianRepresenter:
    def test_cycle(self):
        assert cycle_representer(8).coeffs == (2.0, -1.0)

    def test_two_hop_unit(self):
        spec = CirculantSpec(8, ((1, 1.0), (2, 1.0)))
        assert laplacian_representer(spec).coeffs == (4.0, -1.0, -1.0)

    def test_weighted_with_hole(self):
        spec = CirculantSpec(16, ((1, 2.0), (3, 1.0)))
        assert laplacian_representer(spec).coeffs == (6.0, -2.0, 0.0, -1.0)

    def test_matches_compiled_laplacian_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = random_circulant_spec(int(rng.integers(3, 40)), rng, weights="integer")
            mat = laplacian_representer(spec).to_matrix()
            np.testing.assert_array_equal(mat, laplacian(compile_circulant(spec)))

    def test_rejects_wrap_hop(self):
        with pytest.raises(ValueError, match="bandwidth"):
            laplacian_representer(CirculantSpec(8, ((1, 1.0), (4, 1.0))))

    @pytest.mark.parametrize("weights", ["unit", "integer"])
    def test_first_row_is_the_laplacian_row(self, weights):
        rng = np.random.default_rng(2)
        for _ in range(40):
            spec = random_circulant_spec(int(rng.integers(3, 80)), rng, weights=weights)
            np.testing.assert_array_equal(laplacian_representer(spec).first_row(),
                                          _laplacian_row(spec))


class TestPolyMultiply:
    def test_multiplicative_identity(self):
        one = RepresenterPolynomial(8, (1.0,))
        poly = RepresenterPolynomial(8, (4.0, -1.0, 2.0))
        assert poly_multiply_mod(poly, one).coeffs == poly.coeffs

    def test_factor_times_cycle(self):
        a = RepresenterPolynomial(8, (3.0, 1.0))
        b = RepresenterPolynomial(8, (2.0, -1.0))
        assert poly_multiply_mod(a, b).coeffs == (4.0, -1.0, -1.0)

    def test_cycle_squared(self):
        lc = cycle_representer(8)
        assert poly_multiply_mod(lc, lc).coeffs == (6.0, -4.0, 1.0)

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(3, 24))
            pa = RepresenterPolynomial(n, tuple(rng.standard_normal(int(rng.integers(1, n // 2 + 2)))))
            pb = RepresenterPolynomial(n, tuple(rng.standard_normal(int(rng.integers(1, n // 2 + 2)))))
            prod = poly_multiply_mod(pa, pb).to_matrix()
            dense = pa.to_matrix() @ pb.to_matrix()
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(prod - dense).max() < 1e-10 * scale

    def test_wraparound_aliases_like_the_matrices(self):
        # combined bandwidth beyond n/2: the fold must still match the product
        pa = RepresenterPolynomial(6, (1.0, 2.0, 1.0))
        prod = poly_multiply_mod(pa, pa)
        dense = pa.to_matrix() @ pa.to_matrix()
        np.testing.assert_allclose(prod.to_matrix(), dense, atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            poly_multiply_mod(RepresenterPolynomial(6, (1.0,)), RepresenterPolynomial(8, (1.0,)))


class TestCyclePinv:
    def test_closed_form_entries_n4(self):
        assert cycle_pinv(4)[0, 0] == pytest.approx(0.3125)
        assert cycle_pinv(4)[0, 2] == pytest.approx(-0.1875)
        row = [cycle_pinv(4)[0, j] for j in range(4)]
        assert sum(row) == pytest.approx(0.0, abs=1e-14)

    def test_matrix_matches_entries(self):
        for n in (3, 4, 7, 16):
            i, j = np.indices((n, n))
            d = np.abs(i - j)
            expected = (n * n - 1) / (12 * n) - d * (n - d) / (2 * n)
            np.testing.assert_allclose(cycle_pinv(n), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 33, 64])
    def test_against_dense_pseudoinverse(self, n):
        gap = np.abs(cycle_pinv(n) - pseudoinverse(cycle_laplacian(n))).max()
        assert gap < 1e-9

    def test_projection_identity(self):
        for n in (3, 7, 20):
            prod = cycle_laplacian(n) @ cycle_pinv(n)
            centering = np.eye(n) - np.ones((n, n)) / n
            assert np.abs(prod - centering).max() < 1e-9

    def test_symmetric_circulant(self):
        mat = cycle_pinv(9)
        np.testing.assert_allclose(mat, mat.T, atol=1e-14)
        for i in range(9):
            np.testing.assert_allclose(mat[i], np.roll(mat[0], i), atol=1e-14)

    def test_column_difference_is_piecewise_linear(self):
        # the two-point column difference has exact second difference e41 - e21
        mat = cycle_pinv(64)
        diff = mat[:, 21] - mat[:, 41]
        second = cyclic_difference(diff, 2)
        expected = np.zeros(64)
        expected[41] = 1.0
        expected[21] = -1.0
        np.testing.assert_allclose(second, expected, atol=1e-12)

    def test_second_difference_constant_off_knot(self):
        # exact consequence of the centring projection: 1/n away from the knot
        n = 32
        mat = cycle_pinv(n)
        second = cyclic_difference(mat[:, 5], 2)
        off = [i for i in range(n) if i != 5]
        assert np.abs(second[off] - 1.0 / n).max() < 1e-10
        assert second[5] == pytest.approx(1.0 / n - 1.0, abs=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cycle_pinv(2)


class TestPerturbationFactor:
    def test_cycle_factor_is_identity(self):
        assert perturbation_factor(CirculantSpec(8, ((1, 1.0),))).coeffs == (1.0,)

    def test_two_hop_factor(self):
        spec = CirculantSpec(16, ((1, 1.0), (2, 1.0)))
        factor = perturbation_factor(spec)
        assert factor.coeffs == (3.0, 1.0)
        gap = np.abs(factor.to_matrix() @ cycle_laplacian(16) - laplacian(compile_circulant(spec))).max()
        assert gap == 0.0

    def test_three_hop_factor(self):
        spec = CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0)))
        factor = perturbation_factor(spec)
        assert factor.coeffs == (6.0, 3.0, 1.0)
        gap = np.abs(factor.to_matrix() @ cycle_laplacian(64) - laplacian(compile_circulant(spec))).max()
        assert gap == 0.0

    def test_polynomial_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = random_circulant_spec(int(rng.integers(5, 50)), rng, weights="integer")
            prod = poly_multiply_mod(perturbation_factor(spec), cycle_representer(spec.n))
            rep = laplacian_representer(spec)
            np.testing.assert_array_equal(np.asarray(prod.coeffs), np.asarray(rep.coeffs))

    def test_positive_definite(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spec = random_circulant_spec(int(rng.integers(5, 50)), rng, weights="uniform")
            assert perturbation_factor(spec).eigenvalues().min() > 0.0

    def test_requires_unit_hop(self):
        with pytest.raises(ValueError, match="hop 1"):
            perturbation_factor(CirculantSpec(9, ((2, 1.0),)))

    def test_requires_strict_band(self):
        with pytest.raises(ValueError, match="bandwidth"):
            perturbation_factor(CirculantSpec(8, ((1, 1.0), (4, 1.0))))


class TestPinvFactorization:
    def test_cycle_is_identity_split(self):
        p_inv, residual = _dense_split(CirculantSpec(8, ((1, 1.0),)))
        np.testing.assert_allclose(p_inv, np.eye(8), atol=1e-12)
        assert residual < 1e-12

    def test_two_hop_residual(self):
        _, residual = _dense_split(CirculantSpec(16, ((1, 1.0), (2, 1.0))))
        assert residual < 1e-9

    def test_three_hop_residual(self):
        _, residual = _dense_split(CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))))
        assert residual < 1e-8

    def test_dense_and_transform_inverses_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec = random_circulant_spec(int(rng.integers(5, 40)), rng, weights="uniform")
            factor = perturbation_factor(spec)
            dense = np.linalg.inv(factor.to_matrix())
            via_fft = transform_inverse(factor)
            assert np.abs(dense - via_fft).max() < 1e-10 * max(1.0, np.abs(dense).max())

    def test_transform_inverse_rejects_singular(self):
        with pytest.raises(ValueError, match="not invertible"):
            transform_inverse(cycle_representer(8))


class TestLaplacianPinv:
    def test_four_cycle_closed_form(self):
        np.testing.assert_allclose(
            laplacian_pinv(CirculantSpec(4, ((1, 1.0),)))[0],
            [0.3125, -0.0625, -0.1875, -0.0625],
            atol=1e-15,
        )

    def test_matches_closed_form_cycle_pinv(self):
        for n in (3, 8, 255):
            gap = np.abs(laplacian_pinv(CirculantSpec(n, ((1, 1.0),))) - cycle_pinv(n)).max()
            assert gap < 1e-12 * max(1.0, np.abs(cycle_pinv(n)).max())

    def test_numerically_disconnected_spec_is_refused(self):
        # gcd(6, 1, 2) = 1 component, but hop 1 is too light to register:
        # the spectrum shows the two components of hop 2 alone
        with pytest.raises(ValueError, match="numerically disconnected.*cutoff"):
            laplacian_pinv(CirculantSpec(6, ((1, 1e-300), (2, 1.0))))

    def test_numerically_disconnected_circulant_graph_is_refused_by_the_dft_guard(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on an exactly circulant Laplacian")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        g = compile_circulant(CirculantSpec(6, ((1, 1e-300), (2, 1.0))))
        with pytest.raises(ValueError, match="numerically disconnected.*cutoff"):
            laplacian_pinv(g)

    @pytest.mark.parametrize(
        "call",
        [
            laplacian_pinv,
            lambda g: synthesize(g, (0, 3), (1.0, -1.0)),
            lambda g: nullspace_basis(g, Cosupport.from_support(8, (0, 3))),
        ],
        ids=["laplacian_pinv", "synthesize", "nullspace_basis"],
    )
    def test_overflowing_degree_is_refused_as_non_finite(self, call):
        spec = CirculantSpec(8, ((1, 1e308), (2, 1e308)))  # the degree 4e308 overflows
        for g in (spec, compile_circulant(spec)):
            with pytest.raises(ValueError, match="non-finite entries"):
                call(g)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(circulant_specs(kinds=("integer", "unit")))
    @example(CirculantSpec(10, ((1, 1.0), (5, 3.0))))
    def test_compiled_graph_takes_the_dft_rule(self, spec):
        # unit and integer degrees are exact, so the Laplacian is exactly circulant
        g = compile_circulant(spec)
        got = laplacian_pinv(g)
        assert got.flags.writeable  # a dense copy, not the chooser's strided view
        np.testing.assert_array_equal(got, laplacian_pinv(spec))
        dense = pseudoinverse(laplacian(g))
        assert np.abs(got - dense).max() <= SPECTRAL_PINV_RTOL * max(1.0, np.abs(dense).max())

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(circulant_specs())
    @example(CirculantSpec(8, ((2, 1.0),)))
    @example(CirculantSpec(10, ((1, 1.0), (5, 3.0))))
    @example(CirculantSpec(9, ((3, 0.5),)))
    def test_matches_dense_oracle(self, spec):
        lap = laplacian(compile_circulant(spec))
        dense = pseudoinverse(lap)
        assert eig_symmetric(lap).rank == spec.n - math.gcd(spec.n, *spec.hops)
        fast = laplacian_pinv(spec)
        np.testing.assert_array_equal(fast, fast.T)
        assert np.abs(fast - dense).max() <= SPECTRAL_PINV_RTOL * max(1.0, np.abs(dense).max())
        axioms = mpp_axiom_residuals(lap, fast)
        assert max(axioms.values()) <= AXIOM_RTOL * max(1.0, np.abs(lap).max())


_EPS = np.finfo(float).eps
_SHAPES = ("path", "barbell", "random")


def _one_light_edge(shape: str, n: int, w: float, rng) -> Graph:
    """A connected graph with one edge of weight ``w`` and the rest in
    0.5..2: a path whose light edge is a bridge, two cliques joined by the
    light edge, or a random graph with one edge made light."""
    if shape == "random":
        edges = list(random_connected_graph(n, rng).edges)
        at = int(rng.integers(len(edges)))
        edges[at] = (*edges[at][:2], w)
        return Graph(n, tuple(edges))
    if shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
        light = pairs[int(rng.integers(len(pairs)))]
    else:
        half = n // 2
        pairs = [(i, j) for lo, hi in ((0, half), (half, n))
                 for i in range(lo, hi) for j in range(i + 1, hi)]
        light = (half - 1, half)
        pairs.append(light)
    weights = rng.uniform(0.5, 2.0, len(pairs))
    return Graph(n, tuple((i, j, w if (i, j) == light else float(x))
                          for (i, j), x in zip(pairs, weights)))


def _certificate_agrees_with_the_guard(lap: np.ndarray) -> bool:
    """Whether the certificate passed, after checking what a pass promises:
    the eigensolve counts one zero, and the two L^+ agree to rounding.

    Both paths sit up to about n eps kappa |L^+|_max from the exact L^+
    (kappa = lambda_max / lambda_2), so the allowance is 1e-12 relative to
    max(1, |L^+|_max) until the conditioning makes 4 n eps kappa the larger
    bound (the gap measured at most 0.76 n eps kappa |L^+|_max on 3000
    seeded draws).
    """
    n = lap.shape[0]
    dec = eig_symmetric(lap)
    certified = _certified_pinv(lap)
    refused = dec.rank != n - 1
    try:
        _dense_pinv(lap, 1)
    except ValueError as exc:
        assert refused and "numerically disconnected" in str(exc)
    else:
        assert not refused
    if certified is None:
        return False
    assert not refused
    dense = dec.pinv()
    kappa = dec.eigenvalues[-1] / dec.eigenvalues[1]
    allow = max(1e-12, 4 * n * _EPS * kappa) * max(1.0, float(np.abs(dense).max()))
    assert float(np.abs(certified - dense).max()) <= allow
    return True


class TestCertifiedSolve:
    """A passed Cholesky certificate never takes a graph the eigensolve guard
    refuses, and its L^+ is the eigensolve's to rounding."""

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_one_weight_sweep(self, shape):
        rng = np.random.default_rng(_SHAPES.index(shape))
        passed = [
            _certificate_agrees_with_the_guard(laplacian(_one_light_edge(shape, 24, 10.0**-k, rng)))
            for k in range(19)
        ]
        assert passed[0]  # the sweep starts on the certified path
        if shape != "random":  # a light bridge ends on the eigensolve
            assert not passed[-1]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(_SHAPES), st.integers(4, 40), st.integers(0, 18),
           st.integers(0, 2**32 - 1))
    def test_certificate_implies_one_zero(self, shape, n, k, seed):
        rng = np.random.default_rng(seed)
        _certificate_agrees_with_the_guard(laplacian(_one_light_edge(shape, n, 10.0**-k, rng)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 12), min_size=2, max_size=4), st.integers(0, 2**32 - 1))
    def test_disconnected_graphs_are_never_certified(self, sizes, seed):
        rng = np.random.default_rng(seed)
        edges, first = [], 0
        for size in sizes:
            part = random_connected_graph(size, rng)
            edges += [(first + i, first + j, w) for i, j, w in part.edges]
            first += size
        g = Graph(first, tuple(edges))
        lap = laplacian(g)
        assert _certified_pinv(lap) is None
        pinv, _ = _dense_pinv(lap, connected_components(g))
        assert np.abs(pinv - pseudoinverse(lap)).max() <= 1e-12 * max(1.0, np.abs(pinv).max())

    @pytest.mark.parametrize(
        "call",
        [
            laplacian_pinv,
            lambda g: synthesize(g, (0, 3), (1.0, -1.0)),
            lambda g: nullspace_basis(g, Cosupport.from_support(5, (0, 3))),
        ],
        ids=["laplacian_pinv", "synthesize", "nullspace_basis"],
    )
    def test_refusals_come_before_the_certificate(self, call, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Cholesky certificate on a refused Laplacian")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        path = ((0, 1, 1.0), (1, 2, 1e308), (2, 3, 1e308), (3, 4, 1.0))  # degree 2e308
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            call(Graph(5, path))
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            _dense_pinv(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1)


class TestSpecDispatch:
    """A spec passed where a Graph is taken gives the compiled Graph's result."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(circulant_specs())
    def test_component_count(self, spec):
        assert connected_components(spec) == connected_components(compile_circulant(spec))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(circulant_specs(), st.data())
    def test_pinv_columns(self, spec, data):
        # gathered from the strided view of the first row, C-contiguous
        cols = data.draw(st.lists(st.integers(0, spec.n - 1), max_size=spec.n))
        components = connected_components(spec)
        if components != 1:
            with pytest.raises(ValueError, match=f"^graph has {components} connected components"):
                _connected_pinv(spec, cols)
            return
        lap, got, circulant = _connected_pinv(spec, cols)
        assert circulant and not lap.flags.writeable  # the strided view of its first row
        np.testing.assert_array_equal(lap, laplacian(spec))
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, laplacian_pinv(spec)[:, cols])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(circulant_specs())
    @example(CirculantSpec(10, ((1, 0.7), (5, 1.3))))
    def test_laplacian(self, spec):
        compiled = laplacian(compile_circulant(spec))
        lap = laplacian(spec)
        if all(float(d).is_integer() for _, d in spec.generators):
            np.testing.assert_array_equal(lap, compiled)
        else:
            eps = np.finfo(float).eps
            assert np.abs(lap - compiled).max() <= 8 * eps * max(1.0, np.abs(compiled).max())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(circulant_specs(n_max=48), st.data())
    def test_nullspace_basis_spans_the_graph_basis(self, spec, data):
        assume(connected_components(spec) == 1)
        support = data.draw(st.sets(st.integers(0, spec.n - 1), min_size=1, max_size=spec.n))
        cos = Cosupport.from_support(spec.n, support)
        ours = nullspace_basis(spec, cos).matrix()
        assert column_space_equal(ours, nullspace_basis(compile_circulant(spec), cos).matrix())


@st.composite
def _recognition_cases(draw):
    """Graphs for the edge test: compiled circulants of every weight kind
    (the wrap hop and disconnected ones included), cycles, complete graphs,
    n = 1 and 2, random graphs, and shift-invariant edge sets with one
    weight changed."""
    kind = draw(st.sampled_from(["compiled", "cycle", "complete", "small", "random", "reweighted"]))
    if kind == "compiled":
        return compile_circulant(draw(circulant_specs(n_max=48)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 40)))
    if kind == "complete":
        return complete_graph(draw(st.integers(2, 24)))
    if kind == "small":
        weight = draw(st.sampled_from([1.0, 3.0, 0.5, 2.0**53]))
        return draw(st.sampled_from([Graph(1, ()), Graph(2, ()), Graph(2, ((0, 1, weight),))]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = draw(st.sampled_from(["unit", "integer", "uniform"]))
        return random_connected_graph(draw(st.integers(1, 30)), rng, draw(st.floats(0.0, 1.0)),
                                      weights)
    g = compile_circulant(draw(circulant_specs(n_max=48, kinds=("integer", "unit"))))
    edges = list(g.edges)
    i, j, w = edges[draw(st.integers(0, len(edges) - 1))]
    edges[edges.index((i, j, w))] = (i, j, w + draw(st.sampled_from([1.0, 0.5])))
    return Graph(g.n, tuple(edges))


class TestEdgeListRecognition:
    """``graphs._as_circulant`` chooses the DFT L^+ exactly when the dense
    test of ``_dense_pinv`` would, wherever it is taken, and the choice keeps
    every byte."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_recognition_cases())
    @example(Graph(4, ()))  # the dense test passes, and no spec has no hop
    @example(compile_circulant(CirculantSpec(8, ((1, 2.0**51), (4, 2.0**51)))))  # degree 3 * 2^51
    @example(compile_circulant(CirculantSpec(8, ((1, 2.0**52), (4, 2.0**52)))))  # degree 3 * 2^52
    @example(compile_circulant(CirculantSpec(12, ((3, 2.0), (6, 1.0)))))  # 3 components
    @example(compile_circulant(CirculantSpec(12, ((1, 0.5), (4, 1.25)))))  # dyadic weights
    def test_edge_test_chooses_as_the_dense_test(self, g):
        lap = laplacian(g)
        dense = lap.shape[0] > 1 and np.array_equal(lap, _circulant_view(lap[0]))
        weights = [w for *_, w in g.edges]
        degrees = [0] * g.n
        for i, j, w in g.edges:
            if w.is_integer():
                degrees[i] += int(w)
                degrees[j] += int(w)
        taken = all(w.is_integer() for w in weights) and max(degrees) < 2**53
        spec = _as_circulant(g)
        assert (spec is not None) == (dense and taken and g.n > 1 and bool(weights))
        if spec is None:
            return
        assert compile_circulant(spec) == g
        assert connected_components(spec) == connected_components(g)  # gcd against the BFS
        # laplacian(g) bit for bit, its -0.0 off the edges included
        assert np.ascontiguousarray(_circulant_view(_first_row(g, spec))).tobytes() == lap.tobytes()
        try:
            want = _dense_pinv(lap, connected_components(g))[0]
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                laplacian_pinv(g)
        else:
            assert laplacian_pinv(g).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_a_spec_is_its_own(self):
        spec = CirculantSpec(9, ((3, 1.0),))
        assert _as_circulant(spec) is spec


class TestDecayProfile:
    """|P^{-1}| by cyclic distance: for a circulant, the head of its first row."""

    def test_two_hop_factor_inverse_decay(self):
        p_inv, _ = _dense_split(CirculantSpec(64, ((1, 1.0), (2, 1.0))))
        values = np.abs(p_inv[0, : 64 // 2 + 1])
        assert np.all(np.diff(values) < 0)
        assert values[10] < 1e-4 * values[0]
        # regression value pinned from the closed computation
        assert values[10] / values[0] == pytest.approx(6.610696135189599e-05, rel=1e-9)

    def test_three_hop_envelope_decay(self):
        # oscillating but decaying envelope: no strict monotonicity here
        p_inv, _ = _dense_split(CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))))
        values = np.abs(p_inv[0, : 64 // 2 + 1])
        assert values[10] < 1e-3 * values[0]
        assert max(values[20:]) < 1e-5 * values[0]
