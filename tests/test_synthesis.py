"""Synthesis over pseudoinverse atoms, knot identities, piecewise profiles
and the circulant degree comparison."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lapsig import circulant, graphs, synthesis
from lapsig.analysis import cosparsity, nullspace_basis, randomized_uniqueness_check
from lapsig.analysis import sampling_matrix, spark_bruteforce, zero_sum_basis
from lapsig.circulant import cycle_pinv, laplacian_pinv, perturbation_factor
from lapsig.circulant import transform_inverse
from lapsig.graphs import (
    CirculantSpec,
    Cosupport,
    Graph,
    compile_circulant,
    complete_graph,
    cycle_graph,
    hop_distances,
    incidence,
    laplacian,
    random_connected_graph,
)
from lapsig.linalg import ZERO_FLOOR, pseudoinverse
from lapsig.synthesis import (
    KNOT_TOL,
    PiecewiseProfile,
    absorb_discontinuity,
    complete_graph_identities,
    cyclic_difference,
    edge_knot_residual,
    model_degree_report,
    piecewise_degree_profile,
    structured_sparsity_check,
    synthesize,
    two_hop_knot_check,
)


class TestSynthesize:
    def test_zero_coefficients(self):
        g = cycle_graph(6)
        np.testing.assert_array_equal(synthesize(g, (1, 4), (0.0, 0.0)), np.zeros(6))

    def test_two_point_difference_on_cycle(self):
        g = cycle_graph(8)
        x = synthesize(g, (2, 5), (1.0, -1.0))
        target = np.zeros(8)
        target[2], target[5] = 1.0, -1.0
        np.testing.assert_allclose(laplacian(g) @ x, target, atol=1e-9)

    def test_banded_two_point_signal(self):
        g = compile_circulant(CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))))
        x = synthesize(g, (21, 41), (1.0, -1.0))
        target = np.zeros(64)
        target[21], target[41] = 1.0, -1.0
        np.testing.assert_allclose(laplacian(g) @ x, target, atol=1e-9)

    def test_output_orthogonal_to_constants(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(3, 24))
            g = random_connected_graph(n, rng, weights="uniform")
            size = int(rng.integers(1, n + 1))
            support = rng.choice(n, size=size, replace=False).tolist()
            x = synthesize(g, support, rng.standard_normal(size))
            scale = max(1.0, np.abs(x).max())
            assert abs(float(x.sum())) < 1e-9 * scale

    def test_cyclic_shift_equivariance(self):
        spec = CirculantSpec(16, ((1, 1.0), (2, 1.0)))
        g = compile_circulant(spec)
        l_pinv = pseudoinverse(laplacian(g))
        base = synthesize(g, (2, 9), (1.0, -1.0))
        shifted = synthesize(g, (5, 12), (1.0, -1.0))
        assert np.abs(shifted - np.roll(base, 3)).max() < 1e-12

    def test_rejects_bad_support(self):
        g = cycle_graph(6)
        with pytest.raises(ValueError, match="out of range"):
            synthesize(g, (7,), (1.0,))
        with pytest.raises(ValueError, match="distinct"):
            synthesize(g, (1, 1), (1.0, 1.0))
        with pytest.raises(ValueError, match="count"):
            synthesize(g, (1, 2), (1.0,))

    def test_numerically_disconnected_graph_is_refused(self):
        g = Graph(5, ((0, 1, 1.0), (1, 2, 1e-300), (2, 3, 1.0), (3, 4, 1.0)))
        with pytest.raises(ValueError, match="numerically disconnected"):
            synthesize(g, (0, 4), (1.0, -1.0))

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError, match="non-finite"):
            synthesize(cycle_graph(5), (0, 1), (np.nan, 1.0))


class TestStructuredSparsity:
    def test_zero_sum_pulse_passes(self):
        c = np.zeros(8)
        c[2], c[5] = 1.0, -1.0
        assert structured_sparsity_check(c)

    def test_single_impulse_fails(self):
        assert not structured_sparsity_check(np.eye(8)[:, 0])

    def test_zero_sum_basis_columns_pass(self):
        cos = Cosupport.from_support(10, (1, 4, 7, 9))
        embedded = sampling_matrix(cos.complement, 10).T @ zero_sum_basis(4)
        for col in embedded.T:
            assert structured_sparsity_check(col)

    def test_zero_vector_passes(self):
        assert structured_sparsity_check(np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            structured_sparsity_check([1.0, bad, -1.0])


class TestEdgeKnotResidual:
    def test_four_cycle(self):
        assert edge_knot_residual(cycle_graph(4)) < 1e-10

    def test_complete_graph_with_scaled_transpose(self):
        g = complete_graph(4)
        assert edge_knot_residual(g) < 1e-10
        s_pinv = pseudoinverse(laplacian(g)) @ incidence(g).T
        np.testing.assert_allclose(s_pinv, incidence(g).T / 4.0, atol=1e-12)

    def test_banded_64(self):
        g = compile_circulant(CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))))
        assert edge_knot_residual(g) < 1e-9

    def test_random_graphs(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(3, 24)), rng, weights="uniform")
            scale = max(1.0, np.abs(incidence(g)).max())
            assert edge_knot_residual(g) < 1e-9 * scale

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 30),
        density=st.floats(0.0, 1.0),
        weights=st.sampled_from(["uniform", "integer"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gather_matches_dense_products(self, n, density, weights, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(n, rng, extra_edge_prob=density, weights=weights)
        lap = laplacian(g)
        st_mat = incidence(g).T
        root_max = max(1.0, float(np.sqrt(max(w for *_, w in g.edges))))
        dense = float(np.abs(lap @ (pseudoinverse(lap) @ st_mat) - st_mat).max())
        assert abs(edge_knot_residual(g) - dense) <= 1e-12 * root_max
        # the residual itself is rounding noise; on a random A the weights show
        a = rng.standard_normal((3, n))
        dense_a = float(np.abs(a @ st_mat).max())
        gathered = synthesis._max_abs_times_incidence_t(a.T.copy(), g)
        assert abs(gathered - dense_a) <= 1e-12 * root_max * max(1.0, dense_a)


class TestTwoHopKnots:
    def test_eight_cycle_atom(self):
        residual, match = two_hop_knot_check(cycle_graph(8), 0)
        assert residual < 1e-10
        assert match is True

    def test_detected_knots_are_the_laplacian_column_support(self):
        g = cycle_graph(8)
        lap = laplacian(g)
        col = (lap @ lap) @ pseudoinverse(lap)[:, 0]
        hits = {int(i) for i in np.flatnonzero(np.abs(col) > 1e-7 * np.abs(col).max())}
        assert hits == {0, 1, 7}

    def test_complete_graph_not_applicable(self):
        residual, match = two_hop_knot_check(complete_graph(4), 0)
        assert residual < 1e-10
        assert match is None

    def test_banded_64(self):
        g = compile_circulant(CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))))
        residual, match = two_hop_knot_check(g, 0)
        assert residual < 1e-9
        assert match is True

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 40),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        circulant=st.booleans(),
    )
    def test_applicability_matches_bfs_diameter(self, n, density, seed, circulant):
        # the all-pairs BFS stays the oracle for the pattern diameter test
        rng = np.random.default_rng(seed)
        if circulant and n >= 3:
            hops = [1] + [h for h in range(2, n // 2 + 1) if rng.random() < density]
            g = compile_circulant(CirculantSpec(n, tuple((h, 1.0) for h in hops)))
        else:
            g = random_connected_graph(n, rng, extra_edge_prob=density)
        _, match = two_hop_knot_check(g, int(rng.integers(n)))
        assert (match is None) == (not (hop_distances(g) > 2).any())

    def test_hop_reach_takes_no_bfs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("all-pairs BFS")

        monkeypatch.setattr(graphs, "hop_distances", refuse)
        g = compile_circulant(CirculantSpec(16, ((1, 1.0), (3, 2.0))))
        assert graphs.khop_localization_check(g, 2)
        assert two_hop_knot_check(g, 5)[1] is True
        assert two_hop_knot_check(complete_graph(5), 0)[1] is None


def _with(values, index, bad):
    arr = np.array(values, dtype=float)
    arr[index] = bad
    return arr


@pytest.mark.parametrize(
    "call",
    [
        lambda: piecewise_degree_profile(_with(np.arange(16.0) ** 2, 5, np.nan)),
        lambda: piecewise_degree_profile(_with(np.arange(16.0), 5, np.inf)),
        lambda: cyclic_difference(_with(np.arange(8.0), 3, np.nan), 2),
        lambda: spark_bruteforce(_with(cycle_pinv(5), (1, 1), np.nan)),
    ],
    ids=["profile_nan", "profile_inf", "cyclic_difference", "spark"],
)
def test_public_entry_points_reject_non_finite_input(call):
    with pytest.raises(ValueError, match="non-finite"):
        call()


class TestCyclicDifference:
    def test_second_difference_matches_negated_cycle_laplacian(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal(12)
        lap = laplacian(cycle_graph(12))
        np.testing.assert_allclose(cyclic_difference(x, 2), -(lap @ x), atol=1e-12)

    def test_first_difference(self):
        x = np.array([0.0, 1.0, 3.0, 0.0])
        np.testing.assert_array_equal(cyclic_difference(x, 1), [1.0, 2.0, -3.0, 0.0])

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            cyclic_difference(np.zeros(4), 0)


class TestPiecewiseProfile:
    def test_ramp_under_second_differences(self):
        prof = piecewise_degree_profile(np.arange(16.0), 2)
        assert prof.knots == (0, 15)
        degrees = [d for d in prof.segment_degrees if d is not None]
        assert degrees == [1]

    def test_quadratic_atom_single_knot(self):
        prof = piecewise_degree_profile(cycle_pinv(64)[:, 21], 2)
        assert prof.knots == (21,)
        assert prof.max_degree == 2

    def test_two_point_difference_piecewise_linear(self):
        mat = cycle_pinv(64)
        prof = piecewise_degree_profile(mat[:, 21] - mat[:, 41], 2)
        assert prof.knots == (21, 41)
        assert prof.max_degree <= 1

    def test_constant_signal_no_knots(self):
        prof = piecewise_degree_profile(np.full(10, 3.0), 2)
        assert prof.knots == ()
        assert prof.segment_degrees == (0,)

    def test_piecewise_constant_under_first_differences(self):
        x = np.zeros(12)
        x[4:8] = 1.0
        prof = piecewise_degree_profile(x, 1)
        assert prof.max_degree == 0
        assert len(prof.knots) == 2

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            piecewise_degree_profile(np.zeros(8), 3)

    def test_rejects_empty_signal(self):
        # numpy would warn "Mean of empty slice", then fail on an empty max
        with pytest.raises(ValueError, match="signal is empty"):
            piecewise_degree_profile([])


def _reference_profile(x, order: int) -> PiecewiseProfile:
    """The index-at-a-time profile: a while loop walks each run between
    knots, and each run's values are gathered by an index list."""
    vec = np.asarray(x, dtype=float)
    n = vec.size
    out = cyclic_difference(vec, order)
    dev = np.abs(out - np.median(out))
    scale = float(dev.max())
    if scale <= ZERO_FLOOR:
        knots = ()
    else:
        knots = tuple(int(i) for i in np.flatnonzero(dev > KNOT_TOL * scale))
    if not knots:
        segments = (tuple(range(n)),)
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

    def degree(vals):
        m = vals.size
        if m <= 1:
            return 0
        scale = max(float(np.abs(vals).max()), 1.0)
        for p in range(0, m - 1):
            if float(np.abs(np.diff(vals, p + 1)).max()) <= KNOT_TOL * scale:
                return p
        return m - 1

    degrees = tuple(degree(vec[list(run)]) if run else None for run in segments)
    return PiecewiseProfile(knots, segments, degrees, order)


@st.composite
def _cyclic_signals(draw):
    """Integer pieces on a cyclic grid: a constant or a ramp (knots where it
    wraps) plus spikes, which may touch each other or sit at 0 and n - 1."""
    n = draw(st.integers(1, 40))
    x = np.full(n, float(draw(st.integers(-3, 3))))
    x += draw(st.integers(-2, 2)) * np.arange(n) + draw(st.integers(-1, 1)) * np.arange(n) ** 2
    for pos in draw(st.lists(st.integers(0, n - 1), max_size=6)):
        x[pos] += draw(st.integers(-9, 9))
    if draw(st.booleans()):
        x += draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return x


_ORDERS = st.sampled_from([1, 2, 4])
_SHAPED = {
    "no_knots": np.full(9, 2.0),
    "wrapping_run": np.where(np.arange(12) == 5, 4.0, 0.0),
    "adjacent_knots": np.array([0.0, 0.0, 0.0, 0.0, 3.0, -1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
}


class TestProfileAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(x=_cyclic_signals(), order=_ORDERS)
    @example(x=_SHAPED["no_knots"], order=2)
    @example(x=_SHAPED["wrapping_run"], order=1)
    @example(x=_SHAPED["adjacent_knots"], order=4)
    def test_matches_the_while_loop(self, x, order):
        assert piecewise_degree_profile(x, order) == _reference_profile(x, order)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_shaped_cases_cover_what_they_name(self, order):
        none = _reference_profile(_SHAPED["no_knots"], order)
        assert none.knots == () and none == piecewise_degree_profile(_SHAPED["no_knots"], order)
        wrap = _reference_profile(_SHAPED["wrapping_run"], order)
        assert any(run and run[0] > run[-1] for run in wrap.segments)
        assert wrap == piecewise_degree_profile(_SHAPED["wrapping_run"], order)
        adjacent = _reference_profile(_SHAPED["adjacent_knots"], order)
        assert () in adjacent.segments
        assert adjacent == piecewise_degree_profile(_SHAPED["adjacent_knots"], order)


class TestModelDegreeReport:
    def test_pure_cycle_degrees(self):
        report = model_degree_report(
            CirculantSpec(16, ((1, 1.0),)), Cosupport.from_support(16, (3, 11))
        )
        assert report.passed
        assert report.analysis_max_degree == 1
        assert report.synthesis_max_degree == 2
        assert report.factorization_residual < 1e-12

    def test_banded_64(self):
        report = model_degree_report(
            CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))),
            Cosupport.from_support(64, (21, 41)),
        )
        assert report.passed
        assert report.analysis_max_degree <= 1
        assert report.synthesis_max_degree == 2
        # the raw (perturbed) signals do deviate from exact piecewise linearity
        assert report.perturbed_offknot_second_difference > 1e-6

    def test_two_hop_32(self):
        report = model_degree_report(
            CirculantSpec(32, ((1, 1.0), (2, 1.0))), Cosupport.from_support(32, (4, 20))
        )
        assert report.passed

    def test_cosupport_of_another_size_is_refused(self):
        # the basis comes from nullspace_basis, whose size guard applies
        with pytest.raises(ValueError, match="sizes differ"):
            model_degree_report(
                CirculantSpec(16, ((1, 1.0),)), Cosupport.from_support(32, (20, 25))
            )

    def test_full_cosupport_is_refused(self):
        with pytest.raises(ValueError, match="cosupport covers every vertex"):
            model_degree_report(CirculantSpec(16, ((1, 1.0),)), Cosupport(16, tuple(range(16))))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(5, 160),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["unit", "integer", "uniform"]),
    )
    def test_one_atom_decides_every_atom(self, n, seed, kind):
        # the oracle profiles all n atoms, the columns of the dense P L^+
        rng = np.random.default_rng(seed)
        spec = graphs.random_circulant_spec(n, rng, weights=kind)
        cos = Cosupport.from_support(n, rng.choice(n, size=2, replace=False).tolist())
        report = model_degree_report(spec, cos)
        atoms = [piecewise_degree_profile(col, 2)
                 for col in (perturbation_factor(spec).to_matrix() @ laplacian_pinv(spec)).T]
        degree = max(prof.max_degree for prof in atoms)
        assert report.synthesis_max_degree == degree
        assert report.synthesis_ok == (
            all(prof.knots == (j,) for j, prof in enumerate(atoms)) and degree <= 2
        )


class TestSpectralFactorization:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(5, 96),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["unit", "integer", "uniform"]),
    )
    def test_residual_matches_the_dense_product(self, n, seed, kind):
        # passes at the dense-product implementation too: it pins the spectral
        # residual to the dense one and the verdict to what the dense one gives
        rng = np.random.default_rng(seed)
        spec = graphs.random_circulant_spec(n, rng, weights=kind)
        cos = Cosupport.from_support(n, rng.choice(n, size=2, replace=False).tolist())
        report = model_degree_report(spec, cos)
        l_pinv = laplacian_pinv(spec)
        dense = float(np.abs(transform_inverse(perturbation_factor(spec)) @ cycle_pinv(n)
                             - l_pinv).max())
        assert abs(report.factorization_residual - dense) <= 1e-13 * max(
            1.0, float(np.abs(l_pinv).max()))
        assert report.passed == (report.analysis_ok and report.synthesis_ok
                                 and dense <= report.residual_tol)


class TestCirculantPath:
    def test_degree_report_and_absorption_skip_the_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on a circulant input")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        spec = CirculantSpec(32, ((1, 1.0), (2, 1.0)))
        assert model_degree_report(spec, Cosupport.from_support(32, (4, 20))).passed
        assert absorb_discontinuity(spec, 0, 2, 9)[2].passed

    def test_degree_report_and_absorption_never_build_the_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("edge walk on a circulant input")

        monkeypatch.setattr(graphs, "adjacency", refuse)
        monkeypatch.setattr(graphs, "_neighbor_lists", refuse)
        spec = CirculantSpec(32, ((1, 1.0), (2, 1.0)))
        assert model_degree_report(spec, Cosupport.from_support(32, (4, 20))).passed
        assert absorb_discontinuity(spec, 0, 2, 9)[2].passed

    def test_absorption_forms_no_dense_matrix(self, monkeypatch):
        # the verify suite's cases, with the supports the dense products gave
        cases = [
            (CirculantSpec(12, ((1, 1.0),)), (3, 2, 7), (5, 10), (5, 10)),
            (CirculantSpec(16, ((1, 1.0), (2, 1.0))), (0, 2, 9), (2, 9), (1, 2, 3, 8, 9, 10)),
            (
                CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))),
                (0, 21, 41),
                (21, 41),
                (19, 20, 21, 22, 23, 39, 40, 41, 42, 43),
            ),
        ]
        dense = [laplacian_pinv(spec) for spec, *_ in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("dense n x n matrix on the absorption path")

        monkeypatch.setattr(graphs, "_circulant", refuse)
        monkeypatch.setattr(circulant, "_circulant", refuse)
        monkeypatch.setattr(graphs, "laplacian", refuse)
        monkeypatch.setattr(synthesis, "laplacian", refuse)
        for (spec, args, cycle_support, lap_support), l_pinv in zip(cases, dense):
            p, x, report = absorb_discontinuity(spec, *args)
            assert report.passed
            assert report.cycle_support == cycle_support
            assert report.laplacian_support == lap_support
            want = l_pinv @ p
            assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()

    def test_degree_report_multiplies_no_dense_circulants(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense n x n circulant on the degree report")

        for name in ("transform_inverse", "cycle_pinv"):
            monkeypatch.setattr(circulant, name, refuse)
            monkeypatch.setattr(synthesis, name, refuse, raising=False)
        spec = CirculantSpec(32, ((1, 1.0), (2, 1.0)))
        assert model_degree_report(spec, Cosupport.from_support(32, (4, 20))).passed

    def test_degree_report_takes_no_dense_inverse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense inverse of the factor P")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        spec = CirculantSpec(32, ((1, 1.0), (2, 1.0)))
        assert model_degree_report(spec, Cosupport.from_support(32, (4, 20))).passed


class TestEdgeGather:
    def test_knot_identities_never_build_the_incidence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense incidence matrix")

        monkeypatch.setattr(graphs, "incidence", refuse)
        monkeypatch.setattr(synthesis, "incidence", refuse, raising=False)
        g = compile_circulant(CirculantSpec(64, ((1, 1.0), (2, 3.0), (3, 2.0))))
        assert edge_knot_residual(g) < 1e-9
        res_s, res_l = complete_graph_identities(10)
        assert res_s < 1e-11
        assert res_l < 1e-11

    def test_no_edges(self):
        assert edge_knot_residual(Graph(1, ())) == 0.0


# Connected by BFS, but the 1e-300 edge sits below the eigensolve's zero cutoff.
NUMERICALLY_DISCONNECTED_PATH = Graph(5, ((0, 1, 1.0), (1, 2, 1e-300), (2, 3, 1.0), (3, 4, 1.0)))


@pytest.mark.parametrize(
    "call",
    [
        lambda g: two_hop_knot_check(g, 0),
        edge_knot_residual,
        lambda g: randomized_uniqueness_check(g, 2, 6, trials=3),
    ],
    ids=["two_hop_knot_check", "edge_knot_residual", "randomized_uniqueness_check"],
)
def test_numerically_disconnected_graph_is_refused(call):
    with pytest.raises(ValueError, match="numerically disconnected"):
        call(NUMERICALLY_DISCONNECTED_PATH)


class TestCompleteGraphIdentities:
    def test_n4(self):
        res_s, res_l = complete_graph_identities(4)
        assert res_s < 1e-12
        assert res_l < 1e-12

    def test_smallest_case(self):
        g = complete_graph(2)
        lap = laplacian(g)
        np.testing.assert_array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(pseudoinverse(lap), lap / 4.0, atol=1e-12)

    def test_n10(self):
        res_s, res_l = complete_graph_identities(10)
        assert res_s < 1e-11
        assert res_l < 1e-11


class TestAbsorbDiscontinuity:
    def test_cycle_factor_reduces_to_pulse(self):
        p, x, report = absorb_discontinuity(CirculantSpec(12, ((1, 1.0),)), 3, 2, 7)
        expected = np.zeros(12)
        expected[5], expected[10] = 1.0, -1.0
        np.testing.assert_allclose(p, expected, atol=1e-12)
        assert report.cycle_support == (5, 10)
        assert report.passed

    def test_two_hop_16(self):
        p, x, report = absorb_discontinuity(CirculantSpec(16, ((1, 1.0), (2, 1.0))), 0, 2, 9)
        assert report.cycle_support == (2, 9)
        assert report.laplacian_support == (1, 2, 3, 8, 9, 10)
        assert report.passed
        # the signal is annihilated by the graph Laplacian away from supp(p)
        count, cos = cosparsity(compile_circulant(CirculantSpec(16, ((1, 1.0), (2, 1.0)))), x)
        assert set(cos.complement) == set(report.laplacian_support)

    def test_banded_64(self):
        _, _, report = absorb_discontinuity(
            CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))), 0, 21, 41
        )
        assert report.cycle_support == (21, 41)
        assert report.passed

    def test_rejects_equal_pulse_points(self):
        with pytest.raises(ValueError, match="differ"):
            absorb_discontinuity(CirculantSpec(8, ((1, 1.0),)), 0, 3, 3)


class TestModelClosure:
    def test_analysis_signals_have_structured_laplacian_images(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            n = int(rng.integers(4, 20))
            g = random_connected_graph(n, rng)
            size = int(rng.integers(1, n))
            members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            basis = nullspace_basis(g, Cosupport(n, members))
            x = basis.matrix() @ rng.standard_normal(basis.dim)
            count, recovered = cosparsity(g, x)
            assert set(members) <= set(recovered.members)
            if count < n:
                assert structured_sparsity_check(laplacian(g) @ x)

    def test_projection_identity_random(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            g = random_connected_graph(n, rng, weights="uniform")
            lap = laplacian(g)
            prod = lap @ pseudoinverse(lap)
            centering = np.eye(n) - np.ones((n, n)) / n
            assert np.abs(prod - centering).max() < 1e-9
