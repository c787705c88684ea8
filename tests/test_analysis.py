"""Nullspace bases of sampled Laplacians, cosparsity and uniqueness measures."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lapsig import analysis
from lapsig.analysis import (
    cosparsity,
    max_cosparse_dim_bruteforce,
    nullspace_basis,
    randomized_uniqueness_check,
    sampling_matrix,
    spark_bruteforce,
    uniqueness_bound,
    zero_sum_basis,
)
from lapsig.circulant import cycle_pinv, laplacian_pinv
from lapsig.graphs import (
    CirculantSpec,
    Cosupport,
    Graph,
    compile_circulant,
    complete_graph,
    cycle_graph,
    laplacian,
    random_circulant_spec,
    random_connected_graph,
)
from lapsig.linalg import column_space_equal, nullspace_oracle, pseudoinverse, rank
from lapsig.synthesis import model_degree_report


@st.composite
def _connected_inputs(draw, n_max=260):
    """A connected Graph or CirculantSpec, with any weight kind, and a cosupport
    whose complement holds 1 to 40 vertices (from about 17 on, the layout of
    the gathered columns can change how BLAS rounds the basis product)."""
    n = draw(st.integers(3, n_max))
    size = draw(st.integers(1, min(n, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("unit", "integer", "uniform")))
    make = draw(st.sampled_from((random_connected_graph, random_circulant_spec)))
    g = make(n, rng, weights=kind)
    return g, Cosupport.from_support(n, rng.choice(n, size=size, replace=False))


class TestZeroSumBasis:
    def test_smallest_cases(self):
        assert zero_sum_basis(1).shape == (1, 0)
        np.testing.assert_array_equal(zero_sum_basis(2), [[1.0], [-1.0]])
        np.testing.assert_array_equal(zero_sum_basis(3), [[2, 0], [-1, 1], [-1, -1]])

    @pytest.mark.parametrize("m", [2, 3, 5, 9])
    def test_columns_sum_to_zero_with_full_rank(self, m):
        w = zero_sum_basis(m)
        np.testing.assert_allclose(w.sum(axis=0), np.zeros(m - 1), atol=1e-12)
        assert rank(w) == m - 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zero_sum_basis(0)


class TestSamplingMatrix:
    def test_selects_rows(self):
        psi = sampling_matrix((2, 0), 4)
        np.testing.assert_array_equal(psi, [[0, 0, 1, 0], [1, 0, 0, 0]])

    def test_empty_selection(self):
        assert sampling_matrix((), 5).shape == (0, 5)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            sampling_matrix((5,), 4)

    @pytest.mark.parametrize("bad", [2.7, float("inf"), float("nan")])
    def test_refuses_an_index_that_is_not_whole(self, bad):
        with pytest.raises(ValueError, match="^index must be a whole number"):
            sampling_matrix([bad], 4)

    def test_takes_whole_floats_and_numpy_integers(self):
        np.testing.assert_array_equal(sampling_matrix([2.0, np.int64(0)], 4),
                                      sampling_matrix([2, 0], 4))


class TestNullspaceBasis:
    def test_single_support_vertex_is_constants_only(self):
        g = cycle_graph(6)
        basis = nullspace_basis(g, Cosupport.from_support(6, (3,)))
        assert basis.smooth_part.shape == (6, 0)
        assert basis.dim == 1
        np.testing.assert_array_equal(basis.matrix()[:, 0], np.ones(6))

    def test_eight_cycle_two_point_support(self):
        g = cycle_graph(8)
        cos = Cosupport.from_support(8, (2, 5))
        basis = nullspace_basis(g, cos)
        mat = basis.matrix()
        assert rank(mat) == 2
        # the smooth column spans the pseudoinverse image of e_2 - e_5
        target = pseudoinverse(laplacian(g)) @ (np.eye(8)[:, 2] - np.eye(8)[:, 5])
        assert column_space_equal(basis.smooth_part, target[:, None])
        # annihilated on the cosupport rows
        sampled = sampling_matrix(cos.members, 8) @ laplacian(g)
        assert np.abs(sampled @ mat).max() < 1e-9

    def test_banded_64_contains_two_point_difference_signal(self):
        spec = CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0)))
        g = compile_circulant(spec)
        l_pinv = pseudoinverse(laplacian(g))
        basis = nullspace_basis(g, Cosupport.from_support(64, (21, 41)))
        signal = l_pinv @ (np.eye(64)[:, 21] - np.eye(64)[:, 41])
        np.testing.assert_allclose(basis.smooth_part[:, 0], signal, atol=1e-12)

    def test_numerically_disconnected_graph_is_refused(self):
        # connected by BFS, but the 1e-300 edge sits below the eigensolve's
        # zero cutoff: the basis would silently differ from the SVD oracle
        g = Graph(5, ((0, 1, 1.0), (1, 2, 1e-300), (2, 3, 1.0), (3, 4, 1.0)))
        with pytest.raises(ValueError, match="numerically disconnected.*cutoff"):
            nullspace_basis(g, Cosupport.from_support(5, (0, 4)))

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(3, 20))
            g = random_connected_graph(n, rng)
            size = int(rng.integers(0, n))
            cos = Cosupport(n, tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
            basis = nullspace_basis(g, cos).matrix()
            sampled = sampling_matrix(cos.members, n) @ laplacian(g)
            assert rank(basis) == len(cos.complement)
            assert column_space_equal(basis, nullspace_oracle(sampled))

    def test_sampled_rows_have_full_rank(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(3, 20))
            g = random_connected_graph(n, rng, weights="uniform")
            size = int(rng.integers(1, n))
            members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            sampled = sampling_matrix(members, n) @ laplacian(g)
            assert rank(sampled) == size

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_connected_inputs())
    @example(  # above LAPACK's block size: the column solve against the full one
        (random_connected_graph(300, np.random.default_rng(300), 4.0 / 300),
         Cosupport.from_support(300, range(3, 300, 8)))
    )
    def test_smooth_part_is_the_selection_product_bit_for_bit(self, case):
        g, cos = case
        comp = cos.complement
        expected = (laplacian_pinv(g) @ sampling_matrix(comp, g.n).T
                    @ zero_sum_basis(len(comp)))
        np.testing.assert_array_equal(nullspace_basis(g, cos).smooth_part, expected)

    def test_no_selection_matrix_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("n x m selection matrix")

        monkeypatch.setattr(analysis, "sampling_matrix", refuse)
        spec = CirculantSpec(32, ((1, 1.0), (2, 1.0)))
        cos = Cosupport.from_support(32, (4, 20))
        assert nullspace_basis(spec, cos).dim == 2
        assert randomized_uniqueness_check(cycle_graph(6), 4, 4, trials=5).passed
        assert model_degree_report(spec, cos).passed

    def test_rejects_disconnected(self):
        g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.raises(ValueError, match="connected"):
            nullspace_basis(g, Cosupport(4, (0,)))

    def test_rejects_full_cosupport(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError, match="span"):
            nullspace_basis(g, Cosupport(5, (0, 1, 2, 3, 4)))

    def test_minimum_cycle_every_cosupport(self):
        # smallest connected circulant: n = 3, every admissible cosupport
        g = cycle_graph(3)
        for members in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            cos = Cosupport(3, members)
            basis = nullspace_basis(g, cos).matrix()
            sampled = sampling_matrix(members, 3) @ laplacian(g)
            assert rank(basis) == 3 - len(members)
            assert column_space_equal(basis, nullspace_oracle(sampled))


class TestCosparsity:
    def test_constant_signal_fully_annihilated(self):
        g = cycle_graph(6)
        count, cos = cosparsity(g, np.ones(6))
        assert count == 6
        assert cos.members == tuple(range(6))

    def test_two_point_difference_signal(self):
        g = cycle_graph(8)
        x = cycle_pinv(8) @ (np.eye(8)[:, 2] - np.eye(8)[:, 5])
        count, cos = cosparsity(g, x)
        assert count == 6
        assert cos.complement == (2, 5)

    def test_single_atom_has_no_zeros(self):
        g = cycle_graph(8)
        x = pseudoinverse(laplacian(g))[:, 0]
        count, cos = cosparsity(g, x)
        assert count == 0
        assert cos.members == ()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_signal(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            cosparsity(cycle_graph(5), [bad] * 5)


class TestCosparseDimension:
    def test_closed_form(self):
        g = cycle_graph(8)
        assert max_cosparse_dim_bruteforce(g, 6) == 2
        assert max_cosparse_dim_bruteforce(g, 0) == 8

    def test_bruteforce_six_cycle(self):
        g = cycle_graph(6)
        assert max_cosparse_dim_bruteforce(g, 4) == 2

    def test_bruteforce_matches_closed_form(self):
        g = compile_circulant(CirculantSpec(5, ((1, 1.0), (2, 1.0))))
        for level in range(5):
            assert max_cosparse_dim_bruteforce(g, level) == g.n - level


class TestUniqueness:
    def test_bound_values(self):
        assert uniqueness_bound(8, 6) == 4
        assert uniqueness_bound(8, 0) == 16
        assert uniqueness_bound(8, 8) == 0

    def test_bound_rejects_bad_level(self):
        with pytest.raises(ValueError):
            uniqueness_bound(8, 9)

    def test_randomized_probe_at_the_bound(self):
        g = cycle_graph(6)
        check = randomized_uniqueness_check(g, 4, 4, trials=100, seed=42)
        assert check.passed
        assert check.min_gap > 1e-6

    def test_deterministic_given_seed(self):
        g = cycle_graph(6)
        a = randomized_uniqueness_check(g, 4, 4, trials=20, seed=7)
        b = randomized_uniqueness_check(g, 4, 4, trials=20, seed=7)
        assert a.min_gap == b.min_gap

    @pytest.mark.parametrize("trials", [0, -3])
    def test_probe_without_trials_is_refused(self, trials):
        # a probe that ran no trial must not report a pass
        with pytest.raises(ValueError, match="trials"):
            randomized_uniqueness_check(cycle_graph(6), 4, 4, trials=trials)

    @pytest.mark.parametrize("m", [0, -1])
    def test_probe_without_measurements_is_refused(self, m):
        # m = 0 would run every trial and report min_gap 0.0
        with pytest.raises(ValueError, match="measurement count"):
            randomized_uniqueness_check(cycle_graph(6), 4, m)


class TestSpark:
    def test_closed_form_values(self):
        assert spark_bruteforce(pseudoinverse(laplacian(cycle_graph(5)))) == 5
        assert spark_bruteforce(pseudoinverse(laplacian(complete_graph(4)))) == 4

    def test_bruteforce_two_hop_six(self):
        g = compile_circulant(CirculantSpec(6, ((1, 1.0), (2, 1.0))))
        l_pinv = pseudoinverse(laplacian(g))
        assert spark_bruteforce(l_pinv) == 6
        # every 5-column subset keeps a healthy smallest singular value
        for subset in itertools.combinations(range(6), 5):
            s = np.linalg.svd(l_pinv[:, list(subset)], compute_uv=False)
            assert s[-1] > 1e-8

    def test_bruteforce_detects_duplicate_column(self):
        a = np.eye(4)
        a[:, 3] = a[:, 0]
        assert spark_bruteforce(a) == 2

    def test_bruteforce_full_rank_square(self):
        assert spark_bruteforce(np.eye(3)) == 4
