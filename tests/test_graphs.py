"""Graph construction, circulant compilation and the difference operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsig.graphs import (
    CirculantSpec,
    Cosupport,
    Graph,
    adjacency,
    compile_circulant,
    complete_graph,
    connected_components,
    cycle_graph,
    circulant_spec_from_json,
    format_edge_list,
    graph_from_json,
    hop_distances,
    incidence,
    khop_localization_check,
    laplacian,
    parse_edge_list,
    random_connected_graph,
    random_circulant_spec,
    _circulant,
    _within_hops,
)
from lapsig.linalg import rank


class TestGraphValidation:
    def test_canonicalises_orientation_and_order(self):
        g = Graph(4, ((3, 1, 2.0), (0, 1, 1.0)))
        assert g.edges == ((0, 1, 1.0), (1, 3, 2.0))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, ((1, 1, 1.0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, ((0, 3, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            Graph(3, ((0, 1, 0.0),))

    def test_weight_defaults_to_one(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert g.edges[0][2] == 1.0


class TestCirculantCompile:
    def test_four_cycle(self):
        g = compile_circulant(CirculantSpec(4, ((1, 1.0),)))
        assert g.edges == ((0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0))

    def test_banded_64_structure(self):
        g = compile_circulant(CirculantSpec(64, ((1, 1.0), (2, 1.0), (3, 1.0))))
        assert g.num_edges == 3 * 64
        deg = adjacency(g).sum(axis=1)
        np.testing.assert_array_equal(deg, np.full(64, 6.0))
        a = adjacency(g)
        assert a[0, 1] == a[0, 2] == a[0, 3] == 1.0
        assert a[0, 61] == a[0, 62] == a[0, 63] == 1.0
        assert a[0, 4] == 0.0

    def test_wrap_hop_emitted_once(self):
        # hop 3 on n=6 pairs each vertex with its antipode: 3 extra edges, degree 3
        g = compile_circulant(CirculantSpec(6, ((1, 1.0), (3, 1.0))))
        wrap = [e for e in g.edges if (e[1] - e[0]) == 3]
        assert wrap == [(0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)]
        np.testing.assert_array_equal(adjacency(g).sum(axis=1), np.full(6, 3.0))

    def test_rejects_generator_out_of_range(self):
        with pytest.raises(ValueError, match="generator"):
            CirculantSpec(8, ((5, 1.0),))
        with pytest.raises(ValueError, match="generator"):
            CirculantSpec(8, ((0, 1.0),))

    def test_rejects_duplicate_generator(self):
        with pytest.raises(ValueError, match="duplicate"):
            CirculantSpec(8, ((2, 1.0), (2, 2.0)))


class TestLaplacian:
    def test_four_cycle_first_row(self):
        lap = laplacian(cycle_graph(4))
        np.testing.assert_array_equal(lap[0], [2.0, -1.0, 0.0, -1.0])

    def test_complete_graph_closed_form(self):
        n = 4
        lap = laplacian(complete_graph(n))
        np.testing.assert_array_equal(lap, n * np.eye(n) - np.ones((n, n)))

    def test_banded_8_first_row(self):
        # D - A for hops {1, 2} with unit weights: degree 4
        lap = laplacian(compile_circulant(CirculantSpec(8, ((1, 1.0), (2, 1.0)))))
        np.testing.assert_array_equal(lap[0], [4, -1, -1, 0, 0, 0, -1, -1])

    def test_rows_sum_to_zero_exactly_for_integer_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(2, 20)), rng, weights="integer")
            assert np.abs(laplacian(g).sum(axis=1)).max() == 0.0

    def test_rows_sum_to_zero_for_float_weights(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(2, 20)), rng, weights="uniform")
            assert np.abs(laplacian(g).sum(axis=1)).max() < 1e-12

    def test_circulant_laplacian_rows_are_cyclic_shifts(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            spec = random_circulant_spec(int(rng.integers(5, 30)), rng, weights="integer")
            lap = laplacian(compile_circulant(spec))
            for i in range(1, spec.n):
                np.testing.assert_array_equal(lap[i], np.roll(lap[0], i))

    def test_circulant_rows_shift_within_rounding_for_float_weights(self):
        # float degree sums can differ by an ulp between rows
        rng = np.random.default_rng(10)
        for _ in range(10):
            spec = random_circulant_spec(int(rng.integers(5, 30)), rng, weights="uniform")
            lap = laplacian(compile_circulant(spec))
            for i in range(1, spec.n):
                np.testing.assert_allclose(lap[i], np.roll(lap[0], i), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 64])
    def test_circulant_rows_equal_the_index_formula(self, n):
        row = np.random.default_rng(n).standard_normal(n)
        idx = np.arange(n)
        np.testing.assert_array_equal(_circulant(row), row[(idx[None, :] - idx[:, None]) % n])


class TestIncidence:
    def test_single_weighted_edge(self):
        g = Graph(2, ((0, 1, 4.0),))
        s = incidence(g)
        np.testing.assert_array_equal(s, [[2.0, -2.0]])
        np.testing.assert_array_equal(s.T @ s, [[4.0, -4.0], [-4.0, 4.0]])

    def test_gram_identity_four_cycle(self):
        g = cycle_graph(4)
        s = incidence(g)
        assert np.abs(s.T @ s - laplacian(g)).max() < 1e-12

    def test_complete_graph_unit_rows(self):
        s = incidence(complete_graph(4))
        assert s.shape == (6, 4)
        for row in s:
            assert sorted(row) == [-1.0, 0.0, 0.0, 1.0]

    def test_row_sign_flips_leave_gram_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(3, 15)), rng)
            s = incidence(g)
            flipped = s.copy()
            mask = rng.random(s.shape[0]) < 0.5
            flipped[mask] *= -1.0
            np.testing.assert_allclose(flipped.T @ flipped, laplacian(g), atol=1e-12)

    def test_gram_identity_random(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(2, 25)), rng, weights="uniform")
            s = incidence(g)
            gap = np.abs(s.T @ s - laplacian(g)).max()
            assert gap < 1e-12 * max(1.0, np.abs(laplacian(g)).max())


class TestConnectivity:
    def test_cycle_is_connected(self):
        assert connected_components(cycle_graph(4)) == 1

    def test_two_disjoint_edges(self):
        assert connected_components(Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))) == 2

    def test_even_hop_splits_cycle(self):
        # hop 2 on n=6 leaves the even and odd triangles disconnected
        assert connected_components(compile_circulant(CirculantSpec(6, ((2, 1.0),)))) == 2

    def test_rank_matches_components(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(2, 16))
            g = random_connected_graph(n, rng, extra_edge_prob=0.1)
            # split off some vertices to create extra components
            keep = [e for e in g.edges if e[1] < max(2, n - int(rng.integers(0, n // 2)))]
            g2 = Graph(n, tuple(keep))
            assert rank(laplacian(g2)) == n - connected_components(g2)


class TestHopLocalization:
    def test_first_power_always_localized(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(3, 15)), rng)
            assert khop_localization_check(g, 1)

    def test_eight_cycle_squared(self):
        g = cycle_graph(8)
        lap2 = np.linalg.matrix_power(laplacian(g), 2)
        assert lap2[0, 2] == 1.0
        assert lap2[0, 4] == 0.0
        assert khop_localization_check(g, 2)

    def test_complete_graph_vacuous(self):
        assert khop_localization_check(complete_graph(4), 2)

    def test_hop_distances_on_cycle(self):
        dist = hop_distances(cycle_graph(6))
        assert dist[0, 3] == 3
        assert dist[0, 5] == 1
        assert dist[2, 2] == 0

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            khop_localization_check(cycle_graph(4), 0)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 40),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["connected", "disconnected", "circulant"]),
    )
    def test_within_hops_matches_bfs(self, n, density, seed, kind):
        # the all-pairs BFS is the oracle for the (I + A)^k pattern
        rng = np.random.default_rng(seed)
        if kind == "circulant" and n >= 2:
            hops = [h for h in range(1, n // 2 + 1) if rng.random() < density] or [n // 2]
            g = compile_circulant(CirculantSpec(n, tuple((h, 1.0) for h in hops)))
        else:
            g = random_connected_graph(n, rng, extra_edge_prob=density)
            if kind == "disconnected":
                g = Graph(n, tuple(e for e in g.edges if rng.random() < 0.7))
        dist = hop_distances(g)
        for k in range(1, 5):
            np.testing.assert_array_equal(_within_hops(laplacian(g), k),
                                          (dist >= 0) & (dist <= k))


class TestCosupport:
    def test_complement(self):
        cos = Cosupport(5, (0, 2, 4))
        assert cos.complement == (1, 3)
        assert cos.size == 3

    def test_from_support(self):
        cos = Cosupport.from_support(8, (2, 5))
        assert cos.members == (0, 1, 3, 4, 6, 7)
        assert cos.complement == (2, 5)

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError):
            Cosupport(4, (1, 1))
        with pytest.raises(ValueError):
            Cosupport(4, (4,))
        with pytest.raises(ValueError):
            Cosupport.from_support(4, (9,))


class TestSerialisation:
    def test_circulant_json(self):
        spec = circulant_spec_from_json('{"n": 8, "generators": [[1, 1.0], [2, 0.5]]}')
        assert spec == CirculantSpec(8, ((1, 1.0), (2, 0.5)))

    def test_malformed_json_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            graph_from_json('{"edges": []}')

    def test_edge_list_roundtrip(self):
        g = Graph(4, ((0, 1, 1.25), (1, 3, 2.0)))
        assert parse_edge_list(format_edge_list(g)) == g

    def test_edge_list_keeps_isolated_last_vertex(self):
        # the "# n=N" header, not the largest endpoint, gives the vertex count
        g = Graph(5, ((0, 1), (1, 2), (2, 3)))
        assert parse_edge_list(format_edge_list(g)) == g
        assert parse_edge_list("# n=4\n").n == 4
        with pytest.raises(ValueError, match="out of range"):
            parse_edge_list("# n=3\n0 3\n")

    def test_edge_list_parsing(self):
        text = "# a comment\n0 1 2.0\n1 2   # trailing comment, unit weight\n\n"
        g = parse_edge_list(text)
        assert g.n == 3
        assert g.edges == ((0, 1, 2.0), (1, 2, 1.0))

    def test_edge_list_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("0 1 2 3")


class TestRandomGenerators:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graph_connected(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(1, 30)), rng)
            assert connected_components(g) == 1

    def test_random_circulant_spec_band(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            spec = random_circulant_spec(n, rng)
            assert 1 in spec.hops
            assert 2 * spec.bandwidth < n


def _scalar_random_connected_graph(n, rng, extra_edge_prob, weights):
    """Reference: the per-pair loop, one scalar draw per pair and weight."""
    order = [int(v) for v in rng.permutation(n)]
    chosen = set()
    for idx in range(1, n):
        u = order[idx]
        v = order[int(rng.integers(0, idx))]
        chosen.add((min(u, v), max(u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in chosen and rng.random() < extra_edge_prob:
                chosen.add((i, j))
    return Graph(n, tuple((i, j, _scalar_weight(rng, weights)) for i, j in sorted(chosen)))


def _scalar_random_circulant_spec(n, rng, weights):
    hops = {1}
    for h in range(2, (n - 1) // 2 + 1):
        if len(hops) >= 4:
            break
        if rng.random() < 0.4:
            hops.add(h)
    return CirculantSpec(n, tuple((h, _scalar_weight(rng, weights)) for h in sorted(hops)))


def _scalar_weight(rng, kind):
    if kind == "unit":
        return 1.0
    if kind == "integer":
        return float(rng.integers(1, 6))
    return float(rng.uniform(0.5, 2.0))


KINDS = st.sampled_from(["unit", "integer", "uniform"])
SEEDS = st.integers(0, 2**32 - 1)
PROBS = st.one_of(st.sampled_from([0.0, 0.15, 1.0]), st.floats(0.0, 1.0))


class TestGeneratorStreams:
    """The array draws take exactly the stream the scalar loops took: the
    same graph, and the generator left in the same state."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(SEEDS, st.integers(1, 64), KINDS, PROBS)
    def test_random_connected_graph_matches_scalar_draws(self, seed, n, kind, prob):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _scalar_random_connected_graph(n, a, prob, kind)
        assert random_connected_graph(n, b, prob, kind) == expected
        assert b.random() == a.random()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(SEEDS, st.integers(3, 64), KINDS)
    def test_random_circulant_spec_matches_scalar_draws(self, seed, n, kind):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _scalar_random_circulant_spec(n, a, kind)
        assert random_circulant_spec(n, b, kind) == expected
        assert b.random() == a.random()

    def test_rejects_unknown_weight_kind(self):
        with pytest.raises(ValueError, match="weight kind"):
            random_connected_graph(4, np.random.default_rng(0), weights="gamma")
