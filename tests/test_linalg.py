"""Eigendecomposition, pseudoinversion, rank, subspace comparison and the
byte-exact "%.16e" CSV writer."""

import io
import math
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsig import cli, linalg

from lapsig.graphs import (
    CirculantSpec,
    compile_circulant,
    complete_graph,
    cycle_graph,
    laplacian,
    random_connected_graph,
)
from lapsig.linalg import (
    column_space_equal,
    eig_symmetric,
    mpp_axiom_residuals,
    nullspace_oracle,
    orthonormal_range,
    pseudoinverse,
    rank,
    save_matrix_csv,
)
from lapsig.analysis import sampling_matrix


class TestEigSymmetric:
    def test_identity(self):
        dec = eig_symmetric(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_four_cycle_spectrum(self):
        # representer values 2 - 2cos(2 pi k / 4) over k: {0, 2, 4, 2}
        dec = eig_symmetric(laplacian(cycle_graph(4)))
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-9)

    def test_complete_graph_spectrum(self):
        dec = eig_symmetric(laplacian(complete_graph(4)))
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-9)

    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            g = random_connected_graph(int(rng.integers(2, 40)), rng, weights="uniform")
            lap = laplacian(g)
            dec = eig_symmetric(lap)
            u = dec.eigenvectors
            assert np.abs(u.T @ u - np.eye(g.n)).max() < 1e-10
            recon = u @ np.diag(dec.eigenvalues) @ u.T
            assert np.abs(recon - lap).max() < 1e-9 * max(1.0, np.abs(lap).max())
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)

    def test_connected_laplacian_single_zero_eigenvalue(self):
        dec = eig_symmetric(laplacian(cycle_graph(9)))
        assert abs(dec.eigenvalues[0]) < 1e-12
        assert dec.eigenvalues[1] > 1e-6

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            eig_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            eig_symmetric(np.zeros((2, 3)))


class TestPseudoinverse:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_complete_graph_scaled_laplacian(self):
        lap = laplacian(complete_graph(4))
        np.testing.assert_allclose(pseudoinverse(lap), lap / 16.0, atol=1e-12)

    def test_four_cycle_first_row(self):
        row = pseudoinverse(laplacian(cycle_graph(4)))[0]
        np.testing.assert_allclose(row, [0.3125, -0.0625, -0.1875, -0.0625], atol=1e-9)

    def test_axioms_and_projection_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 40))
            g = random_connected_graph(n, rng, weights="uniform")
            lap = laplacian(g)
            p = pseudoinverse(lap)
            allow = 1e-9 * max(1.0, np.abs(lap).max())
            assert max(mpp_axiom_residuals(lap, p).values()) < allow
            centering = np.eye(n) - np.ones((n, n)) / n
            assert np.abs(lap @ p - centering).max() < 1e-9

    def test_invertible_matches_inverse(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 5))
        spd = m @ m.T + 5.0 * np.eye(5)
        np.testing.assert_allclose(pseudoinverse(spd), np.linalg.inv(spd), atol=1e-9)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(5)) == 5

    def test_connected_six_cycle(self):
        assert rank(laplacian(cycle_graph(6))) == 5

    def test_disconnected_circulant(self):
        lap = laplacian(compile_circulant(CirculantSpec(6, ((2, 1.0),))))
        assert rank(lap) == 4

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            lap = laplacian(random_connected_graph(n, rng, weights="uniform"))
            perm = rng.permutation(n)
            assert rank(lap[np.ix_(perm, perm)]) == rank(lap)

    def test_eigen_rank_matches_svd_rank(self):
        rng = np.random.default_rng(3)
        mats = [np.zeros((4, 4)), laplacian(compile_circulant(CirculantSpec(6, ((2, 1.0),))))]
        for _ in range(20):
            n = int(rng.integers(3, 40))
            mats.append(laplacian(random_connected_graph(n, rng, weights="uniform")))
        for mat in mats:
            dec = eig_symmetric(mat)
            assert dec.rank == rank(mat)
            np.testing.assert_array_equal(dec.pinv(), pseudoinverse(mat))


class TestNullspaceOracle:
    def test_connected_laplacian_constant_vector(self):
        basis = nullspace_oracle(laplacian(cycle_graph(7)))
        assert basis.shape == (7, 1)
        # single column proportional to the all-ones vector
        col = basis[:, 0]
        assert np.abs(np.abs(col) - 1.0 / np.sqrt(7)).max() < 1e-10

    def test_identity_has_trivial_nullspace(self):
        assert nullspace_oracle(np.eye(3)).shape == (3, 0)

    def test_sampled_cycle_dimensions(self):
        g = cycle_graph(8)
        psi = sampling_matrix((0, 2, 3, 5, 7), 8)
        basis = nullspace_oracle(psi @ laplacian(g))
        assert basis.shape == (8, 3)

    def test_annihilation_and_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.standard_normal((4, 9))
            a[:, :4] = 0.0  # force a fat nullspace
            basis = nullspace_oracle(a)
            assert np.abs(a @ basis).max() < 1e-9 * max(1.0, np.abs(a).max())
            assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() < 1e-10

    def test_empty_row_matrix(self):
        np.testing.assert_array_equal(nullspace_oracle(np.zeros((0, 4))), np.eye(4))


class TestColumnSpaceEqual:
    def test_invariant_under_right_multiplication(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            b = rng.standard_normal((8, 3))
            r = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            assert column_space_equal(b, b @ r)

    def test_distinguishes_spans(self):
        n = 4
        ones = np.ones((n, 1))
        e0 = np.eye(n)[:, :1]
        assert not column_space_equal(ones, e0)

    def test_rank_mismatch(self):
        assert not column_space_equal(np.eye(4)[:, :2], np.eye(4)[:, :3])

    def test_zero_dimensional_spans_agree(self):
        assert column_space_equal(np.zeros((4, 2)), np.zeros((4, 1)))

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            column_space_equal(np.eye(3), np.eye(4))

    def test_orthonormal_range_shape(self):
        q = orthonormal_range(np.ones((5, 3)))
        assert q.shape == (5, 1)


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, size=(5, 7))
        path = tmp_path / "a.csv"
        save_matrix_csv(path, a)
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", ndmin=2), a)

    def test_vector_becomes_row(self, tmp_path):
        path = tmp_path / "v.csv"
        save_matrix_csv(path, np.array([1.0, 2.0]))
        assert np.loadtxt(path, delimiter=",", ndmin=2).shape == (1, 2)

    def test_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            save_matrix_csv(tmp_path / "bad.csv", np.array([[np.inf]]))


def _savetxt_bytes(a) -> bytes:
    """The reference: what np.savetxt writes for the same matrix."""
    buf = io.BytesIO()
    np.savetxt(buf, np.atleast_2d(a), fmt="%.16e", delimiter=",")
    return buf.getvalue()


def _written(path, a) -> bytes:
    save_matrix_csv(path, a)
    return path.read_bytes()


def _below_powers_of_ten():
    """For each 10^p, the largest double below it, and that double's neighbours."""
    out = []
    for p in range(-307, 309):
        exact = Fraction(10) ** p
        x = float(exact)
        if Fraction(x) >= exact:
            x = math.nextafter(x, 0.0)
        out += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return np.array(out)


_FINITE_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)


class TestCsvBytes:
    """save_matrix_csv writes exactly the bytes of np.savetxt(fmt="%.16e")."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.one_of(_FINITE_BITS, st.floats(allow_nan=False, allow_infinity=False)),
                     min_size=cols, max_size=cols),
            min_size=1, max_size=5)))
    def test_matches_savetxt_on_any_finite_bits(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.csv"
            assert _written(path, np.array(rows)) == _savetxt_bytes(np.array(rows))

    @pytest.mark.parametrize(
        "values",
        [
            # exact decimal ties m * 2^-j, which round half to even
            [m * 2.0**-j for j in range(0, 90) for m in range(1, 64, 2)],
            # powers of ten and their neighbours, 1e16, 1e17, 1e22 and 1e23 among them
            [s * v for p in range(-25, 26) for s in (1.0, -1.0)
             for v in (math.nextafter(10.0**p, 0.0), 10.0**p, math.nextafter(10.0**p, math.inf))],
            # the doubles just below each power of ten, 14 of which print as 1.0000000000000000e+p
            _below_powers_of_ten(),
            # subnormals, signed zeros and the extremes of the float range
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1e-270, 1e270, np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny],
            # integers and the decimal grid of everyday values
            [float(v) for v in range(-1000, 1001)] + [v / 1000 for v in range(-1000, 1001)],
            # a block of zeros alone, which skips the digits
            [0.0] * 14 + [-0.0] * 7,
        ],
        ids=["ties", "powers_of_ten", "below_powers_of_ten", "extremes", "grid", "zeros"],
    )
    def test_matches_savetxt_on_edge_values(self, tmp_path, values):
        a = np.asarray(values, dtype=float)
        cols = 7
        a = np.concatenate([a, np.zeros(-a.size % cols)]).reshape(-1, cols)
        assert _written(tmp_path / "a.csv", a) == _savetxt_bytes(a)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (0, 4), (4, 0), (0, 0)])
    def test_matches_savetxt_on_shapes(self, tmp_path, shape):
        a = np.random.default_rng(11).standard_normal(shape)
        assert _written(tmp_path / "a.csv", a) == _savetxt_bytes(a)
        if shape[1] == 0:
            assert (tmp_path / "a.csv").read_bytes() == b"\n" * shape[0]

    def test_taller_than_one_block_with_python_rows(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3000, 30)) * 10.0 ** rng.integers(-20, 20, size=(3000, 30))
        unsafe_rows = [0, 1091, 1092, 2183, 2999]  # 1092 rows make one block
        a[unsafe_rows, rng.integers(0, 30, size=5)] = 5e-324
        assert a.size > linalg._CHUNK_CELLS
        seen = []
        python_row = linalg._python_row
        monkeypatch.setattr(linalg, "_python_row",
                            lambda row: seen.append(row.copy()) or python_row(row))
        assert _written(tmp_path / "a.csv", a) == _savetxt_bytes(a)
        np.testing.assert_array_equal(seen, a[unsafe_rows])

    def test_just_below_a_power_of_ten_stays_on_numpy(self, tmp_path, monkeypatch):
        # the doubles below 10^p that print as 1.0000000000000000e+p: log10
        # rounds each up to p, so its digits are taken again at p - 1
        below = {}
        for p in range(-270, 271):
            exact = Fraction(10) ** p
            x = float(exact)
            if Fraction(x) >= exact:
                x = math.nextafter(x, 0.0)
            if "%.16e" % x == "1.0000000000000000e%+03d" % p:
                below[p] = x
        assert {below[-14], below[-70], below[98]} == {1e-14, 1e-70, 1e98}
        assert all(np.floor(np.log10(x)) == p for p, x in below.items())

        def refuse(row):
            raise AssertionError(f"row {row} formatted by Python")

        monkeypatch.setattr(linalg, "_python_row", refuse)
        values = np.array(list(below.values()))
        a = np.stack([values, -values, values * 3.0])
        assert _written(tmp_path / "a.csv", a) == _savetxt_bytes(a)

    def test_inexact_product_near_a_tie_takes_python(self, tmp_path, monkeypatch):
        # 3 * 2^-24 = 1.78813934326171875e-07: an exact tie, but 10^23 is not a
        # double, so the product is inexact and Python settles the rounding
        a = np.array([[3 * 2.0**-24, 1.0], [0.5, 0.25]])
        seen = []
        python_row = linalg._python_row
        monkeypatch.setattr(linalg, "_python_row",
                            lambda row: seen.append(row.copy()) or python_row(row))
        assert _written(tmp_path / "a.csv", a) == _savetxt_bytes(a)
        np.testing.assert_array_equal(seen, a[[0]])
        assert (tmp_path / "a.csv").read_bytes().startswith(b"1.7881393432617188e-07,")


class TestIndexedCsv:
    """Each line led by its row number, as the figures and synth CSVs are."""

    @staticmethod
    def _reference(a) -> bytes:
        return "".join(f"{i:d}," + ",".join(f"{v:.16e}" for v in row) + "\n"
                       for i, row in enumerate(a)).encode()

    def test_matches_per_value_format(self, tmp_path):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((12000, 3)) * 10.0 ** rng.integers(-5, 5, size=(12000, 3))
        a[[0, 9, 10, 99, 100, 9999, 10000, 11999]] = [-0.0, 5e-324, 1.0]
        cli._write_indexed_csv(tmp_path / "a.csv", *a.T)
        assert (tmp_path / "a.csv").read_bytes() == self._reference(a)
