"""Exact machinery for symmetric circulant operators.

A banded symmetric circulant matrix is encoded by its representer
coefficients (l_0, ..., l_M): the first row reads
[l_0 l_1 ... l_M 0 ... 0 l_M ... l_1] and every later row is the previous
one shifted cyclically by one.  Evaluating the attached Laurent polynomial
l(z) = l_0 + sum_i l_i (z^i + z^-i) at the n-th roots of unity yields the
eigenvalues.  For even n a coefficient at hop n/2 lands on a single slot of
the row and is therefore counted once in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CirculantSpec, Graph, _circulant, _circulant_times, _circulant_view
from .graphs import _laplacian_row, connected_components, laplacian
from .linalg import ZERO_FLOOR, _invert_spectrum, _require_finite, _require_nullity, eig_symmetric

__all__ = [
    "RepresenterPolynomial",
    "cycle_representer",
    "cycle_laplacian",
    "laplacian_representer",
    "laplacian_pinv",
    "poly_multiply_mod",
    "cycle_pinv",
    "perturbation_factor",
    "transform_inverse",
    "pinv_factorization",
    "pinv_residual_allowance",
]

ROW_SYM_RTOL = 1e-10  # |row - mirrored row| allowed, relative to max(|row|_max, 1)
PINV_RESIDUAL_RTOL = 1e-8  # pinv_factorization residual, relative to max(|L^+|_max, 1)


def _inverse_row(recip: np.ndarray) -> np.ndarray:
    """First row of the symmetric circulant with eigenvalues ``recip``.

    ``recip`` is ordered by frequency k = 0..n-1.  The inverse DFT is
    symmetrised (row[i] == row[-i mod n] exactly), so the circulant built
    from it is exactly symmetric.
    """
    row = np.real(np.fft.ifft(recip))
    return 0.5 * (row + np.roll(row[::-1], 1))


@dataclass(frozen=True)
class RepresenterPolynomial:
    """Symmetric Laurent-polynomial coefficients of a banded circulant."""

    n: int
    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError("ambient size must be >= 1")
        co = tuple(float(c) for c in self.coeffs)
        if not co:
            raise ValueError("need at least the constant coefficient")
        if len(co) - 1 > self.n // 2:
            raise ValueError(f"bandwidth {len(co) - 1} exceeds n//2 = {self.n // 2}")
        if not all(np.isfinite(co)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", co)

    @property
    def bandwidth(self) -> int:
        return len(self.coeffs) - 1

    def first_row(self) -> np.ndarray:
        row = np.zeros(self.n)
        row[0] = self.coeffs[0]
        for i, c in enumerate(self.coeffs[1:], start=1):
            row[i] += c
            if self.n - i != i:
                row[self.n - i] += c
        return row

    def to_matrix(self) -> np.ndarray:
        return _circulant(self.first_row())

    def eigenvalues(self) -> np.ndarray:
        """Values at the n-th roots of unity, ordered by frequency k = 0..n-1:
        the DFT of the first row, as ``laplacian_pinv`` takes them."""
        return np.fft.fft(self.first_row()).real

    @classmethod
    def from_first_row(cls, row) -> "RepresenterPolynomial":
        """Fold a symmetric circulant first row back into coefficients."""
        arr = _require_finite(row, "first row")
        n = arr.size
        flipped = np.roll(arr[::-1], 1)  # flipped[i] == arr[(n - i) % n]
        if np.abs(arr - flipped).max() > ROW_SYM_RTOL * max(float(np.abs(arr).max()), 1.0):
            raise ValueError("first row is not symmetric")
        co = list(arr[: n // 2 + 1])
        while len(co) > 1 and co[-1] == 0.0:
            co.pop()
        return cls(n, tuple(co))


def cycle_representer(n: int) -> RepresenterPolynomial:
    """Representer of the simple-cycle Laplacian: 2 - z - z^{-1}."""
    if n < 3:
        raise ValueError("a simple cycle needs n >= 3")
    return RepresenterPolynomial(n, (2.0, -1.0))


def cycle_laplacian(n: int) -> np.ndarray:
    return cycle_representer(n).to_matrix()


def laplacian_representer(spec: CirculantSpec) -> RepresenterPolynomial:
    """Representer coefficients of a circulant-graph Laplacian: the head of its first row.

    Constant term 2 * sum of weights (the common degree); hop s carries -d_s.
    Restricted to bandwidth M < n/2 so every hop contributes two symmetric
    band slots; specs touching the wrap hop n/2 are rejected.
    """
    _require_strict_band(spec)
    return RepresenterPolynomial(spec.n, tuple(_laplacian_row(spec)[: spec.bandwidth + 1]))


def _require_strict_band(spec: CirculantSpec) -> None:
    if 2 * spec.bandwidth >= spec.n:
        raise ValueError(
            f"bandwidth {spec.bandwidth} must stay below n/2 for n={spec.n}"
        )


def laplacian_pinv(g: Graph | CirculantSpec) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a graph Laplacian, refused when the
    graph is numerically disconnected.

    The one place that decides how L^+ is formed, from the Laplacian alone.
    A circulant needs no eigensolve: the DFT diagonalises it, so the
    Laplacian's eigenvalues are the DFT of its first row; those at or below
    the zero cutoff the dense eigensolve uses count as zero, the rest are
    inverted, and L^+ is the circulant whose first row is the inverse DFT
    of those reciprocals.  A circulant spec always takes this rule.  So does
    a Graph whose dense Laplacian is exactly (bit for bit) the circulant of
    its own first row, as the compiled unit- and integer-weight circulants,
    cycles and complete graphs are; any other Graph takes the dense
    eigensolve.  Any graph is accepted, the wrap hop n/2 and disconnected
    ones included; a zero count that differs from the component count (a
    weight too small against the others) raises ValueError.
    """
    if isinstance(g, Graph):
        pinv, circulant = _dense_pinv(laplacian(g), connected_components(g))
        return pinv.copy() if circulant else pinv
    return _circulant(_pinv_row(g))


def _dense_pinv(lap: np.ndarray, components: int) -> tuple[np.ndarray, bool]:
    """The guarded L^+ of a dense Laplacian with ``components`` connected
    components, and whether ``lap`` is circulant.

    When ``lap`` is exactly the circulant of its first row, L^+ comes by the
    DFT rule as the read-only strided view of its first row, with no n x n
    array; otherwise it comes from the eigensolve.  The test is exact
    equality.  Row 1 against row 0 shifted by one rejects almost every other
    graph in O(n) before the whole matrix is compared.
    """
    row = lap[0]
    if (
        lap.shape[0] > 1
        and np.array_equal(lap[1], np.roll(row, 1))
        and np.array_equal(lap, _circulant_view(row))
    ):
        return _circulant_view(_laplacian_row_pinv(row, components)), True
    dec = eig_symmetric(lap)
    _require_nullity(dec.eigenvalues, components)
    return dec.pinv(), False


def _laplacian_row_pinv(row: np.ndarray, components: int) -> np.ndarray:
    """First row of the L^+ of the circulant Laplacian with first row ``row``,
    by ``laplacian_pinv``'s DFT rule and under its nullity guard; every
    entry of L^+ sits in it.  A non-finite row (a degree that overflowed)
    is refused as the eigensolve refuses it."""
    lam = np.fft.fft(_require_finite(row)).real
    _require_nullity(lam, components)
    return _inverse_row(_invert_spectrum(lam))


def _pinv_row(spec: CirculantSpec) -> np.ndarray:
    """First row of the L^+ of a circulant graph."""
    return _laplacian_row_pinv(_laplacian_row(spec), connected_components(spec))


def _pinv_columns(g: Graph | CirculantSpec, cols) -> np.ndarray:
    """Columns ``cols`` of ``laplacian_pinv(g)``, C-contiguous; a spec
    gathers them from the strided view of its first row and forms no n x n
    matrix."""
    pinv = laplacian_pinv(g) if isinstance(g, Graph) else _circulant_view(_pinv_row(g))
    return np.ascontiguousarray(pinv[:, cols])


def poly_multiply_mod(
    a: RepresenterPolynomial, b: RepresenterPolynomial
) -> RepresenterPolynomial:
    """Product of two representers modulo z^n = 1.

    Computed as an exact circular convolution of the first rows, so integer
    coefficients multiply without rounding and wrap-around (combined
    bandwidth at or beyond n/2) aliases exactly as the matrix product does.
    """
    if a.n != b.n:
        raise ValueError("operands must share the ambient size n")
    return RepresenterPolynomial.from_first_row(_circulant_times(a.first_row(), b.first_row()))


def _cycle_pinv_value(n: int, shift):
    """Cycle pseudoinverse entry at index offset ``shift`` (|shift| < n)."""
    return (n - 1) * (n + 1) / (12.0 * n) - abs(shift) / 2.0 + shift * shift / (2.0 * n)


def cycle_pinv(n: int) -> np.ndarray:
    """Simple-cycle Laplacian pseudoinverse from its closed form (no eigensolve)."""
    if n < 3:
        raise ValueError("a simple cycle needs n >= 3")
    return _circulant(_cycle_pinv_value(n, np.arange(n)))


def perturbation_factor(spec: CirculantSpec) -> RepresenterPolynomial:
    """Banded positive-definite factor P with L = P @ L_cycle.

    Needs hop 1 in the generating set (which also forces connectivity) and
    bandwidth M < n/2.  Coefficients: constant term sum_i i*d_i, and band i
    carrying sum_{k>i} (k - i) d_k, where d_k = 0 for absent hops.
    """
    if 1 not in spec.hops:
        raise ValueError("cycle factorisation requires hop 1 in the generating set")
    _require_strict_band(spec)
    m = spec.bandwidth
    d = [0.0] * (m + 1)
    for s, wt in spec.generators:
        d[s] = wt
    coeffs = [sum(i * d[i] for i in range(1, m + 1))]
    for i in range(1, m):
        coeffs.append(sum((k - i) * d[k] for k in range(i + 1, m + 1)))
    return RepresenterPolynomial(spec.n, tuple(coeffs))


def _invertible_spectrum(poly: RepresenterPolynomial) -> np.ndarray:
    """The eigenvalues of a symmetric circulant, refused when one is (near-)zero."""
    lam = poly.eigenvalues()
    if float(np.abs(lam).min()) <= ZERO_FLOOR:
        raise ValueError("representer has a (near-)zero eigenvalue; not invertible")
    return lam


def transform_inverse(poly: RepresenterPolynomial) -> np.ndarray:
    """Inverse of an invertible symmetric circulant via its spectrum.

    The first row is the inverse DFT of the reciprocal eigenvalues, with no
    dense inverse; the dense ``inv`` of ``pinv_factorization`` is its
    cross-check.
    """
    return _circulant(_inverse_row(1.0 / _invertible_spectrum(poly)))


def pinv_factorization(spec: CirculantSpec, l_pinv: np.ndarray) -> tuple[np.ndarray, float]:
    """Split the Laplacian pseudoinverse as P^{-1} @ (cycle pseudoinverse).

    Returns the densely inverted factor P^{-1} together with the max-norm
    residual against ``l_pinv``, the graph Laplacian's pseudoinverse (which
    the split must reproduce).
    """
    p_inv = np.linalg.inv(perturbation_factor(spec).to_matrix())
    residual = float(np.abs(p_inv @ cycle_pinv(spec.n) - l_pinv).max())
    return p_inv, residual


def pinv_residual_allowance(l_pinv: np.ndarray) -> float:
    """Largest pinv_factorization residual accepted for a given L^+."""
    return PINV_RESIDUAL_RTOL * max(1.0, float(np.abs(l_pinv).max()))
