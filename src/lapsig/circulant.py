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

from .graphs import CirculantSpec, Graph, _as_circulant, _circulant, _circulant_times
from .graphs import _circulant_view, _laplacian_row, connected_components, laplacian
from .linalg import _EPS, ZERO_FLOOR, _invert_spectrum, _require_finite, _require_nullity
from .linalg import eig_symmetric

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
CERTIFICATE_MARGIN = 8.0  # certificate shift c = CERTIFICATE_MARGIN (n + 1)^2 eps s
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


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

    The one place that decides how L^+ is formed, from the Laplacian alone,
    in three steps:

    1. A circulant needs no factorisation: the DFT diagonalises it, so the
       Laplacian's eigenvalues are the DFT of its first row; those at or
       below the zero cutoff the dense eigensolve uses count as zero, the
       rest are inverted, and L^+ is the circulant whose first row is the
       inverse DFT of those reciprocals.  A circulant spec always takes this
       rule, and so does a Graph that ``graphs._as_circulant`` recognises
       from its edge list (its edge set equals its shift by one, and every
       weight is a whole number with the degree below 2^53, as in compiled
       unit- and integer-weight circulants, cycles and complete graphs).
       Such a Graph forms no n x n array before the result: its component
       count is gcd(n, hops) and its Laplacian row comes from its spec.
       Any other Graph builds its dense Laplacian, and takes this rule when
       that is exactly (bit for bit) the circulant of its own first row.
    2. Any other connected Graph takes one linear solve,
       L^+ = (L + (s/n) 11^T)^{-1} - 11^T/(s n) with s the largest degree,
       once a Cholesky of the shifted matrix minus a margin certifies that
       the eigensolve would count exactly one zero eigenvalue (see
       ``_certified_pinv``).
    3. Everything else, a failed certificate included, takes the dense
       eigensolve under the nullity guard.

    Any graph is accepted, the wrap hop n/2 and disconnected ones included;
    a zero count that differs from the component count (a weight too small
    against the others) raises ValueError, and so does a non-finite
    Laplacian.
    """
    spec = _as_circulant(g)
    if spec is None:
        pinv, circulant = _dense_pinv(laplacian(g), connected_components(g))
        return pinv.copy() if circulant else pinv
    return _circulant(_laplacian_row_pinv(_first_row(g, spec), connected_components(spec)))


def _first_row(g: Graph | CirculantSpec, spec: CirculantSpec) -> np.ndarray:
    """The first Laplacian row of ``g``, whose spec is ``spec``.

    A Graph's row is ``laplacian(g)[0]`` sign for sign: ``laplacian``
    negates the adjacency, so its zeros off the edges are -0.0 where
    ``_laplacian_row`` writes +0.0.  ``_dense_pinv`` takes that same row, so
    the Graph's L^+ keeps its bytes whichever test recognised it.
    """
    row = _laplacian_row(spec)
    if isinstance(g, Graph):
        row[1:] = -np.abs(row[1:])
    return row


def _dense_pinv(lap: np.ndarray, components: int, cols=None) -> tuple[np.ndarray, bool]:
    """Columns ``cols`` (all by default) of the guarded L^+ of a dense
    Laplacian with ``components`` connected components, and whether ``lap``
    is circulant: ``laplacian_pinv``'s three-way choice.

    When ``lap`` is exactly the circulant of its first row, L^+ comes by the
    DFT rule as the read-only strided view of its first row, with no n x n
    array (a copy of its columns when ``cols`` is given).  The test is exact
    equality; row 1 against row 0 shifted by one rejects almost every other
    graph in O(n) before the whole matrix is compared.  It is the dense
    test: the Graphs that ``graphs._as_circulant`` recognises from their
    edge list never build ``lap``, and this one serves the rest (such as
    circulants with non-integer weights) and ``lapsig operators``.  A non-finite
    Laplacian is refused next, with the eigensolve's message.  A connected
    one then takes ``_certified_pinv``'s solve for only the requested
    columns.  A disconnected one, or one whose certificate fails, takes the
    eigensolve and its nullity guard.
    """
    row = lap[0]
    if (
        lap.shape[0] > 1
        and np.array_equal(lap[1], np.roll(row, 1))
        and np.array_equal(lap, _circulant_view(row))
    ):
        pinv = _circulant_view(_laplacian_row_pinv(row, components))
        return (pinv if cols is None else pinv[:, cols]), True
    _require_finite(lap)
    pinv = _certified_pinv(lap, cols) if components == 1 else None
    if pinv is None:
        dec = eig_symmetric(lap)
        _require_nullity(dec.eigenvalues, components)
        pinv = dec.pinv() if cols is None else dec.pinv()[:, cols]
    return pinv, False


def _certified_pinv(lap: np.ndarray, cols=None) -> np.ndarray | None:
    """Columns ``cols`` (all by default) of the L^+ of a connected graph's
    finite Laplacian by one linear solve, or None when the certificate fails.

    With s the largest degree, A = L + (s/n) 11^T maps 1 to s 1 and acts as
    L on the zero-sum vectors, so L^+ = A^{-1} - 11^T/(s n) (Ghosh, Boyd &
    Saberi, SIAM Review 50, 2008).  The result is
    ``np.linalg.solve(A, E) - 1/(s n)``, E the requested columns of the
    identity (all of them by default).  It is not symmetrised: a column
    solved alone then has the bits of the same column of the full solve
    (every size tried up to n = 384 with OpenBLAS 0.3.31; some larger sizes
    differ in the last bits).

    The certificate is that ``np.linalg.cholesky(A - cI)`` succeeds, with
    the margin c = CERTIFICATE_MARGIN (n + 1)^2 eps s.  Once it does, the
    eigensolve guard of ``_dense_pinv`` would count no zero eigenvalue
    besides the one on 1, so a passed certificate never takes a graph the
    guard refuses; a margin too large only sends graphs to the eigensolve.
    With eps = 2^-52 (twice the unit roundoff) and lambda_2 the smallest
    eigenvalue of L on the zero-sum vectors:

    * Gershgorin bounds lambda_max(L) by 2s, so ||A||_2 <= 2s, and the
      eigensolve's zero cutoff n eps max|lambda| is at most
      2 n eps s (1 + n^2 eps);
    * A's eigenvalues are s and those of L on the zero-sum vectors, so
      lambda_min(A) <= lambda_2;
    * forming A - cI rounds each entry by at most 3 eps s: 3 n eps s in the
      2-norm;
    * a Cholesky that runs to completion is exact for a matrix within
      gamma_{n+1} |R^T| |R| of the one it was given (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., ch. 10), at most
      n (n + 1) eps s (1 + O(n^2 eps)) in the 2-norm, since
      || |R^T| |R| ||_2 <= n ||R||_2^2;  so lambda_2 >= lambda_min(A)
      > c - 3 n eps s - n (n + 1) eps s (1 + O(n^2 eps));
    * the eigensolve is backward stable: its eigenvalues sit within
      n^2 eps ||L||_2 <= 2 n^2 eps s of L's (a worst-case bound for
      Householder tridiagonalisation), so it counts lambda_2 as nonzero once
      lambda_2 > 2 n^2 eps s + 2 n eps s (1 + n^2 eps).

    The first-order terms sum to (3 n^2 + 6 n) eps s; c = 8 (n + 1)^2 eps s
    is more than twice that, which covers the O(n^4 eps^2) s terms for any
    n a dense matrix can have.  That the eigenvalue on 1 counts as zero is
    the eigensolve's own accuracy, as ``linalg`` states it.  The bounds
    assume no underflow or overflow, so a margin below the smallest normal
    float, or 2s above the largest, leaves the choice to the eigensolve.
    """
    n = lap.shape[0]
    s = float(lap.diagonal().max())
    margin = CERTIFICATE_MARGIN * (n + 1) ** 2 * _EPS * s
    if not (margin >= _TINY and 2.0 * s <= _HUGE):
        return None
    a = lap + s / n
    diag = a.diagonal().copy()
    np.fill_diagonal(a, diag - margin)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    np.fill_diagonal(a, diag)
    cols = np.arange(n) if cols is None else cols
    rhs = np.zeros((n, len(cols)))
    rhs[cols, np.arange(len(cols))] = 1.0
    pinv = np.linalg.solve(a, rhs)
    pinv -= 1.0 / (s * n)
    return pinv


def _laplacian_row_pinv(row: np.ndarray, components: int) -> np.ndarray:
    """First row of the L^+ of the circulant Laplacian with first row ``row``,
    by ``laplacian_pinv``'s DFT rule and under its nullity guard; every
    entry of L^+ sits in it.  A non-finite row (a degree that overflowed)
    is refused as the eigensolve refuses it."""
    lam = np.fft.fft(_require_finite(row)).real
    _require_nullity(lam, components)
    return _inverse_row(_invert_spectrum(lam))


def _connected_pinv(g: Graph | CirculantSpec, cols=None):
    """``(L, L^+, circulant)``: the one door to L^+ for what is stated for
    connected graphs.

    The components are counted once, and a disconnected graph is refused
    before L is built.  A spec, or a Graph that ``graphs._as_circulant``
    recognises from its edge list (every weight a whole number), is counted
    by gcd(n, hops) with no BFS; its L and L^+ are the read-only strided
    views of their first rows, so no n x n array is formed.  Any other Graph
    builds its dense L once and passes it to ``_dense_pinv``, whose dense
    test still finds a circulant with other weights.  ``circulant`` says
    whether L is circulant.  All of L^+ comes by default, as the read-only strided view
    when L is circulant; the columns ``cols`` come C-contiguous, as
    ``np.take`` gathers them.
    """
    spec = _as_circulant(g)
    components = connected_components(g if spec is None else spec)
    if components != 1:
        raise ValueError(
            f"graph has {components} connected components; this needs a connected graph"
        )
    if spec is None:
        lap = laplacian(g)
        pinv, circulant = _dense_pinv(lap, 1, cols)
    else:
        row = _first_row(g, spec)
        lap, circulant = _circulant_view(row), True
        pinv = _circulant_view(_laplacian_row_pinv(row, 1))
        if cols is not None:
            pinv = pinv[:, cols]
    if cols is not None:
        pinv = np.ascontiguousarray(pinv)
    return lap, pinv, circulant


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
