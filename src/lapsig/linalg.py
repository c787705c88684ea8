"""Dense symmetric eigendecomposition, Moore-Penrose pseudoinversion and
subspace comparison with explicit, scale-relative tolerances.

Conventions used throughout the package:
  * tolerances are fixed module constants, relative to the data's
    magnitude with an absolute floor of 1e-12 (``ZERO_FLOOR``);
  * an eigenvalue or singular value counts as zero once it falls to or
    below ``size * machine_eps * largest``, the standard rank-revealing
    cutoff, so a connected-graph Laplacian always reports exactly one zero
    eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZERO_FLOOR",
    "SYM_RTOL",
    "SUBSPACE_TOL",
    "EigenDecomposition",
    "eig_symmetric",
    "pseudoinverse",
    "rank",
    "nullspace_oracle",
    "orthonormal_range",
    "column_space_equal",
    "mpp_axiom_residuals",
    "save_matrix_csv",
]

ZERO_FLOOR = 1e-12
SYM_RTOL = 1e-12  # |A - A^T| eig_symmetric allows, relative to max(|A|_max, 1)
SUBSPACE_TOL = 1e-9  # projection residual at which column spaces count as equal
_EPS = float(np.finfo(float).eps)


def _require_finite(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_tolerance(tol: float) -> None:
    """A relative zero threshold must be finite and non-negative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")


def _zero_cutoff(dim: int, largest: float) -> float:
    return dim * _EPS * largest


def _require_nullity(lam: np.ndarray, cutoff: float, components: int) -> None:
    """Raise unless a Laplacian spectrum has one zero eigenvalue per component.

    A graph can be connected and still numerically disconnected: an edge
    weight too small against the others leaves an extra eigenvalue at or
    below the zero cutoff, and L^+ would silently drop that edge.
    """
    mag = np.abs(lam)
    zeros = int(np.count_nonzero(mag <= cutoff))
    if zeros != components:
        above = mag[mag > cutoff]
        smallest = f"{above.min():.3e}" if above.size else "none"
        raise ValueError(
            f"graph is numerically disconnected: {zeros} Laplacian eigenvalues at "
            f"or below the zero cutoff {cutoff:.3e} for {components} connected "
            f"component(s); smallest eigenvalue above the cutoff: {smallest}"
        )


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def cutoff(self) -> float:
        """Eigenvalues at or below this magnitude count as exact zeros."""
        lam = self.eigenvalues
        return _zero_cutoff(lam.size, float(np.abs(lam).max()) if lam.size else 0.0)

    @property
    def rank(self) -> int:
        """Number of eigenvalues above the zero cutoff."""
        return int(np.count_nonzero(np.abs(self.eigenvalues) > self.cutoff))

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse: eigenvalues above the cutoff are inverted
        and the result is symmetrised, so the Penrose axioms hold to rounding."""
        lam = self.eigenvalues
        inv = np.zeros_like(lam)
        np.divide(1.0, lam, out=inv, where=np.abs(lam) > self.cutoff)
        out = (self.eigenvectors * inv) @ self.eigenvectors.T
        return 0.5 * (out + out.T)


def eig_symmetric(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Inputs whose asymmetry exceeds ``SYM_RTOL`` relative to the largest
    entry are rejected; the solve itself runs on the symmetrised matrix so
    tiny representational asymmetry cannot leak into the factors.
    """
    arr = _require_finite(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    gap = float(np.abs(arr - arr.T).max()) if arr.size else 0.0
    if gap > SYM_RTOL * max(float(np.abs(arr).max()), 1.0):
        raise ValueError(
            f"matrix is not symmetric: max |A - A^T| = {gap:.3e} exceeds the "
            f"{SYM_RTOL:.1e} relative tolerance"
        )
    w, u = np.linalg.eigh(0.5 * (arr + arr.T))
    return EigenDecomposition(w, u)


def _laplacian_pinv(lap, components: int) -> np.ndarray:
    """Dense L^+ of a Laplacian whose graph has ``components`` connected
    components, refused when the eigensolve sees more zero eigenvalues."""
    dec = eig_symmetric(lap)
    _require_nullity(dec.eigenvalues, dec.cutoff, components)
    return dec.pinv()


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via eigendecomposition."""
    return eig_symmetric(a).pinv()


def rank(a) -> int:
    """Numerical rank of any matrix: singular values above the rank-revealing cutoff."""
    arr = np.atleast_2d(_require_finite(a))
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.count_nonzero(s > _zero_cutoff(max(arr.shape), float(s.max()))))


def nullspace_oracle(a) -> np.ndarray:
    """Orthonormal basis of the nullspace, straight from the SVD.

    Deliberately independent of any closed-form nullspace construction so
    it can act as the ground truth those constructions are checked against.
    Returns a (cols x dim) matrix; the identity for a matrix with no rows.
    """
    arr = np.atleast_2d(_require_finite(a))
    rows, cols = arr.shape
    if rows == 0:
        return np.eye(cols)
    _, s, vt = np.linalg.svd(arr, full_matrices=True)
    r = int(np.count_nonzero(s > _zero_cutoff(max(rows, cols), float(s.max()))))
    return vt[r:].T


def orthonormal_range(a) -> np.ndarray:
    """Orthonormal basis of the column space."""
    arr = np.atleast_2d(_require_finite(a))
    if arr.shape[1] == 0:
        return np.zeros((arr.shape[0], 0))
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    if s.size == 0:
        return np.zeros((arr.shape[0], 0))
    return u[:, s > _zero_cutoff(max(arr.shape), float(s.max()))]


def column_space_equal(a, b) -> bool:
    """Whether two matrices span the same column space.

    True iff the numerical ranks agree and each orthonormal basis projects
    onto the other with entrywise residual at most ``SUBSPACE_TOL``
    (equivalently, all principal angles vanish at that resolution).
    """
    qa = orthonormal_range(a)
    qb = orthonormal_range(b)
    if qa.shape[0] != qb.shape[0]:
        raise ValueError("matrices must have the same number of rows")
    if qa.shape[1] != qb.shape[1]:
        return False
    if qa.shape[1] == 0:
        return True
    res_a = float(np.abs(qa - qb @ (qb.T @ qa)).max())
    res_b = float(np.abs(qb - qa @ (qa.T @ qb)).max())
    return max(res_a, res_b) <= SUBSPACE_TOL


def mpp_axiom_residuals(a, a_pinv) -> dict[str, float]:
    """Max-norm residuals of the four Penrose axioms for a candidate pseudoinverse."""
    arr = _require_finite(a)
    pinv = _require_finite(a_pinv, "pseudoinverse")
    prod_ap = arr @ pinv
    prod_pa = pinv @ arr
    return {
        "reconstruct": float(np.abs(prod_ap @ arr - arr).max()),
        "pinv_reconstruct": float(np.abs(prod_pa @ pinv - pinv).max()),
        "symmetry_ap": float(np.abs(prod_ap - prod_ap.T).max()),
        "symmetry_pa": float(np.abs(prod_pa - prod_pa.T).max()),
    }


def save_matrix_csv(path, a) -> None:
    """Write a dense matrix as CSV, one row per line, 17 significant digits."""
    arr = np.atleast_2d(_require_finite(a))
    np.savetxt(path, arr, fmt="%.16e", delimiter=",")

