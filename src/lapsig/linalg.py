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

import functools
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


def _cutoff(values: np.ndarray, dim: int | None = None) -> float:
    """The rank-revealing zero cutoff ``dim * eps * max|v|``, ``dim`` the
    number of values by default: an eigenvalue or singular value counts as
    zero at or below it, and as nonzero above it (``>``)."""
    largest = float(np.abs(values).max()) if values.size else 0.0
    return (values.size if dim is None else dim) * _EPS * largest


def _invert_spectrum(lam: np.ndarray) -> np.ndarray:
    """1/lam above the zero cutoff and 0 at or below it: the spectrum of the
    pseudoinverse, for the dense and the DFT L^+ alike."""
    inv = np.zeros_like(lam)
    np.divide(1.0, lam, out=inv, where=np.abs(lam) > _cutoff(lam))
    return inv


def _require_nullity(lam: np.ndarray, components: int) -> None:
    """Raise unless a Laplacian spectrum has one zero eigenvalue per component.

    A graph can be connected and still numerically disconnected: an edge
    weight too small against the others leaves an extra eigenvalue at or
    below the zero cutoff, and L^+ would silently drop that edge.
    """
    cutoff = _cutoff(lam)
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
        return _cutoff(self.eigenvalues)

    @property
    def rank(self) -> int:
        """Number of eigenvalues above the zero cutoff."""
        return int(np.count_nonzero(np.abs(self.eigenvalues) > self.cutoff))

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse: eigenvalues above the cutoff are inverted
        and the result is symmetrised, so the Penrose axioms hold to rounding."""
        out = (self.eigenvectors * _invert_spectrum(self.eigenvalues)) @ self.eigenvectors.T
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


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via eigendecomposition."""
    return eig_symmetric(a).pinv()


def rank(a) -> int:
    """Numerical rank of any matrix: singular values above the rank-revealing cutoff."""
    arr = np.atleast_2d(_require_finite(a))
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.count_nonzero(s > _cutoff(s, max(arr.shape))))


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
    r = int(np.count_nonzero(s > _cutoff(s, max(rows, cols))))
    return vt[r:].T


def orthonormal_range(a) -> np.ndarray:
    """Orthonormal basis of the column space."""
    arr = np.atleast_2d(_require_finite(a))
    if arr.shape[1] == 0:
        return np.zeros((arr.shape[0], 0))
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    return u[:, s > _cutoff(s, max(arr.shape))]


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


def _centring_residual(prod: np.ndarray) -> float:
    """|L L^+ - (I - 11^T/n)|_max from the product ``prod`` = L L^+: on a
    connected graph L L^+ is the centring projection."""
    n = prod.shape[0]
    return float(np.abs(prod - (np.eye(n) - np.ones((n, n)) / n)).max())


def mpp_axiom_residuals(a, a_pinv) -> dict[str, float]:
    """Max-norm residuals of the four Penrose axioms for a candidate pseudoinverse."""
    arr = _require_finite(a)
    pinv = _require_finite(a_pinv, "pseudoinverse")
    return _penrose_residuals(arr, pinv, arr @ pinv)


def _penrose_residuals(arr: np.ndarray, pinv: np.ndarray, prod_ap: np.ndarray) -> dict[str, float]:
    """``mpp_axiom_residuals`` of finite arrays, given ``prod_ap`` = arr @ pinv."""
    prod_pa = pinv @ arr
    return {
        "reconstruct": float(np.abs(prod_ap @ arr - arr).max()),
        "pinv_reconstruct": float(np.abs(prod_pa @ pinv - pinv).max()),
        "symmetry_ap": float(np.abs(prod_ap - prod_ap.T).max()),
        "symmetry_pa": float(np.abs(prod_pa - prod_pa.T).max()),
    }


def save_matrix_csv(path, a) -> None:
    """Write a dense matrix as CSV, one row per line, 17 significant digits.

    The bytes are those of ``np.savetxt(path, a, fmt="%.16e", delimiter=",")``.
    """
    arr = np.atleast_2d(_require_finite(a))
    with open(path, "wb") as fh:
        fh.writelines(_csv_blocks(arr))


# ----------------------------------------------------------------------
# The "%.16e" CSV writer
#
# Each cell is written as sign, d.dddddddddddddddd, e, sign and two or three
# exponent digits; a zero is a fixed text, with its sign.  The 17 digits are round(|x| * 10^(16-k)) with
# k = floor(log10 |x|): the product is formed in double-double (Dekker's
# split and two-product, since numpy has no fused multiply-add) against an
# exact hi/lo pair for 10^(16-k), so its fractional part is known to about
# 1e-14 and exact ties round half to even, as "%.16e" does.  An error that
# moves the fraction across an integer leaves the rounded digits unchanged,
# so only ties need care.  A row holding a cell this cannot settle is
# formatted by Python's "%.16e" instead: a magnitude outside
# [_SAFE_MIN, _SAFE_MAX] (subnormals, the largest floats, non-finite
# values), a digit count still off after the retry at k - 1 that a double
# just below a power of ten needs (log10 rounds it up), or an inexact
# product within _NEAR of a tie.
# ----------------------------------------------------------------------

_CHUNK_CELLS = 32768  # cells formatted per block; bounds the temporaries
_SAFE_MIN, _SAFE_MAX = 1e-270, 1e270  # no over- or underflow in the product
_K_MIN, _K_MAX = -272, 272  # decimal exponents the tables cover
_NEAR = 1e-6  # distance from a tie that sends an inexact product to Python
_CELL_WORDS = 7  # pad, sign, d, ".", 16 digits, e, sign, 2-3 digits, ",", pads


@functools.cache
def _csv_tables() -> dict[str, np.ndarray]:
    """Powers of ten as hi/lo pairs and the byte words of the cell layout,
    built on the first write (a few milliseconds).

    Every padding byte of a cell (0) sits at its start or end, so the pads
    of neighbouring cells form one run: dropping them copies one run per
    cell, which is what numpy's boolean indexing is fast at.
    """
    hi, lo = [], []
    for p in range(16 - _K_MAX, 16 - _K_MIN + 1):
        if p >= 0:
            exact = 10**p
            h = float(exact)
            hi.append(h)
            lo.append(float(exact - int(h)))
        else:
            den = 10**-p
            h = 1 / den
            num, two = h.as_integer_ratio()
            hi.append(h)
            lo.append((two - num * den) / (den * two))
    def words(texts):
        return np.frombuffer(b"".join(texts), dtype=np.uint32)

    digits = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    digits = digits.view(np.uint32).ravel()
    lead = words(b"\0%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10))
    # e, sign, 2 or 3 digits and "," padded to two words; + 1 for the carry to 10^17
    exps = words((b"e%+03d," % e).ljust(8, b"\0") for e in range(_K_MIN, _K_MAX + 2))
    exp_head, exp_tail = exps[0::2].copy(), exps[1::2].copy()
    return {
        "pow_hi": np.array(hi[::-1]),  # indexed by k - _K_MIN
        "pow_lo": np.array(lo[::-1]),
        "digits": digits,
        "lead": lead,
        "exp_head": exp_head,
        "exp_tail": exp_tail,
        # the words of 0.0000000000000000e+00,
        "zero": np.array([lead[0], *[digits[0]] * 4, exp_head[-_K_MIN], exp_tail[-_K_MIN]]),
    }


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = hi + lo with each half holding at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(mag: np.ndarray, k: np.ndarray):
    """Integer part and fraction of q = mag * 10^(16-k), and whether the
    power of ten is inexact as a double."""
    t = _csv_tables()
    # q = ph + pl + mag * lo, with ph + pl = mag * hi exactly
    hi = np.take(t["pow_hi"], k - _K_MIN)
    lo = np.take(t["pow_lo"], k - _K_MIN)
    ph = mag * hi
    mh, ml = _split(mag)
    hh, hl = _split(hi)
    pl = ((mh * hh - ph) + mh * hl + ml * hh) + ml * hl
    rest = pl + mag * lo
    whole = np.floor(rest)
    return ph.astype(np.int64) + whole.astype(np.int64), rest - whole, lo != 0.0


def _digits(x: np.ndarray):
    """The 17 significant digits and decimal exponent of each nonzero cell,
    with the mask of cells whose digits are not certain (both 0 there)."""
    mag = np.abs(x)
    unsafe = ~((mag >= _SAFE_MIN) & (mag <= _SAFE_MAX))
    mag[unsafe] = 1.0
    k = np.floor(np.log10(mag)).astype(np.int64)
    digits, frac, inexact = _scaled(mag, k)
    # log10 rounds a double just below 10^p up to p, one digit short: retry at p - 1
    short = np.flatnonzero(digits < 10**16)
    if short.size:
        k[short] -= 1
        digits[short], frac[short], inexact[short] = _scaled(mag[short], k[short])
    unsafe |= (digits < 10**16) | (digits >= 10**17)
    unsafe |= inexact & (np.abs(frac - 0.5) < _NEAR)
    digits += (frac > 0.5) | ((frac == 0.5) & (digits & 1).astype(bool))
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    digits[unsafe] = 0
    k[unsafe] = 0
    return digits, k, unsafe


def _format_block(block: np.ndarray):
    """Cell bytes of a row block, 0 where a byte is padding, and the mask of
    rows that Python must format."""
    rows, cols = block.shape
    t = _csv_tables()
    x = block.ravel()
    nonzero = np.flatnonzero(x)
    cells = np.empty((x.size, _CELL_WORDS), dtype=np.uint32)
    if nonzero.size < x.size:  # zero cells skip the digits; -0.0 keeps its sign
        cells[:] = t["zero"]
        cells[np.signbit(x), 0] = t["lead"][10]
        x = x[nonzero]
        out = np.empty((x.size, _CELL_WORDS), dtype=np.uint32)
    else:
        out = cells
    digits, k, unsafe = _digits(x)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    high = rest // 10**8
    low = (rest - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead += 10 * np.signbit(x)
    np.take(t["lead"], lead, out=out[:, 0], mode="wrap")
    for word, part in ((1, high), (3, low)):
        group = part // 10**4
        np.take(t["digits"], group, out=out[:, word], mode="wrap")
        np.take(t["digits"], part - group * 10**4, out=out[:, word + 1], mode="wrap")
    np.take(t["exp_head"], k - _K_MIN, out=out[:, 5], mode="wrap")
    np.take(t["exp_tail"], k - _K_MIN, out=out[:, 6], mode="wrap")
    if out is not cells:
        cells[nonzero] = out
    words = cells.reshape(rows, cols * _CELL_WORDS)
    end = words[:, -1:].view(np.uint8)  # the last cell's "," becomes "\n"
    end[end == ord(",")] = ord("\n")
    bad = np.zeros(rows, dtype=bool)
    bad[nonzero[unsafe] // cols] = True
    return words.view(np.uint8), bad


def _python_row(row: np.ndarray) -> bytes:
    return (",".join("%.16e" % v for v in row.tolist()) + "\n").encode()


def _csv_blocks(arr: np.ndarray):
    """The CSV text of a 2-D float array, "%.16e" cells joined by ",", one
    line per row, as bytes-like blocks of about _CHUNK_CELLS cells."""
    arr = np.asarray(arr, dtype=float)
    rows, cols = arr.shape
    if cols == 0:
        yield b"\n" * rows
        return
    step = max(1, _CHUNK_CELLS // cols)
    for first in range(0, rows, step):
        block = arr[first : first + step]
        text, bad = _format_block(block)
        start = 0
        for r in [*np.flatnonzero(bad), len(block)]:
            part = text[start:r]
            yield part[part != 0]
            if r < len(block):
                yield _python_row(block[r])
            start = r + 1
