"""Cosparse analysis machinery.

Closed-form nullspace bases of row-sampled Laplacians, cosparsity
measurement against the Laplacian, and the uniqueness diagnostics: the
measurement bound 2(n - l), exhaustive oracles for the maximal cosparse
subspace dimension and the spark of the pseudoinverse dictionary, and a
randomized at-most-one-solution probe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circulant import _connected_pinv
from .graphs import CirculantSpec, Cosupport, Graph, _apply_laplacian, _whole, laplacian
from .linalg import ZERO_FLOOR, _require_finite, _require_tolerance, rank

__all__ = [
    "sampling_matrix",
    "zero_sum_basis",
    "NullspaceBasis",
    "nullspace_basis",
    "cosparsity",
    "max_cosparse_dim_bruteforce",
    "uniqueness_bound",
    "UniquenessCheck",
    "randomized_uniqueness_check",
    "spark_bruteforce",
]

UNIQUENESS_GAP_TOL = 1e-6  # smallest measurement gap a uniqueness probe accepts
MIN_SEPARATION = 1e-2  # least distance between the two unit signals of a trial
INDEPENDENCE_TOL = 1e-8  # singular value at or below which columns are dependent
ZERO_TEST_TOL = 1e-9  # default of the relative zero test in cosparsity and the zero-sum check


def sampling_matrix(indices, n: int) -> np.ndarray:
    """Row-selection matrix: row t holds a single 1 at column indices[t]."""
    idx = [_whole(i, "index") for i in indices]
    for i in idx:
        if i < 0 or i >= n:
            raise ValueError(f"index {i} out of range for n={n}")
    psi = np.zeros((len(idx), n))
    if idx:
        psi[np.arange(len(idx)), idx] = 1.0
    return psi


def zero_sum_basis(m: int) -> np.ndarray:
    """Lower-triangular basis of the zero-sum subspace of R^m.

    Shape m x (m-1).  Column k (0-indexed) holds m-1-k on the diagonal row k
    and -1 on every row below, zeros above, so each column sums to zero and
    the columns are linearly independent.  Mirrors the zero-sum column
    structure of a transposed incidence matrix.
    """
    if m < 1:
        raise ValueError("need at least one support element")
    w = np.zeros((m, m - 1))
    for k in range(m - 1):
        w[k, k] = float(m - 1 - k)
        w[k + 1 :, k] = -1.0
    return w


@dataclass(frozen=True)
class NullspaceBasis:
    """Closed-form basis of the signals annihilated on a cosupport.

    Spans {z * 1 + smooth_part @ c}: the constant vector plus the
    pseudoinverse image of zero-sum impulse combinations living on the
    cosupport complement.
    """

    cosupport: Cosupport
    smooth_part: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.column_stack([np.ones(self.cosupport.n), self.smooth_part])

    @property
    def dim(self) -> int:
        return 1 + self.smooth_part.shape[1]


def nullspace_basis(g: Graph | CirculantSpec, cosupport: Cosupport) -> NullspaceBasis:
    """Basis of the nullspace of the cosupport-sampled Laplacian rows.

    For a connected graph and cosupport with non-empty complement of size m,
    the nullspace has dimension exactly m and is spanned by the constant
    vector together with  L^+ Psi_complement^T W,  W the zero-sum basis.

    Raises for disconnected graphs (the per-component block model is out of
    scope), for graphs ``laplacian_pinv`` sees as numerically disconnected,
    and for a full cosupport (annihilating every row leaves span{1}; there
    is nothing left to sample).
    """
    if cosupport.n != g.n:
        raise ValueError("cosupport and graph sizes differ")
    comp = cosupport.complement
    if not comp:
        raise ValueError(
            "cosupport covers every vertex: the nullspace is span{1} and no "
            "sampled basis is defined"
        )
    return _basis_from_columns(_connected_pinv(g, comp)[1], cosupport)


def _basis_from_columns(cols: np.ndarray, cosupport: Cosupport) -> NullspaceBasis:
    """The closed-form basis from the complement columns of a connected
    graph's L^+.

    The columns come C-contiguous, as ``_connected_pinv`` and ``np.take``
    gather them; an F-ordered copy such as ``l_pinv[:, comp]`` can make BLAS
    round the product differently in the last bit.
    """
    return NullspaceBasis(cosupport, cols @ zero_sum_basis(cols.shape[1]))


def cosparsity(g: Graph | CirculantSpec, x, tol: float = ZERO_TEST_TOL) -> tuple[int, Cosupport]:
    """Count of vertices where L x vanishes, with the vanishing set.

    The zero test is relative: |(Lx)_i| <= tol * ||Lx||_inf, with ``tol``
    finite and >= 0.  Once ||Lx||_inf itself drops to the 1e-12 floor every
    vertex counts as annihilated.
    """
    vec = _require_finite(x, "signal")
    if vec.shape != (g.n,):
        raise ValueError(f"signal shape {vec.shape} does not match n={g.n}")
    return _annihilated(_apply_laplacian(g, vec), tol)


def _annihilated(lx: np.ndarray, tol: float) -> tuple[int, Cosupport]:
    """The zero count of ``cosparsity`` on a Laplacian image L x already formed."""
    _require_tolerance(tol)
    scale = float(np.abs(lx).max())
    if scale <= ZERO_FLOOR:
        members: tuple[int, ...] = tuple(range(lx.size))
    else:
        members = tuple(np.flatnonzero(np.abs(lx) <= tol * scale).tolist())
    return len(members), Cosupport(lx.size, members)


def max_cosparse_dim_bruteforce(g: Graph | CirculantSpec, l: int) -> int:
    """Largest nullspace dimension of the Laplacian rows sampled on a
    cosupport of size >= l, by exhaustive search; exponential, small n only.

    n - l for a connected graph and 0 <= l < n; ``verify`` checks that
    closed form on every small connected circulant.
    """
    lap = laplacian(g)
    best = 0
    for size in range(max(l, 0), g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if size == 0:
                best = max(best, g.n)
                continue
            best = max(best, g.n - rank(lap[list(subset), :]))
    return best


def uniqueness_bound(n: int, l: int) -> int:
    """Measurements guaranteeing at most one signal of cosparsity >= l.

    Twice the maximal cosparse dimension, 2 * (n - l); zero at l = n where
    only constants remain.
    """
    if not 0 <= l <= n:
        raise ValueError("cosparsity level must lie in [0, n]")
    return 2 * (n - l)


@dataclass(frozen=True)
class UniquenessCheck:
    passed: bool
    min_gap: float
    trials: int


def randomized_uniqueness_check(
    g: Graph | CirculantSpec, l: int, m: int, trials: int = 100, seed: int = 42
) -> UniquenessCheck:
    """Empirical at-most-one-solution probe (evidence, not proof).

    Per trial: draw two distinct unit-norm signals, each annihilated on its
    own random size-l cosupport, plus an i.i.d. Gaussian measurement matrix
    with m rows; record the smallest measurement gap seen.  Continuous
    random measurement rows have no non-trivial dependencies with the
    Laplacian rows almost surely, which is the regime the bound addresses.
    ``trials`` and ``m`` must be at least 1: a probe that ran no trial is no
    evidence, and with no measurement every pair of signals collides.  A
    disconnected graph, or one ``laplacian_pinv`` sees as numerically
    disconnected, raises.
    """
    if not 0 < l < g.n:
        raise ValueError("cosparsity level must lie in (0, n)")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if m < 1:
        raise ValueError(f"measurement count m must be at least 1, got {m}")
    rng = np.random.default_rng(seed)
    l_pinv = _connected_pinv(g)[1]
    min_gap = np.inf
    for _ in range(trials):
        mat = rng.standard_normal((m, g.n))
        for _attempt in range(100):
            pair = []
            for _ in range(2):
                members = tuple(sorted(rng.choice(g.n, size=l, replace=False)))
                cos = Cosupport(g.n, members)
                basis = _basis_from_columns(np.take(l_pinv, cos.complement, axis=1), cos)
                vec = basis.matrix() @ rng.standard_normal(basis.dim)
                pair.append(vec / max(float(np.linalg.norm(vec)), ZERO_FLOOR))
            if float(np.linalg.norm(pair[0] - pair[1])) >= MIN_SEPARATION:
                break
        else:
            raise RuntimeError("could not draw two separated cosparse signals")
        gap = float(np.linalg.norm(mat @ (pair[0] - pair[1])))
        min_gap = min(min_gap, gap)
    return UniquenessCheck(min_gap > UNIQUENESS_GAP_TOL, float(min_gap), trials)


def spark_bruteforce(a) -> int:
    """Smallest number of linearly dependent columns, by exhaustive search.

    A subset counts as dependent when its smallest singular value drops to
    ``INDEPENDENCE_TOL`` or below.  Returns ncols + 1 when every subset is
    independent.  Exponential; intended for n <= 8 cross-checks.

    The L^+ dictionary of a connected graph has spark n: its columns carry
    exactly one dependency (the constant left-nullvector of L), so every
    n - 1 of them are independent.  ``verify`` checks this on every small
    connected circulant.
    """
    arr = np.atleast_2d(_require_finite(a))
    ncols = arr.shape[1]
    for size in range(1, ncols + 1):
        for subset in itertools.combinations(range(ncols), size):
            s = np.linalg.svd(arr[:, list(subset)], compute_uv=False)
            if s.size < size or s[size - 1] <= INDEPENDENCE_TOL:
                return size
    return ncols + 1
