"""Low-rank + sparse decomposition of a vectorized clip matrix.

Each frame of a clip is vectorized as one column of a D x n matrix; the
solver splits that matrix into a low-rank part Q (identity, illumination,
everything static) and a sparse part E (the subtle motion), by minimizing
nuclear norm of Q plus a weighted l1 norm of E subject to Q + E = I.

The solver is the inexact augmented-Lagrange-multiplier scheme: alternating
elementwise soft-thresholding (E step) and singular-value thresholding
(Q step), followed by a multiplier update and a geometric penalty increase.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class RpcaConfig:
    """Solver settings.

    sparse_weight is the l1 weight; None resolves to 1/sqrt(max(D, n)).
    mu0_scale sets the initial penalty as mu0_scale / sigma_1(I), and the
    penalty grows by rho each iteration.
    """

    sparse_weight: float | None = None
    tol: float = 1e-7
    max_iter: int = 500
    mu0_scale: float = 1.25
    # Growth 1.1 rather than the also-common 1.5: fast schedules can hit the
    # feasibility tolerance before the low-rank/sparse split is optimal.
    rho: float = 1.1

    def __post_init__(self):
        if self.sparse_weight is not None and self.sparse_weight <= 0:
            raise ValueError("sparse_weight must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.rho <= 1:
            raise ValueError("rho must exceed 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mu0_scale <= 0:
            raise ValueError("mu0_scale must be positive")


@dataclass
class SparseDecomposition:
    """Result of one solve: I ~ low_rank + sparse."""

    low_rank: np.ndarray
    sparse: np.ndarray
    iterations: int
    residual: float
    converged: bool
    frame_shape: tuple | None = None

    def sparse_frames(self) -> np.ndarray:
        """Sparse component reshaped back to a (T, H, W) frame stack."""
        if self.frame_shape is None:
            raise ValueError("decomposition carries no frame shape")
        return frames_from_matrix(self.sparse, self.frame_shape)

    def low_rank_frames(self) -> np.ndarray:
        if self.frame_shape is None:
            raise ValueError("decomposition carries no frame shape")
        return frames_from_matrix(self.low_rank, self.frame_shape)


def clip_matrix(frames) -> np.ndarray:
    """Stack a (T, H, W) frame array into a D x T matrix, one column per frame."""
    stack = np.asarray(frames, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected (T, H, W) frames, got shape {stack.shape}")
    t, h, w = stack.shape
    return stack.reshape(t, h * w).T


def frames_from_matrix(mat, frame_shape) -> np.ndarray:
    """Inverse of clip_matrix: column t becomes frame t of shape frame_shape."""
    m = np.asarray(mat, dtype=np.float64)
    h, w = frame_shape
    if m.shape[0] != h * w:
        raise ValueError(f"matrix has {m.shape[0]} rows, frame shape {h}x{w} needs {h*w}")
    return m.T.reshape(m.shape[1], h, w)


def shrink(x, tau: float) -> np.ndarray:
    """Elementwise soft threshold sign(x) * max(|x| - tau, 0)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def svt(x, tau: float) -> np.ndarray:
    """Singular value thresholding: U * shrink(S, tau) * Vt."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite input to singular value thresholding")
    d, n = x.shape
    if d >= 4 * n or n >= 4 * d:
        return _svt_gram(x, tau)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0.0
    if not keep.any():
        return np.zeros_like(x)
    return (u[:, keep] * s[keep]) @ vt[keep]


def _svt_gram(x, tau: float) -> np.ndarray:
    # Economy SVD of a strongly rectangular matrix via the short side's Gram
    # matrix; directions lost to the squared conditioning carry sigma near
    # sqrt(eps)*sigma1 and negligible mass after shrinkage.
    transpose = x.shape[0] < x.shape[1]
    a = x.T if transpose else x
    w, v = np.linalg.eigh(a.T @ a)
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    v = v[:, ::-1]
    shrunk = s - tau
    keep = shrunk > 0.0
    if not keep.any():
        return np.zeros_like(x)
    basis = v[:, keep]
    out = (a @ (basis * (shrunk[keep] / s[keep]))) @ basis.T
    return out.T if transpose else out


def _spectral_norm(x) -> float:
    d, n = x.shape
    if d >= 4 * n or n >= 4 * d:
        a = x.T if d < n else x
        w = np.linalg.eigvalsh(a.T @ a)
        return float(np.sqrt(max(w[-1], 0.0)))
    return float(np.linalg.svd(x, compute_uv=False)[0])


def rpca_inexact_alm(
    mat, cfg: RpcaConfig = RpcaConfig(), frame_shape=None
) -> SparseDecomposition:
    """Decompose a D x n matrix into low-rank + sparse parts.

    Per iteration: E <- shrink(I - Q + Y/mu, lambda/mu),
    Q <- svt(I - E + Y/mu, 1/mu), Y <- Y + mu (I - Q - E), mu <- rho mu,
    stopping when ||I - Q - E||_F / ||I||_F <= tol. A run that exhausts
    max_iter is returned with converged=False rather than discarded.
    """
    I = np.asarray(mat, dtype=np.float64)
    if I.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {I.shape}")
    if not np.all(np.isfinite(I)):
        raise NumericError("non-finite input to RPCA")
    d, n = I.shape
    if n < 2:
        raise ValueError(f"need at least 2 columns, got {n}")

    lam = cfg.sparse_weight if cfg.sparse_weight is not None else 1.0 / np.sqrt(max(d, n))
    norm_fro = np.linalg.norm(I)
    if norm_fro == 0.0:
        zero = np.zeros_like(I)
        return SparseDecomposition(zero, zero.copy(), 0, 0.0, True, frame_shape)

    sigma1 = _spectral_norm(I)
    mu = cfg.mu0_scale / sigma1
    Y = I / max(sigma1, np.abs(I).max() / lam)

    Q = np.zeros_like(I)
    E = np.zeros_like(I)
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        E = shrink(I - Q + Y / mu, lam / mu)
        Q = svt(I - E + Y / mu, 1.0 / mu)
        R = I - Q - E
        Y = Y + mu * R
        mu *= cfg.rho
        residual = np.linalg.norm(R) / norm_fro
        if residual <= cfg.tol:
            break

    return SparseDecomposition(
        Q, E, iterations, float(residual), residual <= cfg.tol, frame_shape
    )


def decompose_clip(frames, cfg: RpcaConfig = RpcaConfig()) -> SparseDecomposition:
    """Vectorize a (T, H, W) frame stack and solve, keeping the frame shape."""
    stack = np.asarray(frames, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected (T, H, W) frames, got shape {stack.shape}")
    return rpca_inexact_alm(clip_matrix(stack), cfg, frame_shape=stack.shape[1:])
