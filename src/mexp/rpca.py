"""Low-rank + sparse decomposition of a vectorized clip matrix.

Each frame of a clip is vectorized as one column of a D x n matrix; the
solver splits that matrix into a low-rank part Q (identity, illumination,
everything static) and a sparse part E (the subtle motion), by minimizing
nuclear norm of Q plus a weighted l1 norm of E subject to Q + E = I.

The solver is the inexact augmented-Lagrange-multiplier scheme: alternating
elementwise soft-thresholding (E step) and singular-value thresholding
(Q step), followed by a multiplier update and a geometric penalty increase.
Singular values have one route, the Gram matrix of the short side, which
for a clip (far more pixels than frames) is a small n x n problem.

Each solve allocates its D x n work arrays once and writes every iteration
into them. The reason is page faults, not arithmetic: an array of a clip's
size (512 KB at 64x64x16) is above the allocator's mmap threshold, so each
fresh temporary is mapped anew and every page of it faults on first write,
and an iteration that made a handful of temporaries spent more time faulting
than computing. The iterates are the same as with fresh arrays; only the
memory order that BLAS receives can differ in the first iteration, which
moves the result in the last bits.
"""

import hashlib
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
    # Both defaults were measured on a set that no variant classifies
    # perfectly (the spec of tests/test_nonseparable.py at data seeds 1-10,
    # README "The RPCA schedule"). tol 1e-5 instead of 1e-7 took 27% fewer
    # iterations there (30-39% on the benchmark workloads) and lowered
    # neither mean accuracy at either block grid: at 7x3, improved
    # projections stayed at 0.548 and selection rose from 0.662 to 0.692.
    # rho 1.25 and 1.5 saved more iterations, but lowered the mean with
    # selection to 0.617 and 0.625, so the penalty grows by 1.1.
    tol: float = 1e-5
    max_iter: int = 500
    mu0_scale: float = 1.25
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

    def fingerprint(self) -> str:
        text = (
            f"w={self.sparse_weight};tol={self.tol};it={self.max_iter};"
            f"mu0={self.mu0_scale};rho={self.rho}"
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class SparseDecomposition:
    """Result of one solve: I ~ low_rank + sparse."""

    low_rank: np.ndarray
    sparse: np.ndarray
    iterations: int
    residual: float
    converged: bool


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


def shrink(x, tau: float, out=None) -> np.ndarray:
    """Elementwise soft threshold sign(x) * max(|x| - tau, 0), computed as
    x - clip(x, -tau, tau); thresholded entries are +0.0 whatever the sign
    of x. With `out`, the result is written there and returned."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if out is None or np.may_share_memory(x, out):
        # clipping into an alias of x would leave x - x = 0
        return np.subtract(x, np.clip(x, -tau, tau), out=out)
    np.clip(x, -tau, tau, out=out)
    return np.subtract(x, out, out=out)


def svt(x, tau: float, out=None) -> np.ndarray:
    """Singular value thresholding: U * shrink(S, tau) * Vt.

    The SVD comes from the eigendecomposition of the Gram matrix of the
    short side; directions lost to its squared conditioning carry sigma near
    sqrt(eps) * sigma_1 and negligible mass after shrinkage. With `out`
    (shaped like x, not overlapping it) the result is written there and
    returned.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    transpose = x.shape[0] < x.shape[1]
    a = x.T if transpose else x
    gram = a.T @ a
    # an inf or NaN entry of x, or one whose square overflows, makes the
    # Gram matrix non-finite: one check of n x n values, not of D x n
    if not np.all(np.isfinite(gram)):
        raise NumericError("non-finite input to singular value thresholding")
    w, v = np.linalg.eigh(gram)
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    v = v[:, ::-1]
    shrunk = s - tau
    keep = shrunk > 0.0  # none kept: an empty basis, and a zero product
    basis = v[:, keep]
    scaled = basis * (shrunk[keep] / s[keep])
    np.matmul(a @ scaled, basis.T, out=out.T if transpose else out)
    return out


def _spectral_norm(x) -> float:
    a = x.T if x.shape[0] < x.shape[1] else x
    w = np.linalg.eigvalsh(a.T @ a)
    return float(np.sqrt(max(w[-1], 0.0)))


def rpca_inexact_alm(mat, cfg: RpcaConfig = RpcaConfig()) -> SparseDecomposition:
    """Decompose a D x n matrix into low-rank + sparse parts.

    Per iteration: E <- shrink(I - Q + Y/mu, lambda/mu),
    Q <- svt(I - E + Y/mu, 1/mu), Y <- Y + mu (I - Q - E), mu <- rho mu,
    stopping when ||I - Q - E||_F / ||I||_F <= tol. A run that exhausts
    max_iter is returned with converged=False rather than discarded. Every
    step writes into arrays allocated once per solve (see the module
    docstring), in the order of operations of the formulas above.
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
        return SparseDecomposition(zero, zero.copy(), 0, 0.0, True)

    sigma1 = _spectral_norm(I)
    mu = cfg.mu0_scale / sigma1
    # The work arrays are C-ordered, and elementwise passes over operands of
    # mixed memory order are strided, so the loop reads a C-ordered copy of
    # I (a clip matrix is a transposed frame stack, so it is F-ordered).
    I = np.ascontiguousarray(I)
    Y = I / max(sigma1, np.abs(I).max() / lam)

    Q = np.zeros((d, n))
    E = np.empty((d, n))
    Y_mu = np.empty((d, n))  # Y / mu, and mu * R in the multiplier update
    arg = np.empty((d, n))   # argument of shrink, then of svt
    R = np.empty((d, n))
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        np.divide(Y, mu, out=Y_mu)
        np.subtract(I, Q, out=arg)
        np.add(arg, Y_mu, out=arg)
        shrink(arg, lam / mu, out=E)
        np.subtract(I, E, out=arg)
        np.add(arg, Y_mu, out=arg)
        svt(arg, 1.0 / mu, out=Q)
        np.subtract(I, Q, out=R)
        np.subtract(R, E, out=R)
        np.multiply(mu, R, out=Y_mu)
        np.add(Y, Y_mu, out=Y)
        mu *= cfg.rho
        residual = np.linalg.norm(R) / norm_fro
        if residual <= cfg.tol:
            break

    return SparseDecomposition(Q, E, iterations, float(residual), residual <= cfg.tol)


def decompose_clip(frames, cfg: RpcaConfig = RpcaConfig()) -> SparseDecomposition:
    """Vectorize a (T, H, W) frame stack and solve; `frames_from_matrix`
    turns either part back into frames."""
    return rpca_inexact_alm(clip_matrix(frames), cfg)
