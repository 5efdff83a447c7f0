import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mexp import SynthSpec, rpca, synthesize_dataset
from mexp.errors import NumericError


def planted_instance(rng, shape=(60, 40), rank=2, density=0.05):
    d, n = shape
    low = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
    sparse = np.zeros(shape)
    mask = rng.random(shape) < density
    sparse[mask] = rng.uniform(-1, 1, mask.sum()) * np.abs(low).max()
    return low, sparse


@pytest.mark.parametrize(
    "bad",
    [
        dict(sparse_weight=float("nan")),
        dict(tol=float("nan")),
        dict(tol=float("inf")),
        dict(rho=float("nan")),
        dict(rho=float("inf")),
        dict(mu0_scale=float("nan")),
        dict(mu0_scale=float("inf")),
    ],
)
def test_rpca_config_refuses_non_finite_settings(bad):
    [name] = bad
    with pytest.raises(ValueError, match=f"^{name} "):
        rpca.RpcaConfig(**bad)


class TestShrink:
    def test_definition(self):
        out = rpca.shrink(np.array([5.0, -3.0, 0.5]), 1.0)
        np.testing.assert_allclose(out, [4.0, -2.0, 0.0])

    def test_zero_tau_identity(self):
        x = np.arange(-4.0, 5.0).reshape(3, 3)
        np.testing.assert_array_equal(rpca.shrink(x, 0.0), x)

    def test_minimizer_property(self):
        # shrink(a, tau) minimizes tau*|e| + 0.5*(e-a)^2, checked by grid search
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.uniform(-5, 5)
            tau = rng.uniform(0, 3)
            grid = np.linspace(-8, 8, 20001)
            objective = tau * np.abs(grid) + 0.5 * (grid - a) ** 2
            best = grid[np.argmin(objective)]
            assert abs(float(rpca.shrink(np.array([a]), tau)[0]) - best) < 2e-3

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            rpca.shrink(np.zeros((2, 2)), -0.1)

    @staticmethod
    def _input():
        # exact zeros and entries at +-tau exercise both sides of the clip
        x = np.random.default_rng(13).standard_normal((30, 7)) * 3
        x[::4] = 0.0
        x[1, :3] = [0.5, -0.5, 2.0]
        return x

    @pytest.mark.parametrize("tau", [0.0, 0.5, 2.0])
    def test_out_matches_fresh(self, tau):
        x = self._input()
        buf = np.full_like(x, np.nan)
        assert rpca.shrink(x, tau, out=buf) is buf
        np.testing.assert_array_equal(buf, rpca.shrink(x, tau))

    @pytest.mark.parametrize("tau", [0.0, 0.5, 2.0])
    def test_out_aliasing_input(self, tau):
        want = rpca.shrink(self._input(), tau)
        x = self._input()
        assert rpca.shrink(x, tau, out=x) is x
        np.testing.assert_array_equal(x, want)
        y = self._input()
        rpca.shrink(y, tau, out=y[::-1])
        np.testing.assert_array_equal(y[::-1], want)

    @given(
        arrays(np.float64, (4, 3), elements=st.floats(-50, 50)),
        arrays(np.float64, (4, 3), elements=st.floats(-50, 50)),
        st.floats(0, 10),
    )
    def test_nonexpansive(self, x, y, tau):
        dist = np.linalg.norm(rpca.shrink(x, tau) - rpca.shrink(y, tau))
        assert dist <= np.linalg.norm(x - y) + 1e-9


class TestSvt:
    def test_zero_tau_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 5))
        assert np.abs(rpca.svt(x, 0.0) - x).max() < 1e-10

    def test_diagonal(self):
        out = rpca.svt(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_nuclear_norm_oracle(self):
        # nuclear norm of svt(X, tau) equals sum of max(sigma_i - tau, 0),
        # with singular values computed independently
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal((12, 7))
            tau = rng.uniform(0, 2)
            sigma = np.linalg.svd(x, compute_uv=False)
            expected = np.maximum(sigma - tau, 0.0).sum()
            got = np.linalg.svd(rpca.svt(x, tau), compute_uv=False).sum()
            assert abs(got - expected) < 1e-9

    def test_gram_path_matches_lapack(self):
        # tall, wide, near square and square: the Gram matrix of the short
        # side against a direct SVD
        rng = np.random.default_rng(2)
        for shape in [(64, 6), (6, 64), (9, 6), (40, 40)]:
            x = rng.standard_normal(shape)
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            for tau in (0.0, 0.5, 3.0):
                direct = (u * np.maximum(s - tau, 0.0)) @ vt
                assert np.abs(rpca.svt(x, tau) - direct).max() < 1e-10

    @pytest.mark.parametrize("shape", [(9, 6), (64, 6), (6, 64)])
    def test_out_matches_fresh(self, shape):
        # near square, tall, and wide (transposed Gram); the largest tau
        # thresholds every singular value away
        x = np.random.default_rng(3).standard_normal(shape)
        for tau in (0.0, 1.0, 100.0):
            out = np.full(shape, np.nan)
            assert rpca.svt(x, tau, out=out) is out
            np.testing.assert_array_equal(out, rpca.svt(x, tau))

    def test_nonfinite_rejected(self):
        x = np.ones((3, 3))
        x[1, 1] = np.nan
        with pytest.raises(NumericError):
            rpca.svt(x, 1.0)

    @pytest.mark.parametrize("shape", [(3, 3), (64, 6), (6, 64)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_nonfinite_gram_rejected(self, shape, bad):
        # the check reads the Gram matrix: 1e200 is finite, but its square
        # overflows there
        x = np.ones(shape)
        x[1, 1] = bad
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="non-finite input to singular"
        ):
            rpca.svt(x, 1.0)

    @pytest.mark.parametrize(
        "route", [lambda x: rpca.svt(x, 1.0), rpca._spectral_norm, rpca.rpca_inexact_alm],
        ids=["svt", "spectral norm", "rpca"],
    )
    def test_overflow_raises_numeric_error_under_warnings_as_errors(self, route):
        # 1e200 is finite, but its square overflows: the error, not numpy's
        # overflow warning made an exception
        x = np.ones((64, 6))
        x[1, 1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                route(x)

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal((9, 6))
            y = rng.standard_normal((9, 6))
            tau = rng.uniform(0, 2)
            dist = np.linalg.norm(rpca.svt(x, tau) - rpca.svt(y, tau))
            assert dist <= np.linalg.norm(x - y) + 1e-9


class TestClipMatrix:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(5)
        frames = rng.uniform(0, 255, (6, 4, 5))
        mat = rpca.clip_matrix(frames)
        assert mat.shape == (20, 6)
        np.testing.assert_array_equal(rpca.frames_from_matrix(mat, (4, 5)), frames)

    def test_column_is_vectorized_frame(self):
        frames = np.arange(24.0).reshape(2, 3, 4)
        mat = rpca.clip_matrix(frames)
        np.testing.assert_array_equal(mat[:, 1], frames[1].ravel())


def reference_alm(mat, cfg=rpca.RpcaConfig()):
    """The inexact-ALM loop written with one fresh array per step and the
    sign * max(|x| - tau, 0) threshold: the reference for the solver's
    buffered loop. Returns (Q, E, iterations, converged)."""
    I = np.asarray(mat, dtype=np.float64)
    d, n = I.shape
    lam = 1.0 / np.sqrt(max(d, n))
    norm_fro = np.linalg.norm(I)
    sigma1 = rpca._spectral_norm(I)
    mu = cfg.mu0_scale / sigma1
    Y = I / max(sigma1, np.abs(I).max() / lam)
    Q = np.zeros_like(I)
    E = np.zeros_like(I)
    for iterations in range(1, cfg.max_iter + 1):
        x = I - Q + Y / mu
        E = np.sign(x) * np.maximum(np.abs(x) - lam / mu, 0.0)
        Q = rpca.svt(I - E + Y / mu, 1.0 / mu)
        R = I - Q - E
        Y = Y + mu * R
        mu *= cfg.rho
        residual = np.linalg.norm(R) / norm_fro
        if residual <= cfg.tol:
            break
    return Q, E, iterations, residual <= cfg.tol


def synthetic_clip_matrix():
    index, clips = synthesize_dataset(
        SynthSpec(n_subjects=2, n_classes=1, clips_per_subject_per_class=1,
                  width=64, height=64, min_frames=16, max_frames=16, seed=7)
    )
    return rpca.clip_matrix(clips[index.entries[0].clip_id].frames)


class TestBufferedLoop:
    """The solver's preallocated loop against the fresh-array reference: the
    same iteration count and convergence flag, Q and E within 1e-6 max|I|
    (only the memory order that BLAS receives differs)."""

    @pytest.mark.parametrize(
        "shape, max_iter",
        [((60, 40), 500), ((200, 12), 500), ((12, 200), 500), ((60, 40), 5)],
    )
    def test_planted(self, shape, max_iter):
        low, sparse = planted_instance(np.random.default_rng(sum(shape)), shape)
        self._check(low + sparse, rpca.RpcaConfig(max_iter=max_iter))

    def test_synthetic_clip(self):
        self._check(synthetic_clip_matrix(), rpca.RpcaConfig())

    @staticmethod
    def _check(mat, cfg):
        q, e, iterations, converged = reference_alm(mat, cfg)
        dec = rpca.rpca_inexact_alm(mat, cfg)
        assert dec.iterations == iterations
        assert dec.converged == converged
        bound = 1e-6 * np.abs(mat).max()
        assert np.abs(dec.low_rank - q).max() <= bound
        assert np.abs(dec.sparse - e).max() <= bound


class TestInexactAlm:
    def test_zero_input(self):
        dec = rpca.rpca_inexact_alm(np.zeros((10, 4)))
        assert dec.converged and dec.residual == 0.0
        assert not dec.low_rank.any() and not dec.sparse.any()

    def test_rank1_exact_recovery(self):
        # incoherent rank-1 input with no corruption: sparse part stays empty
        rng = np.random.default_rng(6)
        u = rng.choice([-1.0, 1.0], 60) * rng.uniform(0.5, 1.5, 60)
        v = rng.choice([-1.0, 1.0], 12) * rng.uniform(0.5, 1.5, 12)
        mat = np.outer(u, v)
        dec = rpca.rpca_inexact_alm(mat)
        assert np.linalg.norm(dec.sparse) / np.linalg.norm(mat) <= 1e-4

    def test_planted_recovery(self):
        rng = np.random.default_rng(7)
        low, sparse = planted_instance(rng)
        dec = rpca.rpca_inexact_alm(low + sparse)
        err = np.linalg.norm(dec.low_rank - low) / np.linalg.norm(low)
        assert err <= 1e-3
        assert dec.converged

    def test_feasibility_on_convergence(self):
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((30, 20))
        dec = rpca.rpca_inexact_alm(mat)
        if dec.converged:
            rel = np.linalg.norm(mat - dec.low_rank - dec.sparse) / np.linalg.norm(mat)
            assert rel <= rpca.RpcaConfig().tol

    def test_objective_not_worse_than_trivial(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            mat = rng.standard_normal((40, 25))
            dec = rpca.rpca_inexact_alm(mat)
            lam = 1.0 / np.sqrt(40)
            objective = (
                np.linalg.svd(dec.low_rank, compute_uv=False).sum()
                + lam * np.abs(dec.sparse).sum()
            )
            trivial = np.linalg.svd(mat, compute_uv=False).sum()
            assert objective <= trivial + 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        mat = rng.standard_normal((25, 12))
        a = rpca.rpca_inexact_alm(mat)
        b = rpca.rpca_inexact_alm(mat)
        np.testing.assert_array_equal(a.low_rank, b.low_rank)
        np.testing.assert_array_equal(a.sparse, b.sparse)
        assert a.iterations == b.iterations

    def test_nonconvergence_flagged_not_discarded(self):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((20, 15))
        dec = rpca.rpca_inexact_alm(mat, rpca.RpcaConfig(max_iter=2))
        assert not dec.converged
        assert dec.low_rank.shape == mat.shape

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rpca.rpca_inexact_alm(np.zeros((5, 1)))
        bad = np.ones((4, 4))
        bad[0, 0] = np.inf
        with pytest.raises(NumericError):
            rpca.rpca_inexact_alm(bad)

    def test_decompose_clip_keeps_frame_shape(self):
        # the absolute bound is written for tol 1e-7; at the default the
        # solver promises only its relative residual, checked below
        rng = np.random.default_rng(12)
        frames = rng.uniform(0, 255, (6, 8, 9))
        dec = rpca.decompose_clip(frames, rpca.RpcaConfig(tol=1e-7))
        sparse = rpca.frames_from_matrix(dec.sparse, (8, 9))
        assert sparse.shape == (6, 8, 9)
        recon = rpca.frames_from_matrix(dec.low_rank, (8, 9)) + sparse
        assert np.abs(recon - frames).max() < 1e-4

        cfg = rpca.RpcaConfig()
        dec = rpca.decompose_clip(frames, cfg)
        assert dec.converged
        recon = rpca.frames_from_matrix(dec.low_rank + dec.sparse, (8, 9))
        assert np.abs(recon - frames).max() <= cfg.tol * np.linalg.norm(frames)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_shrink_svt_agree_on_singular_values(seed):
    # svt acts as shrink on the singular spectrum
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4))
    tau = rng.uniform(0, 2)
    got = np.linalg.svd(rpca.svt(x, tau), compute_uv=False)
    want = rpca.shrink(np.linalg.svd(x, compute_uv=False), tau)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_default_schedule_work_gate():
    # a gate on ALM iterations, free of timing noise: the default tolerance
    # converges every clip in at most 3/4 of the iterations of tol 1e-7
    index, clips = synthesize_dataset(
        SynthSpec(n_subjects=2, n_classes=3, clips_per_subject_per_class=1, seed=0)
    )
    stacks = [clips[e.clip_id].frames for e in index.entries]
    default = [rpca.decompose_clip(f) for f in stacks]
    tight = [rpca.decompose_clip(f, rpca.RpcaConfig(tol=1e-7)) for f in stacks]
    assert all(d.converged for d in default)
    work = sum(d.iterations for d in default)
    assert work <= 0.75 * sum(d.iterations for d in tight)
