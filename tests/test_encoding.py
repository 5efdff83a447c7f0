import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexp import encoding
from mexp.encoding import LbpParams2D


def monotone_remap(values, rng):
    """Random strictly increasing transform: order-preserving value remap
    built from cumulative positive steps (equal values stay equal)."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    levels = np.unique(flat)
    new_levels = np.cumsum(rng.uniform(0.1, 2.0, levels.size)) * rng.uniform(0.5, 3.0)
    lookup = dict(zip(levels.tolist(), new_levels.tolist()))
    out = np.array([lookup[v] for v in flat.tolist()])
    return out.reshape(np.shape(values))


class TestOnedlbpCode:
    @pytest.mark.parametrize("w", encoding.MASK_SIZES)
    def test_constant_signal_all_ones(self, w):
        signal = np.full(15, 3.7)
        assert encoding.onedlbp_code(signal, 7, w) == (1 << (w - 1)) - 1

    def test_declared_bit_order(self):
        # left neighbor below center, right neighbor above: only bit 1 set
        assert encoding.onedlbp_code(np.array([1.0, 2.0, 3.0]), 1, 3) == 2

    def test_boundary_center_rejected(self):
        with pytest.raises(ValueError):
            encoding.onedlbp_code(np.arange(9.0), 0, 3)
        with pytest.raises(ValueError):
            encoding.onedlbp_code(np.arange(9.0), 7, 5)

    def test_invalid_mask_rejected(self):
        with pytest.raises(ValueError):
            encoding.onedlbp_code(np.arange(9.0), 4, 4)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            signal = rng.uniform(0, 10, 30)
            remapped = monotone_remap(signal, rng)
            for w in encoding.MASK_SIZES:
                half = (w - 1) // 2
                for center in range(half, 30 - half):
                    assert encoding.onedlbp_code(
                        signal, center, w
                    ) == encoding.onedlbp_code(remapped, center, w)


class TestOnedlbpHistogram:
    def test_constant_signal(self):
        hist = encoding.onedlbp_histogram(np.full(20, 1.0), 9)
        assert hist[255] == 12.0 and hist.sum() == 12.0

    def test_length_equals_mask(self):
        hist = encoding.onedlbp_histogram(np.arange(7.0), 7)
        assert hist.sum() == 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            encoding.onedlbp_histogram(np.arange(6.0), 7)

    def test_matches_naive_recomputation(self):
        # independent per-position recomputation with explicit bit arithmetic
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = int(rng.choice(encoding.MASK_SIZES))
            n = int(rng.integers(w, 40))
            signal = rng.uniform(-5, 5, n)
            half = (w - 1) // 2
            naive = np.zeros(1 << (w - 1))
            for center in range(half, n - half):
                code = 0
                bit = 0
                for off in range(-half, half + 1):
                    if off == 0:
                        continue
                    if signal[center + off] >= signal[center]:
                        code += 1 << bit
                    bit += 1
                naive[code] += 1
            np.testing.assert_array_equal(
                encoding.onedlbp_histogram(signal, w), naive
            )

    @given(st.integers(0, 2**31), st.sampled_from(encoding.MASK_SIZES), st.integers(9, 50))
    @settings(max_examples=40)
    def test_count_and_range_invariants(self, seed, w, n):
        signal = np.random.default_rng(seed).uniform(0, 1, n)
        codes = encoding.onedlbp_codes(signal, w)
        assert codes.size == n - w + 1
        assert codes.min() >= 0 and codes.max() < 1 << (w - 1)
        assert encoding.onedlbp_histogram(signal, w).sum() == n - w + 1


class TestOnedlbpStack:
    @staticmethod
    def oracle_histogram(signal, w):
        half = (w - 1) // 2
        hist = np.zeros(1 << (w - 1))
        for center in range(half, signal.size - half):
            hist[encoding.onedlbp_code(signal, center, w)] += 1
        return hist

    @pytest.mark.parametrize("w", encoding.MASK_SIZES)
    def test_stack_is_sum_of_row_histograms(self, w):
        # mostly exact zeros and few levels, like projections of a sparse part
        rng = np.random.default_rng(w)
        stack = rng.integers(-2, 3, (7, 20)) * (rng.random((7, 20)) < 0.3) * 1.0
        want = sum(self.oracle_histogram(row, w) for row in stack)
        np.testing.assert_array_equal(encoding.onedlbp_histogram(stack, w), want)
        codes = encoding.onedlbp_codes(stack, w)
        assert codes.shape == (7, 20 - w + 1)
        for row, row_codes in zip(stack, codes):
            np.testing.assert_array_equal(row_codes, encoding.onedlbp_codes(row, w))

    def test_other_ranks_rejected(self):
        for bad in (np.float64(1.0), np.zeros((2, 3, 9))):
            with pytest.raises(ValueError):
                encoding.onedlbp_histogram(bad, 3)


class TestLbp2dCode:
    def test_constant_image_all_ones(self):
        params = LbpParams2D(8, 3)
        img = np.full((9, 9), 2.5)
        assert encoding.lbp2d_code(img, 4, 4, params) == 255

    def test_all_below_center(self):
        img = np.zeros((3, 3))
        img[1, 1] = 10.0
        assert encoding.lbp2d_code(img, 1, 1, LbpParams2D(8, 1)) == 0

    def test_margin_rejected(self):
        with pytest.raises(ValueError):
            encoding.lbp2d_code(np.zeros((7, 7)), 1, 3, LbpParams2D(8, 3))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LbpParams2D(3, 1)
        with pytest.raises(ValueError):
            LbpParams2D(8, 0)

    def test_monotone_invariance_integer_samples(self):
        # M=4 samples sit on the axes: exact pixel reads, so any strictly
        # increasing transform leaves every code unchanged
        rng = np.random.default_rng(2)
        for radius in (1, 2, 3):
            params = LbpParams2D(4, radius)
            img = rng.uniform(0, 9, (11, 12))
            remapped = monotone_remap(img, rng)
            np.testing.assert_array_equal(
                encoding.lbp2d_codes(img, params),
                encoding.lbp2d_codes(remapped, params),
            )

    def test_affine_invariance_interpolated_samples(self):
        # with interpolated diagonal samples, invariance holds for increasing
        # affine maps (they commute with the interpolation)
        rng = np.random.default_rng(3)
        params = LbpParams2D(8, 2)
        img = rng.integers(0, 256, (14, 10)).astype(np.float64)
        codes = encoding.lbp2d_codes(img, params)
        for _ in range(20):
            a = float(rng.integers(1, 9))
            b = float(rng.integers(-20, 21))
            np.testing.assert_array_equal(
                encoding.lbp2d_codes(a * img + b, params), codes
            )


class TestLbp2dHistogram:
    def test_constant_image(self):
        hist = encoding.lbp2d_histogram(np.full((10, 10), 4.0), LbpParams2D(8, 3))
        assert hist[255] == 16.0 and hist.sum() == 16.0

    def test_single_center(self):
        hist = encoding.lbp2d_histogram(np.zeros((7, 7)), LbpParams2D(8, 3))
        assert hist.sum() == 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            encoding.lbp2d_histogram(np.zeros((6, 9)), LbpParams2D(8, 3))

    def test_matches_per_position_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            radius = int(rng.integers(1, 4))
            params = LbpParams2D(8, radius)
            h = int(rng.integers(2 * radius + 1, 20))
            w = int(rng.integers(2 * radius + 1, 20))
            img = rng.uniform(0, 255, (h, w))
            naive = np.zeros(params.bin_count)
            for y in range(radius, h - radius):
                for x in range(radius, w - radius):
                    naive[encoding.lbp2d_code(img, x, y, params)] += 1
            np.testing.assert_array_equal(
                encoding.lbp2d_histogram(img, params), naive
            )

    def test_count_invariant(self):
        rng = np.random.default_rng(5)
        params = LbpParams2D(8, 3)
        img = rng.uniform(0, 1, (12, 17))
        hist = encoding.lbp2d_histogram(img, params)
        assert hist.sum() == (12 - 6) * (17 - 6)

    @given(st.integers(0, 2**31), st.integers(1, 3))
    @settings(max_examples=25)
    def test_codes_in_range(self, seed, radius):
        params = LbpParams2D(8, radius)
        img = np.random.default_rng(seed).uniform(0, 255, (9, 11))
        codes = encoding.lbp2d_codes(img, params)
        assert codes.min() >= 0 and codes.max() < params.bin_count


class TestNormalize:
    def test_basic(self):
        np.testing.assert_allclose(
            encoding.normalize(np.array([2.0, 2.0, 0.0, 0.0])),
            [0.5, 0.5, 0.0, 0.0],
        )

    def test_zero_vector_unchanged(self):
        np.testing.assert_array_equal(
            encoding.normalize(np.zeros(4)), np.zeros(4)
        )

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        h = rng.uniform(0, 5, 16)
        once = encoding.normalize(h)
        twice = encoding.normalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_unit_mass(self, seed):
        h = np.random.default_rng(seed).uniform(0, 3, 32)
        assert abs(encoding.normalize(h).sum() - 1.0) <= 1e-9
