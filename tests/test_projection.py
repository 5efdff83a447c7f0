import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mexp.projection import Region, horizontal_projection, vertical_projection

FULL = Region(0, 6, 0, 5)  # for 5x6 matrices


class TestRegion:
    def test_invalid_bounds_rejected(self):
        for bad in [(2, 2, 0, 3), (3, 2, 0, 3), (0, 2, -1, 3)]:
            with pytest.raises(ValueError):
                Region(*bad)

    def test_extent(self):
        r = Region(1, 4, 2, 8)
        assert r.width == 3 and r.height == 6


class TestProjections:
    def test_constant_matrix(self):
        m = np.full((5, 6), 3.25)
        np.testing.assert_allclose(horizontal_projection(m, FULL), np.full(5, 3.25))
        np.testing.assert_allclose(vertical_projection(m, FULL), np.full(6, 3.25))

    def test_single_row(self):
        m = np.zeros((5, 6))
        m[2, :] = 7.0
        h = horizontal_projection(m, FULL)
        np.testing.assert_allclose(h, [0, 0, 7.0, 0, 0])

    def test_lengths(self):
        m = np.arange(30.0).reshape(5, 6)
        r = Region(1, 4, 0, 2)
        assert horizontal_projection(m, r).shape == (2,)
        assert vertical_projection(m, r).shape == (3,)

    def test_out_of_bounds_rejected(self):
        m = np.zeros((5, 6))
        with pytest.raises(ValueError):
            horizontal_projection(m, Region(0, 7, 0, 5))
        with pytest.raises(ValueError):
            vertical_projection(m, Region(0, 6, 0, 6))

    def test_stack_rows_are_frame_projections(self):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((7, 9, 11)) * (rng.random((7, 9, 11)) < 0.3)
        r = Region(2, 10, 1, 8)
        h = horizontal_projection(stack, r)
        v = vertical_projection(stack, r)
        assert h.shape == (7, 7) and v.shape == (7, 8)
        for t, frame in enumerate(stack):
            assert h[t].tobytes() == horizontal_projection(frame, r).tobytes()
            assert v[t].tobytes() == vertical_projection(frame, r).tobytes()

    def test_other_ranks_rejected(self):
        for bad in (np.zeros(6), np.zeros((2, 2, 5, 6))):
            with pytest.raises(ValueError):
                horizontal_projection(bad, FULL)

    @given(
        arrays(np.float64, (5, 6), elements=st.floats(-100, 100)),
        arrays(np.float64, (5, 6), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=30)
    def test_linearity(self, a, b):
        np.testing.assert_allclose(
            horizontal_projection(a + b, FULL),
            horizontal_projection(a, FULL) + horizontal_projection(b, FULL),
            atol=1e-9,
        )
        np.testing.assert_allclose(
            vertical_projection(a + b, FULL),
            vertical_projection(a, FULL) + vertical_projection(b, FULL),
            atol=1e-9,
        )

    def test_transpose_duality(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 6))
        r = Region(1, 5, 0, 4)
        r_t = Region(r.y1, r.y2, r.x1, r.x2)
        np.testing.assert_allclose(
            vertical_projection(m, r), horizontal_projection(m.T, r_t)
        )

    def test_mean_preservation(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(0, 9, (8, 7))
        r = Region(2, 6, 1, 7)
        region_mean = m[r.y1 : r.y2, r.x1 : r.x2].mean()
        assert abs(horizontal_projection(m, r).mean() - region_mean) < 1e-12
        assert abs(vertical_projection(m, r).mean() - region_mean) < 1e-12

    def test_signed_values_not_clamped(self):
        m = np.full((4, 4), -2.0)
        out = horizontal_projection(m, Region(0, 4, 0, 4))
        assert (out == -2.0).all()
