import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexp import encoding, rpca
from mexp.dataset import VideoClip
from mexp.descriptor import (
    PLANES,
    SOURCES,
    DescriptorConfig,
    block_histograms,
    block_regions,
    extract_descriptor,
    temporal_normalize,
)
from mexp.errors import ConfigError, DataError
from mexp.projection import Region, horizontal_projection, vertical_projection
from mexp.rpca import RpcaConfig

SMALL_CFG = DescriptorConfig(
    blocks_m=2, blocks_n=2, mask_w=5, lbp_samples=8, lbp_radius=1,
    temporal_length=9, source="improved",
)


def make_clip(frames, clip_id="c0"):
    return VideoClip(np.asarray(frames, dtype=np.float64), "s0", 0, clip_id)


def group(histogram, layout, g):
    """Group g of a flat descriptor: its columns in `layout`."""
    return histogram[layout.offsets[g] : layout.offsets[g + 1]]


def sparse_only(frames):
    mat = rpca.clip_matrix(np.asarray(frames, dtype=np.float64))
    return rpca.SparseDecomposition(np.zeros_like(mat), mat.copy(), 1, 0.0, True)


class TestBlockRegions:
    def test_exact_division(self):
        regions = block_regions((64, 64), 2, 2)
        assert len(regions) == 4
        assert all(r.width == 32 and r.height == 32 for r in regions)

    def test_remainder_to_last_row(self):
        regions = block_regions((65, 64), 2, 2)
        assert regions[0].height == 32
        assert regions[2].height == 33 and regions[3].height == 33

    def test_row_major_order(self):
        regions = block_regions((20, 30), 2, 3)
        assert (regions[0].x1, regions[0].y1) == (0, 0)
        assert (regions[1].x1, regions[1].y1) == (10, 0)
        assert (regions[3].x1, regions[3].y1) == (0, 10)

    @given(
        st.integers(8, 80), st.integers(8, 80), st.integers(1, 5), st.integers(1, 5)
    )
    @settings(max_examples=50)
    def test_partition_property(self, h, w, m, n):
        if h // m < 1 or w // n < 1:
            return
        regions = block_regions((h, w), m, n)
        covered = np.zeros((h, w), dtype=int)
        for r in regions:
            covered[r.y1 : r.y2, r.x1 : r.x2] += 1
        assert (covered == 1).all()

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="invalid region"):
            block_regions((1, 10), 2, 2)


BLOCK_CFG = DescriptorConfig(
    blocks_m=1, blocks_n=1, mask_w=5, lbp_samples=8, lbp_radius=1,
    temporal_length=9,
)


class TestSpatialHistograms:
    """XYH and XYV, the first two histograms of `block_histograms`."""

    def test_zero_frames_constant_code(self):
        frames = np.zeros((10, 12, 12))
        region = Region(0, 12, 0, 12)
        f_h, f_v, _, _ = block_histograms(frames, region, BLOCK_CFG)
        top = (1 << 4) - 1
        assert f_h[top] == 1.0 and f_h.sum() == 1.0
        assert f_v[top] == 1.0

    def test_accumulation_matches_per_frame_oracle(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((6, 9, 10))
        # like a sparse part: mostly exact zeros and few levels, so many ties
        sparse = np.round(dense) * (rng.random(dense.shape) < 0.2)
        region = Region(1, 9, 0, 8)
        for frames in (dense, sparse):
            got = block_histograms(frames, region, BLOCK_CFG)[:2]
            for hist, project in zip(got, (horizontal_projection, vertical_projection)):
                acc = np.zeros(1 << 4)
                for f in frames:
                    signal = project(f, region)
                    for center in range(2, signal.size - 2):
                        acc[encoding.onedlbp_code(signal, center, 5)] += 1
                np.testing.assert_array_equal(hist, acc / acc.sum())


class TestTemporalTexture:
    """XT and YT, the last two histograms of `block_histograms`: 2D patterns
    of images whose columns are the per-frame projections."""

    def test_zero_frames(self):
        _, _, f_xt, f_yt = block_histograms(
            np.zeros((5, 8, 8)), Region(0, 8, 0, 8), BLOCK_CFG
        )
        for hist in (f_xt, f_yt):
            assert hist[255] == 1.0 and hist.sum() == 1.0

    def test_shape_contract(self):
        frames = np.random.default_rng(2).standard_normal((12, 40, 20))
        hists = block_histograms(frames, Region(0, 20, 5, 35), BLOCK_CFG)
        assert [h.size for h in hists] == [BLOCK_CFG.plane_bins(p) for p in PLANES]

    def test_columns_are_projections(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((7, 10, 9))
        region = Region(2, 9, 1, 8)
        for temporal_length in (9, 0):
            cfg = DescriptorConfig(1, 1, 5, 8, 1, temporal_length)
            _, _, f_xt, f_yt = block_histograms(frames, region, cfg)
            for hist, project in (
                (f_xt, vertical_projection), (f_yt, horizontal_projection)
            ):
                img = np.stack([project(f, region) for f in frames], axis=1)
                if temporal_length:
                    img = temporal_normalize(img, temporal_length)
                expected = encoding.normalize(
                    encoding.lbp2d_histogram(img, cfg.lbp_params)
                )
                np.testing.assert_array_equal(hist, expected)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            block_histograms(np.zeros((1, 8, 8)), Region(0, 8, 0, 8), BLOCK_CFG)


class TestTemporalNormalize:
    def test_identity_when_lengths_match(self):
        rng = np.random.default_rng(4)
        img = rng.standard_normal((6, 11))
        np.testing.assert_allclose(temporal_normalize(img, 11), img, atol=1e-12)

    def test_constant_rows(self):
        img = np.full((3, 5), 2.5)
        np.testing.assert_allclose(temporal_normalize(img, 17), np.full((3, 17), 2.5))

    def test_linear_ramp(self):
        img = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(temporal_normalize(img, 3), [[0.0, 0.5, 1.0]])

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            temporal_normalize(np.zeros((4, 1)), 8)

    def test_row_count_unchanged(self):
        img = np.random.default_rng(5).standard_normal((9, 4))
        assert temporal_normalize(img, 25).shape == (9, 25)


def per_frame_descriptor(frames, cfg):
    """The descriptor assembled one frame at a time: every projection taken
    per frame, 1D histograms summed frame by frame, temporal textures
    stacked column by column."""
    hists = []
    for region in block_regions(frames.shape[1:], cfg.blocks_m, cfg.blocks_n):
        proj_h = [horizontal_projection(f, region) for f in frames]
        proj_v = [vertical_projection(f, region) for f in frames]
        for proj in (proj_h, proj_v):  # XYH, XYV
            acc = np.zeros(1 << (cfg.mask_w - 1))
            for signal in proj:
                acc += encoding.onedlbp_histogram(signal, cfg.mask_w)
            hists.append(encoding.normalize(acc))
        for proj in (proj_v, proj_h):  # XT, YT
            img = np.stack(proj, axis=1)
            if cfg.temporal_length:
                img = temporal_normalize(img, cfg.temporal_length)
            hists.append(
                encoding.normalize(encoding.lbp2d_histogram(img, cfg.lbp_params))
            )
    return np.concatenate(hists)


class TestExtractDescriptor:
    @pytest.mark.parametrize("temporal_length", [9, 0])
    def test_matches_per_frame_assembly(self, temporal_length):
        rng = np.random.default_rng(4)
        frames = np.round(rng.standard_normal((8, 13, 12)) * 2)
        frames *= rng.random(frames.shape) < 0.25
        cfg = DescriptorConfig(
            blocks_m=2, blocks_n=2, mask_w=5, lbp_samples=8, lbp_radius=1,
            temporal_length=temporal_length,
        )
        desc = extract_descriptor(make_clip(frames), sparse_only(frames), cfg)
        assert desc.tobytes() == per_frame_descriptor(frames, cfg).tobytes()

    def test_zero_sparse_constant_codes(self):
        frames = np.full((8, 16, 16), 100.0)
        clip = make_clip(frames)
        dec = rpca.SparseDecomposition(
            rpca.clip_matrix(frames), np.zeros((256, 8)), 1, 0.0, True
        )
        cfg = DescriptorConfig(1, 1, 5, 8, 1, 9, "improved")
        desc = extract_descriptor(clip, dec, cfg)
        layout = cfg.layout
        assert layout.planes == PLANES
        assert desc.size == layout.offsets[-1]
        assert group(desc, layout, 0)[(1 << 4) - 1] == 1.0  # XYH
        assert group(desc, layout, 2)[255] == 1.0  # XT
        assert group(desc, layout, 3)[255] == 1.0  # YT

    def test_group_count_and_order(self):
        rng = np.random.default_rng(6)
        frames = rng.uniform(0, 255, (10, 24, 24))
        clip = make_clip(frames)
        desc = extract_descriptor(clip, sparse_only(frames), SMALL_CFG)
        layout = SMALL_CFG.layout
        assert len(layout.planes) == SMALL_CFG.n_groups == 16
        assert layout.planes[:8] == PLANES * 2  # block-major: block 0, then 1
        sizes = np.diff(layout.offsets)
        assert list(sizes[:4]) == [16, 16, 256, 256]
        assert desc.shape == (layout.offsets[-1],) and layout.offsets[-1] == sizes.sum()

    def test_every_histogram_normalized(self):
        rng = np.random.default_rng(7)
        frames = rng.uniform(0, 255, (7, 24, 24))
        desc = extract_descriptor(make_clip(frames), sparse_only(frames), SMALL_CFG)
        for g in range(SMALL_CFG.n_groups):
            total = group(desc, SMALL_CFG.layout, g).sum()
            assert total == 0.0 or abs(total - 1.0) <= 1e-9

    def test_deterministic_given_same_sparse_part(self):
        rng = np.random.default_rng(8)
        frames = rng.uniform(0, 255, (9, 24, 24))
        clip = make_clip(frames)
        dec = sparse_only(frames)
        d1 = extract_descriptor(clip, dec, SMALL_CFG)
        d2 = extract_descriptor(clip, dec, SMALL_CFG)
        np.testing.assert_array_equal(d1, d2)

    def test_original_source_needs_no_decomposition(self):
        rng = np.random.default_rng(9)
        frames = rng.uniform(0, 255, (8, 24, 24))
        cfg = DescriptorConfig(2, 2, 5, 8, 1, 9, "original")
        desc = extract_descriptor(make_clip(frames), None, cfg)
        assert desc.size == cfg.layout.offsets[-1]

    def test_temporal_disabled_uses_clip_length(self):
        rng = np.random.default_rng(11)
        frames = rng.uniform(0, 255, (9, 24, 24))
        cfg = DescriptorConfig(2, 2, 5, 8, 1, 0, "original")
        desc = extract_descriptor(make_clip(frames), None, cfg)
        assert desc.size == cfg.layout.offsets[-1]

    def test_too_few_frames_without_normalization(self):
        frames = np.zeros((4, 24, 24))
        cfg = DescriptorConfig(2, 2, 5, 8, 2, 0, "original")
        with pytest.raises(DataError):
            extract_descriptor(make_clip(frames), None, cfg)

    def test_mismatched_decomposition_rejected(self):
        frames = np.zeros((6, 24, 24))
        wrong = rpca.SparseDecomposition(
            np.zeros((100, 6)), np.zeros((100, 6)), 1, 0.0, True
        )
        with pytest.raises(DataError):
            extract_descriptor(make_clip(frames), wrong, SMALL_CFG)

    def test_block_too_small_rejected(self):
        frames = np.zeros((6, 12, 12))
        cfg = DescriptorConfig(2, 2, 9, 8, 1, 9, "original")
        with pytest.raises(ConfigError):
            extract_descriptor(make_clip(frames), None, cfg)

    def test_concatenated_selection_order(self):
        rng = np.random.default_rng(12)
        frames = rng.uniform(0, 255, (7, 24, 24))
        desc = extract_descriptor(make_clip(frames), sparse_only(frames), SMALL_CFG)
        layout = SMALL_CFG.layout
        every = layout.columns(range(SMALL_CFG.n_groups))
        np.testing.assert_array_equal(every, np.arange(desc.size))
        picked = desc[layout.columns([5, 2])]  # ascending group order regardless
        expected = np.concatenate([group(desc, layout, 2), group(desc, layout, 5)])
        np.testing.assert_array_equal(picked, expected)


class TestDescriptorConfig:
    def test_invalid_mask_rejected(self):
        with pytest.raises(ConfigError):
            DescriptorConfig(mask_w=4)

    def test_temporal_length_bound(self):
        with pytest.raises(ConfigError):
            DescriptorConfig(temporal_length=5, lbp_radius=3)

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            DescriptorConfig(source="mystery")

    def test_blocks_smaller_than_the_codes_rejected(self):
        cfg = DescriptorConfig(blocks_m=2, blocks_n=2, mask_w=9)
        cfg.validate_frame_shape((18, 18))  # 9x9 blocks fit the 9-wide mask
        with pytest.raises(ConfigError, match="smaller than the required 9"):
            cfg.validate_frame_shape((16, 18))

    def test_fingerprint_tracks_fields(self):
        # one change per recipe field and per RPCA setting, so that a field
        # added later must be added here too
        recipe = [
            dict(blocks_m=6), dict(blocks_n=2), dict(mask_w=7), dict(lbp_samples=6),
            dict(lbp_radius=2), dict(temporal_length=0),
        ]
        solver = [
            dict(sparse_weight=0.01), dict(tol=1e-3), dict(max_iter=5),
            dict(mu0_scale=2.0), dict(rho=1.5),
        ]
        names = {f.name for f in dataclasses.fields(DescriptorConfig)}
        assert {key for change in recipe for key in change} == names - {"rpca", "source"}
        assert {key for change in solver for key in change} == {
            f.name for f in dataclasses.fields(RpcaConfig)
        }
        for source in SOURCES:
            base = DescriptorConfig(source=source)
            assert base.fingerprint() == DescriptorConfig(source=source).fingerprint()
            changed = [dataclasses.replace(base, **change) for change in recipe]
            changed += [dataclasses.replace(base, source=s) for s in SOURCES if s != source]
            for other in changed:
                assert other.fingerprint() != base.fingerprint(), other
            # the RPCA settings count for improved projections alone
            for change in solver:
                other = dataclasses.replace(base, rpca=RpcaConfig(**change))
                moved = other.fingerprint() != base.fingerprint()
                assert moved == (source == "improved"), (source, change)

    def test_fingerprint_text_is_stable(self):
        # cache keys and model files carry these; a change orphans them
        assert DescriptorConfig().fingerprint() == "c152bff30a9604f8"
        assert DescriptorConfig(source="original").fingerprint() == "b41a4b1c46898f9c"
