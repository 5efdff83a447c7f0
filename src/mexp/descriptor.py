"""Spatiotemporal clip descriptor assembly.

The frame is divided into an m x n block grid. Per block, four group
features are computed from the motion frames (sparse components by default):

* XYH / XYV - accumulated 1D-pattern histograms of the per-frame horizontal
  and vertical projections (appearance/shape, spatial domain);
* XT / YT - 2D-pattern histograms of temporal texture images whose columns
  are the per-frame projections (motion along each axis over time), after
  optional temporal normalization to a fixed length T.

The clip descriptor is one flat array, the ordered concatenation of all
m*n*4 normalized group histograms: the STLBP-IIP feature of a clip. Where
each group sits in it (the layout) and the fingerprint of the recipe follow
from the config alone, so a run keeps the descriptors of its clips as the
rows of one (clips, bins) matrix and nothing else.
"""

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import encoding, rpca
from .encoding import LbpParams2D, MASK_SIZES
from .errors import ConfigError, DataError
from .projection import Region, horizontal_projection, vertical_projection
from .rpca import RpcaConfig

PLANES = ("XYH", "XYV", "XT", "YT")
SOURCES = ("improved", "original")
MAX_LBP_SAMPLES = 16


@dataclass(frozen=True, eq=False)
class GroupLayout:
    """Where each (block, plane) group sits in a flat descriptor: group g
    holds columns offsets[g]:offsets[g + 1] and encodes plane planes[g]."""

    planes: tuple
    offsets: np.ndarray  # n_groups + 1 boundaries, the last one the length

    def columns(self, groups) -> np.ndarray:
        """Flat column indices of the given groups, in ascending group order."""
        return np.concatenate(
            [np.arange(self.offsets[g], self.offsets[g + 1]) for g in sorted(groups)]
        )


@dataclass(frozen=True)
class DescriptorConfig:
    blocks_m: int = 7          # block rows
    blocks_n: int = 3          # block columns
    mask_w: int = 9            # 1D mask size
    lbp_samples: int = 8       # circle samples for the temporal planes
    lbp_radius: int = 3        # circle radius
    temporal_length: int = 25  # T; 0 disables temporal normalization
    source: str = "improved"   # improved | original
    rpca: RpcaConfig = RpcaConfig()  # sparse-part settings, for improved

    def __post_init__(self):
        if self.blocks_m < 1 or self.blocks_n < 1:
            raise ConfigError("blocks_m and blocks_n must be >= 1")
        if self.mask_w not in MASK_SIZES:
            raise ConfigError(f"mask_w must be odd in {MASK_SIZES}, got {self.mask_w}")
        if not 4 <= self.lbp_samples <= MAX_LBP_SAMPLES:
            # 2^M bins per XT/YT group: M = 16 already makes a 7x3-block
            # descriptor 22 MB
            raise ConfigError(
                f"lbp_samples must be in [4, {MAX_LBP_SAMPLES}], got {self.lbp_samples}"
            )
        if self.lbp_radius < 1:
            raise ConfigError("lbp_radius must be >= 1")
        if self.temporal_length != 0 and self.temporal_length < 2 * self.lbp_radius + 1:
            raise ConfigError(
                "temporal_length must be 0 or >= 2*lbp_radius + 1, got "
                f"{self.temporal_length}"
            )
        if self.source not in SOURCES:
            raise ConfigError(f"source must be one of {SOURCES}, got {self.source!r}")

    @property
    def n_groups(self) -> int:
        return self.blocks_m * self.blocks_n * len(PLANES)

    @cached_property
    def lbp_params(self) -> LbpParams2D:
        return LbpParams2D(self.lbp_samples, self.lbp_radius)

    def plane_bins(self, plane: str) -> int:
        return 1 << (self.mask_w - 1) if plane in ("XYH", "XYV") else 1 << self.lbp_samples

    @cached_property
    def layout(self) -> GroupLayout:
        planes = PLANES * (self.blocks_m * self.blocks_n)
        sizes = [self.plane_bins(p) for p in planes]
        return GroupLayout(planes, np.cumsum([0] + sizes))

    def validate_frame_shape(self, frame_shape):
        h, w = frame_shape
        need = max(self.mask_w, 2 * self.lbp_radius + 1)
        min_h = h // self.blocks_m
        min_w = w // self.blocks_n
        if min_h < need or min_w < need:
            raise ConfigError(
                f"{self.blocks_m}x{self.blocks_n} blocks on {w}x{h} frames give "
                f"{min_w}x{min_h} blocks, smaller than the required {need}"
            )

    def fingerprint(self) -> str:
        """Hash of every field, in order; the RPCA settings count only for
        improved projections, which encode the sparse part."""
        text = ";".join(
            f"{f.name}={getattr(self, f.name)}" for f in fields(self) if f.name != "rpca"
        ) + ";hist=normalized"
        fp = hashlib.sha256(text.encode()).hexdigest()[:16]
        if self.source != "improved":
            return fp
        text = f"{fp};rpca={self.rpca.fingerprint()}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def block_regions(frame_shape, m: int, n: int) -> list:
    """Partition an (H, W) frame into m x n rectangles, row-major; remainder
    pixels go to the last block row/column. `DescriptorConfig` checks the
    block counts, and `validate_frame_shape` the block size."""
    h, w = frame_shape
    bh, bw = h // m, w // n
    regions = []
    for i in range(m):
        y1 = i * bh
        y2 = (i + 1) * bh if i < m - 1 else h
        for j in range(n):
            x1 = j * bw
            x2 = (j + 1) * bw if j < n - 1 else w
            regions.append(Region(x1, x2, y1, y2))
    return regions


def block_histograms(frames, region: Region, cfg: DescriptorConfig) -> list:
    """The normalized XYH, XYV, XT and YT histograms of one block.

    Each direction is projected once, giving a (T, length) stack of
    per-frame projections. The horizontal stack is encoded by 1D patterns
    (XYH) and, transposed to a (y x time) image, by 2D patterns (YT); the
    vertical stack likewise gives XYV and, as an (x x time) image, XT.
    """
    stack = np.asarray(frames, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected (T, H, W) frames, got shape {stack.shape}")
    if stack.shape[0] < 2:
        raise ValueError("temporal texture needs at least 2 frames")
    proj_h = horizontal_projection(stack, region)
    proj_v = vertical_projection(stack, region)
    images = [proj_v.T, proj_h.T]  # XT, YT
    if cfg.temporal_length:
        images = [temporal_normalize(img, cfg.temporal_length) for img in images]
    hists = [encoding.onedlbp_histogram(p, cfg.mask_w) for p in (proj_h, proj_v)]
    hists += [encoding.lbp2d_histogram(img, cfg.lbp_params) for img in images]
    return [encoding.normalize(h) for h in hists]


def temporal_normalize(image, length: int) -> np.ndarray:
    """Resample each row to `length` columns by linear interpolation."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("temporal texture images are 2D")
    t = img.shape[1]
    if t < 2:
        raise ValueError("cannot resample a single-column image")
    if length < 2:
        raise ValueError("normalized length must be >= 2")
    positions = np.linspace(0.0, t - 1, length)
    src = np.arange(t, dtype=np.float64)
    out = np.empty((img.shape[0], length))
    for i in range(img.shape[0]):
        out[i] = np.interp(positions, src, img[i])
    return out


def motion_frames(clip, decomposition, source: str) -> np.ndarray:
    """Frame stack the descriptor encodes: sparse parts or raw frames."""
    if source == "improved":
        if decomposition is None:
            raise DataError(f"clip {clip.clip_id!r}: no decomposition available")
        h, w = clip.frame_shape
        if decomposition.sparse.shape != (h * w, clip.n_frames):
            raise DataError(
                f"clip {clip.clip_id!r}: decomposition does not match clip dimensions"
            )
        return rpca.frames_from_matrix(decomposition.sparse, clip.frame_shape)
    if source == "original":
        return clip.frames
    raise ConfigError(f"unknown motion source {source!r}")


def extract_descriptor(clip, decomposition, cfg: DescriptorConfig) -> np.ndarray:
    """The flat descriptor of one clip: its normalized group histograms,
    concatenated in the order of `cfg.layout`."""
    cfg.validate_frame_shape(clip.frame_shape)
    frames = motion_frames(clip, decomposition, cfg.source)
    if cfg.temporal_length == 0 and frames.shape[0] < 2 * cfg.lbp_radius + 1:
        raise DataError(
            f"clip {clip.clip_id!r}: {frames.shape[0]} motion frames are too few "
            f"for radius {cfg.lbp_radius} without temporal normalization"
        )
    regions = block_regions(clip.frame_shape, cfg.blocks_m, cfg.blocks_n)
    hists = []
    for k, region in enumerate(regions):
        try:
            hists += block_histograms(frames, region, cfg)
        except ValueError as e:
            raise DataError(f"clip {clip.clip_id!r} block {k}: {e}") from e
    return np.concatenate(hists)
