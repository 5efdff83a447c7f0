"""Binary-pattern primitives.

Two encoders share the same thresholding rule (bit = 1 iff the neighbor value
is >= the center value):

* a 1D pattern over projection signals, using a linearly symmetric mask of
  odd size W (W-1 neighbors, leftmost neighbor = least significant bit);
* a circular 2D pattern over temporal texture images, with M samples on a
  radius-R circle (sample at angle 0 = least significant bit, proceeding
  counter-clockwise), bilinearly interpolated at non-integer positions.

Histograms are raw pattern counts; `normalize` rescales them to unit mass.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

MASK_SIZES = (3, 5, 7, 9)

# Sample coordinates this close to a grid point are read directly instead of
# interpolated, so axis-aligned samples are exact pixel lookups.
_SNAP_EPS = 1e-9


def mask_offsets(w: int) -> tuple:
    """Neighbor offsets of the 1D mask, left to right, center excluded."""
    if w not in MASK_SIZES:
        raise ValueError(f"mask size must be odd in {MASK_SIZES}, got {w}")
    half = (w - 1) // 2
    return tuple(d for d in range(-half, half + 1) if d != 0)


def onedlbp_code(signal, center: int, w: int) -> int:
    """1D binary code at one center position.

    Bit p is set iff signal[center + offset_p] >= signal[center], offsets
    ordered left to right (leftmost neighbor is bit 0).
    """
    s = np.asarray(signal, dtype=np.float64)
    offsets = mask_offsets(w)
    half = (w - 1) // 2
    if not half <= center <= s.size - 1 - half:
        raise ValueError(
            f"center {center} too close to boundary for mask {w} on length {s.size}"
        )
    gc = s[center]
    code = 0
    for bit, d in enumerate(offsets):
        if s[center + d] >= gc:
            code |= 1 << bit
    return code


def onedlbp_codes(signal, w: int) -> np.ndarray:
    """Codes for every valid center, scanning with one-element step.

    `signal` is one (L,) signal or a (T, L) stack of them; the codes of each
    row are computed from that row alone, giving (L - W + 1,) or
    (T, L - W + 1) codes.
    """
    s = np.asarray(signal, dtype=np.float64)
    if s.ndim not in (1, 2):
        raise ValueError(f"expected an (L,) signal or (T, L) stack, got {s.shape}")
    n = s.shape[-1]
    if n < w:
        raise ValueError(f"signal length {n} shorter than mask {w}")
    half = (w - 1) // 2
    centers = s[..., half : n - half]
    codes = np.zeros(centers.shape, dtype=np.int64)
    for bit, d in enumerate(mask_offsets(w)):
        codes |= (s[..., half + d : n - half + d] >= centers).astype(np.int64) << bit
    return codes


def onedlbp_histogram(signal, w: int) -> np.ndarray:
    """Histogram of 1D codes over all valid centers (2^(W-1) bins, raw counts);
    for a (T, L) stack, the sum of the T per-signal histograms."""
    codes = onedlbp_codes(signal, w)
    return np.bincount(codes.ravel(), minlength=1 << (w - 1)).astype(np.float64)


@dataclass(frozen=True)
class LbpParams2D:
    """Circular 2D pattern parameters: `samples` points on a radius-`radius` circle."""

    samples: int = 8
    radius: int = 3

    def __post_init__(self):
        if self.samples < 4:
            raise ValueError(f"need at least 4 circle samples, got {self.samples}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")

    def offsets(self) -> tuple:
        return _circle_offsets(self.samples, self.radius)

    @property
    def bin_count(self) -> int:
        return 1 << self.samples


@lru_cache(maxsize=None)
def _circle_offsets(samples: int, radius: int) -> tuple:
    """Per-sample (iy, ix, fy, fx): integer corner offset plus fractional part."""
    offs = []
    for m in range(samples):
        theta = 2.0 * math.pi * m / samples
        iy, fy = _split(radius * math.sin(theta))
        ix, fx = _split(radius * math.cos(theta))
        offs.append((iy, ix, fy, fx))
    return tuple(offs)


def _split(v: float) -> tuple:
    r = round(v)
    if abs(v - r) < _SNAP_EPS:
        return int(r), 0.0
    i = math.floor(v)
    return int(i), v - i


def _sample_at(image, y: int, x: int, iy: int, ix: int, fy: float, fx: float):
    # Two-stage lerp; degenerate axes skipped so grid-aligned samples stay exact
    # and no out-of-range corner is touched.
    y0, x0 = y + iy, x + ix
    if fy == 0.0 and fx == 0.0:
        return image[y0, x0]
    if fy == 0.0:
        v0 = image[y0, x0]
        v1 = image[y0, x0 + 1]
        return v0 + fx * (v1 - v0)
    if fx == 0.0:
        v0 = image[y0, x0]
        v1 = image[y0 + 1, x0]
        return v0 + fy * (v1 - v0)
    v00 = image[y0, x0]
    v10 = image[y0, x0 + 1]
    v01 = image[y0 + 1, x0]
    v11 = image[y0 + 1, x0 + 1]
    top = v00 + fx * (v10 - v00)
    bot = v01 + fx * (v11 - v01)
    return top + fy * (bot - top)


def lbp2d_code(image, x: int, y: int, params: LbpParams2D) -> int:
    """2D binary code at center (x, y); x indexes columns, y indexes rows."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    r = params.radius
    if not (r <= x < w - r and r <= y < h - r):
        raise ValueError(f"center ({x},{y}) within {r} of the border of {w}x{h} image")
    gc = img[y, x]
    code = 0
    for bit, (iy, ix, fy, fx) in enumerate(params.offsets()):
        if _sample_at(img, y, x, iy, ix, fy, fx) >= gc:
            code |= 1 << bit
    return code


def _sample_plane(img, r: int, iy: int, ix: int, fy: float, fx: float, ch: int, cw: int):
    # Same arithmetic as _sample_at, vectorized over all interior centers.
    def corner(a, b):
        return img[r + iy + a : r + iy + a + ch, r + ix + b : r + ix + b + cw]

    if fy == 0.0 and fx == 0.0:
        return corner(0, 0)
    if fy == 0.0:
        v0 = corner(0, 0)
        v1 = corner(0, 1)
        return v0 + fx * (v1 - v0)
    if fx == 0.0:
        v0 = corner(0, 0)
        v1 = corner(1, 0)
        return v0 + fy * (v1 - v0)
    v00 = corner(0, 0)
    v10 = corner(0, 1)
    v01 = corner(1, 0)
    v11 = corner(1, 1)
    top = v00 + fx * (v10 - v00)
    bot = v01 + fx * (v11 - v01)
    return top + fy * (bot - top)


def lbp2d_codes(image, params: LbpParams2D) -> np.ndarray:
    """Codes for every interior center of `image` as a 2D integer array."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    r = params.radius
    if h < 2 * r + 1 or w < 2 * r + 1:
        raise ValueError(f"image {w}x{h} too small for radius {r}")
    ch, cw = h - 2 * r, w - 2 * r
    gc = img[r : h - r, r : w - r]
    codes = np.zeros((ch, cw), dtype=np.int64)
    for bit, (iy, ix, fy, fx) in enumerate(params.offsets()):
        gm = _sample_plane(img, r, iy, ix, fy, fx, ch, cw)
        codes |= (gm >= gc).astype(np.int64) << bit
    return codes


def lbp2d_histogram(image, params: LbpParams2D) -> np.ndarray:
    """Histogram of 2D codes over all interior centers (2^M bins, raw counts)."""
    codes = lbp2d_codes(image, params)
    return np.bincount(codes.ravel(), minlength=params.bin_count).astype(np.float64)


def normalize(hist) -> np.ndarray:
    """Rescale bins to sum to 1; an all-zero histogram is returned unchanged."""
    h = np.asarray(hist, dtype=np.float64)
    total = h.sum()
    if total == 0.0:
        return h.copy()
    return h / total
