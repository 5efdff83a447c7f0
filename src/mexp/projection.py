"""Integral projections over rectangular regions of a frame.

A horizontal projection averages intensities along rows (one value per row of
the region), a vertical projection along columns. Applied to the sparse
subtle-motion component of a clip these become the improved projections used
by the spatiotemporal descriptor; applied to the raw frames they give the
original-projection comparison mode.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """Pixel rectangle [x1, x2) x [y1, y2); x indexes columns, y indexes rows."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self):
        if self.x1 < 0 or self.y1 < 0 or self.x2 <= self.x1 or self.y2 <= self.y1:
            raise ValueError(f"invalid region {self}")

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1


def _region_of(mat, region: Region) -> np.ndarray:
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim not in (2, 3):
        raise ValueError(f"expected an (H, W) frame or (T, H, W) stack, got {m.shape}")
    h, w = m.shape[-2:]
    if region.x2 > w or region.y2 > h:
        raise ValueError(f"region {region} exceeds {w}x{h} frame")
    return m[..., region.y1 : region.y2, region.x1 : region.x2]


def horizontal_projection(mat, region: Region) -> np.ndarray:
    """Row means of the region: value at y is the mean over x in [x1, x2).

    An (H, W) frame gives a (height,) vector, a (T, H, W) stack one row per
    frame, (T, height), each equal to the projection of its frame alone.
    """
    return _region_of(mat, region).mean(axis=-1)


def vertical_projection(mat, region: Region) -> np.ndarray:
    """Column means of the region: value at x is the mean over y in [y1, y2).

    An (H, W) frame gives a (width,) vector, a (T, H, W) stack (T, width).
    """
    return _region_of(mat, region).mean(axis=-2)
