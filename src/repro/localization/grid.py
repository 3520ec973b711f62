"""Search grids and heatmaps for the SAR matched filter."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import LocalizationError


@dataclass(frozen=True)
class Grid2D:
    """A rectangular search grid.

    The matched filter of Eq. 12 is evaluated at every node; resolution
    bounds the quantization floor of the localization error.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: float

    def __post_init__(self) -> None:
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max, self.resolution)
        if not all(math.isfinite(value) for value in bounds):
            raise LocalizationError(f"grid fields must be finite, got {bounds}")
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise LocalizationError("grid extents must be positive")
        if self.resolution <= 0:
            raise LocalizationError("grid resolution must be positive")
        if self.n_points > 5_000_000:
            raise LocalizationError(
                f"grid of {self.n_points} points is too large; raise the "
                "resolution or use the multi-resolution search"
            )

    @property
    def xs(self) -> np.ndarray:
        """Node coordinates along the x axis."""
        return np.arange(self.x_min, self.x_max + self.resolution / 2, self.resolution)

    @property
    def ys(self) -> np.ndarray:
        """Node coordinates along the y axis."""
        return np.arange(self.y_min, self.y_max + self.resolution / 2, self.resolution)

    @property
    def shape(self) -> Tuple[int, int]:
        """(rows, cols) = (len(ys), len(xs))."""
        return len(self.ys), len(self.xs)

    @property
    def n_points(self) -> int:
        """Total number of grid nodes (consistent with :meth:`meshgrid`)."""
        rows, cols = self.shape
        return rows * cols

    def meshgrid(self) -> Tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of node coordinates, each of :attr:`shape`."""
        return np.meshgrid(self.xs, self.ys)

    def refined_around(self, center, span: float, resolution: float) -> "Grid2D":
        """A finer grid centered on a point (the multires inner stage)."""
        cx, cy = float(center[0]), float(center[1])
        return Grid2D(
            x_min=cx - span / 2,
            x_max=cx + span / 2,
            y_min=cy - span / 2,
            y_max=cy + span / 2,
            resolution=resolution,
        )

    @staticmethod
    def around_trajectory(
        positions: np.ndarray, margin: float, resolution: float
    ) -> "Grid2D":
        """A grid covering the flight path plus a margin on every side."""
        if margin <= 0:
            raise LocalizationError("margin must be positive")
        positions = np.asarray(positions, dtype=float)
        return Grid2D(
            x_min=float(positions[:, 0].min() - margin),
            x_max=float(positions[:, 0].max() + margin),
            y_min=float(positions[:, 1].min() - margin),
            y_max=float(positions[:, 1].max() + margin),
            resolution=resolution,
        )


@dataclass(frozen=True)
class Heatmap:
    """P(x, y) evaluated over a grid (the images of paper Fig. 6)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = self.grid.shape
        if self.values.shape != expected:
            raise LocalizationError(
                f"heatmap shape {self.values.shape} != grid shape {expected}"
            )

    @property
    def peak_value(self) -> float:
        """The maximum of the matched-filter map."""
        return float(np.max(self.values))

    def argmax_position(self) -> np.ndarray:
        """Coordinates of the highest node (Eq. 11 without §5.2's rule)."""
        row, col = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return np.array([self.grid.xs[col], self.grid.ys[row]])
