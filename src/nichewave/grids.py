"""Uniform cell-centered grids on a ball or periodic box with midpoint weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResourceLimitError

TOPOLOGIES = ("ball-truncated", "torus")

DEFAULT_MAX_CELLS_PER_AXIS = 8192


@dataclass(frozen=True)
class Grid:
    """Cell centers of the box [-R, R)^N, optionally truncated to |x| <= R.

    Points live on the exact integer lattice x = -R + (k + 1/2) h, which is
    what makes kernel-tap lookups and nested-R comparisons exact.
    """

    radius: float
    spacing: float
    topology: str
    points: np.ndarray      # (n, N) coordinates
    weights: np.ndarray     # (n,) midpoint weights, all h^N
    cells_per_axis: int
    box_index: np.ndarray   # (n, N) integer cell indices into the box

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def box_shape(self) -> tuple:
        return (self.cells_per_axis,) * self.dimension

    def norms(self) -> np.ndarray:
        return np.sqrt(np.sum(self.points * self.points, axis=1))

    def sample(self, fn) -> np.ndarray:
        """Evaluate a callable of the point coordinates on the grid."""
        if self.dimension == 1:
            return np.asarray(fn(self.points[:, 0]), dtype=float)
        return np.asarray(fn(self.points), dtype=float)

    def box_lookup(self, pad: int = 0) -> np.ndarray:
        """Point index of every box cell, -1 off the grid, with ``pad`` cells of -1 per side."""
        lookup = np.full(tuple(s + 2 * pad for s in self.box_shape), -1, dtype=np.int64)
        lookup[tuple((self.box_index + pad).T)] = np.arange(self.size)
        return lookup

    def common_with(self, other: "Grid") -> tuple[np.ndarray, np.ndarray]:
        """Index arrays mapping shared lattice points of self and other.

        Requires equal spacing; radii must differ by an integer cell count.
        """
        if abs(self.spacing - other.spacing) > 1e-12 * self.spacing:
            raise ConfigError("grids must share spacing to be compared")
        shift = (other.radius - self.radius) / self.spacing
        if abs(shift - round(shift)) > 1e-9:
            raise ConfigError("grid radii differ by a non-integer cell count")
        target = self.box_index + round(shift)
        inside = np.all((target >= 0) & (target < other.cells_per_axis), axis=1)
        matched = np.full(self.size, -1, dtype=np.int64)
        matched[inside] = other.box_lookup()[tuple(target[inside].T)]
        idx_self = np.flatnonzero(matched >= 0)
        return idx_self, matched[idx_self]

    def carry(self, other: "Grid", values: np.ndarray, fill: float) -> np.ndarray:
        """``values`` on ``other`` at the lattice points this grid shares with
        it (``common_with``), ``fill`` at every other point of this grid."""
        idx_self, idx_other = self.common_with(other)
        out = np.full(self.size, fill)
        out[idx_self] = values[idx_other]
        return out


def build_grid(
    dimension: int,
    radius: float,
    spacing: float,
    topology: str = "ball-truncated",
    max_cells_per_axis: int = DEFAULT_MAX_CELLS_PER_AXIS,
) -> Grid:
    """Build the uniform cell-centered grid.

    2R/h must be an integer number of cells (callers snap R); the cells per
    axis must not exceed ``max_cells_per_axis``.
    """
    if topology not in TOPOLOGIES:
        raise ConfigError(f"unknown topology {topology!r}")
    if dimension not in (1, 2):
        raise ConfigError("dimension must be 1 or 2")
    if not (0 < spacing < radius):
        raise ConfigError("need 0 < h < R")
    n_axis_f = 2.0 * radius / spacing
    n_axis = int(round(n_axis_f))
    if abs(n_axis_f - n_axis) > 1e-9 * n_axis_f:
        raise ConfigError(f"2R/h = {n_axis_f} is not an integer cell count; snap R to a multiple of h")
    if n_axis > max_cells_per_axis:
        raise ResourceLimitError(f"{n_axis} cells per axis exceeds the limit {max_cells_per_axis}")

    axis = -radius + (np.arange(n_axis) + 0.5) * spacing
    if dimension == 1:
        pts = axis[:, None]
        idx = np.arange(n_axis)[:, None]
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        ix, iy = np.meshgrid(np.arange(n_axis), np.arange(n_axis), indexing="ij")
        idx = np.stack([ix.ravel(), iy.ravel()], axis=1)

    if topology == "ball-truncated":
        keep = np.sqrt(np.sum(pts * pts, axis=1)) <= radius + 1e-12
        pts = pts[keep]
        idx = idx[keep]

    weights = np.full(pts.shape[0], spacing**dimension)
    return Grid(
        radius=float(radius),
        spacing=float(spacing),
        topology=topology,
        points=pts,
        weights=weights,
        cells_per_axis=n_axis,
        box_index=idx,
    )


def snap_radius(radius: float, spacing: float) -> float:
    """Round R up to the nearest multiple of h.

    Keeps 2R/h an even integer and makes any two snapped radii differ by an
    integer cell count, so their grids nest exactly.
    """
    return int(np.ceil(radius / spacing - 1e-12)) * spacing
