"""Dense scalar fields on regular grids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ArgumentError

__all__ = ["ScalarField", "field_from_function"]


@dataclass
class ScalarField:
    """A function sampled on a uniform grid.

    ``values[i, j, ...]`` is the sample at origin + spacing * (i, j, ...).
    Spacing is isotropic.
    """

    dim: int
    origin: np.ndarray
    spacing: float
    values: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != self.dim or self.origin.shape != (self.dim,):
            raise ArgumentError("field dimensions are inconsistent")
        if not self.spacing > 0:
            raise ArgumentError("spacing must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ArgumentError("field values must be finite")

    @property
    def extents(self) -> tuple[int, ...]:
        return self.values.shape

    def axes(self) -> list[np.ndarray]:
        return [
            self.origin[k] + self.spacing * np.arange(self.values.shape[k])
            for k in range(self.dim)
        ]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def coordinates(self) -> np.ndarray:
        """(n_points, dim) array of all grid-point coordinates."""
        mesh = self.meshgrid()
        return np.stack([m.ravel() for m in mesh], axis=1)

    def copy(self) -> "ScalarField":
        return ScalarField(self.dim, self.origin.copy(), self.spacing, self.values.copy(), self.time_stamp)

    def cell_index(self, points: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The flat row-major index of each point's lowest cell corner, and
        the point's offset in [0, 1] within its cell along each axis.
        Points are clamped to the grid hull."""
        shape = self.values.shape
        if min(shape) < 2:
            raise ArgumentError("interpolation needs at least two nodes per axis")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        flat = 0
        fractions = []
        for k, n in enumerate(shape):  # one axis at a time, in place
            frac = pts[:, k] - self.origin[k]
            frac /= self.spacing
            np.clip(frac, 0.0, n - 1.000001, out=frac)
            base = frac.astype(int)  # frac >= 0 here, so truncation is floor
            np.minimum(base, n - 2, out=base)
            frac -= base
            fractions.append(frac)
            if k:
                flat *= n
                flat += base
            else:
                flat = base
        return flat, fractions

    def interp_corners(self, points: np.ndarray) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
        """What `interp` sums at each point: the flat index of `cell_index`,
        and the 2**dim (offset, weight) pairs of the cell's corners, so that
        corner c is the node ``flat + offset``. Corner c takes bit k of c as
        its step along axis k. The weights are >= 0 and sum to 1."""
        flat, fractions = self.cell_index(points)
        return flat, self._corners(fractions)

    def _corners(self, fractions: list[np.ndarray]) -> list[tuple[int, np.ndarray]]:
        shape = self.values.shape
        axis_weights = [(1.0 - frac, frac) for frac in fractions]
        strides = [math.prod(shape[k + 1 :]) for k in range(self.dim)]
        corners = []
        for corner in range(2**self.dim):
            bits = [(corner >> k) & 1 for k in range(self.dim)]
            weight = axis_weights[0][bits[0]]  # 1.0 * x is exactly x
            for k in range(1, self.dim):
                weight = weight * axis_weights[k][bits[k]]
            corners.append((sum(b * st for b, st in zip(bits, strides)), weight))
        return corners

    def interp(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation; clamps to the grid hull."""
        return self.interp_cells(*self.cell_index(points))

    def interp_cells(self, flat: np.ndarray, fractions: list[np.ndarray]) -> np.ndarray:
        """`interp` at the points that `cell_index` placed at (flat, fractions)."""
        values = self.values.ravel()
        out = np.zeros(flat.shape[0])
        for offset, weight in self._corners(fractions):
            term = values[offset:][flat]  # the nodes flat + offset
            term *= weight
            out += term
        return out

    def nearest(self, points: np.ndarray) -> np.ndarray:
        """Piecewise-constant (nearest grid point) extension."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = np.rint((pts - self.origin) / self.spacing).astype(int)
        shape = np.array(self.values.shape)
        rel = np.clip(rel, 0, shape - 1)
        return self.values[tuple(rel[:, k] for k in range(self.dim))]

    def as_leaf_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """Voting function by piecewise-constant extension of the grid."""
        return lambda points: np.clip(self.nearest(points), 0.0, 1.0)


def field_from_function(
    fn: Callable[[np.ndarray], np.ndarray],
    origin: Sequence[float],
    spacing: float,
    extents: Sequence[int],
    time_stamp: float = 0.0,
) -> ScalarField:
    """Sample fn (vectorized over an (n, dim) array) on a regular grid."""
    origin = np.asarray(origin, dtype=float)
    dim = origin.shape[0]
    probe = ScalarField(dim, origin, spacing, np.zeros(tuple(extents)), time_stamp)
    vals = np.asarray(fn(probe.coordinates()), dtype=float).reshape(tuple(extents))
    probe.values = vals
    return probe
