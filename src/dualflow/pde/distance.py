"""Signed distance to the zero set of a gridded field.

The zero set is linearly interpolated: exact crossing points in 1-D,
marching-squares segments in 2-D, and the edge-crossing point cloud in
higher dimensions. Distances are exact against that interpolated set
(brute force with a KD-tree prefilter), with the sign copied from the
field. Distance to a point cloud is accurate to O(spacing) near the
interface, while the 2-D segment distance is smooth at O(spacing^2),
which matters when the result is differentiated.

`ZeroSet` is built once per field and evaluates the distance at any
points; `signed_distance` applies it to every node. Checks that read
only a band around the interface, or the nodes a path interpolates, use
`LazySignedDistance`, which evaluates only the nodes it is asked for.
Its values are identical to `signed_distance` node for node.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from ..errors import ArgumentError
from .field import ScalarField

__all__ = [
    "zero_crossing_points",
    "zero_set_segments",
    "ZeroSet",
    "signed_distance",
    "LazySignedDistance",
    "extract_zero_set_csv",
]


def _signless(vals: np.ndarray) -> np.ndarray:
    # exact zeros join the positive phase so every crossing is a strict sign change
    return np.where(vals == 0.0, 1e-300, vals)


def zero_crossing_points(field: ScalarField) -> np.ndarray:
    """(n, dim) linear-interpolation crossings of zero on grid edges.

    Grid values that are exactly zero join the positive phase, so every
    crossing is a strict sign change."""
    vals = _signless(field.values)
    dim = field.dim
    pts = []
    mesh = np.meshgrid(*field.axes(), indexing="ij")
    for k in range(dim):
        lo = [slice(None)] * dim
        hi = [slice(None)] * dim
        lo[k] = slice(None, -1)
        hi[k] = slice(1, None)
        a = vals[tuple(lo)]
        b = vals[tuple(hi)]
        cross = a * b < 0.0
        if not cross.any():
            continue
        frac = a[cross] / (a[cross] - b[cross])
        base = np.stack([m[tuple(lo)][cross] for m in mesh], axis=1)
        step = np.zeros(dim)
        step[k] = field.spacing
        pts.append(base + frac[:, None] * step[None, :])
    if not pts:
        raise ArgumentError("field has no zero crossings (single-signed)")
    return np.concatenate(pts, axis=0)


def zero_set_segments(field: ScalarField) -> np.ndarray:
    """(n, 2, 2) marching-squares segments of the zero set (2-D only).

    Cells with two crossed edges get one segment; saddle cells are
    resolved by the sign of the cell-centre average.
    """
    if field.dim != 2:
        raise ArgumentError("segments are available for 2-D fields only")
    vals = _signless(field.values)
    h = field.spacing
    ox, oy = field.origin
    nx, ny = vals.shape

    v00 = vals[:-1, :-1]
    v10 = vals[1:, :-1]
    v01 = vals[:-1, 1:]
    v11 = vals[1:, 1:]
    # edge order: bottom (y low, along x), top, left (x low, along y), right
    edge_a = [v00, v01, v00, v10]
    edge_b = [v10, v11, v01, v11]
    crossed = [(a * b < 0.0) for a, b in zip(edge_a, edge_b)]
    n_crossed = sum(c.astype(int) for c in crossed)
    ii, jj = np.nonzero(n_crossed > 0)
    if ii.size == 0:
        raise ArgumentError("field has no zero crossings (single-signed)")

    def edge_point(edge: int, i, j):
        a = edge_a[edge][i, j]
        b = edge_b[edge][i, j]
        f = a / (a - b)
        x = ox + h * i
        y = oy + h * j
        if edge == 0:
            return np.stack([x + f * h, y], axis=-1)
        if edge == 1:
            return np.stack([x + f * h, y + h], axis=-1)
        if edge == 2:
            return np.stack([x, y + f * h], axis=-1)
        return np.stack([x + h, y + f * h], axis=-1)

    segments = []
    two = n_crossed[ii, jj] == 2
    if two.any():
        i2, j2 = ii[two], jj[two]
        pts = np.full((i2.size, 2, 2), np.nan)
        slot = np.zeros(i2.size, dtype=int)
        for e in range(4):
            has = crossed[e][i2, j2]
            if has.any():
                p = edge_point(e, i2[has], j2[has])
                s = slot[has]
                pts[np.nonzero(has)[0], s, :] = p
                slot[has] += 1
        segments.append(pts)
    saddle = n_crossed[ii, jj] == 4
    for i, j in zip(ii[saddle], jj[saddle]):
        centre = 0.25 * (v00[i, j] + v10[i, j] + v01[i, j] + v11[i, j])
        pb = edge_point(0, np.array([i]), np.array([j]))[0]
        pt = edge_point(1, np.array([i]), np.array([j]))[0]
        pl = edge_point(2, np.array([i]), np.array([j]))[0]
        pr = edge_point(3, np.array([i]), np.array([j]))[0]
        # pair edges so the segments separate the corner matching the centre sign
        if (centre > 0) == (v00[i, j] > 0):
            segments.append(np.array([[pb, pr], [pt, pl]]))
        else:
            segments.append(np.array([[pb, pl], [pt, pr]]))
    return np.concatenate(segments, axis=0)


_K_NEAR = 12  # segment candidates per point, by midpoint distance


class ZeroSet:
    """The interpolated zero set of one field, built once and queried at
    any points. Requires the field to change sign somewhere."""

    def __init__(self, field: ScalarField):
        self.dim = field.dim
        self.half_max = None  # largest half segment length (2-D only)
        if self.dim == 1:
            self._cloud = zero_crossing_points(field)[:, 0]
        elif self.dim == 2:
            segments = zero_set_segments(field)
            self._a = segments[:, 0, :]
            self._ab = segments[:, 1, :] - self._a
            self._len2 = np.maximum(np.sum(self._ab * self._ab, axis=1), 1e-300)
            self.half_max = 0.5 * math.sqrt(float(self._len2.max()))
            self.tree = cKDTree(0.5 * (segments[:, 0, :] + segments[:, 1, :]))
        else:
            self.tree = cKDTree(zero_crossing_points(field))

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Unsigned distance from each of the (n, dim) points."""
        if self.dim == 1:
            return np.abs(points - self._cloud[None, :]).min(axis=1)
        if self.dim > 2:
            return self.tree.query(points, k=1)[0]
        k = min(_K_NEAR, self._a.shape[0])
        _, idx = self.tree.query(points, k=k)
        if k == 1:
            idx = idx[:, None]
        a = self._a[idx]  # (n, k, 2)
        ab = self._ab[idx]
        t = np.clip(np.sum((points[:, None, :] - a) * ab, axis=2) / self._len2[idx], 0.0, 1.0)
        off = points[:, None, :] - (a + t[:, :, None] * ab)
        # sqrt is monotone and correctly rounded, so it commutes with the min
        return np.sqrt(np.sum(off * off, axis=2).min(axis=1))


def _node_sign(field: ScalarField) -> np.ndarray:
    sign = np.sign(field.values.ravel())
    return np.where(sign == 0, 0.0, sign)


def signed_distance(field: ScalarField) -> ScalarField:
    """Signed distance to the interpolated zero set, sign from the field.

    Requires the field to change sign somewhere.
    """
    dist = ZeroSet(field).distance(field.coordinates())
    out = (dist * _node_sign(field)).reshape(field.values.shape)
    return ScalarField(field.dim, field.origin.copy(), field.spacing, out, field.time_stamp)


class LazySignedDistance:
    """`signed_distance(field)` evaluated only at the nodes that are read.

    Every value equals the corresponding node of `signed_distance(field)`
    bit for bit. `coords` is `field.coordinates()`, which fields on the
    same grid can share.
    """

    def __init__(self, field: ScalarField, coords: np.ndarray):
        self.field = field
        self.zero_set = ZeroSet(field)
        self.coords = coords
        self._sign = _node_sign(field).astype(np.int8)
        self._values = np.full(self._sign.size, np.nan)  # NaN until evaluated

    def at(self, flat: np.ndarray) -> np.ndarray:
        """Signed distance at the given flat (row-major) node indices."""
        need = np.unique(flat[np.isnan(self._values[flat])])
        if need.size:
            dist = self.zero_set.distance(self.coords[need])
            self._values[need] = dist * self._sign[need]
        return self._values[flat]

    def band(self, r0: float) -> np.ndarray:
        """Flat mask of the nodes with |signed distance| < r0.

        In 2-D the nearest segment midpoint bounds the distance from both
        sides: it lies on the zero set, and no segment reaches further
        than half the longest one from its midpoint. Only the nodes
        between the two bounds are evaluated. Other dimensions evaluate
        every node.
        """
        mask = self._sign == 0  # zero-valued nodes have signed distance 0
        if self.zero_set.half_max is None:
            shell = np.arange(mask.size)
        else:
            margin = 1e-9 * max(1.0, float(np.abs(self.coords).max()))  # rounding
            reach = r0 + self.zero_set.half_max + margin
            near, _ = self.zero_set.tree.query(self.coords, k=1, distance_upper_bound=reach)
            mask |= near < r0 - margin
            shell = np.flatnonzero(~mask & (near < reach))
        mask[shell] = np.abs(self.at(shell)) < r0
        return mask

    def interp(self, points: np.ndarray) -> np.ndarray:
        """Same as `signed_distance(field).interp(points)`."""
        corners = self.field.interp_corners(points)
        out = np.zeros(corners[0][1].shape[0])
        for idx, weight in corners:
            out += weight * self.at(np.ravel_multi_index(idx, self.field.values.shape))
        return out


def extract_zero_set_csv(field: ScalarField) -> str:
    pts = zero_crossing_points(field)
    header = ",".join(f"x{k}" for k in range(field.dim))
    lines = [header]
    for row in pts:
        lines.append(",".join(f"{v:.10g}" for v in row))
    return "\n".join(lines) + "\n"
