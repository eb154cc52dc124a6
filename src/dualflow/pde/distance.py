"""Signed distance to the zero set of a gridded field.

The zero set is linearly interpolated: exact crossing points in 1-D,
marching-squares segments in 2-D, and the edge-crossing point cloud in
higher dimensions. Distances are exact against that interpolated set,
with the sign copied from the field: brute force over the crossings in
1-D, a KD-tree over the cloud in 3-D and up, and in 2-D the segment
kernel over candidate lists kept per tile of the field's own grid, each
holding every segment that can be nearest to a point of its tile.
Distance to a point cloud is accurate to O(spacing) near the interface,
while the 2-D segment distance is smooth at O(spacing^2), which matters
when the result is differentiated.

`ZeroSet` is built once per field and evaluates the distance at any
points; `signed_distance` applies it to every node. Checks that read
only a band around the interface, or the nodes a path interpolates, use
`LazySignedDistance`, which evaluates only the nodes it is asked for.
Its values are identical to `signed_distance` node for node.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ArgumentError
from .field import ScalarField

__all__ = [
    "zero_crossing_points",
    "zero_set_segments",
    "ZeroSet",
    "signed_distance",
    "LazySignedDistance",
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
        # the lower nodes of the crossed edges, as the grid axes place them
        base = np.stack([field.origin[j] + field.spacing * idx for j, idx in enumerate(np.nonzero(cross))], axis=1)
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


_TILE = 4  # cells along each side of a 2-D search tile
# (point, candidate) pairs per evaluation: bounds the 1-D (points,
# crossings) differences and the 2-D pair arrays to one chunk; a 3-D
# evaluation takes _CHUNK points at a time
_CHUNK = 1 << 14


def _chunks(count: np.ndarray):
    """(lo, hi) slices of consecutive items holding about _CHUNK of count
    in all; an item over _CHUNK gets a slice of its own."""
    ends = np.cumsum(count)
    lo = 0
    while lo < count.size:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
        yield lo, hi
        lo = hi


def _runs(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices first[i], ..., first[i] + count[i] - 1 of every i, one
    run after another, and where each run starts."""
    ends = np.cumsum(count)
    starts = ends - count
    idx = np.repeat(first - starts, count)
    idx += np.arange(idx.size)
    return idx, starts


class _Tiles:
    """Candidate segments of a 2-D zero set, listed per square tile of
    `_TILE` cells laid over the field's grid.

    A tile's list holds every segment whose midpoint lies within
    near + 2 * radius + half_max of the tile centre, where near is the
    centre's nearest-midpoint distance and radius the tile's
    half-diagonal. A point of the tile has its nearest midpoint within
    near + radius, so that midpoint is listed, and a segment can be
    nearest to the point only if its midpoint lies within that distance
    plus half_max: every such segment is listed too. One more tile, the
    last, lists every segment and serves the points off the grid. Near
    distances and lists are built on first use, for the tiles used, from
    the midpoints binned by tile: a tile searches the square window of
    tiles that holds every midpoint its list can take.
    """

    def __init__(self, field: ScalarField, mid: np.ndarray, half_max: float):
        h = field.spacing
        self.origin = field.origin
        self.node_shape = field.values.shape
        self.shape = tuple(max(1, -(-(n - 1) // _TILE)) for n in self.node_shape)
        self.width = _TILE * h
        self.radius = self.width * math.sqrt(0.5)
        self.mid = mid
        self.half_max = half_max
        far = np.abs(field.origin) + h * (np.array(self.node_shape) - 1)
        self.margin = 1e-9 * max(1.0, float(far.max()))  # rounding
        n = math.prod(self.shape)
        self.near = np.full(n, np.nan)
        self.first = np.zeros(n + 1, dtype=np.int64)
        self.count = np.zeros(n + 1, dtype=np.int64)  # 0 until the list is built
        self.count[n] = mid.shape[1]
        self.cands = np.arange(mid.shape[1])  # the last tile's list: every segment
        home = self._clamped(mid.T)[0]
        self.order = np.argsort(home, kind="stable")  # segments by midpoint tile
        held = np.bincount(home, minlength=n)
        self.bin_first = np.concatenate([[0], np.cumsum(held)])
        self.occupied = held > 0
        # (g + 1/2)^2 for g the tile steps from each tile to the nearest
        # occupied tile of the same column (huge for an empty column)
        steps = np.arange(self.shape[0])[:, None]
        occupied = self.occupied.reshape(self.shape)
        above = np.maximum.accumulate(np.where(occupied, steps, -2 * n), axis=0)
        below = np.minimum.accumulate(np.where(occupied, steps, 2 * n)[::-1], axis=0)[::-1]
        self.column_gap2 = (np.minimum(steps - above, below - steps) + 0.5) ** 2

    def _clamped(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tile of each finite point, clamped to the grid's tiles, and
        whether the point lies off them."""
        off = np.zeros(points.shape[0], dtype=bool)
        for k, n in enumerate(self.shape):
            q = points[:, k] - self.origin[k]
            q /= self.width
            off |= (q < 0.0) | (q > n)
            idx = np.minimum(np.maximum(q, 0.0).astype(np.int64), n - 1)
            tile = tile * n + idx if k else idx
        return tile, off

    def of_points(self, points: np.ndarray) -> np.ndarray:
        """Tile of each finite point; the last tile off the grid."""
        tile, off = self._clamped(points)
        tile[off] = self.count.size - 1
        return tile

    def of_nodes(self, flat: np.ndarray) -> np.ndarray:
        """Tile of each flat (row-major) grid node."""
        i, j = np.divmod(flat, self.node_shape[1])
        ti = np.minimum(i // _TILE, self.shape[0] - 1)
        return ti * self.shape[1] + np.minimum(j // _TILE, self.shape[1] - 1)

    def within(self, reach: float) -> np.ndarray:
        """Flat mask of the tiles within ceil(reach / width) tiles, along
        every axis, of a tile holding a midpoint. Every point of another
        tile lies at least reach from every midpoint."""
        cells = math.ceil(reach / self.width)
        mask = self.occupied.reshape(self.shape)
        for axis, n in enumerate(self.shape):  # dilate by running sums along each axis
            before = [(0, 0)] * 2
            before[axis] = (1, 0)
            run = np.pad(np.cumsum(mask, axis=axis, dtype=np.int64), before)  # run[i] = marks before i
            i = np.arange(n)
            hi = run.take(np.minimum(i + cells + 1, n), axis=axis)
            mask = hi > run.take(np.maximum(i - cells, 0), axis=axis)
        return mask.ravel()

    def build(self, tiles: np.ndarray) -> None:
        """Fill the near distances and lists of the given tiles."""
        todo = np.zeros(self.count.size, dtype=bool)
        todo[tiles] = True
        todo = np.flatnonzero(todo & (self.count == 0))
        if not todo.size:
            return
        # every midpoint of an occupied tile lies within width * sqrt((|di| +
        # 1/2)^2 + (|dj| + 1/2)^2) of the centre, so the nearest of these
        # bounds the near distance from above, column by column
        slack = 2.0 * self.radius + self.half_max + self.margin
        wide = np.empty(todo.size, dtype=np.int64)
        for lo, hi in _chunks(np.full(todo.size, self.shape[1])):
            ti, tj = np.divmod(todo[lo:hi], self.shape[1])
            bound2 = np.abs(tj[:, None] - np.arange(self.shape[1])) + 0.5
            bound2 *= bound2
            bound2 += self.column_gap2[ti]
            # the window reaches every tile with a point within bound + slack
            wide[lo:hi] = np.floor(np.sqrt(bound2.min(axis=1)) + (slack / self.width + 0.5))
        new = []
        size = self.cands.size
        for lo, hi, count, seg in self._windows(todo, wide):
            d2 = self._centre_d2(todo[lo:hi], count, seg)
            starts = np.cumsum(count) - count  # every window holds the nearest midpoint
            near = np.sqrt(np.minimum.reduceat(d2, starts))
            self.near[todo[lo:hi]] = near
            reach = near + slack
            keep = d2 <= np.repeat(reach * reach, count)
            listed = np.add.reduceat(keep, starts)
            self.count[todo[lo:hi]] = listed
            self.first[todo[lo:hi]] = size + np.cumsum(listed) - listed
            size += int(listed.sum())
            new.append(seg[keep])
        self.cands = np.concatenate([self.cands, *new])

    def _windows(self, tiles: np.ndarray, q):
        """The midpoints in the (2q + 1)^2 tiles around each tile (q may
        vary by tile), clipped to the grid, in chunks of consecutive tiles:
        (lo, hi, count, seg), where seg holds the segments of tiles lo..hi
        one tile after another, count per tile."""
        nx, ny = self.shape
        ti, tj = np.divmod(tiles, ny)
        top = np.maximum(ti - q, 0)
        rows = np.minimum(ti + q, nx - 1) - top + 1
        row, starts = _runs(top, rows)  # one contiguous bin range per window row
        first = self.bin_first[row * ny + np.repeat(np.maximum(tj - q, 0), rows)]
        size = self.bin_first[row * ny + np.repeat(np.minimum(tj + q, ny - 1), rows) + 1] - first
        count = np.add.reduceat(size, starts)
        for lo, hi in _chunks(count):
            span = slice(starts[lo], starts[hi] if hi < tiles.size else row.size)
            yield lo, hi, count[lo:hi], self.order[_runs(first[span], size[span])[0]]

    def _centre_d2(self, tiles: np.ndarray, count: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """Squared distance from each tile's centre to its run of segment
        midpoints."""
        ti, tj = np.divmod(tiles, self.shape[1])
        centre = [self.origin[0] + self.width * (ti + 0.5), self.origin[1] + self.width * (tj + 0.5)]
        return self._midpoint_d2([np.repeat(c, count) for c in centre], seg)

    def least(self, points: np.ndarray, tiles: np.ndarray, pair_values) -> np.ndarray:
        """Per point, the least of ``pair_values(p, seg)`` over its tile's
        list, where ``seg`` holds the listed segments of the points one run
        after another and ``p`` the two coordinate columns of the point of
        each entry."""
        self.build(tiles)
        count = self.count[tiles]
        out = np.empty(points.shape[0])
        for lo, hi in _chunks(count):
            idx, starts = _runs(self.first[tiles[lo:hi]], count[lo:hi])
            p = [np.repeat(points[lo:hi, axis], count[lo:hi]) for axis in range(2)]
            out[lo:hi] = np.minimum.reduceat(pair_values(p, self.cands[idx]), starts)
        return out

    def nearest_midpoint(self, points: np.ndarray, tiles: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest segment midpoint, which
        its tile lists."""
        return np.sqrt(self.least(points, tiles, self._midpoint_d2))

    def _midpoint_d2(self, p: list[np.ndarray], seg: np.ndarray) -> np.ndarray:
        """Squared distance from each entry's point to its segment's
        midpoint, computed in p's own arrays."""
        d2, dy = p
        d2 -= self.mid[0][seg]
        d2 *= d2
        dy -= self.mid[1][seg]
        dy *= dy
        d2 += dy
        return d2


class ZeroSet:
    """The interpolated zero set of one field, built once and queried at
    any points. Requires the field to change sign somewhere."""

    def __init__(self, field: ScalarField):
        self.dim = field.dim
        if self.dim == 1:
            self._cloud = zero_crossing_points(field)[:, 0]
        elif self.dim == 2:
            segments = zero_set_segments(field)
            # one contiguous column per axis: segment starts a, directions b - a
            self._a = segments[:, 0, :].T.copy()
            self._ab = (segments[:, 1, :] - segments[:, 0, :]).T.copy()
            self._len2 = np.maximum(self._ab[0] * self._ab[0] + self._ab[1] * self._ab[1], 1e-300)
            half_max = 0.5 * math.sqrt(float(self._len2.max()))  # no segment reaches further from its midpoint
            mid = (0.5 * (segments[:, 0, :] + segments[:, 1, :])).T.copy()
            self.tiles = _Tiles(field, mid, half_max)
        else:
            from scipy.spatial import cKDTree  # imported on first use: it is slow to load

            self.tree = cKDTree(zero_crossing_points(field))

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Unsigned distance from each of the (n, dim) finite points.

        Exact against the interpolated zero set. The points are evaluated
        in chunks of about ``_CHUNK`` (point, candidate) pairs; each
        point's arithmetic is its own, so the chunking leaves every value as
        it would be in one evaluation. Non-finite points raise
        `ArgumentError`."""
        if not np.isfinite(points).all():
            raise ArgumentError("distance query points must be finite")
        if self.dim == 2:
            # sqrt is monotone and correctly rounded, so it commutes with the min
            return np.sqrt(self.tiles.least(points, self.tiles.of_points(points), self._segment_d2))
        if self.dim == 1:
            chunks = _chunks(np.full(len(points), self._cloud.size))
            out = [np.abs(points[lo:hi] - self._cloud[None, :]).min(axis=1) for lo, hi in chunks]
        else:
            out = [self.tree.query(points[lo : lo + _CHUNK], k=1)[0] for lo in range(0, len(points), _CHUNK)]
        return np.concatenate(out) if out else np.empty(0)

    def _segment_d2(self, p: list[np.ndarray], seg: np.ndarray) -> np.ndarray:
        """Squared distance from each point to each segment of its entry.

        One axis at a time, in place; the operations are those of
        t = clip(sum((p - a) * ab) / len2, 0, 1) and off = p - (a + t * ab),
        summed over the axes in order."""
        a = [col[seg] for col in self._a]
        ab = [col[seg] for col in self._ab]
        t = np.subtract(p[0], a[0])
        t *= ab[0]
        term = np.subtract(p[1], a[1])
        term *= ab[1]
        t += term
        t /= self._len2[seg]
        np.clip(t, 0.0, 1.0, out=t)
        for axis in range(2):
            off = ab[axis]
            off *= t
            off += a[axis]
            np.subtract(p[axis], off, out=off)
            off *= off
        dist2 = ab[0]
        dist2 += ab[1]
        return dist2


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
        self._mark = np.zeros(self._sign.size, dtype=bool)

    def at(self, flat: np.ndarray) -> np.ndarray:
        """Signed distance at the given flat (row-major) node indices."""
        need = flat[np.isnan(self._values[flat])]
        if need.size:
            self._mark[need] = True  # each node once, in row-major order
            need = np.flatnonzero(self._mark)
            self._mark[need] = False
            dist = self.zero_set.distance(self.coords[need])
            self._values[need] = dist * self._sign[need]
        return self._values[flat]

    def band(self, r0: float, nodes: np.ndarray | None = None) -> np.ndarray:
        """Mask of the given flat nodes (all nodes by default) with
        |signed distance| < r0; equal to ``band(r0)[nodes]``.

        In 2-D the nearest segment midpoint bounds the distance from both
        sides: it lies on the zero set, and no segment reaches further
        than half the longest one from its midpoint. A node's
        nearest-midpoint distance in turn lies within the tile's
        half-diagonal of its tile centre's. Nodes are decided by their tile first,
        then by their own nearest midpoint, and only the nodes between the
        two bounds are evaluated. Other dimensions evaluate every node.
        """
        if nodes is None:
            nodes = np.arange(self._sign.size)
        mask = self._sign[nodes] == 0  # zero-valued nodes have signed distance 0
        if self.zero_set.dim != 2:
            shell = np.arange(nodes.size)
        else:
            tiles = self.zero_set.tiles
            inner = r0 - tiles.margin
            reach = r0 + tiles.half_max + tiles.margin
            tile = tiles.of_nodes(nodes)
            close = np.flatnonzero(tiles.within(reach)[tile])
            tiles.build(tile[close])
            near = tiles.near[tile[close]]
            mask[close[near + tiles.radius < inner]] = True
            open_ = close[~mask[close] & (near - tiles.radius < reach)]
            near = tiles.nearest_midpoint(self.coords[nodes[open_]], tile[open_])
            mask[open_[near < inner]] = True
            shell = open_[(near >= inner) & (near < reach)]
        mask[shell] = np.abs(self.at(nodes[shell])) < r0
        return mask

    def interp(self, points: np.ndarray) -> np.ndarray:
        """Same as `signed_distance(field).interp(points)`."""
        flat, corners = self.field.interp_corners(points)
        offsets = np.array([offset for offset, _ in corners])
        values = self.at((offsets[:, None] + flat).ravel()).reshape(offsets.size, -1)
        out = np.zeros(flat.shape[0])
        for (_, weight), value in zip(corners, values):
            out += weight * value
        return out
