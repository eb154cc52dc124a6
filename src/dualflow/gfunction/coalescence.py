"""Coalescing random walks, their partitions, and the effective g.

Walkers perform independent continuous-time simple random walks on the
integer lattice (total jump rate ``jump_rate`` each, uniform over the 2d
nearest neighbours) and merge whenever a jump lands on an occupied site.
The partition of the starting indices by merged-cluster membership,
with a uniformly chosen mark per block (`mark_blocks`, which writes it
as a copy map), is the object of interest: its distribution weights the
per-copy-map g-functions into the effective g of the nonlinear voter
model.

The walk is uniformized: every walker keeps its jump clock after it
merges and a merged walker's picks move nothing, so a sample's picks up
to the horizon are one Poisson count, drawn once, each uniform over its
m walkers and 2d directions. It is simulated pass by pass on compact
arrays that hold only the samples still running, and each pass leaps: a
sample whose active walkers are at L1 distance at least D from one
another takes its next D picks at once (at most ``_MAX_LEAP``), because
only the D-th of them can make a merge. Both are exact: the partitions
have the law of the one-jump-at-a-time walk, but the random draws differ
from it.

An infinite horizon is one walk to ``MAX_CUTOFF`` for every caller, so
`gbar`, the NLV forest's decorations and the Lotka-Volterra p3 share one
horizon. Merges after it (a tail like T^(-1/2) in three dimensions) are
not resolved, and such results carry a note that says so.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from ..errors import ArgumentError
from ..rng import derive_rng
from .gfun import GFunction
from .nlv import g_pi_batch, g_pi_univariate_coeffs, partition_label

__all__ = [
    "sample_coalescent_partitions",
    "mark_blocks",
    "gbar",
]

MAX_CUTOFF = 512.0
# Most picks one pass takes for one sample: it bounds each pass's per-pick
# arrays to _MAX_LEAP entries per running sample. A leap shorter than D
# keeps the law, and few are cut: 49 and 0 of ~360,000 sample-passes in
# two 750-sample L = 2 box walks (dim 3) to the 512 cap.
_MAX_LEAP = 128
# Share of finished rows at which a pass compacts its running arrays.
_COMPACT_SHARE = 0.25


def _as_starts(start: Sequence, dim: int, n_samples: int) -> np.ndarray:
    arr = np.asarray(start)
    if arr.dtype.kind not in "iuf" or (arr.dtype.kind == "f" and (arr != np.floor(arr)).any()):
        raise ArgumentError("start offsets must be integers")
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ArgumentError(f"offsets must have dimension {dim}")
    elif arr.ndim == 3:
        if arr.shape[0] != n_samples or arr.shape[2] != dim:
            raise ArgumentError("per-sample starts must be (n_samples, m, dim)")
    else:
        raise ArgumentError("start offsets must be (m, dim) or (n_samples, m, dim)")
    # the walk sums |x_i - x_j| over axes in int64: keep those sums far
    # below overflow, with room for the walkers to move
    bound = 2**61 // dim
    if not ((arr >= -bound) & (arr <= bound)).all():
        raise ArgumentError(f"start offsets must be at most 2**61 // dim = {bound} in size")
    arr = arr.astype(np.int64)
    if arr.ndim == 2:
        return np.broadcast_to(arr, (n_samples,) + arr.shape).copy()
    return arr


def _merge_initial_coincidences(pos: np.ndarray, rep: np.ndarray) -> None:
    n, m, _ = pos.shape
    for i in range(m):
        for j in range(i + 1, m):
            same = np.all(pos[:, i, :] == pos[:, j, :], axis=1)
            lo = np.minimum(rep[same, i], rep[same, j])
            rep[same, i] = lo
            rep[same, j] = lo
    _canonicalize(rep)


def _canonicalize(rep: np.ndarray) -> None:
    # path-compress representative labels (at most m-1 hops)
    m = rep.shape[1]
    for _ in range(m):
        nxt = np.take_along_axis(rep, rep, axis=1)
        if np.array_equal(nxt, rep):
            break
        rep[:] = nxt


def _pair_gaps(P: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """L1 distance of every walker pair (pairs, nr); pairs with an
    inactive walker read _MAX_LEAP, as no leap is longer."""
    diff = P.take(pair_i, axis=1)
    diff -= P.take(pair_j, axis=1)
    np.abs(diff, out=diff)
    gap = diff[0]
    for axis in range(1, P.shape[0]):
        gap += diff[axis]
    np.putmask(gap, dead, _MAX_LEAP)
    return gap


def _run_coalescing(
    pos: np.ndarray,
    rep: np.ndarray,
    t: np.ndarray,
    t_end: float,
    jump_rate: float,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Advance all samples to time t_end in place; return (passes, picks).

    Uniformized and batched, with leaps. Every one of a sample's m
    walkers keeps its rate-``jump_rate`` clock after it merges, and a
    merged walker's picks move nothing. By superposition, a sample's
    picks up to t_end are one Poisson(m * jump_rate * (t_end - t)) count,
    drawn once, each uniform over m walkers x 2 * dim directions, which
    is the law of the walk itself. ``picks`` counts them all, a merged
    walker's no-op picks included.

    Active walkers never share a site, a merge needs a pair at distance
    0, and a pick moves a pair's L1 distance by at most 1. So if a
    sample's active walkers are at least D apart, its next D - 1 picks
    cannot merge, and each pass takes J = min(D, picks left, _MAX_LEAP)
    picks at once. Only a J = D-th pick can land on another active
    walker's site, and then that pair is the only one at distance 0 in
    the distances the next pass needs anyway, so merges need no separate
    hit test. ``rep`` is kept canonical (every entry points at its
    cluster's minimal index), so merges are single relabelings. Every
    clock ends at t_end; the picks are memoryless, so a later call to a
    longer horizon continues exactly.

    Only the running samples are touched, through compact copies kept in
    their original row order and stored walker-major, so each numpy
    inner loop runs over samples rather than over the m walkers:
    positions ``P`` (dim, m, nr), labels ``R`` (m, nr), inactive-pair
    masks ``dead`` (pairs, nr), picks left ``left`` and minimum distances
    ``D`` (nr,). A sample is finished when it has no picks left or its
    walkers have fully merged (then its picks left are dropped), so it
    draws nothing. Only when ``_COMPACT_SHARE`` of the rows are finished
    are they written back to ``pos``/``rep`` and the compact arrays
    rebuilt. The net moves of a pass are counted per (sample, walker,
    axis, sign) in one bincount and multiplied, sample-major, by the
    moving masks ``W`` (nr, m, dim), 1 for an active walker's axes and
    0 for a merged walker's, before they are transposed onto ``P``.
    """
    n, m, dim = pos.shape
    n_pick = 2 * dim * m
    pair_i, pair_j = np.triu_indices(m, 1)
    labels = np.arange(m)[:, None]
    k = (rep == labels.T).sum(axis=1)
    rows = np.flatnonzero((t < t_end) & (k > 1))
    left = rng.poisson(m * jump_rate * (t_end - t[rows]))
    np.maximum(t, t_end, out=t)
    P = np.ascontiguousarray(pos[rows].transpose(2, 1, 0))
    R = np.ascontiguousarray(rep[rows].T)
    A = R == labels
    dead = ~(A[pair_i] & A[pair_j])
    W = np.repeat(A.T, dim, axis=1).reshape(rows.size, m, dim).astype(np.int64)
    D = _pair_gaps(P, pair_i, pair_j, dead).min(axis=0, initial=_MAX_LEAP)
    passes = picks = 0
    while rows.size:
        nr = rows.size
        passes += 1
        J = np.minimum(D, left)
        left -= J
        total = int(J.sum())
        picks += total
        slot = np.repeat(np.arange(0, nr * n_pick, n_pick), J)
        slot += rng.integers(0, n_pick, size=total)
        # one count per (sample, walker, axis, sign); even directions step +1
        moves = np.bincount(slot, minlength=nr * n_pick)
        moves = moves.reshape(nr, m, dim, 2)
        step = moves[..., 0] - moves[..., 1]
        step *= W
        P += step.T

        # a D-th pick that moved a walker may have landed on another
        # active walker's site: that pair, and only that one, is now at
        # distance 0
        gap = _pair_gaps(P, pair_i, pair_j, dead)
        D = gap.min(axis=0, initial=_MAX_LEAP)
        rr = np.flatnonzero(D == 0)
        if rr.size:
            pair = np.argmin(gap[:, rr], axis=0)
            sub = R[:, rr]
            np.putmask(sub, sub == pair_j[pair], np.broadcast_to(pair_i[pair], sub.shape))
            R[:, rr] = sub
            act = sub == labels
            dead[:, rr] = ~(act[pair_i] & act[pair_j])
            W[rr] = act.T[:, :, None]
            D[rr] = np.where(dead[:, rr], _MAX_LEAP, gap[:, rr]).min(axis=0)
            left[rr[act.sum(axis=0) == 1]] = 0
        done = left == 0
        if np.count_nonzero(done) < nr * _COMPACT_SHARE:
            continue
        keep = ~done
        pos[rows[done]] = np.compress(done, P, axis=2).transpose(2, 1, 0)
        rep[rows[done]] = np.compress(done, R, axis=1).T
        rows, left, D, W = rows[keep], left[keep], D[keep], W[keep]
        P, R, dead = (np.compress(keep, x, axis=-1) for x in (P, R, dead))
    return passes, picks


def sample_coalescent_partitions(
    start: Sequence,
    dim: int,
    horizon: float,
    jump_rate: float,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, list[str]]:
    """Final cluster labels (n_samples, m), the cutoff walked and notes.

    A finite horizon is walked exactly, an infinite one to ``MAX_CUTOFF``
    whatever ``n_samples`` is, with a note that the tail is not resolved.
    """
    for name, value in (("n_samples", n_samples), ("dim", dim)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
            raise ArgumentError(f"{name} must be a positive integer")
    if not 0 < jump_rate < math.inf:
        raise ArgumentError("jump_rate must be positive and finite")
    if not horizon >= 0:
        raise ArgumentError("horizon must be nonnegative (inf for the infinite horizon)")
    pos = _as_starts(start, dim, n_samples)
    m = pos.shape[1]
    rep = np.tile(np.arange(m), (n_samples, 1))
    _merge_initial_coincidences(pos, rep)
    if math.isfinite(horizon):
        cutoff, notes = float(horizon), []
    else:
        cutoff, notes = MAX_CUTOFF, [f"cutoff capped at {MAX_CUTOFF:g}; tail not fully resolved"]
    _run_coalescing(pos, rep, np.zeros(n_samples), cutoff, jump_rate, rng)
    return rep, cutoff, notes


def mark_blocks(rep: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(n, m) copy maps of (n, m) cluster label rows: every member of a
    block copies the block's mark, its member with the largest uniform
    key, so each member is the mark with equal probability."""
    keys = np.where(rep[:, :, None] == rep[:, None, :], rng.random(rep.shape)[:, None, :], -1.0)
    return keys.argmax(axis=2)


def sample_box_offsets(
    L: int, dim: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """(n, 5, dim) starts: origin plus four distinct nonzero box sites.

    The four offspring offsets are a uniform sample without replacement
    from ([-L, L]^dim) minus the origin.
    """
    side = 2 * L + 1
    n_sites = side**dim
    if L < 1 or n_sites - 1 < 4:
        raise ArgumentError(
            f"the box [-{L}, {L}]^{dim} has fewer than four nonzero sites"
        )
    origin_flat = (n_sites - 1) // 2
    out = np.zeros((n_samples, 5, dim), dtype=np.int64)
    need = np.arange(n_samples)
    flat = np.zeros((n_samples, 4), dtype=np.int64)
    while need.size:
        draw = rng.integers(0, n_sites, size=(need.size, 4))
        ok = (draw != origin_flat).all(axis=1)
        srt = np.sort(draw, axis=1)
        ok &= (srt[:, 1:] != srt[:, :-1]).all(axis=1)
        flat[need[ok]] = draw[ok]
        need = need[~ok]
    for axis in range(dim):
        out[:, 1:, dim - 1 - axis] = flat % side - L
        flat = flat // side
    return out


def gbar(
    L: int,
    dim: int,
    horizon: float,
    a1: float,
    a2: float,
    a3: float,
    a4: float,
    n_samples: int,
    rng_seed: int,
) -> GFunction:
    """Effective g: coalescence-weighted average of the copy-map g's.

    Offspring offsets are drawn from the box measure (origin plus four
    distinct sites of [-L, L]^dim), coalescing walks at jump rate dim
    are run to the horizon (an infinite one to ``MAX_CUTOFF``, recorded
    as ``effective_horizon``), their blocks are marked by `mark_blocks` as
    the NLV decoration marks them, and every copy map contributes its
    g^c weighted by its empirical frequency: the coefficients of g are
    the weighted sum of the g^c coefficients, and the multivariate form
    the weighted sum of the g^c. The metadata records the weights and
    their binomial standard errors, keyed by `partition_label`, and the
    coefficients (``poly_coeffs``).
    """
    if L < 1:
        raise ArgumentError("box half-width L must be >= 1")
    rng = derive_rng(rng_seed, 0x6BA2)
    starts = sample_box_offsets(L, dim, n_samples, rng)
    rep, eff_horizon, notes = sample_coalescent_partitions(starts, dim, horizon, float(dim), n_samples, rng)
    maps, counts = np.unique(mark_blocks(rep, rng), axis=0, return_counts=True)
    weights = counts / n_samples
    stderr = np.sqrt(weights * (1.0 - weights) / n_samples)
    # weights @ (one row of g^c coefficients per map), summed row by row in
    # order, so the rounding does not depend on the BLAS build
    coeffs = (weights[:, None] * np.array([g_pi_univariate_coeffs(c, a1, a2, a3, a4) for c in maps])).sum(axis=0)

    def multivariate(rows):
        return weights @ np.array([g_pi_batch(c, rows, a1, a2, a3, a4) for c in maps])

    labels = [partition_label(c) for c in maps]
    meta = {
        "rates": {"a1": a1, "a2": a2, "a3": a3, "a4": a4},
        "L": L,
        "dim": dim,
        "horizon": horizon,
        "effective_horizon": eff_horizon,
        "poly_coeffs": coeffs.tolist(),
        "weights": dict(zip(labels, weights.tolist())),
        "weight_stderr": dict(zip(labels, stderr.tolist())),
        "n_samples": n_samples,
        "notes": notes,
    }
    return GFunction(5, coeffs, multivariate, label=f"gbar(L={L})", metadata=meta)
