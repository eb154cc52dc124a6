"""Coalescing random walks, their partitions, and the effective g.

Walkers perform independent continuous-time simple random walks on the
integer lattice (total jump rate ``jump_rate`` each, uniform over the 2d
nearest neighbours) and merge whenever a jump lands on an occupied site.
The partition of the starting indices by merged-cluster membership,
with a uniformly chosen mark per block (`mark_blocks`, which writes it
as a copy map), is the object of interest: its distribution weights the
per-copy-map g-functions into the effective g of the nonlinear voter
model.

The walk is simulated pass by pass on compact arrays that hold only the
samples still running, and each pass leaps: a sample whose active
walkers are at L1 distance at least D from one another takes its next D
jumps at once (at most ``_MAX_LEAP``), because only the D-th of them can
make a merge. The leap is exact: the partitions have the law of the
one-jump-at-a-time walk, but the random draws differ from it.

Infinite horizons are approximated by a finite cutoff that doubles from
``INITIAL_CUTOFF`` until the no-coalescence weight moves by less than
``STALL_TOL`` or the cutoff reaches ``MAX_CUTOFF`` (the weight is
monotone in the horizon along fixed paths, so the doubling increments
measure exactly the missed mass).
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

STALL_TOL = 1e-3
INITIAL_CUTOFF = 8.0
MAX_CUTOFF = 512.0
# Most jumps one pass takes for one sample: it bounds each pass's per-jump
# arrays to _MAX_LEAP entries per running sample. A leap shorter than D
# keeps the law, and few are cut: 29 of 296,000 sample-passes in a
# 750-sample gbar(L=2, dim=3) to the 512 cap.
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
    # the jump draws range over lcm(1..m) * 2 * dim in int64
    if math.lcm(*range(1, arr.shape[-2] + 1)) * 2 * dim >= 2**63:
        raise ArgumentError(f"too many walkers ({arr.shape[-2]}) for exact jump draws")
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


def _jump_codes(A: np.ndarray, n_dir: int) -> np.ndarray:
    """(nr, m * n_dir) table: entry u * n_dir + e of a sample is
    w * n_dir + e, for its u-th active walker w (ascending index) and
    direction e; entries past K * n_dir are never read."""
    order = np.argsort(~A, axis=0, kind="stable")
    return (order.T[:, :, None] * n_dir + np.arange(n_dir)).reshape(A.shape[1], A.shape[0] * n_dir)


def _run_coalescing(
    pos: np.ndarray,
    rep: np.ndarray,
    t: np.ndarray,
    t_end: float,
    jump_rate: float,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Advance all samples to time t_end in place; return (passes, jumps).

    Event-driven and batched, with leaps. Active walkers never share a
    site, a merge needs a pair at distance 0, and a jump moves a pair's
    L1 distance by at most 1. So if a sample's active walkers are at
    least D apart, its next D - 1 jumps cannot merge, and each pass
    takes J = min(D, _MAX_LEAP) jumps at once. The active set cannot
    change before the J-th of them, so the J jumps are i.i.d. uniform
    (active walker, direction) pairs, and the J-th comes S ~ Gamma(J) /
    (K * jump_rate) after the sample's clock T. When T + S is not
    before t_end, the earlier J - 1 jump times are uniform on [T, T + S],
    so Binomial(J - 1, (t_end - T) / S) of them happen by t_end and the
    clock stops there; the clock is memoryless, so a later call to a
    longer horizon continues exactly. Only a J = D-th jump can land on
    another active walker's site, and then that pair is the only one at
    distance 0 in the distances the next pass needs anyway, so merges
    need no separate hit test. ``rep`` is kept canonical (every entry
    points at its cluster's minimal index), so merges are single
    relabelings.

    Only the running samples are touched, through compact copies kept in
    their original row order and stored walker-major, so each numpy
    inner loop runs over samples rather than over the m walkers:
    positions ``P`` (dim, m, nr), labels ``R`` and active masks ``A``
    (m, nr), inactive-pair masks ``dead`` (pairs, nr), clocks ``T``,
    minimum distances ``D``, active counts ``K`` and total rates
    ``K * jump_rate`` (nr,), and the jump codes ``code`` of
    ``_jump_codes``. A sample is finished when its clock reaches t_end or
    its walkers have fully merged. A finished sample is frozen in place
    with J = 0: Gamma(0) draws nothing, and frozen samples are left out of
    the binomial draw and take no jump, so the draws are those of the
    running samples alone. Only when ``_COMPACT_SHARE`` of the rows are
    finished are they written back to ``pos``/``rep``/``t`` and the
    compact arrays rebuilt.

    A jump's walker and direction come from one draw on
    [0, lcm(1..m) * 2 * dim) reduced mod K * 2 * dim, which is exactly
    uniform because K * 2 * dim divides the range. The net moves of a
    pass are counted per (sample, walker, axis, sign) in one bincount.
    """
    n, m, dim = pos.shape
    n_dir = 2 * dim
    draw_high = math.lcm(*range(1, m + 1)) * n_dir
    pair_i, pair_j = np.triu_indices(m, 1)
    labels = np.arange(m)[:, None]
    k = (rep == labels.T).sum(axis=1)
    running = (t < t_end) & (k > 1)
    t[~running] = np.maximum(t[~running], t_end)
    rows = np.flatnonzero(running)
    P = np.ascontiguousarray(pos[rows].transpose(2, 1, 0))
    R = np.ascontiguousarray(rep[rows].T)
    A = R == labels
    dead = ~(A[pair_i] & A[pair_j])
    T, K = t[rows], k[rows]
    rate = K * jump_rate
    code = _jump_codes(A, n_dir)
    D = _pair_gaps(P, pair_i, pair_j, dead).min(axis=0, initial=_MAX_LEAP)
    passes = jumps = 0
    live = None  # the unfrozen rows, once some are frozen
    while rows.size:
        nr = rows.size
        passes += 1
        J = np.minimum(D, _MAX_LEAP)
        if live is not None:
            J *= live
        S = rng.standard_gamma(J) / rate  # Gamma(0) is 0 and draws nothing
        arrival = T + S
        fire = arrival < t_end
        late = ~fire if live is None else ~fire & live
        all_fire = not late.any()
        if all_fire:
            T = arrival
            n_jumps = J
        else:
            n_jumps = J.copy()
            share = np.minimum((t_end - T[late]) / S[late], 1.0)
            n_jumps[late] = rng.binomial(J[late] - 1, share)
            T = np.where(fire, arrival, t_end)
        total = int(n_jumps.sum())
        jumps += total
        base = np.repeat(np.arange(0, nr * m * n_dir, m * n_dir), n_jumps)
        draw = rng.integers(0, draw_high, size=total) % np.repeat(K * n_dir, n_jumps)
        # one count per (sample, walker, axis, sign); even directions step +1
        moves = np.bincount(base + code.reshape(-1)[base + draw], minlength=nr * m * n_dir)
        moves = moves.reshape(nr, m, dim, 2)
        P += (moves[..., 0] - moves[..., 1]).T

        # a D-th jump that happened may have landed on another active
        # walker's site: that pair, and only that one, is now at distance 0
        gap = _pair_gaps(P, pair_i, pair_j, dead)
        D = gap.min(axis=0, initial=_MAX_LEAP)
        rr = np.flatnonzero(D == 0)
        if rr.size:
            pair = np.argmin(gap[:, rr], axis=0)
            sub = R[:, rr]
            np.putmask(sub, sub == pair_j[pair], np.broadcast_to(pair_i[pair], sub.shape))
            R[:, rr] = sub
            A[:, rr] = sub == labels
            dead[:, rr] = ~(A[pair_i][:, rr] & A[pair_j][:, rr])
            K[rr] = A[:, rr].sum(axis=0)
            rate[rr] = K[rr] * jump_rate
            code[rr] = _jump_codes(A[:, rr], n_dir)
            D[rr] = np.where(dead[:, rr], _MAX_LEAP, gap[:, rr]).min(axis=0)
        elif all_fire:
            continue
        keep = (T < t_end) & (K > 1)
        done = ~keep
        n_done = np.count_nonzero(done)
        if n_done == 0:
            continue
        if n_done < nr * _COMPACT_SHARE:
            live = keep
            continue
        live = None
        pos[rows[done]] = np.compress(done, P, axis=2).transpose(2, 1, 0)
        rep[rows[done]] = np.compress(done, R, axis=1).T
        t[rows[done]] = np.maximum(T[done], t_end)
        rows, T, K, rate, D = rows[keep], T[keep], K[keep], rate[keep], D[keep]
        P, R, A, dead = (np.compress(keep, x, axis=-1) for x in (P, R, A, dead))
        code = code[keep]
    return passes, jumps


def sample_coalescent_partitions(
    start: Sequence,
    dim: int,
    horizon: float,
    jump_rate: float,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, list[str]]:
    """Final cluster labels (n_samples, m) and the cutoff actually used.

    For a finite horizon, walks run exactly to the horizon. For an
    infinite one, the cutoff doubles (continuing the same trajectories,
    so the singleton weight is monotone) until its decrement is below
    ``STALL_TOL`` or ``MAX_CUTOFF`` is reached.
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
    t = np.zeros(n_samples)
    notes: list[str] = []

    if math.isfinite(horizon):
        _run_coalescing(pos, rep, t, horizon, jump_rate, rng)
        return rep, float(horizon), notes

    cutoff = INITIAL_CUTOFF
    _run_coalescing(pos, rep, t, cutoff, jump_rate, rng)
    prev_single = _singleton_fraction(rep)
    while cutoff < MAX_CUTOFF:
        cutoff *= 2.0
        _run_coalescing(pos, rep, t, cutoff, jump_rate, rng)
        single = _singleton_fraction(rep)
        if prev_single - single < STALL_TOL:
            notes.append(
                f"cutoff {cutoff:g}: no-coalescence weight moved "
                f"{prev_single - single:.2e} (< {STALL_TOL:g}) on doubling"
            )
            return rep, cutoff, notes
        prev_single = single
    notes.append(f"cutoff capped at {MAX_CUTOFF:g}; tail not fully resolved")
    return rep, cutoff, notes


def _singleton_fraction(rep: np.ndarray) -> float:
    m = rep.shape[1]
    return float(np.mean(np.all(rep == np.arange(m)[None, :], axis=1)))


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
    are run to the horizon, their blocks are marked by `mark_blocks` as
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
