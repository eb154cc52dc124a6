"""Coalescing random walks, partition distributions, and the effective g.

Walkers perform independent continuous-time simple random walks on the
integer lattice (total jump rate ``jump_rate`` each, uniform over the 2d
nearest neighbours) and merge whenever a jump lands on an occupied site.
The partition of the starting indices by merged-cluster membership,
with a uniformly chosen marked representative per block, is the object
of interest: its distribution weights the per-partition g-functions
into the effective g of the nonlinear voter model.

The walk is simulated pass by pass, one jump per running sample per
pass, on compact arrays that hold only the samples still running; it
makes the same random draws, in the same order, as the plain
event-driven definition, so results are identical draw for draw.

Infinite horizons are approximated by a finite cutoff that doubles
until the no-coalescence weight moves by less than ``stall_tol`` (the
weight is monotone in the horizon along fixed paths, so the doubling
increments measure exactly the missed mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import ArgumentError
from ..rng import derive_rng
from .gfun import GFunction
from .nlv import (
    MarkedPartition,
    g_pi_batch,
    g_pi_univariate_coeffs,
    singleton_partition,
)

__all__ = [
    "PartitionDistribution",
    "coalescence_partition_distribution",
    "sample_coalescent_partitions",
    "gbar",
]

DEFAULT_STALL_TOL = 1e-3
DEFAULT_INITIAL_CUTOFF = 8.0
DEFAULT_MAX_CUTOFF = 512.0


@dataclass
class PartitionDistribution:
    """Monte Carlo distribution over marked partitions of {1..m}."""

    dim: int
    start: np.ndarray  # (m, dim) offsets, or (n, m, dim) when per-sample
    horizon: float  # requested horizon (may be inf)
    effective_horizon: float  # cutoff actually simulated
    weights: dict[MarkedPartition, float]
    stderr: dict[MarkedPartition, float]
    n_samples: int
    notes: list[str] = field(default_factory=list)

    def weight_of(self, partition: MarkedPartition) -> float:
        return self.weights.get(partition, 0.0)

    @property
    def singleton_weight(self) -> float:
        m = self.start.shape[-2]
        return self.weight_of(singleton_partition(m))

    def to_csv(self) -> str:
        lines = ["partition,weight,stderr"]
        for part in sorted(self.weights, key=str):
            lines.append(f"{part},{self.weights[part]:.10g},{self.stderr[part]:.4g}")
        return "\n".join(lines) + "\n"


def _as_starts(start: Sequence, dim: int, n_samples: int) -> np.ndarray:
    arr = np.asarray(start, dtype=np.int64)
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ArgumentError(f"offsets must have dimension {dim}")
        arr = np.broadcast_to(arr, (n_samples,) + arr.shape).copy()
    elif arr.ndim == 3:
        if arr.shape[0] != n_samples or arr.shape[2] != dim:
            raise ArgumentError("per-sample starts must be (n_samples, m, dim)")
        arr = arr.copy()
    else:
        raise ArgumentError("start offsets must be (m, dim) or (n_samples, m, dim)")
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


def _run_coalescing(
    pos: np.ndarray,
    rep: np.ndarray,
    t: np.ndarray,
    t_end: float,
    jump_rate: float,
    rng: np.random.Generator,
) -> None:
    """Advance all samples to time t_end in place.

    Event-driven and batched: each pass draws one exponential clock per
    still-running sample and applies one jump to every sample whose
    clock fires before t_end. ``rep`` is kept canonical (every entry
    points at its cluster's minimal index), so merges are single
    relabelings.

    Only the running samples are touched, through compact copies kept in
    their original row order and stored walker-major, so each numpy
    inner loop runs over samples rather than over the m walkers:
    positions ``P`` (dim, m, nr), labels ``R`` and active masks ``A``
    (m, nr), clocks ``T``, active counts ``K`` and total rates
    ``K * jump_rate`` (nr,), and ``order`` (m, nr), each sample's active
    walkers first in ascending index, so the u-th active walker is
    ``order[u, row]``. A sample is written back to ``pos``/``rep``/``t``
    when its clock reaches t_end or its walkers have fully merged; the
    compact arrays are rebuilt only then.

    The draws (kind, size, order and arguments) are those of the plain
    one-jump-per-pass definition: ``exponential(1, nr) / (k * jump_rate)``
    over the running samples, then, over the firing ones,
    ``integers(0, k)`` for the walker and ``integers(0, 2 * dim)`` for
    the direction.
    """
    n, m, dim = pos.shape
    ar_n = np.arange(n)
    labels = np.arange(m)[:, None]
    k = (rep == labels.T).sum(axis=1)
    running = (t < t_end) & (k > 1)
    t[~running] = np.maximum(t[~running], t_end)
    rows = np.flatnonzero(running)
    P = np.ascontiguousarray(pos[rows].transpose(2, 1, 0))
    R = np.ascontiguousarray(rep[rows].T)
    A = R == labels
    T, K = t[rows], k[rows]
    rate = K * jump_rate
    order = np.argsort(~A, axis=0, kind="stable")
    while rows.size:
        nr = rows.size
        proposal = T + rng.exponential(1.0, size=nr) / rate
        all_fire = bool((proposal < t_end).all())
        if all_fire:
            T = proposal
            fi = ar_n[:nr]
            Kf = K
        else:
            T = np.minimum(proposal, t_end)
            fi = np.flatnonzero(proposal <= t_end)
            Kf = K[fi]
        merged = False
        nf = fi.size
        if nf:
            # pick one active cluster representative uniformly per sample
            walker = order[rng.integers(0, Kf), fi]
            direction = rng.integers(0, 2 * dim, size=nf)
            cell = walker * nr + fi
            P.reshape(-1)[(direction >> 1) * (m * nr) + cell] += 1 - 2 * (direction & 1)

            # coalescence: the jump landed on another representative's
            # site; the moved walker itself matches once per sample
            newpos = P.reshape(dim, -1).take(cell, axis=1)
            Pf, hits = (P, A.copy()) if all_fire else (P.take(fi, axis=2), A.take(fi, axis=1))
            for axis in range(dim):
                hits &= Pf[axis] == newpos[axis]
            if np.count_nonzero(hits) > nf:
                merged = True
                hits[walker, ar_n[:nf]] = False
                hit = np.flatnonzero(hits.any(axis=0))
                rr = fi[hit]
                partner = np.argmax(hits[:, hit], axis=0)
                w = walker[hit]
                lo = np.minimum(R[w, rr], R[partner, rr])
                hi = np.maximum(R[w, rr], R[partner, rr])
                sub = R[:, rr]
                np.putmask(sub, sub == hi, np.broadcast_to(lo, sub.shape))
                R[:, rr] = sub
                A[:, rr] = sub == labels
                K[rr] = A[:, rr].sum(axis=0)
                rate[rr] = K[rr] * jump_rate
                order[:, rr] = np.argsort(~A[:, rr], axis=0, kind="stable")
        if all_fire and not merged:
            continue
        keep = (T < t_end) & (K > 1)
        if keep.all():
            continue
        done = ~keep
        pos[rows[done]] = np.compress(done, P, axis=2).transpose(2, 1, 0)
        rep[rows[done]] = np.compress(done, R, axis=1).T
        t[rows[done]] = np.maximum(T[done], t_end)
        rows, T, K, rate = rows[keep], T[keep], K[keep], rate[keep]
        P, R, A, order = (np.compress(keep, x, axis=-1) for x in (P, R, A, order))


def sample_coalescent_partitions(
    start: Sequence,
    dim: int,
    horizon: float,
    jump_rate: float,
    n_samples: int,
    rng: np.random.Generator,
    stall_tol: float = DEFAULT_STALL_TOL,
    initial_cutoff: float = DEFAULT_INITIAL_CUTOFF,
    max_cutoff: float = DEFAULT_MAX_CUTOFF,
) -> tuple[np.ndarray, float, list[str]]:
    """Final cluster labels (n_samples, m) and the cutoff actually used.

    For a finite horizon, walks run exactly to the horizon. For an
    infinite one, the cutoff doubles (continuing the same trajectories,
    so the singleton weight is monotone) until its decrement is below
    ``stall_tol`` or ``max_cutoff`` is reached.
    """
    if n_samples <= 0:
        raise ArgumentError("n_samples must be positive")
    if not 0 < jump_rate < math.inf:
        raise ArgumentError("jump_rate must be positive and finite")
    if not horizon >= 0:
        raise ArgumentError("horizon must be nonnegative (inf for the infinite horizon)")
    if not 0 < initial_cutoff <= max_cutoff < math.inf:
        raise ArgumentError("cutoffs must satisfy 0 < initial_cutoff <= max_cutoff < inf")
    pos = _as_starts(start, dim, n_samples)
    m = pos.shape[1]
    rep = np.tile(np.arange(m), (n_samples, 1))
    _merge_initial_coincidences(pos, rep)
    t = np.zeros(n_samples)
    notes: list[str] = []

    if math.isfinite(horizon):
        _run_coalescing(pos, rep, t, horizon, jump_rate, rng)
        return rep, float(horizon), notes

    cutoff = initial_cutoff
    _run_coalescing(pos, rep, t, cutoff, jump_rate, rng)
    prev_single = _singleton_fraction(rep)
    while cutoff < max_cutoff:
        cutoff *= 2.0
        _run_coalescing(pos, rep, t, cutoff, jump_rate, rng)
        single = _singleton_fraction(rep)
        if prev_single - single < stall_tol:
            notes.append(
                f"cutoff {cutoff:g}: no-coalescence weight moved "
                f"{prev_single - single:.2e} (< {stall_tol:g}) on doubling"
            )
            return rep, cutoff, notes
        prev_single = single
    notes.append(f"cutoff capped at {max_cutoff:g}; tail not fully resolved")
    return rep, cutoff, notes


def _singleton_fraction(rep: np.ndarray) -> float:
    m = rep.shape[1]
    return float(np.mean(np.all(rep == np.arange(m)[None, :], axis=1)))


def _labels_to_partition(labels: np.ndarray, rng: np.random.Generator) -> MarkedPartition:
    m = labels.shape[0]
    blocks: dict[int, list[int]] = {}
    for i in range(m):
        blocks.setdefault(int(labels[i]), []).append(i + 1)
    ordered = tuple(tuple(b) for b in sorted(blocks.values(), key=lambda b: b[0]))
    marks = tuple(int(b[rng.integers(0, len(b))]) for b in ordered)
    return MarkedPartition(ordered, marks)


def _partition_frequencies(
    rep: np.ndarray, rng: np.random.Generator
) -> tuple[dict[MarkedPartition, float], dict[MarkedPartition, float]]:
    """Empirical marked-partition weights of the label rows, with their
    binomial standard errors; marks are drawn row by row."""
    n = rep.shape[0]
    counts: dict[MarkedPartition, int] = {}
    for s in range(n):
        part = _labels_to_partition(rep[s], rng)
        counts[part] = counts.get(part, 0) + 1
    weights = {p: c / n for p, c in counts.items()}
    stderr = {p: math.sqrt(w * (1.0 - w) / n) for p, w in weights.items()}
    return weights, stderr


def coalescence_partition_distribution(
    start: Sequence,
    dim: int,
    horizon: float,
    jump_rate: float,
    n_samples: int,
    rng_seed: int,
    stall_tol: float = DEFAULT_STALL_TOL,
) -> PartitionDistribution:
    """Monte Carlo distribution of the marked coalescence partition.

    ``start`` holds the walkers' initial lattice offsets; walkers
    sharing an offset are already coalesced at time zero. Marks are
    drawn uniformly within each block.
    """
    rng = derive_rng(rng_seed, 0xC0A1)
    rep, eff_horizon, notes = sample_coalescent_partitions(
        start, dim, horizon, jump_rate, n_samples, rng, stall_tol=stall_tol
    )
    weights, stderr = _partition_frequencies(rep, rng)
    start_arr = np.asarray(start, dtype=np.int64)
    return PartitionDistribution(
        dim=dim,
        start=start_arr,
        horizon=horizon,
        effective_horizon=eff_horizon,
        weights=weights,
        stderr=stderr,
        n_samples=n_samples,
        notes=notes,
    )


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
    jump_rate: Optional[float] = None,
    stall_tol: float = DEFAULT_STALL_TOL,
) -> GFunction:
    """Effective g: coalescence-weighted average of the partition g's.

    Offspring offsets are drawn from the box measure (origin plus four
    distinct sites of [-L, L]^dim), coalescing walks are run to the
    horizon, and every marked partition contributes its g^pi weighted
    by its empirical frequency. The returned GFunction caches the
    weight vector, per-weight standard errors and the polynomial
    coefficients of the univariate effective g.
    """
    if L < 1:
        raise ArgumentError("box half-width L must be >= 1")
    if jump_rate is None:
        jump_rate = float(dim)
    rng = derive_rng(rng_seed, 0x6BA2)
    starts = sample_box_offsets(L, dim, n_samples, rng)
    rep, eff_horizon, notes = sample_coalescent_partitions(
        starts, dim, horizon, jump_rate, n_samples, rng, stall_tol=stall_tol
    )
    weights, stderr = _partition_frequencies(rep, rng)

    coeffs = np.zeros(6)
    for part, w in weights.items():
        c = g_pi_univariate_coeffs(part, a1, a2, a3, a4)
        coeffs[: len(c)] += w * c
    parts = list(weights)
    wvec = np.array([weights[p] for p in parts])

    def univariate(p):
        return np.polynomial.polynomial.polyval(np.asarray(p, dtype=float), coeffs)

    def multivariate(rows):
        vals = np.array([g_pi_batch(part, rows, a1, a2, a3, a4) for part in parts])
        # one dot per row, in the summation order of a single-row evaluation
        return np.array([np.dot(wvec, v) for v in np.ascontiguousarray(vals.T)])

    meta = {
        "rates": {"a1": a1, "a2": a2, "a3": a3, "a4": a4},
        "L": L,
        "dim": dim,
        "horizon": horizon,
        "effective_horizon": eff_horizon,
        "poly_coeffs": coeffs.tolist(),
        "weights": {str(p): w for p, w in weights.items()},
        "weight_stderr": {str(p): e for p, e in stderr.items()},
        "n_samples": n_samples,
        "notes": notes,
    }
    return GFunction(5, univariate, multivariate, coeffs, label=f"gbar(L={L})", metadata=meta)

