"""Vectorized ensembles of branching trees with exact vote recursion.

Simulates n_samples independent genealogies generation by generation
(one flat array per wave across the whole ensemble) and back-propagates
vote parameters from the leaves, evaluating the kernel's expected theta
exactly at every internal vertex. The per-tree result equals
root_vote_prob_exact on the same tree; averaging over trees is then an
unbiased, variance-reduced estimator of the vote probability.

Children of the i-th internal vertex of a wave occupy the contiguous
slots [i*n_children, (i+1)*n_children) of the next wave, which is what
makes the backward pass a reshape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ArgumentError, ResourceError
from ..gfunction.kernels import VotingKernel
from .tree import BranchingSpec, DEFAULT_VERTEX_BUDGET, expected_population

__all__ = ["forest_root_params", "ForestResult"]


@dataclass
class _Wave:
    is_leaf: np.ndarray  # (n_w,) bool
    leaf_positions: Optional[np.ndarray]  # (n_leaves, dim)
    decorations: Optional[np.ndarray]  # one row per internal vertex, or None


@dataclass
class ForestResult:
    root_params: np.ndarray  # (n_samples,)
    total_vertices: int
    total_leaves: int
    max_depth: int


def forest_root_params(
    spec: BranchingSpec,
    x0,
    t: float,
    leaf_prob: Callable[[np.ndarray], np.ndarray],
    kernel: Optional[VotingKernel],
    n_samples: int,
    rng: np.random.Generator,
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
    combine: Optional[Callable] = None,
) -> ForestResult:
    """Exact per-tree root vote parameters for an ensemble of trees.

    ``leaf_prob`` must map an (m, dim) position array to m probabilities.
    ``combine`` replaces the kernel's ``combine_params``; it receives
    (child_params (m, N0), the wave's ``spec.decoration_fn`` rows or
    None, rng). Decorations reach nothing else.
    """
    if n_samples < 1:
        raise ArgumentError("n_samples must be positive")
    if kernel is None and combine is None:
        raise ArgumentError("a voting kernel or a forest combiner is required")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.dim,):
        raise ArgumentError(f"start point must have dimension {spec.dim}")
    # total vertices of a full n0-ary family tree with L leaves: (n0 L - 1)/(n0 - 1)
    vertex_factor = spec.n_children / max(spec.n_children - 1, 1)
    expected_total = n_samples * expected_population(spec, t) * vertex_factor
    if expected_total > max_vertices:
        raise ResourceError(
            f"expected ensemble size {expected_total:.3g} vertices "
            f"exceeds the vertex budget {max_vertices}"
        )

    n0 = spec.n_children
    waves: list[_Wave] = []
    positions = np.tile(x0, (n_samples, 1))
    births = np.zeros(n_samples)
    total = 0
    while positions.shape[0]:
        n_w = positions.shape[0]
        total += n_w
        if total > max_vertices:
            raise ResourceError(f"ensemble exceeded the vertex budget {max_vertices}")
        if spec.branch_rate > 0:
            lifetimes = rng.exponential(1.0 / spec.branch_rate, size=n_w)
        else:
            lifetimes = np.full(n_w, np.inf)
        is_leaf = births + lifetimes >= t
        leaf_pos = None
        if is_leaf.any():
            lp = positions[is_leaf]
            leaf_pos = spec.motion(lp, t - births[is_leaf], rng)
        internal = ~is_leaf
        decorations = None
        if internal.any():
            ip = positions[internal]
            ilife = lifetimes[internal]
            at_death = spec.motion(ip, ilife, rng)
            offspring = spec.dispersal(at_death, rng)  # (m, n0, dim)
            if spec.decoration_fn is not None:
                decorations = spec.decoration_fn(at_death, offspring, rng)
            positions = offspring.reshape(-1, spec.dim)
            births = np.repeat(births[internal] + ilife, n0)
        else:
            positions = np.empty((0, spec.dim))
            births = np.empty(0)
        waves.append(_Wave(is_leaf, leaf_pos, decorations))

    # backward pass
    params_next = np.empty(0)
    for wave in reversed(waves):
        n_w = wave.is_leaf.shape[0]
        params = np.empty(n_w)
        if wave.leaf_positions is not None:
            lvals = np.asarray(leaf_prob(wave.leaf_positions), dtype=float)
            if lvals.shape != (int(wave.is_leaf.sum()),):
                raise ArgumentError("leaf_prob must return one probability per position")
            if np.any(lvals < -1e-12) or np.any(lvals > 1 + 1e-12):
                raise ArgumentError("leaf probabilities must lie in [0,1]")
            params[wave.is_leaf] = np.clip(lvals, 0.0, 1.0)
        n_int = int((~wave.is_leaf).sum())
        if n_int:
            child = params_next.reshape(n_int, n0)
            if combine is not None:
                params[~wave.is_leaf] = combine(child, wave.decorations, rng)
            else:
                params[~wave.is_leaf] = kernel.combine_params(child)
        params_next = params
    return ForestResult(
        root_params=params_next,
        total_vertices=total,
        total_leaves=int(sum(w.is_leaf.sum() for w in waves)),
        max_depth=len(waves) - 1,
    )
