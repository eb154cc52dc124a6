"""Vectorized ensembles of branching trees with exact vote recursion.

Simulates n_samples independent genealogies generation by generation
(one flat array per wave across the whole ensemble) and back-propagates
vote parameters from the leaves, evaluating the kernel's expected theta
exactly at every internal vertex. The per-tree result equals
root_vote_prob_exact on the same tree; averaging over trees is then an
unbiased, variance-reduced estimator of the vote probability.

Leaves are valued as they are made: the forward pass calls ``leaf_prob``
once per wave that has leaves, in wave order, and keeps one float per
leaf rather than its position. ``leaf_prob`` must therefore be a pure
function of the positions (it may draw no random numbers). The backward
pass only scatters those values and combines.

Children of the i-th internal vertex of a wave occupy the contiguous
slots [i*n_children, (i+1)*n_children) of the next wave, which is what
makes the backward pass a reshape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ArgumentError, ResourceError
from ..gfunction.kernels import ExchangeableKernel
from .tree import BranchingSpec, DEFAULT_VERTEX_BUDGET, expected_population

__all__ = ["forest_root_params", "ForestResult"]


@dataclass
class _Wave:
    is_leaf: np.ndarray  # (n_w,) bool
    leaf_values: Optional[np.ndarray]  # (n_leaves,) leaf_prob at the leaves, or None
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
    kernel: Optional[ExchangeableKernel],
    n_samples: int,
    rng: np.random.Generator,
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
    combine: Optional[Callable] = None,
) -> ForestResult:
    """Exact per-tree root vote parameters for an ensemble of trees.

    ``leaf_prob`` must map an (m, dim) position array to m probabilities
    in [0, 1] (NaN is rejected, values within 1e-12 outside are clipped).
    It is called once per wave with leaves, in forward order, and must be
    a pure function of the positions. ``combine`` replaces the kernel's
    ``combine_params``; it receives (child_params (m, N0), the wave's
    ``spec.decoration_fn`` rows or None, rng). Decorations reach nothing
    else.
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
    total_leaves = 0
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
        leaf_rows = np.flatnonzero(is_leaf)
        internal_rows = np.flatnonzero(~is_leaf)
        if leaf_rows.size:
            leaf_pos = spec.motion(positions[leaf_rows], t - births[leaf_rows], rng)
        decorations = None
        if internal_rows.size:
            ilife = lifetimes[internal_rows]
            at_death = spec.motion(positions[internal_rows], ilife, rng)
            offspring = spec.dispersal(at_death, rng)  # (m, n0, dim)
            if spec.decoration_fn is not None:
                decorations = spec.decoration_fn(at_death, offspring, rng)
            positions = offspring.reshape(-1, spec.dim)
            births = np.repeat(births[internal_rows] + ilife, n0)
            del internal_rows, ilife, at_death, offspring  # released before the leaves are valued
        else:
            positions = np.empty((0, spec.dim))
            births = np.empty(0)
        leaf_values = None
        if leaf_rows.size:
            leaf_values = np.asarray(leaf_prob(leaf_pos), dtype=float)
            del leaf_pos
            if leaf_values.shape != (leaf_rows.size,):
                raise ArgumentError("leaf_prob must return one probability per position")
            # NaN fails both comparisons
            if not (leaf_values.min() >= -1e-12 and leaf_values.max() <= 1 + 1e-12):
                raise ArgumentError("leaf probabilities must lie in [0,1]")
            leaf_values = np.clip(leaf_values, 0.0, 1.0)
            total_leaves += leaf_rows.size
        waves.append(_Wave(is_leaf, leaf_values, decorations))

    # backward pass: scatter the leaf values, combine the children
    max_depth = len(waves) - 1
    params_next = np.empty(0)
    while waves:
        wave = waves.pop()
        params = np.empty(wave.is_leaf.shape[0])
        if wave.leaf_values is not None:
            params[wave.is_leaf] = wave.leaf_values
        if params_next.size:
            child = params_next.reshape(-1, n0)
            if combine is not None:
                params[~wave.is_leaf] = combine(child, wave.decorations, rng)
            else:
                params[~wave.is_leaf] = kernel.combine_params(child)
        params_next = params
    return ForestResult(
        root_params=params_next,
        total_vertices=total,
        total_leaves=total_leaves,
        max_depth=max_depth,
    )

