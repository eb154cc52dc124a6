"""Vectorized ensembles of branching trees with exact vote recursion.

Grows n_samples independent genealogies in the wave layout of
``tree.py`` (one flat array per wave across the whole ensemble) and
back-propagates vote parameters from the leaves, evaluating the kernel's
expected theta exactly at every internal vertex. Forward loop and
backward pass are the ones a single genealogy uses, so on the same
random stream a one-root forest equals root_vote_prob_exact on
simulate_tree's genealogy bit for bit; averaging over trees is an
unbiased, variance-reduced estimator of the vote probability.

Leaves are valued as they are made: the forward pass calls ``leaf_prob``
once per wave that has leaves, in wave order, and keeps one float per
leaf rather than its position. ``leaf_prob`` must therefore be a pure
function of the positions (it may draw no random numbers). The backward
pass only scatters those values and combines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ArgumentError
from ..gfunction.kernels import ExchangeableKernel
from .tree import BranchingSpec, DEFAULT_VERTEX_BUDGET, grow_waves, vote_back

__all__ = ["forest_root_params", "ForestResult"]


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

    def value_leaves(positions):
        values = np.asarray(leaf_prob(positions), dtype=float)
        if values.shape != (positions.shape[0],):
            raise ArgumentError("leaf_prob must return one probability per position")
        # NaN fails both comparisons
        if not (values.min() >= -1e-12 and values.max() <= 1 + 1e-12):
            raise ArgumentError("leaf probabilities must lie in [0,1]")
        return np.clip(values, 0.0, 1.0)

    waves, total, total_leaves = grow_waves(spec, x0, t, n_samples, rng, max_vertices, value_leaves)
    max_depth = len(waves) - 1
    if combine is None:
        combine_wave = lambda wave, child: kernel.combine_params(child)
    else:
        combine_wave = lambda wave, child: combine(child, wave.decorations, rng)
    # popping releases each wave once the pass has moved above it
    deepest_first = (waves.pop() for _ in range(len(waves)))
    root_params = vote_back(deepest_first, spec.n_children, lambda wave: wave.leaves, combine_wave)
    return ForestResult(
        root_params=root_params,
        total_vertices=total,
        total_leaves=total_leaves,
        max_depth=max_depth,
    )
