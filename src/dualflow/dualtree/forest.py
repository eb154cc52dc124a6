"""Vectorized ensembles of branching trees with exact vote recursion.

Grows n_samples independent genealogies in the wave layout of
``tree.py`` (one flat array per wave across the whole ensemble) and
back-propagates vote parameters from the leaves, evaluating the kernel's
expected theta exactly at every internal vertex. Forward loop and
backward pass are the ones a single genealogy uses, so on the same
random stream a one-root forest equals root_vote_prob_exact on
simulate_tree's genealogy bit for bit; averaging over trees is an
unbiased, variance-reduced estimator of the vote probability.

One forest serves K columns. A column is a (start, leaf function) pair.
Every motion and dispersal is translation-invariant, so the law of a
genealogy does not depend on its start: the forest is grown once from
the first start, and column k reads its genealogies shifted by
x_k - x_0. Leaves keep their positions and are valued only on the
backward pass, where column k calls ``leaf_k(pos + (x_k - x_0))`` once
per wave that has leaves, deepest wave first.

Each column has its own backward pass over the stored waves. A pass
draws nothing: what a vote needs at random (the nonlinear voter's
coalescence partitions) was drawn during growth, by one
``decoration_fn`` call per block, as the waves' decorations. Column 0
is therefore bit for bit the one-column forest, and column k the
one-column forest whose leaf function is shifted by x_k - x_0.

The roots grow and vote in consecutive blocks, so the working set is one
block's waves, not the whole ensemble's. A block holds as many roots as
make about ``_BLOCK_VERTICES`` expected vertices (n0/(n0 - 1) E|N(t)|
per root, the count the up-front budget refusal uses). Each block is
grown, voted by the K column passes into its rows of the result, and
dropped before the next one grows. The blocks draw one after another
from the one generator, so a forest that fits in one block is the
unblocked forest bit for bit. Bad input and the up-front budget refusal
are checked for the whole call before any block is sized, and the
running vertex count spans all blocks against the same budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ArgumentError
from ..gfunction.kernels import ExchangeableKernel
from .tree import BranchingSpec, DEFAULT_VERTEX_BUDGET, check_growth, grow_waves, vote_back

__all__ = ["forest_root_params", "ForestResult"]

# Expected vertices per root block: the forest's working set. Each
# (block, column, wave) costs a leaf call and a combine. On a 2-vCPU Xeon,
# against unblocked forests, the ternary_interface benchmark's
# eight-column propagation check read flat at 2^19 and ~20% slower at
# 2^18, and the whole solve 10-17% slower at 2^17.
_BLOCK_VERTICES = 2**19


@dataclass
class ForestResult:
    root_params: np.ndarray  # (n_samples, K): one row per tree, one column per (start, leaf function)
    total_vertices: int  # summed over blocks
    total_leaves: int  # summed over blocks
    max_depth: int  # the deepest block's


def forest_root_params(
    spec: BranchingSpec,
    starts,
    t: float,
    leaf_probs: Sequence[Callable[[np.ndarray], np.ndarray]],
    kernel: Optional[ExchangeableKernel],
    n_samples: int,
    rng: np.random.Generator,
    combine: Optional[Callable] = None,
) -> ForestResult:
    """Exact per-tree root vote parameters for K columns of one ensemble.

    ``starts`` is a finite (K, dim) array and ``leaf_probs`` holds K
    functions; the forest grows from ``starts[0]``. Each function must
    map an (m, dim) position array to m probabilities in [0, 1] (NaN is
    rejected, values within 1e-12 outside are clipped), and must be a
    pure function of the positions: it may draw no random numbers and
    gets them read-only. ``combine`` replaces the kernel's
    ``combine_params``; it receives (child_params (m, N0), the wave's
    ``spec.decoration_fn`` rows or None) and returns m parameters; it
    must be pure too. Only a forest with ``combine`` draws decorations.
    The vertex budget is ``DEFAULT_VERTEX_BUDGET`` for one start,
    whatever K is.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[0] < 1 or starts.shape[1] != spec.dim or not np.isfinite(starts).all():
        raise ArgumentError(f"starts must be a finite (K, {spec.dim}) array with K >= 1")
    leaf_probs = list(leaf_probs)
    if len(leaf_probs) != starts.shape[0]:
        raise ArgumentError(f"{starts.shape[0]} starts need as many leaf functions, got {len(leaf_probs)}")
    if kernel is None and combine is None:
        raise ArgumentError("a voting kernel or a forest combiner is required")

    x0, per_root = check_growth(spec, starts[0], t, n_samples, DEFAULT_VERTEX_BUDGET)
    block = max(1, int(_BLOCK_VERTICES // per_root))
    shifts = starts - starts[0]

    def leaf_values(wave, k):
        positions = wave.leaves
        positions.flags.writeable = False
        values = np.asarray(leaf_probs[k](positions + shifts[k] if shifts[k].any() else positions), dtype=float)
        if values.shape != (positions.shape[0],):
            raise ArgumentError("leaf_prob must return one probability per position")
        # NaN fails both comparisons
        if not (values.min() >= -1e-12 and values.max() <= 1 + 1e-12):
            raise ArgumentError("leaf probabilities must lie in [0,1]")
        return np.clip(values, 0.0, 1.0)

    if combine is None:
        combine_wave = lambda wave, child: kernel.combine_params(child)
    else:
        combine_wave = lambda wave, child: combine(child, wave.decorations)
    n_columns = starts.shape[0]
    root_params = np.empty((n_samples, n_columns), order="F")  # each column contiguous
    total = total_leaves = max_depth = 0
    for lo in range(0, n_samples, block):
        n_b = min(block, n_samples - lo)
        waves, n_vertices, n_leaves = grow_waves(
            spec, x0, t, n_b, rng, DEFAULT_VERTEX_BUDGET, decorate=combine is not None, counted=total
        )
        total += n_vertices
        total_leaves += n_leaves
        max_depth = max(max_depth, len(waves) - 1)
        for k in range(n_columns):
            if k == n_columns - 1:  # the last pass pops each wave once it has moved above it
                deepest_first = (waves.pop() for _ in range(len(waves)))
            else:
                deepest_first = reversed(waves)
            root_params[lo : lo + n_b, k] = vote_back(
                deepest_first, spec.n_children, lambda wave: leaf_values(wave, k), combine_wave
            )
    return ForestResult(
        root_params=root_params,
        total_vertices=total,
        total_leaves=total_leaves,
        max_depth=max_depth,
    )
