"""Monte Carlo vote-probability estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ArgumentError
from ..gfunction.kernels import ExchangeableKernel
from ..rng import derive_rng
from .forest import forest_root_params
from .tree import BranchingSpec, DEFAULT_VERTEX_BUDGET

__all__ = ["VoteEstimate", "estimate_vote_probability"]


@dataclass
class VoteEstimate:
    """A vote-probability estimate with its sampling error.

    ``estimator`` records whether the value averages exact per-tree
    parameters ("tree-exact", lower variance) or raw Bernoulli outcomes,
    in which case stderr = sqrt(value*(1-value)/n_samples).
    """

    value: float
    stderr: float
    n_samples: int
    seed: int
    t: float
    x: tuple[float, ...]
    label: str = ""
    estimator: str = "tree-exact"

    def __post_init__(self):
        if not -1e-12 <= self.value <= 1 + 1e-12:
            raise ArgumentError(f"estimate {self.value} outside [0,1]")


def estimate_vote_probability(
    spec: BranchingSpec,
    kernel: Optional[ExchangeableKernel],
    x,
    t: float,
    p: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    rng_seed: int,
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
    combine: Optional[Callable] = None,
) -> VoteEstimate:
    """Unbiased estimate of the root vote probability at (t, x).

    Averages the exact bottom-up recursion over sampled genealogies;
    conditioning on the tree removes the vote-sampling variance.
    ``p`` maps an (m, dim) array of leaf positions to probabilities.
    """
    if n_samples < 1:
        raise ArgumentError("n_samples must be at least 1")
    rng = derive_rng(rng_seed, 0xE577)
    res = forest_root_params(
        spec, x, t, p, kernel, n_samples, rng, max_vertices=max_vertices, combine=combine
    )
    vals = res.root_params
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.5
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    return VoteEstimate(
        value=value,
        stderr=stderr,
        n_samples=n_samples,
        seed=rng_seed,
        t=t,
        x=tuple(float(v) for v in x_arr),
        label=spec.label,
    )
