"""Monte Carlo vote-probability estimates, one per column of a forest."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ArgumentError
from ..gfunction.kernels import ExchangeableKernel
from ..rng import derive_rng
from .forest import forest_root_params
from .tree import BranchingSpec

__all__ = ["VoteEstimate", "estimate_vote_probabilities", "estimate_vote_probability"]


@dataclass
class VoteEstimate:
    """A vote-probability estimate with its sampling error.

    The value averages exact per-tree root parameters, and stderr is
    their standard error.
    """

    value: float
    stderr: float
    n_samples: int
    seed: int
    t: float
    x: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if not -1e-12 <= self.value <= 1 + 1e-12:
            raise ArgumentError(f"estimate {self.value} outside [0,1]")


def estimate_vote_probabilities(
    spec: BranchingSpec,
    kernel: Optional[ExchangeableKernel],
    starts,
    t: float,
    leaf_probs: Sequence[Callable[[np.ndarray], np.ndarray]],
    n_samples: int,
    rng_seed: int,
    combine: Optional[Callable] = None,
) -> list[VoteEstimate]:
    """Unbiased estimates of the root vote probability at (t, x_k), one
    per column (x_k, p_k) of ``starts`` and ``leaf_probs``.

    Averages the exact bottom-up recursion over one ensemble of sampled
    genealogies, which every column reads shifted to its own start
    (`forest_root_params`); conditioning on the tree removes the
    vote-sampling variance. Each estimate has the marginal law, sample
    count and standard error of a forest grown for it alone. Column 0 is
    bit for bit that forest on this seed; the columns of one call are
    positively correlated.
    """
    rng = derive_rng(rng_seed, 0xE577)
    res = forest_root_params(spec, starts, t, leaf_probs, kernel, n_samples, rng, combine=combine)
    estimates = []
    # each column is reduced from contiguous data, as a one-column forest is
    for x, vals in zip(np.asarray(starts, dtype=float), np.ascontiguousarray(res.root_params.T)):
        estimates.append(
            VoteEstimate(
                value=float(np.mean(vals)),
                stderr=float(np.std(vals, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.5,
                n_samples=n_samples,
                seed=rng_seed,
                t=t,
                x=tuple(float(v) for v in x),
                label=spec.label,
            )
        )
    return estimates


def estimate_vote_probability(
    spec: BranchingSpec,
    kernel: Optional[ExchangeableKernel],
    x,
    t: float,
    p: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    rng_seed: int,
    combine: Optional[Callable] = None,
) -> VoteEstimate:
    """Unbiased estimate of the root vote probability at (t, x): the
    one-column case of `estimate_vote_probabilities`. ``p`` maps an
    (m, dim) array of leaf positions to probabilities."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return estimate_vote_probabilities(spec, kernel, x[None, :], t, [p], n_samples, rng_seed, combine=combine)[0]
