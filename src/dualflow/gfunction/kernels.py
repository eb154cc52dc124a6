"""Voting kernels: the map from child votes to a parent Bernoulli parameter.

A kernel Theta takes a {0,1}-vector of child votes and returns the
probability that the parent votes 1. Theta must be nondecreasing in every
vote coordinate. Kernels never see per-vertex decorations: a model whose
vote depends on one supplies its own forest combiner instead.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import ArgumentError

__all__ = [
    "ExchangeableKernel",
    "majority_kernel",
]

MAX_EXACT_CHILDREN = 16


class ExchangeableKernel:
    """Kernel that depends on the votes only through their sum.

    ``levels[k]`` is the parent parameter when exactly k children vote 1.
    Covers majority voting (levels 0,0,1,1), the nonlinear-voter rates
    (a_0..a_5) and the sexual-reproduction kernel. ``is_deterministic``
    declares that every level is 0 or 1, in which case sampling a vote
    reduces to evaluating theta.
    """

    def __init__(self, levels: Sequence[float], label: str = ""):
        levels = [float(v) for v in levels]
        if any(not 0.0 <= v <= 1.0 for v in levels):
            raise ArgumentError(f"kernel levels outside [0,1]: {levels}")
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise ArgumentError(f"kernel levels must be nondecreasing: {levels}")
        self.levels = np.array(levels)
        self.n_children = len(levels) - 1
        self.is_deterministic = all(v in (0.0, 1.0) for v in levels)
        self.label = label

    def theta(self, votes: Sequence[int]) -> float:
        if len(votes) != self.n_children:
            raise ArgumentError(f"expected {self.n_children} votes, got {len(votes)}")
        return float(self.levels[int(np.sum(votes))])

    def theta_batch(self, votes: np.ndarray) -> np.ndarray:
        """theta applied row-wise to an (m, n_children) vote matrix."""
        return self.levels[votes.sum(axis=1)]

    def combine_params(self, child_params: np.ndarray) -> np.ndarray:
        """Vectorized parent parameters from (m, n_children) child parameters.

        Computes, row by row, the expectation of theta over independent
        Bernoulli votes with the given parameters, by exact enumeration
        of the vote vectors; requires n_children <= 16. The terms are
        added in pattern order from zeros. Patterns with theta = 0 are
        skipped, which is exact: with finite weights each would add 0.
        """
        child_params = np.asarray(child_params, dtype=float)
        m, n = child_params.shape
        if n != self.n_children:
            raise ArgumentError(f"expected {self.n_children} children, got {n}")
        cols = list(np.ascontiguousarray(child_params.T))
        factors = ([1.0 - c for c in cols], cols)  # factors[vote][child]
        out = np.zeros(m)
        buf = np.empty(m)
        for theta, votes in self._vote_patterns:
            weight = factors[votes[0]][0]  # 1.0 * x is exactly x
            for i in range(1, n):
                weight = np.multiply(weight, factors[votes[i]][i], out=buf)
            out += weight if theta == 1.0 else theta * weight
        return out

    @cached_property
    def _vote_patterns(self) -> list[tuple[float, tuple[int, ...]]]:
        """(theta, votes) for every vote vector with theta != 0, in
        pattern order; bit i of the pattern is the vote of child i."""
        n = self.n_children
        if n > MAX_EXACT_CHILDREN:
            raise ArgumentError(f"exact enumeration limited to {MAX_EXACT_CHILDREN} children")
        table = []
        for pattern in range(2**n):
            votes = tuple((pattern >> i) & 1 for i in range(n))
            theta = float(self.theta(votes))
            if theta != 0.0:
                table.append((theta, votes))
        return table

    def __repr__(self):
        name = self.label or "exchangeable"
        return f"ExchangeableKernel({name}, levels={self.levels.tolist()})"


def majority_kernel(n_children: int = 3) -> ExchangeableKernel:
    """Deterministic majority vote over an odd number of children."""
    if n_children % 2 == 0:
        raise ArgumentError("majority vote needs an odd number of children")
    levels = [0.0] * ((n_children + 1) // 2) + [1.0] * ((n_children + 1) // 2)
    return ExchangeableKernel(levels, label=f"majority{n_children}")
