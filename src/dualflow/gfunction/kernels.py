"""Voting kernels: the map from child votes to a parent Bernoulli parameter.

A kernel Theta takes a {0,1}-vector of child votes and returns the
probability that the parent votes 1. Theta must be nondecreasing in every
vote coordinate. Kernels never see per-vertex decorations: a model whose
vote depends on one supplies its own forest combiner instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ArgumentError

__all__ = [
    "VotingKernel",
    "ExchangeableKernel",
    "majority_kernel",
    "eval_multivariate_g",
]

MAX_EXACT_CHILDREN = 16


class VotingKernel:
    """Base voting kernel.

    Subclasses implement :meth:`theta`. ``is_deterministic`` declares that
    the range of theta is contained in {0, 1}, in which case sampling a
    vote reduces to evaluating theta.
    """

    n_children: int
    is_deterministic: bool

    def theta(self, votes: Sequence[int]) -> float:
        raise NotImplementedError

    def theta_batch(self, votes: np.ndarray) -> np.ndarray:
        """theta applied row-wise to an (m, n_children) vote matrix."""
        return np.array([self.theta(row) for row in votes], dtype=float)

    def combine_params(self, child_params: np.ndarray) -> np.ndarray:
        """Vectorized parent parameters from (m, n_children) child parameters.

        Computes, row by row, the expectation of theta over independent
        Bernoulli votes with the given parameters, by exact enumeration
        of all 2**n_children vote vectors; requires n_children <= 16.
        """
        child_params = np.asarray(child_params, dtype=float)
        m, n = child_params.shape
        if n != self.n_children:
            raise ArgumentError(f"expected {self.n_children} children, got {n}")
        if n > MAX_EXACT_CHILDREN:
            raise ArgumentError(f"exact enumeration limited to {MAX_EXACT_CHILDREN} children")
        out = np.zeros(m)
        for pattern in range(2**n):
            votes = _bits(pattern, n)
            weight = np.ones(m)
            for i, v in enumerate(votes):
                weight = weight * (child_params[:, i] if v else 1.0 - child_params[:, i])
            out += self.theta(votes) * weight
        return out


def _bits(pattern: int, n: int) -> tuple[int, ...]:
    # little-endian: bit i of pattern is the vote of child i
    return tuple((pattern >> i) & 1 for i in range(n))


class ExchangeableKernel(VotingKernel):
    """Kernel that depends on the votes only through their sum.

    ``levels[k]`` is the parent parameter when exactly k children vote 1.
    Covers majority voting (levels 0,0,1,1), the nonlinear-voter rates
    (a_0..a_5) and the sexual-reproduction kernel.
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
        return self.levels[votes.sum(axis=1)]

    def __repr__(self):
        name = self.label or "exchangeable"
        return f"ExchangeableKernel({name}, levels={self.levels.tolist()})"


def majority_kernel(n_children: int = 3) -> ExchangeableKernel:
    """Deterministic majority vote over an odd number of children."""
    if n_children % 2 == 0:
        raise ArgumentError("majority vote needs an odd number of children")
    levels = [0.0] * ((n_children + 1) // 2) + [1.0] * ((n_children + 1) // 2)
    return ExchangeableKernel(levels, label=f"majority{n_children}")


def eval_multivariate_g(kernel: VotingKernel, probs: Sequence[float]) -> float:
    """Expected theta over independent Bernoulli(probs) votes.

    One row of ``kernel.combine_params``, the exact enumeration over all
    2**n_children vote vectors.
    """
    probs = np.asarray(probs, dtype=float)
    n = kernel.n_children
    if probs.shape != (n,):
        raise ArgumentError(f"expected {n} probabilities, got shape {probs.shape}")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ArgumentError("probabilities must lie in [0,1]")
    return float(kernel.combine_params(probs[None, :])[0])
