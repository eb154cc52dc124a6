"""Nonlinear voter model g-functions.

The flip rates are parameterized by a_1..a_4 with a_0 = 0, a_5 = 1 and
the balance relations a_1 = 1 - a_4, a_2 = 1 - a_3. The kernel over five
children is exchangeable with levels (a_0, ..., a_5), and the univariate
g is the quintic

    g(p) = (4a1-a4) p(1-p)^4 + (6a2-4a3) p^2(1-p)^3
           - (6a2-4a3) p^3(1-p)^2 - (4a1-a4) p^4(1-p) + p.

Coalescence of siblings shortly after birth is encoded by marked
partitions of {1..5}: every member of a block copies the vote of the
block's marked representative. Each marked partition pi has its own
g^pi; the effective g is their coalescence-probability-weighted average
(see coalescence.py).

Bistability phase flags: with A = 4a1-a4 and B = 6a2-4a3, the interior
bistable regime requires A > 0, 3A + B < 0 and 6A + B > 0 together with
monotone levels 0 <= a1 <= a2 <= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from ..errors import ArgumentError
from .gfun import GFunction
from .kernels import ExchangeableKernel

__all__ = [
    "MarkedPartition",
    "all_marked_partitions",
    "nlv_rate_flags",
    "nlv_kernel",
    "nlv_polynomial_g",
    "g_pi",
    "g_pi_univariate_coeffs",
]

N_VOTERS = 5


@dataclass(frozen=True)
class MarkedPartition:
    """Partition of {1..n} with one marked representative per block.

    ``blocks`` are tuples of sorted member indices (1-based), ordered by
    their smallest element; ``marks[j]`` is the marked member of block j.
    """

    blocks: tuple[tuple[int, ...], ...]
    marks: tuple[int, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block, mark in zip(self.blocks, self.marks):
            if not block or list(block) != sorted(block):
                raise ArgumentError(f"malformed block {block}")
            if mark not in block:
                raise ArgumentError(f"mark {mark} outside its block {block}")
            if seen & set(block):
                raise ArgumentError("overlapping blocks")
            seen |= set(block)
        if len(self.blocks) != len(self.marks):
            raise ArgumentError("one mark per block required")
        mins = [b[0] for b in self.blocks]
        if mins != sorted(mins):
            raise ArgumentError("blocks must be ordered by smallest element")
        object.__setattr__(self, "_members", frozenset(seen))

    @property
    def n(self) -> int:
        return len(self._members)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self):
        parts = []
        for block, mark in zip(self.blocks, self.marks):
            parts.append("".join(f"{i}*" if i == mark else f"{i}" for i in block))
        return "|".join(parts)

    @classmethod
    def parse(cls, text: str) -> "MarkedPartition":
        blocks, marks = [], []
        for part in text.split("|"):
            members, mark = [], None
            i = 0
            while i < len(part):
                val = int(part[i])
                if i + 1 < len(part) and part[i + 1] == "*":
                    mark = val
                    i += 2
                else:
                    i += 1
                members.append(val)
            if mark is None:
                raise ArgumentError(f"block {part!r} has no mark")
            blocks.append(tuple(sorted(members)))
            marks.append(mark)
        order = np.argsort([b[0] for b in blocks])
        return cls(tuple(blocks[i] for i in order), tuple(marks[i] for i in order))


def singleton_partition(n: int = N_VOTERS) -> MarkedPartition:
    return MarkedPartition(tuple((i,) for i in range(1, n + 1)), tuple(range(1, n + 1)))


def _set_partitions(items: Sequence[int]):
    """All set partitions, blocks ordered by smallest element."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for rest_part in _set_partitions(rest):
        yield [[first]] + [list(b) for b in rest_part]
        for j in range(len(rest_part)):
            copied = [list(b) for b in rest_part]
            copied[j] = [first] + copied[j]
            copied.sort(key=lambda b: b[0])
            yield copied


def all_marked_partitions(n: int = N_VOTERS) -> list[MarkedPartition]:
    """Every marked partition of {1..n} (196 of them for n = 5)."""
    out = []
    seen = set()
    for part in _set_partitions(list(range(1, n + 1))):
        blocks = tuple(tuple(sorted(b)) for b in sorted(part, key=lambda b: b[0]))
        if blocks in seen:
            continue
        seen.add(blocks)
        for marks in product(*blocks):
            out.append(MarkedPartition(blocks, tuple(marks)))
    return out


def nlv_rate_flags(a1: float, a2: float, a3: float, a4: float) -> dict[str, bool]:
    """Phase-condition flags for the rate vector (see module docstring).

    Note: the first inequality is stated here as 4a1 - a4 > 0; together
    with 3A + B < 0 and 6A + B > 0 this is the internally consistent
    interior-bistable regime (the three conditions admit no solution if
    the first sign is flipped).
    """
    A = 4 * a1 - a4
    B = 6 * a2 - 4 * a3
    return {
        "b1": (A > 0) and (3 * A + B < 0),
        "b2": 0.0 <= a1 <= a2 <= 0.5,
        "b3": 6 * A + B > 0,
        "balance": abs(a1 - (1 - a4)) < 1e-12 and abs(a2 - (1 - a3)) < 1e-12,
    }


def nlv_kernel(a1: float, a2: float, a3: float, a4: float) -> ExchangeableKernel:
    """Five-child kernel with levels (0, a1, a2, a3, a4, 1)."""
    for name, v in (("a1", a1), ("a2", a2), ("a3", a3), ("a4", a4)):
        if not 0.0 <= v <= 1.0:
            raise ArgumentError(f"{name} must lie in [0,1], got {v}")
    return ExchangeableKernel([0.0, a1, a2, a3, a4, 1.0], label="nlv")


def nlv_polynomial_g(a1: float, a2: float, a3: float, a4: float) -> GFunction:
    """GFunction for the nonlinear voter rates.

    The univariate map is the closed-form quintic; the multivariate map
    is the exact enumeration of the five-child kernel. The two agree
    whenever the balance relations a1 = 1-a4, a2 = 1-a3 hold. Violated
    phase conditions are flagged (metadata["flags"]), never fatal.
    """
    kern = nlv_kernel(a1, a2, a3, a4)
    A = 4 * a1 - a4
    B = 6 * a2 - 4 * a3

    def univariate(p):
        p = np.asarray(p, dtype=float)
        q = 1.0 - p
        return A * p * q**4 + B * p**2 * q**3 - B * p**3 * q**2 - A * p**4 * q + p

    # the quintic above, expanded in powers of p
    coeffs = [0.0, 1.0 + A, B - 4 * A, 6 * A - 4 * B, 5 * (B - A), 2 * (A - B)]
    flags = nlv_rate_flags(a1, a2, a3, a4)
    return GFunction(
        5,
        univariate,
        kern.combine_params,
        coeffs,
        label="nlv",
        metadata={
            "rates": {"a1": a1, "a2": a2, "a3": a3, "a4": a4},
            "flags": flags,
            "kernel_levels": list(map(float, kern.levels)),
        },
    )


def g_pi(
    partition: MarkedPartition,
    probs: Sequence[float],
    a1: float,
    a2: float,
    a3: float,
    a4: float,
) -> float:
    """E[Theta_pi(V_1..V_5)] with independent Bernoulli(probs) votes.

    Exact enumeration over the marked representatives' votes: members of
    a block contribute through their representative only, so 2**n_blocks
    terms suffice. For the singleton partition this reduces, term by
    term, to eval_multivariate_g of the raw kernel.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (partition.n,):
        raise ArgumentError(f"expected {partition.n} probabilities")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ArgumentError("probabilities must lie in [0,1]")
    levels = np.array([0.0, a1, a2, a3, a4, 1.0])
    blocks, marks = partition.blocks, partition.marks
    m = len(blocks)
    total = 0.0
    for pattern in range(2**m):
        weight = 1.0
        k = 0
        for j in range(m):
            w = (pattern >> j) & 1
            pm = probs[marks[j] - 1]
            weight *= pm if w else 1.0 - pm
            k += len(blocks[j]) * w
        total += levels[k] * weight
    return total


def g_pi_batch(
    partition: MarkedPartition,
    probs: np.ndarray,
    a1: float,
    a2: float,
    a3: float,
    a4: float,
) -> np.ndarray:
    """g^pi applied row-wise to an (m, 5) matrix of probabilities."""
    probs = np.asarray(probs, dtype=float)
    levels = np.array([0.0, a1, a2, a3, a4, 1.0])
    blocks, marks = partition.blocks, partition.marks
    nb = len(blocks)
    out = np.zeros(probs.shape[0])
    for pattern in range(2**nb):
        weight = np.ones(probs.shape[0])
        k = 0
        for j in range(nb):
            w = (pattern >> j) & 1
            pm = probs[:, marks[j] - 1]
            weight = weight * (pm if w else 1.0 - pm)
            k += len(blocks[j]) * w
        out += levels[k] * weight
    return out


def g_pi_univariate_coeffs(partition: MarkedPartition, a1, a2, a3, a4) -> np.ndarray:
    """Coefficients (ascending powers) of the univariate g^pi polynomial.

    With equal inputs p, each block contributes a Bernoulli(p) factor, so
    g^pi(p) = sum over block-vote vectors w of p^{|w|}(1-p)^{m-|w|} a_{k(w)}
    with k(w) the total size of blocks voting one: a polynomial of degree
    n_blocks.
    """
    levels = np.array([0.0, a1, a2, a3, a4, 1.0])
    m = partition.n_blocks
    sizes = [len(b) for b in partition.blocks]
    poly = np.zeros(m + 1)
    p = np.polynomial.polynomial
    for pattern in range(2**m):
        ones = [(pattern >> j) & 1 for j in range(m)]
        k = sum(s for s, w in zip(sizes, ones) if w)
        term = np.array([levels[k]])
        for w in ones:
            term = p.polymul(term, np.array([0.0, 1.0]) if w else np.array([1.0, -1.0]))
        poly[: len(term)] += term
    return poly
