"""Nonlinear voter model g-functions.

The flip rates are parameterized by a_1..a_4 with a_0 = 0, a_5 = 1 and
the balance relations a_1 = 1 - a_4, a_2 = 1 - a_3. The kernel over five
children is exchangeable with levels (a_0, ..., a_5), and the univariate
g is the quintic

    g(p) = (4a1-a4) p(1-p)^4 + (6a2-4a3) p^2(1-p)^3
           - (6a2-4a3) p^3(1-p)^2 - (4a1-a4) p^4(1-p) + p.

Coalescence of siblings shortly after birth is encoded by copy maps: a
(5,) integer vector c by which child j copies the vote of child c[j],
with c[c[j]] = c[j]. The children that copy one child form a block, and
that child is the block's mark, so a copy map is a marked partition of
the five children. Each copy map c has its own g^c; the effective g is
their coalescence-probability-weighted average (see coalescence.py).
``partition_label`` writes a map as "1*2|3*|4*|5*" (1-based blocks by
smallest member, the mark starred) and ``parse_partition`` reads it.

Bistability phase flags: with A = 4a1-a4 and B = 6a2-4a3, the interior
bistable regime requires A > 0, 3A + B < 0 and 6A + B > 0 together with
monotone levels 0 <= a1 <= a2 <= 1/2.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from ..errors import ArgumentError
from .gfun import GFunction, kernel_g
from .kernels import ExchangeableKernel

__all__ = [
    "check_copy_map",
    "partition_label",
    "parse_partition",
    "nlv_rate_flags",
    "nlv_kernel",
    "nlv_polynomial_g",
    "g_pi_batch",
    "g_pi_univariate_coeffs",
]

_DIAGONAL_TOL = 1e-12  # kernel diagonal vs quintic coefficients: 2.2e-15 on balance


def check_copy_map(copy_map) -> np.ndarray:
    """The copy map as an integer array. Refuses an empty map, an entry
    outside range(len(c)), and a map with c[c[j]] != c[j], whose mark
    would lie outside its own block."""
    c = np.asarray(copy_map)
    if c.ndim != 1 or c.size == 0 or c.dtype.kind not in "iu":
        raise ArgumentError(f"a copy map is a nonempty vector of child indices, got {copy_map!r}")
    if c.min() < 0 or c.max() >= c.size or not np.array_equal(c[c], c):
        raise ArgumentError(f"{c.tolist()} is not a copy map: c[j] must be in range and c[c[j]] = c[j]")
    return c.astype(np.intp, copy=False)


def _blocks(copy_map) -> tuple[np.ndarray, np.ndarray]:
    """Marks and sizes of the blocks, ordered by their smallest member."""
    c = check_copy_map(copy_map)
    marks = np.array(list(dict.fromkeys(c.tolist())))  # first seen at each block's smallest member
    return marks, np.bincount(c, minlength=c.size)[marks]


def partition_label(copy_map) -> str:
    """The label "1*2|3*|4*|5*": 1-based blocks by smallest member, the mark starred."""
    c = check_copy_map(copy_map).tolist()
    return "|".join(
        "".join(f"{j + 1}*" if j == mark else f"{j + 1}" for j, cj in enumerate(c) if cj == mark)
        for mark in dict.fromkeys(c)
    )


def parse_partition(label: str) -> np.ndarray:
    """The copy map of a `partition_label`; every member in one block, one mark per block."""
    copy: dict[int, int] = {}
    for block in label.split("|"):
        if not re.fullmatch(r"([1-9]\*?)+", block) or block.count("*") != 1:
            raise ArgumentError(f"block {block!r} of {label!r} needs digits and one starred mark")
        mark = int(block[block.index("*") - 1]) - 1
        for member in block.replace("*", ""):
            if int(member) - 1 in copy:
                raise ArgumentError(f"member {member} appears twice in {label!r}")
            copy[int(member) - 1] = mark
    return check_copy_map([copy.get(j, -1) for j in range(len(copy))])


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

    g is the closed-form quintic of the module docstring, expanded in
    powers of p. The multivariate map is the exact enumeration of the
    five-child kernel, attached (with ``metadata["kernel_levels"]``) only
    when the kernel's diagonal polynomial is this quintic to rounding,
    which the balance relations a1 = 1-a4, a2 = 1-a3 ensure. Off
    balance the two differ, and ``combine_params`` refuses. Violated
    phase conditions are flagged (metadata["flags"]), never fatal.
    """
    kern = nlv_kernel(a1, a2, a3, a4)
    A = 4 * a1 - a4
    B = 6 * a2 - 4 * a3
    coeffs = [0.0, 1.0 + A, B - 4 * A, 6 * A - 4 * B, 5 * (B - A), 2 * (A - B)]
    metadata = {"rates": {"a1": a1, "a2": a2, "a3": a3, "a4": a4}, "flags": nlv_rate_flags(a1, a2, a3, a4)}
    # rates are compared through their polynomials: 1 - 0.78 != 0.22 in binary
    diagonal = np.max(np.abs(kernel_g(kern).coeffs - coeffs)) <= _DIAGONAL_TOL
    if diagonal:
        metadata["kernel_levels"] = list(map(float, kern.levels))
    return GFunction(5, coeffs, kern.combine_params if diagonal else None, label="nlv", metadata=metadata)


def g_pi_batch(
    copy_map,
    probs: np.ndarray,
    a1: float,
    a2: float,
    a3: float,
    a4: float,
) -> np.ndarray:
    """E[Theta_c(V_1..V_5)] row-wise, for an (m, 5) matrix of
    independent Bernoulli vote probabilities and a copy map c.

    Exact enumeration over the marks' votes: members of a block
    contribute through their mark only, so 2**n_blocks terms, weighed at
    once and summed in pattern order (block j is bit j, blocks by
    smallest member), suffice. For the identity map this reduces, term
    by term, to the raw kernel's ``combine_params``.
    """
    marks, sizes = _blocks(copy_map)
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != sizes.sum():
        raise ArgumentError(f"expected rows of {sizes.sum()} probabilities, got shape {probs.shape}")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ArgumentError("probabilities must lie in [0,1]")
    levels = np.array([0.0, a1, a2, a3, a4, 1.0])
    nb = marks.size
    votes = (np.arange(2**nb)[:, None] >> np.arange(nb)) & 1  # (patterns, blocks)
    weight = np.ones((probs.shape[0], 2**nb))
    for j, mark in enumerate(marks):
        pm = probs[:, mark : mark + 1]
        weight = weight * np.where(votes[:, j], pm, 1.0 - pm)
    k = votes @ sizes
    # accumulate is sequential, so each row sums its terms in pattern order
    return np.add.accumulate(levels[k] * weight, axis=1)[:, -1]


def g_pi_univariate_coeffs(copy_map, a1, a2, a3, a4) -> np.ndarray:
    """Coefficients (ascending powers) of the univariate g^c polynomial.

    With equal inputs p, each block contributes a Bernoulli(p) factor, so
    g^c(p) = sum over block-vote vectors w of p^{|w|}(1-p)^{m-|w|} a_{k(w)}
    with k(w) the total size of blocks voting one: a polynomial of degree
    n_blocks, returned zero-padded to len(c) + 1 coefficients. It depends
    on the ordered block sizes only, so the maps that share them share
    one read-only array.
    """
    _, sizes = _blocks(copy_map)
    return _univariate_coeffs(tuple(sizes.tolist()), a1, a2, a3, a4)


@functools.lru_cache(maxsize=256)
def _univariate_coeffs(sizes: tuple[int, ...], a1, a2, a3, a4) -> np.ndarray:
    levels = np.array([0.0, a1, a2, a3, a4, 1.0])
    m = len(sizes)
    poly = np.zeros(sum(sizes) + 1)
    p = np.polynomial.polynomial
    for pattern in range(2**m):
        ones = [(pattern >> j) & 1 for j in range(m)]
        k = sum(s for s, w in zip(sizes, ones) if w)
        term = np.array([levels[k]])
        for w in ones:
            term = p.polymul(term, np.array([0.0, 1.0]) if w else np.array([1.0, -1.0]))
        poly[: len(term)] += term
    poly.flags.writeable = False
    return poly
