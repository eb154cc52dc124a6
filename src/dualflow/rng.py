"""Counter-based random-stream derivation.

All Monte Carlo entry points take an integer seed and derive their
generators here, so results are reproducible for a fixed seed and
independent of thread scheduling.

Scheme: a Philox4x64 counter-based generator keyed by the master seed.
A derivation path of up to three integers is written into the high
words of the 256-bit counter, so distinct paths yield provably
non-overlapping streams (a single stream would need 2**64 draws to
reach the next path's block).
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError

_MASK64 = (1 << 64) - 1


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for stream ``path`` (up to 3 components) under ``seed``."""
    if len(path) > 3:
        raise ArgumentError(f"derivation path too deep: {path!r}")
    counter = [0, 0, 0, 0]
    for i, p in enumerate(path):
        counter[i + 1] = int(p) & _MASK64
    bitgen = np.random.Philox(key=int(seed) & _MASK64, counter=counter)
    return np.random.Generator(bitgen)

