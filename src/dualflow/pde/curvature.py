"""Degenerate curvature operator and the level-set evolution scheme.

The level-set interface moves with normal velocity -H/2 (H the mean
curvature, i.e. the sum of principal curvatures), which for the level
function u reads

    du/dt = (1/2) tr[(I - Du (x) Du / |Du|^2) D^2 u].

f_star / f_lstar evaluate the operator (upper / lower envelopes at Du = 0).
The evolution is an explicit central-difference scheme on |Du|^2 + reg_delta^2,
fused into one update in unscaled differences per block of rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import ArgumentError
from .field import ScalarField

__all__ = ["f_star", "f_lstar", "evolve_mcf_levelset", "curvature_rhs"]

# nodes per block of a level-set step: a block's work arrays (eight in 2-D)
# then fit in a 2 MB cache (64 rows of a 256^2 grid)
_BLOCK_NODES = 1 << 14


def _f_envelope(M: np.ndarray, p: np.ndarray, upper: bool) -> float:
    M = np.asarray(M, dtype=float)
    p = np.asarray(p, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ArgumentError("M must be a square matrix")
    if not np.allclose(M, M.T, atol=1e-10 * max(1.0, float(np.abs(M).max()))):
        raise ArgumentError("M must be symmetric")
    if p.shape != (M.shape[0],):
        raise ArgumentError("p must match the dimension of M")
    norm2 = float(p @ p)
    if norm2 > 0.0:
        proj = np.eye(M.shape[0]) - np.outer(p, p) / norm2
        return -0.5 * float(np.trace(proj @ M))
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    extreme = eigs[-1] if upper else eigs[0]
    return -0.5 * (float(np.trace(M)) + float(extreme))


def f_star(M: np.ndarray, p: np.ndarray) -> float:
    """Upper envelope: at p = 0 uses the largest eigenvalue of M."""
    return _f_envelope(M, p, upper=True)


def f_lstar(M: np.ndarray, p: np.ndarray) -> float:
    """Lower envelope: at p = 0 uses the smallest eigenvalue of M."""
    return _f_envelope(M, p, upper=False)


def _padded(u: np.ndarray) -> np.ndarray:
    """u inside a one-node rim that repeats the nearest wall node (Neumann
    walls), as ``np.pad(u, 1, mode="edge")``."""
    return np.pad(np.asarray(u, dtype=float), 1, mode="edge")


def _refresh_rim(up: np.ndarray) -> None:
    """Rewrite the rim of a `_padded` buffer after its interior changed;
    axis by axis, so the corners match np.pad too."""
    for k in range(up.ndim):
        before = (slice(None),) * k
        up[before + (0,)] = up[before + (1,)]
        up[before + (-1,)] = up[before + (-2,)]


def _shifted(up: np.ndarray, shift: dict[int, int], axes: range | None = None) -> np.ndarray:
    """The interior of a `_padded` buffer moved by shift (axis -> +-1)
    along `axes` (default: all), whole along the others."""
    axes = range(up.ndim) if axes is None else axes
    return up[tuple(slice(1 + shift.get(k, 0), n - 1 + shift.get(k, 0)) if k in axes else slice(None)
                    for k, n in enumerate(up.shape))]


def _gradient(up: np.ndarray, h: float) -> list[np.ndarray]:
    """Du by central differences on the interior of a `_padded` buffer, by
    the operations of `_gradient_norm_at`, so |Du| equals it bit for bit."""
    return [(_shifted(up, {k: 1}) - _shifted(up, {k: -1})) / (2 * h) for k in range(up.ndim)]


def _curvature_terms(u: np.ndarray, h: float) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """The curvature envelopes' terms by central differences with Neumann
    walls: D^2 u by index pair (k <= l), |Du|^2, Lap u and Du^T D^2 u Du."""
    up = _padded(u)
    dim = up.ndim
    d1 = _gradient(up, h)
    d2 = {(k, k): (_shifted(up, {k: 1}) - 2 * _shifted(up, {}) + _shifted(up, {k: -1})) / h**2 for k in range(dim)}
    quad = sum(d1[k] * d1[k] * d2[(k, k)] for k in range(dim))
    for k, l in itertools.combinations(range(dim), 2):
        c = [_shifted(up, {k: sk, l: sl}) for sk, sl in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        d2[(k, l)] = (c[0] - c[1] - c[2] + c[3]) / (4 * h**2)
        quad = quad + 2 * d1[k] * d1[l] * d2[(k, l)]
    return d2, sum(d * d for d in d1), sum(d2[(k, k)] for k in range(dim)), quad


class _FusedCurvature:
    """The curvature term of the level-set step on one block of rows of a
    `_padded` buffer, in unscaled differences and reused work arrays.

    `upb` holds the block's rows plus one neighbour row on each side. With
    a_k = u(+e_k) - u(-e_k), S_k = u(+e_k) + u(-e_k) - 2u, the cross
    difference c_kl = a_l(+e_k) - a_l(-e_k) and G = sum_k a_k^2 + eps2,

        N = sum_k S_k (G - a_k^2) - 1/2 sum_{k<l} a_k a_l c_kl,

    N / (2 h^2 G) is (1/2) tr[(I - Du Du^T / (|Du|^2 + reg^2)) D^2 u] for
    eps2 = (2 h reg)^2: every other power of h cancels. a_l is formed on
    the rim too along each axis k < l, so that each c_kl is the difference
    of two shifted views of it. Blocks of one grid may share `work`, sized
    by the first (largest) block.
    """

    def __init__(self, upb: np.ndarray, eps2: float, work: np.ndarray | None = None):
        dim = upb.ndim
        self.eps2 = eps2
        self.u = _shifted(upb, {})
        self._hi_lo = [tuple(_shifted(upb, {k: s}) for s in (1, -1)) for k in range(dim)]
        self._a_from = [tuple(_shifted(upb, {l: s}, range(l, dim)) for s in (1, -1)) for l in range(dim)]
        shapes = [self.u.shape] * (dim + 4) + [hi.shape for hi, _ in self._a_from]  # the last is the largest
        self.work = np.empty((len(shapes), math.prod(shapes[-1]))) if work is None else work
        views = [w[: math.prod(shape)].reshape(shape) for w, shape in zip(self.work, shapes)]
        self._two_u, self._s, self._g, self._n = views[:4]
        self._sq, self._a_full = views[4 : dim + 4], views[dim + 4 :]
        self._a = [_shifted(a, {}, range(l)) for l, a in enumerate(self._a_full)]
        self._cross = [  # a_k, a_l and the two views whose difference is c_kl
            (self._a[k], self._a[l], _shifted(a, {k: 1}, range(l)), _shifted(a, {k: -1}, range(l)))
            for l, a in enumerate(self._a_full)
            for k in range(l)
        ]

    def __call__(self, scale: float) -> np.ndarray:
        """scale * N / G, in a work array."""
        two_u, s, g, n, sq = self._two_u, self._s, self._g, self._n, self._sq
        np.multiply(self.u, 2, out=two_u)
        for k, ((hi, lo), full, a) in enumerate(zip(self._a_from, self._a_full, self._a)):
            np.subtract(hi, lo, out=full)
            np.multiply(a, a, out=sq[k])
            np.add(g if k else self.eps2, sq[k], out=g)  # G
        for k, (hi, lo) in enumerate(self._hi_lo):
            np.add(hi, lo, out=s)  # S_k
            s -= two_u
            term = sq[k] if k else n  # S_k * (G - a_k^2)
            np.subtract(g, sq[k], out=term)
            term *= s
            if k:
                n += term
        for a_k, a_l, plus, minus in self._cross:  # 1/2 a_k a_l c_kl
            np.subtract(plus, minus, out=s)
            s *= a_k
            s *= a_l
            s *= 0.5
            n -= s
        n /= g
        n *= scale
        return n


def _gradient_norm_at(u: np.ndarray, h: float, flat: np.ndarray) -> np.ndarray:
    """|Du| by central differences with Neumann walls at the given flat
    (row-major) nodes only; equal, bit for bit, to those nodes of the
    whole-grid stencil."""
    vals = u.ravel()
    total = np.zeros(flat.shape)
    for k, n in enumerate(u.shape):
        stride = math.prod(u.shape[k + 1 :])
        i = flat // stride % n
        hi = np.where(i < n - 1, flat + stride, flat)  # the rim repeats the wall node
        lo = np.where(i > 0, flat - stride, flat)
        d = (vals[hi] - vals[lo]) / (2 * h)
        total += d * d
    return np.sqrt(total)


def curvature_rhs(u: np.ndarray, h: float, reg_delta: float) -> np.ndarray:
    """(1/2) tr[(I - Du Du^T / (|Du|^2 + reg^2)) D^2 u] on the grid, by the step's kernel."""
    return _FusedCurvature(_padded(u), (2 * h * reg_delta) ** 2)(1 / (2 * h * h))


def evolve_mcf_levelset(
    u0: ScalarField,
    T: float,
    reg_delta: float | None = None,
    cfl: float | None = None,
) -> ScalarField:
    """Explicit level-set evolution of u0 over time T.

    Time step cfl * spacing^2 with Neumann walls; cfl must respect the
    stability bound 1/(2*dim). The default is min(0.2, 0.4/dim): 0.2 in
    one and two dimensions, four fifths of the bound above. NaN
    appearance aborts with a diagnostic.
    Each step is u + dt / (2 h^2) * N / G (see `_FusedCurvature`), made in
    blocks of rows that fit in cache and written straight into a second
    padded buffer, which then becomes the current one.
    """
    if not (math.isfinite(T) and T >= 0):
        raise ArgumentError("T must be finite and nonnegative")
    dim = u0.dim
    if cfl is None:
        cfl = min(0.2, 0.4 / dim)
    if not 0 < cfl <= 0.5 / dim:
        raise ArgumentError(f"cfl must lie in (0, {0.5 / dim:.4g}] for dim {dim}")
    if reg_delta is None:
        reg_delta = 1e-6 * u0.spacing * max(u0.values.shape)
    if not (math.isfinite(reg_delta) and reg_delta > 0):
        raise ArgumentError("reg_delta must be finite and positive")
    h = u0.spacing
    dt = cfl * h * h
    n_steps = int(np.ceil(T / dt)) if T > 0 else 0
    eps2 = (2 * h * reg_delta) ** 2
    # blocks of whole rows, at most _BLOCK_NODES nodes (or one row) each,
    # sharing work arrays; step s reads bufs[s % 2] through plans[s % 2]
    rows = max(1, _BLOCK_NODES // math.prod(u0.values.shape[1:]))
    bufs = (_padded(u0.values), _padded(u0.values))
    work = _FusedCurvature(bufs[0][: rows + 2], eps2).work
    plans = [
        [(_FusedCurvature(src[r : r + rows + 2], eps2, work), _shifted(dst[r : r + rows + 2], {}))
         for r in range(0, len(u0.values), rows)]
        for src, dst in zip(bufs, bufs[::-1])
    ]
    t = 0.0
    for step in range(n_steps):
        step_dt = min(dt, T - t)
        for block, out in plans[step % 2]:
            np.add(block.u, block(step_dt / (2 * h * h)), out=out)
        _refresh_rim(bufs[1 - step % 2])
        t += step_dt
        if step % 64 == 0 and not np.all(np.isfinite(bufs[1 - step % 2])):
            raise ArgumentError(f"level-set evolution produced NaN at step {step}, t={t:.4g}")
    u = _shifted(bufs[n_steps % 2], {})
    if not np.all(np.isfinite(u)):
        raise ArgumentError("level-set evolution produced NaN")
    return ScalarField(dim, u0.origin.copy(), h, u.copy(), time_stamp=u0.time_stamp + T)
