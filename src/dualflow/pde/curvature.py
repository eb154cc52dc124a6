"""Degenerate curvature operator and the level-set evolution scheme.

The level-set interface moves with normal velocity -H/2 (H the mean
curvature, i.e. the sum of principal curvatures), which for the level
function u reads

    du/dt = (1/2) tr[(I - Du (x) Du / |Du|^2) D^2 u].

The operator is evaluated pointwise by f_star / f_lstar (upper / lower
envelopes at Du = 0) and the evolution uses an explicit central-difference
scheme with the gradient regularized by |Du|^2 + reg_delta^2.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ArgumentError
from .field import ScalarField

__all__ = ["f_star", "f_lstar", "evolve_mcf_levelset", "curvature_rhs"]

# nodes per block of a level-set step: a block's dozen work arrays then fit
# in a 2 MB cache (64 rows of a 256^2 grid)
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


class _Stencil:
    """Central differences on a block of rows of a `_padded` buffer, written
    into reused work arrays.

    `up` holds the block's rows plus one neighbour row on each side, and
    `u` is the block's interior, a view. Blocks of one grid may share
    `work` (arrays with at least as many rows as the block), so that only
    one block's worth of derivatives is live at a time. Each derivative
    takes the operations of the plain expression in its comment, in the
    same order, and sums start from 0 as Python's ``sum`` does (0 + -0.0
    is +0.0), so the results are those of the expressions, bit for bit.
    """

    def __init__(self, up: np.ndarray, h: float, work: list[np.ndarray] | None = None):
        dim = up.ndim
        shape = tuple(n - 2 for n in up.shape)
        self.h = h
        self.dim = dim

        def view(shift: dict[int, int]) -> np.ndarray:
            return up[tuple(slice(1 + shift.get(k, 0), 1 + shift.get(k, 0) + shape[k]) for k in range(dim))]

        self.u = view({})
        self._hi = [view({k: 1}) for k in range(dim)]
        self._lo = [view({k: -1}) for k in range(dim)]
        self._cross = {
            (k, l): (view({k: 1, l: 1}), view({k: 1, l: -1}), view({k: -1, l: 1}), view({k: -1, l: -1}))
            for k in range(dim)
            for l in range(k + 1, dim)
        }
        pairs = [(k, l) for k in range(dim) for l in range(k, dim)]
        if work is None:
            work = [np.empty(shape) for _ in range(dim + len(pairs) + 4)]
        self.work = work
        rows = iter(w[: shape[0]] for w in work)
        self.d1 = [next(rows) for _ in range(dim)]
        self.d2 = {pair: next(rows) for pair in pairs}
        self.grad2, self.lap, self.quad, self.tmp = rows

    def laplacian(self) -> np.ndarray:
        """sum(D^2_kk u for k), into `lap`; fills the D^2_kk u of `d2`."""
        self.lap.fill(0.0)
        for k in range(self.dim):
            d = self.d2[(k, k)]  # (up[hi] - 2 * u + up[lo]) / h**2
            np.multiply(self.u, 2, out=d)
            np.subtract(self._hi[k], d, out=d)
            d += self._lo[k]
            d /= self.h**2
            self.lap += d
        return self.lap

    def curvature_terms(self) -> None:
        """Fill `d1`, `d2`, `grad2` = |Du|^2, `lap` and `quad` = Du^T D^2 u Du."""
        h = self.h
        for k, d in enumerate(self.d1):  # (up[hi] - up[lo]) / (2 * h)
            np.subtract(self._hi[k], self._lo[k], out=d)
            d /= 2 * h
        for (k, l), (pp, pm, mp, mm) in self._cross.items():
            d = self.d2[(k, l)]  # (up[pp] - up[pm] - up[mp] + up[mm]) / (4 * h**2)
            np.subtract(pp, pm, out=d)
            d -= mp
            d += mm
            d /= 4 * h**2
        self.laplacian()
        tmp = self.tmp
        self.grad2.fill(0.0)
        self.quad.fill(0.0)
        for k, d in enumerate(self.d1):
            np.multiply(d, d, out=tmp)  # grad2 += d * d
            self.grad2 += tmp
            tmp *= self.d2[(k, k)]  # quad += d * d * D^2_kk u
            self.quad += tmp
        for (k, l) in self._cross:
            np.multiply(self.d1[k], 2, out=tmp)  # quad += 2 * d_k * d_l * D^2_kl u
            tmp *= self.d1[l]
            tmp *= self.d2[(k, l)]
            self.quad += tmp

    def curvature_rhs(self, reg_delta: float, out: np.ndarray) -> np.ndarray:
        """0.5 * (lap - quad / (grad2 + reg_delta**2)) into `out`, after
        `curvature_terms`."""
        np.add(self.grad2, reg_delta**2, out=out)
        np.divide(self.quad, out, out=out)
        np.subtract(self.lap, out, out=out)
        out *= 0.5
        return out


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
    """(1/2) tr[(I - Du Du^T / (|Du|^2 + reg^2)) D^2 u] on the grid."""
    stencil = _Stencil(_padded(u), h)
    stencil.curvature_terms()
    return stencil.curvature_rhs(reg_delta, np.empty(stencil.u.shape))


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
    The steps reuse one padded buffer and one set of work arrays, and
    evaluate the right-hand side in blocks of rows that fit in cache.
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
    up = _padded(u0.values)
    u = up[(slice(1, -1),) * dim]
    rhs = np.empty(u.shape)
    # blocks of whole rows, at most _BLOCK_NODES nodes (or one row) each,
    # sharing the first block's work arrays
    rows = max(1, _BLOCK_NODES // math.prod(u.shape[1:]))
    first = _Stencil(up[: rows + 2], h)
    blocks = [(0, first)]
    blocks += [(r, _Stencil(up[r : r + rows + 2], h, first.work)) for r in range(rows, u.shape[0], rows)]
    t = 0.0
    for step in range(n_steps):
        step_dt = min(dt, T - t)
        for r, block in blocks:
            block.curvature_terms()
            block.curvature_rhs(reg_delta, rhs[r : r + rows])
        rhs *= step_dt  # u = u + step_dt * rhs
        u += rhs
        _refresh_rim(up)
        t += step_dt
        if step % 64 == 0 and not np.all(np.isfinite(u)):
            raise ArgumentError(f"level-set evolution produced NaN at step {step}, t={t:.4g}")
    if not np.all(np.isfinite(u)):
        raise ArgumentError("level-set evolution produced NaN")
    return ScalarField(dim, u0.origin.copy(), h, u.copy(), time_stamp=u0.time_stamp + T)
