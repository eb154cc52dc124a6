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

import numpy as np

from ..errors import ArgumentError
from .field import ScalarField

__all__ = ["f_star", "f_lstar", "evolve_mcf_levelset", "curvature_rhs"]


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


def _pad_neumann(u: np.ndarray) -> np.ndarray:
    return np.pad(u, 1, mode="edge")


def _first_derivs(up: np.ndarray, h: float, dim: int) -> list[np.ndarray]:
    core = tuple(slice(1, -1) for _ in range(dim))
    derivs = []
    for k in range(dim):
        hi = list(core)
        lo = list(core)
        hi[k] = slice(2, None)
        lo[k] = slice(None, -2)
        derivs.append((up[tuple(hi)] - up[tuple(lo)]) / (2 * h))
    return derivs


def _second_derivs(up: np.ndarray, h: float, dim: int) -> dict[tuple[int, int], np.ndarray]:
    core = tuple(slice(1, -1) for _ in range(dim))
    out: dict[tuple[int, int], np.ndarray] = {}
    u = up[core]
    for k in range(dim):
        hi = list(core)
        lo = list(core)
        hi[k] = slice(2, None)
        lo[k] = slice(None, -2)
        out[(k, k)] = (up[tuple(hi)] - 2 * u + up[tuple(lo)]) / h**2
    for k in range(dim):
        for l in range(k + 1, dim):
            pp = list(core)
            pm = list(core)
            mp = list(core)
            mm = list(core)
            pp[k] = slice(2, None)
            pp[l] = slice(2, None)
            pm[k] = slice(2, None)
            pm[l] = slice(None, -2)
            mp[k] = slice(None, -2)
            mp[l] = slice(2, None)
            mm[k] = slice(None, -2)
            mm[l] = slice(None, -2)
            out[(k, l)] = (up[tuple(pp)] - up[tuple(pm)] - up[tuple(mp)] + up[tuple(mm)]) / (
                4 * h**2
            )
    return out


def _curvature_terms(u: np.ndarray, h: float):
    """Central differences of u with Neumann walls: the second derivatives
    D^2 u by index pair, |Du|^2, the Laplacian and Du^T D^2 u Du."""
    dim = u.ndim
    up = _pad_neumann(u)
    d1 = _first_derivs(up, h, dim)
    d2 = _second_derivs(up, h, dim)
    grad2 = sum(d * d for d in d1)
    lap = sum(d2[(k, k)] for k in range(dim))
    quad = sum(d1[k] * d1[k] * d2[(k, k)] for k in range(dim))
    for k in range(dim):
        for l in range(k + 1, dim):
            quad = quad + 2 * d1[k] * d1[l] * d2[(k, l)]
    return d2, grad2, lap, quad


def curvature_rhs(u: np.ndarray, h: float, reg_delta: float) -> np.ndarray:
    """(1/2) tr[(I - Du Du^T / (|Du|^2 + reg^2)) D^2 u] on the grid."""
    _, grad2, lap, quad = _curvature_terms(u, h)
    return 0.5 * (lap - quad / (grad2 + reg_delta**2))


def evolve_mcf_levelset(
    u0: ScalarField,
    T: float,
    reg_delta: float | None = None,
    cfl: float = 0.2,
) -> ScalarField:
    """Explicit level-set evolution of u0 over time T.

    Time step cfl * spacing^2 with Neumann walls; cfl must respect the
    stability bound 1/(2*dim). NaN appearance aborts with a diagnostic.
    """
    if T < 0:
        raise ArgumentError("T must be nonnegative")
    dim = u0.dim
    if cfl <= 0 or cfl > 0.5 / dim:
        raise ArgumentError(f"cfl must lie in (0, {0.5 / dim:.4g}] for dim {dim}")
    if reg_delta is None:
        reg_delta = 1e-6 * u0.spacing * max(u0.values.shape)
    if reg_delta <= 0:
        raise ArgumentError("reg_delta must be positive")
    h = u0.spacing
    dt = cfl * h * h
    n_steps = int(np.ceil(T / dt)) if T > 0 else 0
    u = u0.values.copy()
    t = 0.0
    for step in range(n_steps):
        step_dt = min(dt, T - t)
        u = u + step_dt * curvature_rhs(u, h, reg_delta)
        t += step_dt
        if step % 64 == 0 and not np.all(np.isfinite(u)):
            raise ArgumentError(f"level-set evolution produced NaN at step {step}, t={t:.4g}")
    if not np.all(np.isfinite(u)):
        raise ArgumentError("level-set evolution produced NaN")
    return ScalarField(dim, u0.origin.copy(), h, u, time_stamp=u0.time_stamp + T)
