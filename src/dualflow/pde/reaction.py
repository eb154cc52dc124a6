"""Explicit reaction-diffusion solver with a g-derived bistable reaction.

The vote probability of a zero-dispersal branching Brownian dual solves

    du/dt = (1/2) Lap u + gamma * eps^-2 * (g(u) - u),

the reaction being the expected drift of the parameter at branch events.
For majority voting g(u) - u = 2 u (1-u)(u - 1/2), the bistable cubic
with stable phases 0 and 1.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from ..errors import ArgumentError
from ..gfunction.gfun import GFunction
from .curvature import _pad_neumann, _second_derivs
from .field import ScalarField

__all__ = ["solve_reaction_diffusion", "reaction_time_step"]


def _max_gprime_minus_one(g: GFunction) -> float:
    """max |g'(p) - 1| over [0,1], from the coefficients: the extremes of
    g' lie at the endpoints or at the real roots of g''."""
    slope = P.polyder(g.coeffs)
    roots = P.polyroots(P.polytrim(P.polyder(g.coeffs, 2)))
    inner = roots.real[(roots.imag == 0.0) & (roots.real > 0.0) & (roots.real < 1.0)]
    candidates = np.concatenate([[0.0, 1.0], inner])
    return float(np.max(np.abs(P.polyval(candidates, slope) - 1.0)))


def reaction_time_step(epsilon: float, g: GFunction, branch_gamma: float, spacing: float, dim: int) -> float:
    """Largest stable explicit step: min of the diffusion bound
    spacing^2/(2 dim) and the reaction bound eps^2/(4 gamma |g'-1|)."""
    diff_bound = spacing**2 / (2.0 * dim)
    stiff = _max_gprime_minus_one(g)
    react_bound = epsilon**2 / (4.0 * branch_gamma * max(stiff, 1e-12))
    return min(diff_bound, react_bound)


def solve_reaction_diffusion(
    epsilon: float,
    g: GFunction,
    branch_gamma: float,
    p0: ScalarField,
    T: float,
    dt: float | None = None,
    safety: float = 0.9,
) -> ScalarField:
    """Explicit scheme for du/dt = Lap u / 2 + gamma eps^-2 (g(u) - u).

    Neumann walls; aborts if the iterate escapes [-0.1, 1.1] (instability).
    """
    if T < 0:
        raise ArgumentError("T must be nonnegative")
    if epsilon <= 0 or branch_gamma <= 0:
        raise ArgumentError("epsilon and branch_gamma must be positive")
    h = p0.spacing
    dim = p0.dim
    stable = reaction_time_step(epsilon, g, branch_gamma, h, dim)
    if dt is None:
        dt = safety * stable
    elif dt > stable:
        raise ArgumentError(f"dt={dt:.3g} exceeds the stability bound {stable:.3g}")
    rate = branch_gamma / epsilon**2
    u = np.clip(p0.values.copy(), 0.0, 1.0)
    t = 0.0
    n_steps = int(np.ceil(T / dt)) if T > 0 else 0
    for step in range(n_steps):
        step_dt = min(dt, T - t)
        up = _pad_neumann(u)
        lap = sum(_second_derivs(up, h, dim)[(k, k)] for k in range(dim))
        u = u + step_dt * (0.5 * lap + rate * (np.asarray(g(u), dtype=float) - u))
        t += step_dt
        if u.min() < -0.1 or u.max() > 1.1:
            raise ArgumentError(
                f"reaction-diffusion iterate escaped [-0.1, 1.1] at step {step} (t={t:.4g})"
            )
    return ScalarField(dim, p0.origin.copy(), h, u, time_stamp=p0.time_stamp + T)
