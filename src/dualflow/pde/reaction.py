"""Semi-implicit reaction-diffusion solver with a g-derived bistable reaction.

The vote probability of a zero-dispersal branching Brownian dual solves

    du/dt = (1/2) Lap u + gamma * eps^-2 * (g(u) - u),

the reaction being the expected drift of the parameter at branch events.
For majority voting g(u) - u = 2 u (1-u)(u - 1/2), the bistable cubic
with stable phases 0 and 1.

Each step takes the reaction explicitly and the diffusion implicitly, one
axis at a time: a tridiagonal solve per grid line per axis (IMEX Euler in
1-D, locally one-dimensional splitting in n-D). The implicit solves need
no step bound, so only the reaction limits the step.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from ..errors import ArgumentError
from ..gfunction.gfun import GFunction
from .field import ScalarField

__all__ = ["solve_reaction_diffusion", "reaction_time_step", "DEFAULT_SAFETY"]

# the default step as a fraction of the reaction bound. The time error is
# first order: at 0.1 it is at most 1.7e-3 on the step data of the
# Allen-Cahn acceptance check (eps = 0.25, t >= 0.05; threshold 0.02) and
# ~4e-4 on the 1-D comparison profile at eps = 0.2, t >= 0.08
DEFAULT_SAFETY = 0.1


def _max_gprime_minus_one(g: GFunction) -> float:
    """max |g'(p) - 1| over [0,1], from the coefficients: the extremes of
    g' lie at the endpoints or at the real roots of g''."""
    slope = P.polyder(g.coeffs)
    roots = P.polyroots(P.polytrim(P.polyder(g.coeffs, 2)))
    inner = roots.real[(roots.imag == 0.0) & (roots.real > 0.0) & (roots.real < 1.0)]
    candidates = np.concatenate([[0.0, 1.0], inner])
    return float(np.max(np.abs(P.polyval(candidates, slope) - 1.0)))


def reaction_time_step(epsilon: float, g: GFunction, branch_gamma: float, spacing: float, dim: int) -> float:
    """Largest stable step: the reaction bound eps^2/(4 gamma |g'-1|).

    The diffusion is implicit and bounds no step, so `spacing` and `dim`
    do not enter; they are kept so that every caller can ask the same way.
    """
    stiff = _max_gprime_minus_one(g)
    return epsilon**2 / (4.0 * branch_gamma * max(stiff, 1e-12))


def _diffusion_factors(n: int, ratio: float):
    """LU factors of I - ratio * D2 on n nodes, D2 the second difference
    with Neumann walls (the wall node's missing neighbour repeats it)."""
    from scipy.linalg.lapack import dgttrf  # imported on first use: it is slow to load

    off = np.full(n - 1, -ratio)
    diag = np.full(n, 1.0 + 2.0 * ratio)
    diag[[0, -1]] = 1.0 + ratio
    *factors, info = dgttrf(off, diag, off.copy())
    if info != 0:
        raise ArgumentError(f"diffusion matrix is singular (LAPACK info {info})")
    return factors


def _solve_lines(u: np.ndarray, axis: int, factors) -> None:
    """Solve the factored system along every grid line of `axis`, in place."""
    from scipy.linalg.lapack import dgttrs

    lines = np.moveaxis(u, axis, -1)
    rhs = np.ascontiguousarray(lines).reshape(-1, lines.shape[-1])
    x, info = dgttrs(*factors, rhs.T, overwrite_b=1)  # columns are lines
    if info != 0:
        raise ArgumentError(f"tridiagonal solve failed (LAPACK info {info})")
    lines[...] = x.T.reshape(lines.shape)


def solve_reaction_diffusion(
    epsilon: float,
    g: GFunction,
    branch_gamma: float,
    p0: ScalarField,
    T: float,
    dt: float | None = None,
    safety: float = DEFAULT_SAFETY,
) -> ScalarField:
    """Semi-implicit scheme for du/dt = Lap u / 2 + gamma eps^-2 (g(u) - u).

    ceil(T / dt) equal steps, dt defaulting to safety times the reaction
    bound of `reaction_time_step`. Each step adds dt times the reaction,
    then solves (I - dt/2 D2_k) u = u along each axis k in turn, with
    Neumann walls. Within the bound both parts map [0, 1] into itself;
    an iterate that leaves [-0.1, 1.1] aborts the solve.
    """
    for name, value in (("T", T), ("epsilon", epsilon), ("branch_gamma", branch_gamma)):
        if not math.isfinite(value):
            raise ArgumentError(f"{name} must be finite")
    if T < 0:
        raise ArgumentError("T must be nonnegative")
    if epsilon <= 0 or branch_gamma <= 0:
        raise ArgumentError("epsilon and branch_gamma must be positive")
    if not 0 < safety <= 1:
        raise ArgumentError("safety must lie in (0, 1]")
    h = p0.spacing
    dim = p0.dim
    stable = reaction_time_step(epsilon, g, branch_gamma, h, dim)
    if dt is None:
        dt = safety * stable
    elif not (math.isfinite(dt) and dt > 0):
        raise ArgumentError("dt must be finite and positive")
    elif dt > stable:
        raise ArgumentError(f"dt={dt:.3g} exceeds the stability bound {stable:.3g}")
    u = np.clip(p0.values, 0.0, 1.0)
    n_steps = int(np.ceil(T / dt)) if T > 0 else 0
    if n_steps:
        step_dt = T / n_steps
        rate = step_dt * branch_gamma / epsilon**2
        ratio = 0.5 * step_dt / h**2
        factors = [_diffusion_factors(n, ratio) if n > 1 else None for n in u.shape]
    for step in range(n_steps):
        change = np.asarray(g(u), dtype=float) - u
        change *= rate
        u += change
        for axis, lu in enumerate(factors):
            if lu is not None:
                _solve_lines(u, axis, lu)
        if u.min() < -0.1 or u.max() > 1.1:
            raise ArgumentError(
                f"reaction-diffusion iterate escaped [-0.1, 1.1] at step {step} "
                f"(t={(step + 1) * step_dt:.4g})"
            )
    return ScalarField(dim, p0.origin.copy(), h, u, time_stamp=p0.time_stamp + T)
