"""Semi-implicit reaction-diffusion solver with a g-derived bistable reaction.

The vote probability of a zero-dispersal branching Brownian dual solves

    du/dt = (1/2) Lap u + gamma * eps^-2 * (g(u) - u),

the reaction being the expected drift of the parameter at branch events.
For majority voting g(u) - u = 2 u (1-u)(u - 1/2), the bistable cubic
with stable phases 0 and 1.

Each step takes the reaction explicitly and the diffusion implicitly
(IMEX Euler): one solve of (I - c Lap_h) u = r on the whole grid, with no
splitting between axes. The implicit solve needs no step bound, so only
the reaction limits the step.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial import polynomial as P

from ..errors import ArgumentError
from ..gfunction.gfun import GFunction
from .field import ScalarField

__all__ = ["solve_reaction_diffusion", "reaction_time_step", "neumann_solver", "fast_grid_size", "DEFAULT_SAFETY"]

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


def neumann_solver(shape: tuple[int, ...], c: float):
    """solve(r) -> x with (I - c D) x = r on a grid of `shape`, D the sum
    over axes of the second difference whose wall nodes repeat themselves
    as their missing neighbour (the rim of `curvature._padded`).

    On the even extension (x, x reversed) D is the periodic second
    difference, so the DCT-II diagonalises it, with eigenvalues
    -(2 - 2 cos(pi k / n)) on an n-node axis. Each axis takes the rfft of
    its extension times a twiddle (a DCT-II), the coefficients divide by
    1 - c (sum of eigenvalues), and an irfft per axis inverts (a DCT-III).
    A one-node axis is the identity. I - c D is an M-matrix, so r in [0, 1]
    gives x in [0, 1] up to rounding.
    """
    axes, inverse, buf = [], 1.0, np.empty(2 * math.prod(shape))
    for k, n in enumerate(shape):
        if n > 1:
            along = (n,) + (1,) * (len(shape) - 1 - k)
            inverse = inverse + c * (2.0 - 2.0 * np.cos(np.pi / n * np.arange(n))).reshape(along)
            turn = np.exp(-0.5j * np.pi / n * np.arange(n)).reshape(along)
            head = (slice(None),) * k
            axes.append((k, n, head + (slice(n),), head + (slice(n, None),), turn))
    inverse = 1.0 / inverse

    def solve(r: np.ndarray) -> np.ndarray:
        x = r
        for k, n, lo, hi, turn in axes:
            ext = buf.reshape(shape[:k] + (2 * n,) + shape[k + 1 :])
            ext[lo] = x
            ext[hi] = np.flip(x, k)
            x = (np.fft.rfft(ext, axis=k)[lo] * turn).real
        x = x * inverse
        for k, n, lo, hi, turn in axes:
            x = np.fft.irfft(x * turn.conj(), 2 * n, axis=k)[lo]
        return x

    return solve


def fast_grid_size(n: int) -> int:
    """The least m >= n with no prime factor above 7. numpy's FFT, and so
    `neumann_solver`, is fast on such axes and ~10x slower on a large prime."""
    for m in itertools.count(max(n, 1)):
        rest = m
        while (common := math.gcd(rest, 210)) > 1:  # 210 = 2 * 3 * 5 * 7
            rest //= common
        if rest == 1:
            return m


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
    then solves (I - dt/2 Lap_h) u = u with Neumann walls
    (`neumann_solver`). Within the bound both parts map [0, 1] into
    itself; an iterate that leaves [-0.1, 1.1] aborts the solve.
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
    stable = reaction_time_step(epsilon, g, branch_gamma, p0.spacing, p0.dim)
    if dt is None:
        dt = safety * stable
    elif not (math.isfinite(dt) and dt > 0):
        raise ArgumentError("dt must be finite and positive")
    elif dt > stable:
        raise ArgumentError(f"dt={dt:.3g} exceeds the stability bound {stable:.3g}")
    u = np.clip(p0.values, 0.0, 1.0)
    n_steps = math.ceil(T / dt)
    step_dt = T / max(n_steps, 1)
    rate = step_dt * branch_gamma / epsilon**2
    diffuse = neumann_solver(u.shape, 0.5 * step_dt / p0.spacing**2)
    for step in range(n_steps):
        u = diffuse(u + rate * (g(u) - u))
        if u.min() < -0.1 or u.max() > 1.1:
            raise ArgumentError(
                f"reaction-diffusion iterate escaped [-0.1, 1.1] at step {step} "
                f"(t={(step + 1) * step_dt:.4g})"
            )
    return ScalarField(p0.dim, p0.origin.copy(), p0.spacing, u, time_stamp=p0.time_stamp + T)
