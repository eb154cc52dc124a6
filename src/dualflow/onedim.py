"""One-dimensional branching Brownian comparison process.

Estimates the vote probability of the 1-D branching Brownian motion
started from height z under the step voting function

    p_step(x) = a for x < 0,  b for x >= 0,

which is the comparison profile for the multidimensional checks: the
interface it develops stays within a width of order epsilon*|log eps|
and is monotone in z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError
from .dualtree.estimate import VoteEstimate, estimate_vote_probability
from .dualtree.tree import BranchingSpec
from .gfunction.kernels import VotingKernel
from .models import brownian_motion

__all__ = [
    "step_profile",
    "bbm1d_spec",
    "bbm1d_vote_prob",
    "InterfaceProfile",
    "interface_profile",
    "slope_check",
    "SlopeReport",
]

WIDTH_TOL = 0.02  # plateau tolerance, in units of (b - a)


def step_profile(a: float = 0.0, b: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """The step voting function: a on (-inf, 0), b on [0, inf)."""

    def p(positions: np.ndarray) -> np.ndarray:
        z = np.asarray(positions)[:, 0]
        return np.where(z >= 0.0, b, a)

    return p


def bbm1d_spec(epsilon: float, n_children: int = 3, gamma: float = 1.0) -> BranchingSpec:
    """1-D branching Brownian motion at branch rate gamma * epsilon**-2,
    children born at the parent's position."""
    if epsilon <= 0:
        raise ArgumentError("epsilon must be positive")

    def dispersal(parents: np.ndarray, rng: np.random.Generator):
        return np.repeat(parents[:, None, :], n_children, axis=1)

    return BranchingSpec(
        dim=1,
        n_children=n_children,
        branch_rate=gamma * epsilon**-2,
        motion=brownian_motion(1.0),
        dispersal=dispersal,
        label="bbm1d",
        epsilon=epsilon,
        dispersal_support_bound=0.0,
    )


def _require_kernel(kernel: Optional[VotingKernel]) -> None:
    if kernel is None:
        raise ArgumentError(
            "this model votes through sibling coalescence and has no 1-D voting kernel"
        )


def bbm1d_vote_prob(
    z: float,
    t: float,
    epsilon: float,
    kernel: VotingKernel,
    n_samples: int,
    rng_seed: int,
    a: float = 0.0,
    b: float = 1.0,
    voting_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    gamma: float = 1.0,
) -> VoteEstimate:
    """Vote probability of the 1-D comparison process started at z.

    The default voting function is the (a, b) step profile; pass
    ``voting_fn`` to override (e.g. a constant equilibrium function).
    """
    _require_kernel(kernel)
    spec = bbm1d_spec(epsilon, kernel.n_children, gamma)
    p = voting_fn if voting_fn is not None else step_profile(a, b)
    return estimate_vote_probability(spec, kernel, [z], t, p, n_samples, rng_seed)


@dataclass
class InterfaceProfile:
    t: float
    epsilon: float
    a: float
    b: float
    z_grid: np.ndarray
    estimates: list[VoteEstimate]
    width_estimate: float = math.nan  # in space units
    notes: list[str] = field(default_factory=list)

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    @property
    def stderrs(self) -> np.ndarray:
        return np.array([e.stderr for e in self.estimates])

    @property
    def width_in_scale_units(self) -> float:
        """Width divided by epsilon * |log epsilon|."""
        return self.width_estimate / (self.epsilon * abs(math.log(self.epsilon)))

    def to_csv(self) -> str:
        lines = ["z,value,stderr"]
        for z, e in zip(self.z_grid, self.estimates):
            lines.append(f"{z:.10g},{e.value:.10g},{e.stderr:.4g}")
        return "\n".join(lines) + "\n"


def default_z_grid(epsilon: float, n_points: int = 25, span: float = 5.0) -> np.ndarray:
    scale = epsilon * abs(math.log(epsilon))
    return np.linspace(-span * scale, span * scale, n_points)


def interface_profile(
    t: float,
    epsilon: float,
    kernel: VotingKernel,
    z_grid: Optional[Sequence[float]] = None,
    n_samples: int = 2000,
    rng_seed: int = 0,
    a: float = 0.0,
    b: float = 1.0,
    gamma: float = 1.0,
) -> InterfaceProfile:
    """Estimate the step-data vote profile on a grid of start heights.

    The width estimate is the smallest w such that the profile exceeds
    b - tol for z >= w and stays below a + tol for z <= -w, with
    tol = 0.02 * (b - a); grid points are estimated independently with
    per-point derived seeds.
    """
    if z_grid is None:
        z_grid = default_z_grid(epsilon)
    z_grid = np.asarray(z_grid, dtype=float)
    if np.any(np.diff(z_grid) <= 0):
        raise ArgumentError("z_grid must be strictly increasing")
    estimates = [
        bbm1d_vote_prob(float(z), t, epsilon, kernel, n_samples, rng_seed + 1000 + i, a=a, b=b, gamma=gamma)
        for i, z in enumerate(z_grid)
    ]
    profile = InterfaceProfile(t, epsilon, a, b, z_grid, estimates)
    profile.width_estimate = _width_estimate(profile)
    return profile


def _width_estimate(profile: InterfaceProfile) -> float:
    tol = WIDTH_TOL * (profile.b - profile.a)
    z, v = profile.z_grid, profile.values
    ok_hi = v >= profile.b - tol
    ok_lo = v <= profile.a + tol
    candidates = []
    for w in np.abs(np.concatenate([z, [0.0]])):
        if np.all(ok_hi[z >= w]) and np.all(ok_lo[z <= -w]):
            candidates.append(w)
    if not candidates:
        profile.notes.append("no width bracket found inside the grid")
        return float(max(abs(z[0]), abs(z[-1])))
    return float(min(candidates))


@dataclass
class SlopeReport:
    vacuous: bool
    fitted_c2: float
    n_pairs: int
    passes: list[bool]
    pairs: list[tuple[float, float]]  # (z_i, z_j)

    def all_pass(self) -> bool:
        return all(self.passes)


def slope_check(profile: InterfaceProfile, delta_star: float) -> SlopeReport:
    """Interface-slope lower bound on the profile.

    For grid pairs whose values both lie within b - mu - delta_star of
    the midpoint mu, fits the smallest constant c2 such that

        |v_i - v_j| >= delta_star * |z_i - z_j| / (c2 * eps * |log eps|)

    holds for every admissible pair, then reports pass/fail per pair at
    that constant. Pairs whose value difference is dominated by noise
    (below the combined 4-sigma band) are excluded from the fit.
    """
    if delta_star <= 0:
        raise ArgumentError("delta_star must be positive")
    mu = 0.5 * (profile.a + profile.b)
    band = (profile.b - mu) - delta_star
    z, v, se = profile.z_grid, profile.values, profile.stderrs
    scale = profile.epsilon * abs(math.log(profile.epsilon))
    spacing = float(np.max(np.diff(z)))
    if spacing > scale / 10.0 + 1e-12:
        raise ArgumentError(
            f"slope_check needs grid spacing <= eps|log eps|/10 = {scale / 10:.4g}, got {spacing:.4g}"
        )
    admissible = np.abs(v - mu) <= band
    idx = np.flatnonzero(admissible)
    pairs, ratios, noisy = [], [], []
    for ii in range(len(idx)):
        for jj in range(ii + 1, len(idx)):
            i, j = idx[ii], idx[jj]
            dv = abs(v[i] - v[j])
            dz = abs(z[i] - z[j])
            if dz == 0:
                continue
            pairs.append((float(z[i]), float(z[j])))
            if dv <= 4.0 * (se[i] + se[j]):
                noisy.append(True)
                ratios.append(math.inf)
            else:
                noisy.append(False)
                ratios.append(delta_star * dz / (dv * scale))
    finite = [r for r in ratios if math.isfinite(r)]
    if not pairs or not finite:
        return SlopeReport(vacuous=True, fitted_c2=math.nan, n_pairs=len(pairs), passes=[], pairs=pairs)
    c2 = max(finite)
    passes = []
    for (zi, zj), r, is_noisy in zip(pairs, ratios, noisy):
        passes.append(bool(is_noisy or r <= c2 * (1 + 1e-12)))
    return SlopeReport(vacuous=False, fitted_c2=float(c2), n_pairs=len(pairs), passes=passes, pairs=pairs)
