"""Factories for the five approximate dual models.

Each factory returns a ModelBundle holding the branching spec, the
voting kernel (or, for the nonlinear voter, a forest combiner), the
associated g-function with its cached axiom report, and the declared
equilibria (a, mu, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, ResourceError
from .dualtree.tree import BranchingSpec
from .gfunction.coalescence import (
    _labels_to_partition,
    gbar,
    sample_box_offsets,
    sample_coalescent_partitions,
)
# find_fixed_points is no longer called here but stays importable as
# dualflow.models.find_fixed_points, where the perfbench tracer wraps it
from .gfunction.gfun import GFunction, find_fixed_points, kernel_g, verify_g_axioms  # noqa: F401
from .gfunction.kernels import ExchangeableKernel, VotingKernel, majority_kernel
from .gfunction.nlv import MarkedPartition, g_pi_batch, nlv_rate_flags
from .rng import derive_rng

__all__ = [
    "ModelBundle",
    "ternary_bbm",
    "slfv_dual",
    "lotka_volterra_dual",
    "nonlinear_voter_dual",
    "sexual_reproduction_dual",
    "voter_forward_oracle",
    "MODEL_FACTORIES",
]

SR_THETA_LEVELS = (0.0, 3.0 / 11.0, 9.0 / 11.0, 9.0 / 11.0)
NLV_DEFAULT_RATES = {"a1": 0.22, "a2": 0.35, "a3": 0.65, "a4": 0.78}


@dataclass
class ModelBundle:
    """One dual model: spec, voting rule, g and equilibria.

    A bundle whose ``kernel`` is None votes only through ``combine``, the
    forest combiner ``combine(child_params, decorations, rng)`` that reads
    the per-event decorations of ``spec.decoration_fn``; no voting kernel
    or g-function ever sees a decoration.
    """

    spec: BranchingSpec
    kernel: Optional[VotingKernel]
    g: GFunction
    equilibria: tuple[float, float, float]  # (a, mu, b)
    scaling_notes: str = ""
    flags: dict = field(default_factory=dict)
    combine: Optional[Callable] = None

    @property
    def a(self) -> float:
        return self.equilibria[0]

    @property
    def mu(self) -> float:
        return self.equilibria[1]

    @property
    def b(self) -> float:
        return self.equilibria[2]

    def describe(self) -> str:
        rep = self.g.report
        lines = [
            f"model: {self.spec.label}",
            f"dim: {self.spec.dim}  children: {self.spec.n_children}  "
            f"branch rate: {self.spec.branch_rate:.6g}  epsilon: {self.spec.epsilon:.6g}",
            f"equilibria (a, mu, b): {self.equilibria}",
            f"scaling: {self.scaling_notes}",
        ]
        if rep is not None:
            lines.append(f"g fixed points: {[round(p, 10) for p in rep.fixed_points]}")
            lines.append(f"g axioms: {rep.passes}")
            lines.append(
                f"g'(a)={rep.derivative_at['a']:.6g} g'(mu)={rep.derivative_at['mu']:.6g} "
                f"c0={rep.c0:.4g} delta*={rep.delta_star:.4g}"
            )
        if self.flags:
            lines.append(f"flags: {self.flags}")
        return "\n".join(lines)


# ----- motion samplers -----


def brownian_motion(rate: float = 1.0):
    def motion(starts: np.ndarray, durations: np.ndarray, rng: np.random.Generator):
        starts = np.asarray(starts, dtype=float)
        sd = np.sqrt(rate * np.asarray(durations, dtype=float))[:, None]
        return starts + sd * rng.standard_normal(starts.shape)

    return motion


def lattice_walk(mesh: float, per_coord_sign_rate: float):
    """Continuous-time walk on mesh*Z^d.

    Each coordinate gains +mesh and -mesh jumps as independent Poisson
    streams of the given rate, which is the exact law of a walk whose
    per-coordinate signed jump rates are per_coord_sign_rate each.
    """

    def motion(starts: np.ndarray, durations: np.ndarray, rng: np.random.Generator):
        starts = np.asarray(starts, dtype=float)
        lam = per_coord_sign_rate * np.asarray(durations, dtype=float)[:, None]
        lam = np.broadcast_to(lam, starts.shape)
        up = rng.poisson(lam)
        down = rng.poisson(lam)
        return starts + mesh * (up - down)

    return motion


def _uniform_in_ball(n: int, dim: int, radius, rng: np.random.Generator) -> np.ndarray:
    direction = rng.standard_normal((n, dim))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
    r = np.asarray(radius) * rng.random(n) ** (1.0 / dim)
    return direction * r[:, None]


# ----- model factories -----


def ternary_bbm(epsilon: float, dim: int) -> ModelBundle:
    """Ternary branching Brownian motion under deterministic majority voting.

    Brownian motion at rate 1, branch rate epsilon**-2, children born at
    the parent's death position. Equilibria (0, 1/2, 1).
    """
    if not 0 < epsilon <= 1:
        raise ArgumentError("epsilon must lie in (0, 1]")
    kern = majority_kernel(3)

    def dispersal(parents: np.ndarray, rng: np.random.Generator):
        return np.repeat(parents[:, None, :], 3, axis=1)

    spec = BranchingSpec(
        dim=dim,
        n_children=3,
        branch_rate=epsilon**-2,
        motion=brownian_motion(1.0),
        dispersal=dispersal,
        label="ternary_bbm",
        epsilon=epsilon,
        dispersal_support_bound=0.0,
    )
    g = kernel_g(kern, label="majority3")
    g.report = verify_g_axioms(g)
    return ModelBundle(
        spec,
        kern,
        g,
        (0.0, 0.5, 1.0),
        scaling_notes="branch rate eps^-2, Brownian lineages, zero dispersal",
    )


def slfv_dual(
    n: float,
    beta: float,
    R: float,
    mu_radius_weights: Sequence[tuple[float, float]],
    epsilon_n: float,
    dim: int = 2,
    gamma: float = 1.0,
    impact_u: float = 1.0,
) -> ModelBundle:
    """Approximate dual of the rescaled Fleming-Viot-type model.

    A single lineage jumps when a reproduction event captures it: the
    displacement is the composition of recentring to the event's parent
    draw, i.e. a difference of two uniform points in a ball of the
    rescaled radius. Branching is ternary at rate gamma * epsilon_n**-2
    with offspring uniform in a ball of the event radius around the
    event centre. Majority voting, equilibria (0, 1/2, 1).
    """
    if not 0 < beta < 1.0 / 3.0:
        raise ArgumentError("beta must lie in (0, 1/3)")
    radii = np.array([r for r, _ in mu_radius_weights], dtype=float)
    weights = np.array([w for _, w in mu_radius_weights], dtype=float)
    if radii.size == 0:
        raise ArgumentError("empty radius measure")
    if np.any(radii <= 0) or np.any(radii > R):
        raise ArgumentError("radii must lie in (0, R]")
    if np.any(weights < 0) or weights.sum() == 0:
        raise ArgumentError("radius weights must be nonnegative and not all zero")
    weights = weights / weights.sum()

    flags = {}
    if epsilon_n * math.sqrt(math.log(n)) < 1.0:
        flags["slow_scaling"] = (
            f"epsilon_n*sqrt(log n) = {epsilon_n * math.sqrt(math.log(n)):.3g} < 1"
        )

    scaled_radii = radii * n ** (-beta)
    u_n = impact_u / n ** (1.0 - 2.0 * beta)
    ball_vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    # rate at which events cover and mark the lineage, per radius class
    capture_rates = n * n**beta * ball_vol * scaled_radii**dim * u_n * weights
    total_rate = float(capture_rates.sum())
    class_probs = capture_rates / total_rate

    def motion(starts: np.ndarray, durations: np.ndarray, rng: np.random.Generator):
        starts = np.asarray(starts, dtype=float).copy()
        counts = rng.poisson(total_rate * np.asarray(durations, dtype=float))
        remaining = counts.copy()
        while remaining.max(initial=0) > 0:
            live = remaining > 0
            m = int(live.sum())
            cls = rng.choice(len(scaled_radii), size=m, p=class_probs)
            r = scaled_radii[cls]
            step = _uniform_in_ball(m, dim, r, rng) - _uniform_in_ball(m, dim, r, rng)
            starts[live] += step
            remaining[live] -= 1
        return starts

    def dispersal(parents: np.ndarray, rng: np.random.Generator):
        m = parents.shape[0]
        cls = rng.choice(len(scaled_radii), size=m, p=class_probs)
        r = scaled_radii[cls]
        centre = parents + _uniform_in_ball(m, dim, r, rng)
        out = np.empty((m, 3, dim))
        for i in range(3):
            out[:, i, :] = centre + _uniform_in_ball(m, dim, r, rng)
        return out

    kern = majority_kernel(3)
    g = kernel_g(kern, label="majority3")
    g.report = verify_g_axioms(g)
    spec = BranchingSpec(
        dim=dim,
        n_children=3,
        branch_rate=gamma * epsilon_n**-2,
        motion=motion,
        dispersal=dispersal,
        label="slfv_dual",
        epsilon=epsilon_n,
        dispersal_support_bound=2.0 * float(scaled_radii.max()),
    )
    return ModelBundle(
        spec,
        kern,
        g,
        (0.0, 0.5, 1.0),
        scaling_notes=(
            f"jump measure supported on radius {scaled_radii.max():.4g} = n^-beta*R; "
            f"capture rate {total_rate:.4g}; branch rate gamma*eps^-2"
        ),
        flags=flags,
    )


@lru_cache(maxsize=32)
def _lv_p3(L: int, dim: int, n_samples: int, seed: int) -> float:
    """Probability that the three offspring never coalesce.

    Two offspring are uniform in the (2L+1)^dim box around the parent;
    walkers run at unit per-coordinate variance (jump rate dim) and the
    horizon is the practical infinite-horizon cutoff.
    """
    rng = derive_rng(seed, 0x1753)
    starts = np.zeros((n_samples, 3, dim), dtype=np.int64)
    starts[:, 1:, :] = rng.integers(-L, L + 1, size=(n_samples, 2, dim))
    rep, _, _ = sample_coalescent_partitions(
        starts, dim, math.inf, float(dim), n_samples, rng
    )
    singleton = np.all(rep == np.arange(3)[None, :], axis=1)
    return float(np.mean(singleton))


def lotka_volterra_dual(
    epsilon: float,
    L: int,
    dim: int = 3,
    mesh: Optional[float] = None,
    p3_samples: int = 4000,
    p3_seed: int = 0xD0D0,
) -> ModelBundle:
    """Dual of the balanced two-sample perturbation of the voter model.

    Ternary branching random walk on a mesh lattice: lineages walk at
    unit diffusivity (total jump rate dim/mesh**2), branch at rate
    p3 * epsilon**-2 where p3 is the cached Monte Carlo probability that
    three freshly born walkers never coalesce, and the two displaced
    offspring land uniformly in the (2L+1)^dim box scaled by the mesh.
    Majority voting, equilibria (0, 1/2, 1).
    """
    if L < 1:
        raise ArgumentError("box half-width L must be >= 1")
    flags = {}
    if dim < 3:
        flags["low_dimension"] = f"dim={dim} < 3: walks are recurrent, theory not covered"
    if mesh is None:
        mesh = epsilon**3
    p3 = _lv_p3(L, dim, p3_samples, p3_seed)

    def dispersal(parents: np.ndarray, rng: np.random.Generator):
        m = parents.shape[0]
        out = np.empty((m, 3, dim))
        out[:, 0, :] = parents
        offs = rng.integers(-L, L + 1, size=(m, 2, dim)).astype(float) * mesh
        out[:, 1:, :] = parents[:, None, :] + offs
        return out

    kern = majority_kernel(3)
    g = kernel_g(kern, label="majority3")
    g.report = verify_g_axioms(g)
    spec = BranchingSpec(
        dim=dim,
        n_children=3,
        branch_rate=p3 * epsilon**-2,
        motion=lattice_walk(mesh, per_coord_sign_rate=0.5 / mesh**2),
        dispersal=dispersal,
        label="lotka_volterra_dual",
        epsilon=epsilon,
        dispersal_support_bound=L * mesh,
    )
    return ModelBundle(
        spec,
        kern,
        g,
        (0.0, 0.5, 1.0),
        scaling_notes=(
            f"mesh {mesh:.3g}, walk speed dim*mesh^-2, branch rate p3*eps^-2 with "
            f"p3 = {p3:.4f} cached from {p3_samples} coalescing-walk samples"
        ),
        flags=flags,
    )


def nonlinear_voter_dual(
    epsilon: float,
    L: int,
    a1: float = NLV_DEFAULT_RATES["a1"],
    a2: float = NLV_DEFAULT_RATES["a2"],
    a3: float = NLV_DEFAULT_RATES["a3"],
    a4: float = NLV_DEFAULT_RATES["a4"],
    dim: int = 3,
    mesh: Optional[float] = None,
    coalescence_horizon: float = math.inf,
    gbar_samples: int = 4000,
    gbar_seed: int = 0xBA26,
) -> ModelBundle:
    """Dual of the nonlinear voter perturbation: 5-ary branching walk
    with coalescence-decorated voting.

    Offspring are the parent site plus four distinct uniform box sites;
    the decoration of a branching event is its (5, dim) lattice
    displacement array. The bundle has no voting kernel: ``combine``
    samples one sibling coalescence partition per internal vertex from
    those displacements and applies its g^pi. The bundle's g is the
    effective (coalescence-weighted) g at this L and horizon, with
    equilibria located on it.
    """
    if L < 1:
        raise ArgumentError("box half-width L must be >= 1")
    flags = dict(nlv_rate_flags(a1, a2, a3, a4))
    if dim < 3:
        flags["low_dimension"] = f"dim={dim} < 3"
    if mesh is None:
        mesh = epsilon**3

    geff = gbar(L, dim, coalescence_horizon, a1, a2, a3, a4, gbar_samples, gbar_seed)
    geff.report = verify_g_axioms(geff)
    fps = geff.report.fixed_points
    interior = [p for p in fps if 1e-6 < p < 1 - 1e-6 and abs(p - 0.5) > 1e-6]
    if len(interior) >= 2:
        a_eps, b_eps = min(interior), max(interior)
    else:
        a_eps, b_eps = 0.0, 1.0
        flags["no_interior_equilibria"] = "effective g has no interior fixed points"

    def dispersal(parents: np.ndarray, rng: np.random.Generator):
        m = parents.shape[0]
        out = np.empty((m, 5, dim))
        out[:, 0, :] = parents
        offs = sample_box_offsets(L, dim, m, rng)[:, 1:, :]
        out[:, 1:, :] = parents[:, None, :] + offs.astype(float) * mesh
        return out

    def decoration_fn(parents: np.ndarray, offspring: np.ndarray, rng: np.random.Generator):
        xi = np.rint((offspring - parents[:, None, :]) / mesh).astype(np.int64)
        # discarded draw: keeps the forest's random stream, so NLV results stay draw-for-draw identical
        rng.integers(0, 2**63 - 1, size=parents.shape[0])
        return xi

    def combine(child_params: np.ndarray, xi: np.ndarray, rng: np.random.Generator):
        """Batched forest combiner: one coalescing realization per vertex."""
        m = child_params.shape[0]
        rep, _, _ = sample_coalescent_partitions(
            xi, dim, coalescence_horizon, float(dim), m, rng
        )
        out = np.empty(m)
        groups: dict[MarkedPartition, list[int]] = {}
        for i in range(m):
            part = _labels_to_partition(rep[i], rng)
            groups.setdefault(part, []).append(i)
        for part, rows in groups.items():
            out[rows] = g_pi_batch(part, child_params[rows], a1, a2, a3, a4)
        return out

    spec = BranchingSpec(
        dim=dim,
        n_children=5,
        branch_rate=epsilon**-2,
        motion=lattice_walk(mesh, per_coord_sign_rate=0.5 / mesh**2),
        dispersal=dispersal,
        label="nonlinear_voter_dual",
        epsilon=epsilon,
        decoration_fn=decoration_fn,
        dispersal_support_bound=L * mesh,
    )
    return ModelBundle(
        spec,
        None,
        geff,
        (float(a_eps), 0.5, float(b_eps)),
        scaling_notes=(
            f"mesh {mesh:.3g}, 5-ary branch rate eps^-2, effective g from {gbar_samples} "
            f"coalescence samples at L={L}, horizon={coalescence_horizon}"
        ),
        flags=flags,
        combine=combine,
    )


def sexual_reproduction_dual(
    epsilon: float, dim: int = 2, mesh: Optional[float] = None
) -> ModelBundle:
    """Dual of the pair-reproduction model with fast stirring.

    Ternary branching random walk: total jump rate 2*dim*mesh**-2 with
    uniform nearest-neighbour steps, branch rate epsilon**-2, offspring
    displaced one lattice step each. The kernel is the exchangeable
    three-child kernel with levels (0, 3/11, 9/11, 9/11), whose
    univariate g is (9/11)(p + p^2 - p^3); equilibria (0, 1/3, 2/3).
    """
    if dim < 2:
        raise ArgumentError("dim must be >= 2")
    if mesh is None:
        mesh = epsilon**3
    kern = ExchangeableKernel(SR_THETA_LEVELS, label="sexual_reproduction")
    g = kernel_g(kern, label="sexual_reproduction")
    g.report = verify_g_axioms(g)

    def dispersal(parents: np.ndarray, rng: np.random.Generator):
        m = parents.shape[0]
        direction = rng.integers(0, 2 * dim, size=(m, 3))
        out = np.repeat(parents[:, None, :], 3, axis=1)
        axis = direction >> 1
        sign = np.where(direction & 1, -1.0, 1.0) * mesh
        rows = np.repeat(np.arange(m), 3)
        out[rows, np.tile(np.arange(3), m), axis.ravel()] += sign.ravel()
        return out

    spec = BranchingSpec(
        dim=dim,
        n_children=3,
        branch_rate=epsilon**-2,
        # total jump rate 2*dim*mesh^-2, uniform over 2*dim directions:
        # each signed coordinate direction fires at rate mesh^-2
        motion=lattice_walk(mesh, per_coord_sign_rate=1.0 / mesh**2),
        dispersal=dispersal,
        label="sexual_reproduction_dual",
        epsilon=epsilon,
        dispersal_support_bound=mesh,
    )
    return ModelBundle(
        spec,
        kern,
        g,
        (0.0, 1.0 / 3.0, 2.0 / 3.0),
        scaling_notes=(
            f"mesh {mesh:.3g}, jump rate 2*dim*mesh^-2 (per-coordinate diffusivity 2), "
            "branch rate eps^-2, nearest-neighbour offspring"
        ),
    )


def voter_forward_oracle(
    lattice_size: int,
    dim: int,
    p0: Callable[[np.ndarray], np.ndarray],
    t: float,
    n_samples: int,
    rng_seed: int,
) -> np.ndarray:
    """Forward simulation of the plain voter model on a periodic lattice.

    Every site refreshes at rate dim by copying a uniformly chosen
    nearest neighbour (equivalently each directed edge fires at rate
    1/2). Initial states are independent Bernoulli(p0(site)). Returns
    the empirical occupation probability per site, shape
    (lattice_size,)*dim. Serves as an independent duality oracle: the
    single-site marginal equals the expectation of p0 under a rate-dim
    random walk.
    """
    n_sites = lattice_size**dim
    if n_sites > 1_000_000:
        raise ResourceError(f"lattice has {n_sites} sites, above the 1e6 bound")
    if n_samples < 1:
        raise ArgumentError("n_samples must be positive")
    shape = (lattice_size,) * dim
    coords = np.indices(shape).reshape(dim, -1).T  # (n_sites, dim)
    probs = np.asarray(p0(coords), dtype=float).reshape(n_sites)
    if np.any(probs < 0) or np.any(probs > 1):
        raise ArgumentError("p0 must return probabilities")

    rng = derive_rng(rng_seed, 0x707E)
    strides = np.array([lattice_size**k for k in range(dim - 1, -1, -1)])
    acc = np.zeros(n_sites)
    for _ in range(n_samples):
        state = (rng.random(n_sites) < probs).astype(np.int8)
        n_events = rng.poisson(dim * n_sites * t)
        sites = rng.integers(0, n_sites, size=n_events)
        direction = rng.integers(0, 2 * dim, size=n_events)
        axis = direction >> 1
        sign = np.where(direction & 1, -1, 1)
        # neighbour flat index with periodic wrap along the chosen axis
        coord = (sites // strides[axis]) % lattice_size
        wrapped = (coord + sign) % lattice_size
        neighbours = sites + (wrapped - coord) * strides[axis]
        for s, nb in zip(sites, neighbours):
            state[s] = state[nb]
        acc += state
    return (acc / n_samples).reshape(shape)


MODEL_FACTORIES: dict[str, Callable[..., ModelBundle]] = {
    "ternary_bbm": ternary_bbm,
    "slfv_dual": slfv_dual,
    "lotka_volterra_dual": lotka_volterra_dual,
    "nonlinear_voter_dual": nonlinear_voter_dual,
    "sexual_reproduction_dual": sexual_reproduction_dual,
}
