"""Empirical condition checks tying the dual simulations to the PDEs.

Every check returns a CheckReport whose statistic is compared against a
threshold assembled from Monte Carlo standard errors (4 sigma per
estimate) plus explicit discretization budgets. Constants that the
theory provides only existentially (displacement and comparison
constants, time-window coefficients) enter as frozen defaults fitted
once at a calibration epsilon.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ArgumentError
from ..dualtree.estimate import VoteEstimate, estimate_vote_probabilities, estimate_vote_probability
from ..dualtree.tree import BranchingSpec
from ..models import ModelBundle
from ..onedim import BRANCH_GAMMA, _require_kernel
# no check calls bbm1d_vote_prob; perfbench/spans.py patches it here to time 1-D Monte Carlo
from ..onedim import bbm1d_vote_prob  # noqa: F401
from ..pde.curvature import _gradient, _padded, evolve_mcf_levelset
from ..pde.distance import LazySignedDistance, signed_distance
from ..pde.field import ScalarField
# no check calls curvature_envelope_fields (TiltedSurface does); perfbench/spans.py patches it here too
from ..pde.levelsets import TiltedSurface, curvature_envelope_fields  # noqa: F401
from ..pde.reaction import DEFAULT_SAFETY, fast_grid_size, solve_reaction_diffusion
from ..rng import derive_rng
from .report import CheckReport, timed_report

__all__ = [
    "bundle_estimate",
    "bundle_estimates",
    "plus_phase_profile",
    "minus_phase_profile",
    "check_semigroup",
    "check_monotonicity",
    "check_equilibria",
    "check_flow_consistency",
    "check_interface_formation",
    "check_propagation_vs_1d",
    "check_ito_coupling_drift",
    "check_diffusivity",
    "check_mcf_duality",
    "check_allen_cahn_duality",
]

BundleLike = ModelBundle | Callable[[float], ModelBundle]

FLOW_N_POINTS = 6  # sample points of a flow-consistency check
FLOW_THRESHOLD = 0.08  # its final-epsilon deviation allowed beyond 4 sigma
FLOW_BOUNDARY_LAYER = 1.5  # its least sample depth, in eps |log eps| at the largest epsilon
MCF_THRESHOLD = 0.1  # worst final deviation of an MCF duality estimate from its phase
KURTOSIS_RTOL = 0.10  # relative tolerance of the lineage kurtosis against the Gaussian 3
PROPAGATION_K2 = 2.0  # the 1-D profile's shift, in eps |log eps|
PROPAGATION_C_ALLOW = 1.0  # the propagation allowance C_allow eps^k_power ...
PROPAGATION_K_POWER = 2.0  # ... and its power of eps
ITO_STEPS = 64  # Euler steps of an Ito drift path over [0, s]


def _bundle_at(bundle: BundleLike, epsilon: float) -> ModelBundle:
    if isinstance(bundle, ModelBundle):
        if not math.isclose(bundle.spec.epsilon, epsilon, rel_tol=1e-9):
            raise ArgumentError(
                f"bundle epsilon {bundle.spec.epsilon} does not match requested {epsilon}"
            )
        return bundle
    return bundle(epsilon)


def bundle_estimate(
    bundle: ModelBundle,
    x,
    t: float,
    p: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    rng_seed: int,
) -> VoteEstimate:
    """estimate_vote_probability specialized to a model bundle: the
    one-column case of `bundle_estimates`."""
    return estimate_vote_probability(
        bundle.spec,
        bundle.kernel,
        x,
        t,
        p,
        n_samples,
        rng_seed,
        combine=bundle.combine,
    )


def bundle_estimates(
    bundle: ModelBundle,
    xs: Sequence,
    t: float,
    ps: Sequence[Callable[[np.ndarray], np.ndarray]],
    n_samples: int,
    rng_seed: int,
) -> list[VoteEstimate]:
    """estimate_vote_probabilities specialized to a model bundle: one
    forest grown from xs[0], one estimate per column (xs[k], ps[k]).
    The columns are positively correlated, so a check that judges each
    by its own 4 sigma keeps its union bound on false alarms."""
    return estimate_vote_probabilities(
        bundle.spec,
        bundle.kernel,
        [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs],
        t,
        ps,
        n_samples,
        rng_seed,
        combine=bundle.combine,
    )


def _field_phase_profile(phi: ScalarField, low: float, high: float, zero_is_low: bool):
    """low where phi.interp(x) <= 0 (< 0 unless zero_is_low), high elsewhere.

    The interpolant is a combination of the cell's corner values with
    weights >= 0 that sum to 1. So it is <= 0 in a cell whose corners are
    all <= 0, and > 0 in one whose corners all exceed 1e-300: some weight is
    at least 2**-dim, and no product underflows to 0 (mirrored for < 0 and
    >= 0). A table built once names those cells, and only the points in
    the other cells are interpolated, from the same cell index. When most
    points lie in such mixed cells, every point is interpolated in one
    pass instead, which gives the same values with fewer gathers.
    """
    values = phi.values
    shape = values.shape
    cell_min = cell_max = None
    for corner in range(2**phi.dim):
        bits = [(corner >> k) & 1 for k in range(phi.dim)]
        nodes = values[tuple(slice(bit, bit + n - 1) for bit, n in zip(bits, shape))]
        cell_min = nodes if cell_min is None else np.minimum(cell_min, nodes)
        cell_max = nodes if cell_max is None else np.maximum(cell_max, nodes)
    if zero_is_low:
        known_low, known_high = cell_max <= 0.0, cell_min > 1e-300
    else:
        known_low, known_high = cell_max < -1e-300, cell_min >= 0.0
    code = np.full(shape, 2, dtype=np.int8)  # 0: low, 1: high, 2: interpolate
    code[tuple(slice(0, n - 1) for n in shape)] = np.where(known_low, 0, np.where(known_high, 1, 2))
    code = code.ravel()  # indexed by the flat index of the cell's lowest corner

    def phase(vals: np.ndarray) -> np.ndarray:
        return np.where(vals <= 0.0 if zero_is_low else vals < 0.0, low, high)

    def p(points: np.ndarray) -> np.ndarray:
        flat, fractions = phi.cell_index(points)
        cell = code[flat]
        if 2 * np.count_nonzero(cell == 2) > flat.size:
            return phase(phi.interp_cells(flat, fractions))
        out = np.where(cell == 1, high, low)
        mixed = np.flatnonzero(cell == 2)
        if mixed.size:
            out[mixed] = phase(phi.interp_cells(flat[mixed], [frac[mixed] for frac in fractions]))
        return out

    return p


def plus_phase_profile(phi: ScalarField, delta: float, a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """(a + delta) where phi <= 0, b where phi > 0, phi read through its
    multilinear interpolant."""
    return _field_phase_profile(phi, a + delta, b, zero_is_low=True)


def minus_phase_profile(phi: ScalarField, delta: float, a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """(b - delta) where phi >= 0, a where phi < 0, phi read through its
    multilinear interpolant."""
    return _field_phase_profile(phi, a, b - delta, zero_is_low=False)


# ----- (J1) semigroup -----


def _grid_interpolant_1d(grid: np.ndarray, values: np.ndarray):
    def q(points: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(points)[:, 0]
        return np.clip(np.interp(z, grid, values), 0.0, 1.0)

    return q


def check_semigroup(
    bundle: ModelBundle,
    x,
    t: float,
    h: float,
    p: Callable[[np.ndarray], np.ndarray],
    spatial_grid: np.ndarray,
    n_outer: int,
    n_inner: int,
    rng_seed: int,
) -> CheckReport:
    """Two-stage vs direct estimate of the vote probability at t + h.

    The inner stage estimates the whole profile u(t, .; p) on the grid,
    one forest whose columns are the grid points (`bundle_estimates`,
    seeded ``rng_seed + 7919``); the outer stage feeds its interpolation
    back in as the voting function for a horizon-h run. Currently supports
    1-D spatial grids (the interpolation budget is grid spacing times the
    fitted Lipschitz constant of the inner profile).
    """
    spatial_grid = np.asarray(spatial_grid, dtype=float)
    if spatial_grid.ndim != 1:
        raise ArgumentError("check_semigroup expects a 1-D spatial grid")
    if bundle.spec.dim != 1:
        raise ArgumentError("check_semigroup is implemented for dim-1 bundles")
    if h < 0 or t <= 0:
        raise ArgumentError("need t > 0 and h >= 0")
    with timed_report() as box:
        direct = bundle_estimate(bundle, x, t + h, p, n_outer, rng_seed)
        inner = bundle_estimates(bundle, spatial_grid[:, None], t, [p] * spatial_grid.size, n_inner, rng_seed + 7919)
        q_vals = np.array([e.value for e in inner])
        q_hat = _grid_interpolant_1d(spatial_grid, q_vals)
        two_stage = bundle_estimate(bundle, x, h, q_hat, n_outer, rng_seed + 1)

        spacing = float(np.max(np.diff(spatial_grid)))
        lipschitz = float(np.max(np.abs(np.diff(q_vals)) / np.diff(spatial_grid)))
        inner_se = float(np.max([e.stderr for e in inner]))
        mc_se = math.sqrt(direct.stderr**2 + two_stage.stderr**2)
        interp_budget = spacing * lipschitz
        statistic = abs(direct.value - two_stage.value)
        threshold = 4.0 * (mc_se + inner_se) + interp_budget
    return CheckReport(
        name="semigroup",
        inputs={
            "model": bundle.spec.label,
            "epsilon": bundle.spec.epsilon,
            "x": list(np.atleast_1d(np.asarray(x, dtype=float))),
            "t": t,
            "h": h,
            "n_outer": n_outer,
            "n_inner": n_inner,
            "grid_points": len(spatial_grid),
        },
        statistic=float(statistic),
        threshold=float(threshold),
        passed=bool(statistic <= threshold),
        budget={
            "mc_4sigma": 4 * mc_se,
            "inner_4sigma": 4 * inner_se,
            "interpolation": interp_budget,
            "direct": direct.value,
            "two_stage": two_stage.value,
        },
        seed=rng_seed,
        runtime=box["runtime"],
        reference="semigroup property of branching duals",
    )


# ----- (J2) monotonicity -----


def check_monotonicity(
    bundle: ModelBundle,
    p_low: Callable[[np.ndarray], np.ndarray],
    p_high: Callable[[np.ndarray], np.ndarray],
    points: Sequence,
    t: float,
    n_samples: int,
    rng_seed: int,
) -> CheckReport:
    """Estimates under p_low never exceed those under p_high.

    One forest serves every point: the columns are (x_i, p_low) and
    (x_i, p_high) for each point, seeded ``rng_seed + 104729``. The two
    columns of a point read the same genealogies and share every
    per-vertex draw, so the exact recursion makes the comparison pathwise
    and the margin is exact.
    """
    points = list(points)
    with timed_report() as box:
        ests = bundle_estimates(
            bundle, [x for x in points for _ in (0, 1)], t, [p_low, p_high] * len(points), n_samples, rng_seed + 104729
        )
        values = [(lo.value, hi.value) for lo, hi in zip(ests[::2], ests[1::2])]
        worst = max(lo - hi for lo, hi in values)
    return CheckReport(
        name="monotonicity",
        inputs={
            "model": bundle.spec.label,
            "epsilon": bundle.spec.epsilon,
            "t": t,
            "n_points": len(points),
            "n_samples": n_samples,
        },
        statistic=float(worst),
        threshold=1e-12,
        passed=bool(worst <= 1e-12),
        budget={"pairs": values},
        seed=rng_seed,
        runtime=box["runtime"],
        reference="monotonicity of the voting algorithm in its input profile",
    )


# ----- (J3) equilibria -----


def check_equilibria(
    bundle: ModelBundle,
    t: float,
    n_samples: int,
    rng_seed: int,
) -> CheckReport:
    """Constant equilibrium inputs reproduce themselves exactly.

    Back-propagation of a constant through any genealogy is the n-fold
    composition of the bundle's g at a fixed point, so the estimate has
    zero variance; the threshold is floating-point tight. The bundle's g
    is the voting rule at every vertex, which for the nonlinear voter is
    the frozen effective g rather than its per-vertex partition combiner
    (its equilibria are fixed points of that g by construction), so the
    forest draws no decorations. A constant leaf function reads no
    position, so the start does not matter: one forest from the origin,
    seeded ``rng_seed + 31``, has the constants a and b as its two
    columns.
    """
    constants = (bundle.a, bundle.b)
    with timed_report() as box:
        ests = estimate_vote_probabilities(
            bundle.spec,
            bundle.g,
            np.zeros((2, bundle.spec.dim)),
            t,
            [lambda P, c=c: np.full(P.shape[0], c) for c in constants],
            n_samples,
            rng_seed + 31,
        )
        worst = max(abs(est.value - c) for est, c in zip(ests, constants))
    return CheckReport(
        name="equilibria",
        inputs={
            "model": bundle.spec.label,
            "epsilon": bundle.spec.epsilon,
            "a": bundle.a,
            "b": bundle.b,
            "t": t,
            "n_samples": n_samples,
        },
        statistic=float(worst),
        threshold=1e-12,
        passed=bool(worst <= 1e-12),
        seed=rng_seed,
        runtime=box["runtime"],
        reference="equilibrium states are preserved by the dual",
    )


# ----- (J4) flow consistency -----


def _select_mask_points(field: ScalarField, mask: np.ndarray, order_by: np.ndarray, n_points: int):
    """Deterministically pick n_points from a mask, spread across the
    ordering statistic (deepest first)."""
    coords = field.coordinates()
    idx = np.flatnonzero(mask.ravel())
    if idx.size == 0:
        raise ArgumentError("no points available in the requested region")
    order = idx[np.argsort(order_by.ravel()[idx])]
    take = np.unique(np.linspace(0, order.size - 1, min(n_points, order.size)).astype(int))
    return [coords[order[i]] for i in take]


def check_flow_consistency(
    bundle: BundleLike,
    phi: ScalarField,
    alpha: float,
    delta: float,
    h: float,
    epsilon_list: Sequence[float],
    n_samples: int,
    rng_seed: int,
    variant: str = "plus",
) -> CheckReport:
    """At short-time sub-level points, shrinking epsilon drives the
    estimate to the equilibrium the tilted surface predicts.

    variant="plus": points of the fast sub-level set under the profile
    (a + delta, b) must approach a; variant="minus" is the mirrored
    check on the super-level set of the upper tilted surface, approaching
    b. The statistic is the final-epsilon worst deviation from the
    target; non-monotone trends beyond the noise are recorded in the
    notes. Each epsilon grows one forest that every point
    reads as a column (`bundle_estimates`).
    """
    eps_list = sorted(set(float(e) for e in epsilon_list), reverse=True)
    if len(eps_list) < 2:
        raise ArgumentError("need at least two epsilon values")
    surface = TiltedSurface(phi, alpha)
    grad = surface.grad_norm
    near_zero = np.abs(phi.values) <= 2 * phi.spacing * np.maximum(grad, 1e-12)
    if np.any(grad[near_zero] <= 1e-9):
        raise ArgumentError("phi has a vanishing gradient on its zero set")
    # points within the finite-epsilon boundary layer of the largest
    # epsilon have not collapsed yet; the asymptotic statement is locally
    # uniform on the interior, so sample at depth
    layer = FLOW_BOUNDARY_LAYER * eps_list[0] * abs(math.log(eps_list[0]))
    if variant not in ("plus", "minus"):
        raise ArgumentError("variant must be 'plus' or 'minus'")
    sign = 1.0 if variant == "plus" else -1.0  # plus: psi_alpha < 0; minus: the upper surface > 0
    profile = plus_phase_profile if variant == "plus" else minus_phase_profile
    with timed_report() as box:
        psi = surface.at(h, upper=variant == "minus")
        depth = sign * signed_distance(psi).values
        mask = (sign * psi.values < 0.0) & (depth <= -layer)
        order_by = depth  # deepest first
        points = _select_mask_points(phi, mask, order_by, FLOW_N_POINTS)
        trend: list[float] = []
        stderrs: list[float] = []
        for k, eps in enumerate(eps_list):
            b_eps = _bundle_at(bundle, eps)
            p = profile(phi, delta, b_eps.a, b_eps.b)
            target = b_eps.a if variant == "plus" else b_eps.b
            ests = bundle_estimates(b_eps, points, h, [p] * len(points), n_samples, rng_seed + 613 * (k + 1))
            devs = [abs(e.value - target) for e in ests]
            trend.append(max(devs))
            stderrs.append(max(e.stderr for e in ests))
        notes = []
        noise = 4.0 * (np.array(stderrs[:-1]) + np.array(stderrs[1:]))
        rises = np.diff(trend) > noise
        if rises.any():
            notes.append(f"trend not monotone at steps {np.flatnonzero(rises).tolist()}")
        statistic = trend[-1]
        full_threshold = FLOW_THRESHOLD + 4.0 * stderrs[-1]
    return CheckReport(
        name="flow_consistency",
        inputs={
            "alpha": alpha,
            "delta": delta,
            "h": h,
            "epsilon_list": eps_list,
            "variant": variant,
            "n_points": len(points),
            "n_samples": n_samples,
        },
        statistic=float(statistic),
        threshold=float(full_threshold),
        passed=bool(statistic <= full_threshold and not rises.any()),
        budget={"trend": trend, "stderrs": stderrs},
        seed=rng_seed,
        runtime=box["runtime"],
        notes=notes,
        reference="flow consistency of short-time level sets",
    )


def check_interface_formation(
    bundle: BundleLike,
    phi: ScalarField,
    delta: float,
    epsilon: float,
    n_samples: int,
    rng_seed: int,
    K: float = 2.0,
    sigma1: float = 1.0,
    alpha: float = 0.5,
    tolerance: float = 0.02,
    n_points: int = 6,
    t_override: Optional[float] = None,
) -> CheckReport:
    """Deep inside the slow phase, the estimate collapses to a on the
    formation time-scale eps^2 |log eps|.

    Points are chosen with signed distance <= -K eps |log eps| from the
    zero set of the tilted surface at the formation time. A run forced
    below the formation window that fails is reported as informative
    ("not yet formed") rather than a plain failure. The points are the
    columns of one forest (`bundle_estimates`).
    """
    b_eps = _bundle_at(bundle, epsilon)
    scale = epsilon * abs(math.log(epsilon))
    t_form = sigma1 * epsilon**2 * abs(math.log(epsilon))
    t = t_override if t_override is not None else t_form
    with timed_report() as box:
        dist = signed_distance(TiltedSurface(phi, alpha).at(t))
        deep = dist.values <= -K * scale
        points = _select_mask_points(phi, deep, dist.values, n_points)
        p = plus_phase_profile(phi, delta, b_eps.a, b_eps.b)
        ests = bundle_estimates(b_eps, points, t, [p] * len(points), n_samples, rng_seed + 211)
        statistic = max(e.value - b_eps.a for e in ests)
        max_se = max(e.stderr for e in ests)
        threshold = tolerance + 4.0 * max_se
        passed = statistic <= threshold
        notes = []
        if t < t_form and not passed:
            notes.append(f"not yet formed: t={t:.4g} below the formation window {t_form:.4g}")
    return CheckReport(
        name="interface_formation",
        inputs={
            "model": b_eps.spec.label,
            "epsilon": epsilon,
            "delta": delta,
            "t": t,
            "K": K,
            "sigma1": sigma1,
            "n_points": len(points),
            "n_samples": n_samples,
        },
        statistic=float(statistic),
        threshold=float(threshold),
        passed=bool(passed),
        budget={"t_formation": t_form, "mc_4sigma": 4 * max_se, "tolerance": tolerance},
        seed=rng_seed,
        runtime=box["runtime"],
        notes=notes,
        reference="sharp interface forms on the eps^2 log scale",
    )


def _step_data_field(a: float, b: float, lo: float, hi: float, spacing: float) -> ScalarField:
    """a on z < 0 and b on z >= 0, on the nodes (k + 1/2) * spacing that
    cover [lo, hi], continued past hi to a `fast_grid_size` node count: the
    step lies midway between two nodes, where `_refined` keeps it."""
    first = math.floor(lo / spacing - 0.5)
    k = first + np.arange(fast_grid_size(math.ceil(hi / spacing - 0.5) + 1 - first))
    return ScalarField(1, [(k[0] + 0.5) * spacing], spacing, np.where(k >= 0, b, a))


def check_propagation_vs_1d(
    bundle: BundleLike,
    phi: ScalarField,
    alpha: float,
    delta: float,
    epsilon: float,
    time_grid: Sequence[float],
    n_samples: int,
    rng_seed: int,
    n_points: int = 8,
) -> CheckReport:
    """Domination of the multi-d estimate by the shifted 1-D profile.

    For each time, sample points around the tilted surface's zero set
    and compare the multi-d estimate under (a + delta, b) data with the
    1-D step-data profile evaluated at d(t, x) + PROPAGATION_K2 eps |log eps|.
    The points of one time are the columns of one forest
    (`bundle_estimates`). The allowance PROPAGATION_C_ALLOW *
    eps^PROPAGATION_K_POWER absorbs the finite-eps comparison
    error; the statistic is the worst excess beyond the estimate's 4 sigma
    and the profile's error budget. A bundle without a voting kernel has
    no 1-D profile and is rejected at once.

    The profile is the vote probability of the 1-D comparison process
    (branching Brownian motion, children born at the parent's position)
    under (a, b) step data at 0. It solves u_t = u_zz / 2 + eps^-2 (g(u) - u)
    exactly (McKean), g the kernel's, so it comes from one reaction-diffusion
    solve through the time grid on nodes of spacing eps / 40 that reach
    6 sqrt(max t) past every compared z. The compared value is that of an
    (h/2, dt/2) solve, and its difference to the (h, dt) solve is the
    profile's error budget, Richardson's first-order estimate.
    """
    b_eps = _bundle_at(bundle, epsilon)
    _require_kernel(b_eps.kernel)
    time_grid = [float(t) for t in time_grid]
    if not time_grid or not all(math.isfinite(t) and t >= 0 for t in time_grid):
        raise ArgumentError("time_grid must hold at least one finite time >= 0")
    scale = epsilon * abs(math.log(epsilon))
    with timed_report() as box:
        p = plus_phase_profile(phi, delta, b_eps.a, b_eps.b)
        surface = TiltedSurface(phi, alpha)
        times, dists, multi = [], [], []
        for j, t in enumerate(time_grid):
            dist = signed_distance(surface.at(t))
            # points spread in distance around the interface
            band = np.abs(dist.values) <= 4.0 * PROPAGATION_K2 * scale
            if not band.any():
                band = np.abs(dist.values) <= np.quantile(np.abs(dist.values), 0.2)
            points = _select_mask_points(phi, band, dist.values, n_points)
            multi += bundle_estimates(b_eps, points, t, [p] * len(points), n_samples, rng_seed + 4013 * (j + 1))
            times += [t] * len(points)
            dists += dist.interp(np.array(points)).tolist()
        times = np.array(times)
        z = np.array(dists) + PROPAGATION_K2 * scale
        reach = 6.0 * math.sqrt(max(time_grid))
        step_data = _step_data_field(b_eps.a, b_eps.b, z.min() - reach, z.max() + reach, epsilon / 40.0)
        coarse, one_d = _reaction_diffusion_at(epsilon, b_eps.g, step_data, times, z[:, None])
        pde_budget = np.abs(coarse - one_d)
        worst = max(est.value - u - 4.0 * est.stderr - gap for est, u, gap in zip(multi, one_d, pde_budget))
        allowance = PROPAGATION_C_ALLOW * epsilon**PROPAGATION_K_POWER
    return CheckReport(
        name="propagation_vs_1d",
        inputs={
            "model": b_eps.spec.label,
            "epsilon": epsilon,
            "alpha": alpha,
            "delta": delta,
            "time_grid": time_grid,
            "K2": PROPAGATION_K2,
            "C_allow": PROPAGATION_C_ALLOW,
            "k_power": PROPAGATION_K_POWER,
            "n_samples": n_samples,
        },
        statistic=float(worst),
        threshold=float(allowance),
        passed=bool(worst <= allowance),
        budget={
            "allowance": allowance,
            "n_comparisons": len(multi),
            "pde_half_step": float(pde_budget.max()),
        },
        seed=rng_seed,
        runtime=box["runtime"],
        reference="multi-d vote probability dominated by shifted 1-D profile",
    )


# ----- distance-process drift -----


def check_ito_coupling_drift(
    phi: ScalarField,
    alpha: float,
    t: float,
    s: float,
    band_r0: float,
    n_paths: int,
    rng_seed: int,
    x=None,
    budget: Optional[float] = None,
) -> CheckReport:
    """Brownian paths see the distance process as a supermartingale with
    drift at most -alpha / (4 L).

    Runs Euler paths of ITO_STEPS steps from x, evaluates the signed
    distance to the tilted surface along them (frozen at the first exit
    from the band), and tests
    E[d at s^Lambda] <= d(t,x) - alpha/(4L) E[s^Lambda] up to
    4 sigma plus a discretization budget. With alpha = 0 and planar phi
    the process is an exact martingale.

    L is the sup of |D psi| over the band of every tau-slice. Slice j is
    built when path step j reads it and dropped after the step; a slice
    equal to the one before keeps its distances. Distances are evaluated
    lazily (`LazySignedDistance`), and band membership only at the nodes
    whose |D psi| exceeds the running L, the only nodes that can raise
    it.
    """
    if not (math.isfinite(t) and 0 < s <= t):
        raise ArgumentError("need 0 < s <= t, t finite")
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 2:
        raise ArgumentError("need an integer n_paths >= 2")
    if not (math.isfinite(band_r0) and band_r0 > 0):
        raise ArgumentError("band_r0 must be finite and positive")
    if x is None:
        raise ArgumentError("starting point x is required")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = phi.dim
    if x.shape != (dim,) or not np.isfinite(x).all():
        raise ArgumentError("x must be finite and match the field dimension")
    if budget is None:
        budget = phi.spacing
    if not (math.isfinite(budget) and budget >= 0):
        raise ArgumentError("budget must be finite and nonnegative")
    rng = derive_rng(rng_seed, 0x170)
    with timed_report() as box:
        surface = TiltedSurface(phi, alpha)
        taus = t - np.linspace(0.0, s, ITO_STEPS + 1)  # backward times along the path
        coords = phi.coordinates()
        dt_step = s / ITO_STEPS
        pos = np.tile(x, (n_paths, 1))  # the live paths' positions
        alive = np.arange(n_paths)
        time_in = np.zeros(n_paths)
        dist = None
        L = 0.0  # sup |D psi| over the band, all slices
        for j, tau in enumerate(taus):
            psi = surface.at(tau)
            if dist is None or not np.array_equal(psi.values, dist.field.values):
                dist = LazySignedDistance(psi, coords)
                grad = np.sqrt(sum(d * d for d in _gradient(_padded(psi.values), phi.spacing))).ravel()
                rising = np.flatnonzero(grad > L)
                in_band = rising[dist.band(band_r0, rising)]
                if in_band.size:
                    L = max(L, float(grad[in_band].max()))
            if j == 0:
                d0 = float(dist.interp(x[None, :])[0])
                if abs(d0) >= band_r0:
                    raise ArgumentError(f"x starts outside the band (|d|={abs(d0):.3g} >= {band_r0})")
                d_final = np.full(n_paths, d0)
            elif alive.size:
                pos += math.sqrt(dt_step) * rng.standard_normal((alive.size, dim))
                d_now = dist.interp(pos)
                d_final[alive] = d_now
                time_in[alive] = j * dt_step
                stay = np.flatnonzero((np.abs(d_now) < band_r0) & (tau > 0))
                alive = alive.take(stay)
                pos = pos.take(stay, axis=0)
        if L <= 0:
            raise ArgumentError("gradient bound L vanished on the band")
        mean_d = float(np.mean(d_final))
        se_d = float(np.std(d_final, ddof=1) / math.sqrt(n_paths))
        mean_stop = float(np.mean(time_in))
        bound = d0 - (alpha / (4.0 * L)) * mean_stop
        statistic = mean_d - bound
        threshold = 4.0 * se_d + budget
    return CheckReport(
        name="ito_coupling_drift",
        inputs={
            "alpha": alpha,
            "t": t,
            "s": s,
            "band_r0": band_r0,
            "n_paths": n_paths,
            "n_steps": ITO_STEPS,
            "x": x.tolist(),
        },
        statistic=float(statistic),
        threshold=float(threshold),
        passed=bool(statistic <= threshold),
        budget={
            "mc_4sigma": 4 * se_d,
            "discretization": budget,
            "L": L,
            "mean_stop_time": mean_stop,
            "d0": d0,
            "mean_d_final": mean_d,
        },
        seed=rng_seed,
        runtime=box["runtime"],
        reference="distance along Brownian paths drifts down at rate alpha/(4L)",
    )


# ----- lineage diffusivity -----


def check_diffusivity(
    spec: BranchingSpec,
    s_list: Sequence[float],
    n_samples: int,
    rng_seed: int,
    target_slope: float = 1.0,
    slope_rtol: float = 0.05,
    check_gaussianity: bool = True,
) -> CheckReport:
    """Single-lineage displacement variance grows linearly at the target
    slope, with Gaussian fourth moments; dispersal respects its declared
    support bound exactly."""
    rng = derive_rng(rng_seed, 0xD1F)
    s_list = [float(s) for s in s_list]
    with timed_report() as box:
        variances = []
        kurt = math.nan
        for s in s_list:
            starts = np.zeros((n_samples, spec.dim))
            ends = spec.motion(starts, np.full(n_samples, s), rng)
            var = float(np.mean(ends**2))  # per-coordinate variance, pooled
            variances.append(var)
            if s == max(s_list):
                m2 = np.mean(ends**2, axis=0)
                m4 = np.mean(ends**4, axis=0)
                kurt = float(np.mean(m4 / np.maximum(m2**2, 1e-300)))
        s_arr = np.array(s_list)
        v_arr = np.array(variances)
        slope = float(np.sum(s_arr * v_arr) / np.sum(s_arr**2))
        slope_dev = abs(slope / target_slope - 1.0) / slope_rtol
        stats = {"slope": slope, "kurtosis": kurt}
        devs = [slope_dev]
        if check_gaussianity:
            devs.append(abs(kurt / 3.0 - 1.0) / KURTOSIS_RTOL)
        support_ok = True
        if spec.dispersal_support_bound is not None:
            parents = np.zeros((min(n_samples, 2000), spec.dim))
            off = spec.dispersal(parents, rng)
            max_disp = float(np.max(np.abs(off - parents[:, None, :])))
            stats["max_dispersal"] = max_disp
            support_ok = max_disp <= spec.dispersal_support_bound + 1e-12
        statistic = max(devs) if support_ok else math.inf
    return CheckReport(
        name="diffusivity",
        inputs={
            "model": spec.label,
            "s_list": s_list,
            "n_samples": n_samples,
            "target_slope": target_slope,
        },
        statistic=float(statistic),
        threshold=1.0,
        passed=bool(statistic <= 1.0),
        budget=stats,
        seed=rng_seed,
        runtime=box["runtime"],
        reference="lineages are diffusive; offspring dispersal is finite-range",
    )


# ----- duality with the level-set flow -----


def check_mcf_duality(
    bundle: BundleLike,
    p: ScalarField,
    T_list: Sequence[float],
    epsilon_list: Sequence[float],
    sample_points: Sequence,
    n_samples: int,
    rng_seed: int,
    margin: float = 0.1,
) -> CheckReport:
    """Phases predicted by the level-set flow attract the dual estimates.

    Evolves the signed distance to the interface defined by p, then at
    sample points clearly inside a phase checks that the estimate under
    the voting function p approaches the corresponding equilibrium as
    epsilon decreases; the statistic is the worst final deviation. Per
    (T, epsilon) the points that clear the margin are the columns of one
    forest (`bundle_estimates`), seeded as its first point.
    """
    eps_list = sorted(set(float(e) for e in epsilon_list), reverse=True)
    b0 = _bundle_at(bundle, eps_list[0])
    mu = b0.mu
    interface = ScalarField(p.dim, p.origin.copy(), p.spacing, p.values - mu, 0.0)
    below = (p.values < mu).any()
    above = (p.values > mu).any()
    if not (below and above):
        raise ArgumentError("p does not define an interface (needs values on both sides of mu)")
    with timed_report() as box:
        u0 = signed_distance(interface)
        evolved: dict[float, ScalarField] = {}
        current, t_now = u0, 0.0
        for T in sorted(set(float(T) for T in T_list)):
            current = evolve_mcf_levelset(current, T - t_now)
            t_now = T
            evolved[T] = current
        leaf = p.as_leaf_function()
        xs = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x in sample_points])
        worst = -math.inf
        details = []
        for T in sorted(evolved):
            u = evolved[T].interp(xs)
            kept = np.flatnonzero(np.abs(u) > margin)
            if not kept.size:
                continue
            devs = np.empty((kept.size, len(eps_list)))
            for k, eps in enumerate(eps_list):
                b_eps = _bundle_at(bundle, eps)
                seed = rng_seed + 89 * (k + 1) + 7 * int(kept[0])
                ests = bundle_estimates(b_eps, xs[kept], T, [leaf] * kept.size, n_samples, seed)
                devs[:, k] = [abs(est.value - (b_eps.b if u[i] > 0 else b_eps.a)) for i, est in zip(kept, ests)]
            for i, dev in zip(kept, devs.tolist()):
                details.append({"T": T, "x": xs[i].tolist(), "u": float(u[i]), "devs": dev})
                worst = max(worst, dev[-1])
        if worst == -math.inf:
            raise ArgumentError("no sample points cleared the phase margin")
    return CheckReport(
        name="mcf_duality",
        inputs={
            "T_list": [float(T) for T in T_list],
            "epsilon_list": eps_list,
            "margin": margin,
            "n_samples": n_samples,
        },
        statistic=float(worst),
        threshold=float(MCF_THRESHOLD),
        passed=bool(worst <= MCF_THRESHOLD),
        budget={"comparisons": details},
        seed=rng_seed,
        runtime=box["runtime"],
        reference="annealed limit follows generalized curvature flow",
    )


def _refined(field: ScalarField) -> ScalarField:
    """The field on half its spacing, each node's value repeated on the
    2**dim nodes at +-spacing/4 around it. Neumann walls sit half a spacing
    outside the wall nodes, so the domain and every jump in the data stay
    where they were."""
    values = field.values
    for axis in range(field.dim):
        values = np.repeat(values, 2, axis=axis)
    return ScalarField(field.dim, field.origin - field.spacing / 4, field.spacing / 2, values, field.time_stamp)


def _reaction_diffusion_at(
    epsilon: float,
    g,
    p0: ScalarField,
    times: np.ndarray,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """u(times[i], points[i]) of du/dt = Lap u / 2 + gamma eps^-2 (g(u) - u),
    gamma = BRANCH_GAMMA, from p0 at time 0, from one solve through the sorted times at the
    default step, and again from one (h/2, dt/2) solve of `_refined(p0)`.
    The difference of the two estimates the discretisation error."""
    runs = []
    for data, safety in ((p0, DEFAULT_SAFETY), (_refined(p0), DEFAULT_SAFETY / 2)):
        values = np.empty(len(times))
        current, t_now = data, 0.0
        for T in sorted(set(times.tolist())):
            current = solve_reaction_diffusion(epsilon, g, BRANCH_GAMMA, current, T - t_now, safety=safety)
            t_now = T
            at = times == T
            values[at] = current.interp(points[at])
        runs.append(values)
    return runs[0], runs[1]


def check_allen_cahn_duality(
    bundle: ModelBundle,
    p0: ScalarField,
    points: Sequence[tuple[float, Sequence[float]]],
    n_samples: int,
    rng_seed: int,
    pde_budget: float = 0.02,
) -> CheckReport:
    """Monte Carlo dual versus the g-derived reaction-diffusion solution.

    Solves du/dt = Lap u / 2 + gamma eps^-2 (g(u) - u), gamma =
    BRANCH_GAMMA, from p0 and
    compares, at the given (t, x) points, with the tree-exact Monte
    Carlo estimate under the same (piecewise-constant) voting function.
    The points of one t are the columns of one forest
    (`bundle_estimates`), seeded as the first of them. The statistic is
    the worst absolute difference beyond 4 sigma. The budget also
    reports the largest difference to an (h/2, dt/2) solve, which enters
    no threshold.
    """
    eps = bundle.spec.epsilon
    with timed_report() as box:
        times = np.array([float(t) for t, _ in points])
        xs = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for _, x in points])
        pde_vals, half_step = _reaction_diffusion_at(eps, bundle.g, p0, times, xs)
        leaf = p0.as_leaf_function()
        ests = [None] * len(times)
        for t in dict.fromkeys(times.tolist()):  # the distinct times, in order of first appearance
            group = np.flatnonzero(times == t)
            found = bundle_estimates(
                bundle, xs[group], t, [leaf] * group.size, n_samples, rng_seed + 37 * (int(group[0]) + 1)
            )
            for i, est in zip(group, found):
                ests[i] = est
        worst = -math.inf
        details = []
        for t, x_arr, pde_val, est in zip(times, xs, pde_vals, ests):
            gap = abs(est.value - pde_val) - 4.0 * est.stderr
            details.append({"t": float(t), "x": x_arr.tolist(), "mc": est.value, "pde": float(pde_val)})
            worst = max(worst, gap)
    return CheckReport(
        name="allen_cahn_duality",
        inputs={
            "model": bundle.spec.label,
            "epsilon": eps,
            "points": [[float(t), list(map(float, np.atleast_1d(x)))] for t, x in points],
            "n_samples": n_samples,
        },
        statistic=float(worst),
        threshold=float(pde_budget),
        passed=bool(worst <= pde_budget),
        budget={
            "comparisons": details,
            "pde_budget": pde_budget,
            "pde_half_step": float(np.max(np.abs(pde_vals - half_step))),
        },
        seed=rng_seed,
        runtime=box["runtime"],
        reference="dual vote probability solves the bistable reaction-diffusion equation",
    )
