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
from ..dualtree.estimate import VoteEstimate, estimate_vote_probability
from ..dualtree.tree import BranchingSpec
from ..models import ModelBundle
from ..onedim import _require_kernel, bbm1d_vote_prob
from ..pde.curvature import _first_derivs, _pad_neumann, evolve_mcf_levelset
from ..pde.distance import LazySignedDistance, signed_distance
from ..pde.field import ScalarField
from ..pde.levelsets import curvature_envelope_fields, psi_alpha_sets
from ..pde.reaction import solve_reaction_diffusion
from ..rng import derive_rng
from .report import CheckReport, timed_report

__all__ = [
    "bundle_estimate",
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
    max_vertices: int = 10_000_000,
) -> VoteEstimate:
    """estimate_vote_probability specialized to a model bundle."""
    return estimate_vote_probability(
        bundle.spec,
        bundle.kernel,
        x,
        t,
        p,
        n_samples,
        rng_seed,
        max_vertices=max_vertices,
        combine=bundle.combine,
    )


def plus_phase_profile(
    phi: Callable[[np.ndarray], np.ndarray] | ScalarField,
    delta: float,
    a: float,
    b: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """(a + delta) where phi <= 0, b where phi > 0."""
    phi_fn = phi.interp if isinstance(phi, ScalarField) else phi

    def p(points: np.ndarray) -> np.ndarray:
        vals = np.asarray(phi_fn(np.atleast_2d(points)))
        return np.where(vals <= 0.0, a + delta, b)

    return p


def minus_phase_profile(phi, delta: float, a: float, b: float):
    """(b - delta) where phi >= 0, a where phi < 0."""
    phi_fn = phi.interp if isinstance(phi, ScalarField) else phi

    def p(points: np.ndarray) -> np.ndarray:
        vals = np.asarray(phi_fn(np.atleast_2d(points)))
        return np.where(vals >= 0.0, b - delta, a)

    return p


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
    the outer stage feeds its interpolation back in as the voting
    function for a horizon-h run. Currently supports 1-D spatial grids
    (the interpolation budget is grid spacing times the fitted Lipschitz
    constant of the inner profile).
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
        inner: list[VoteEstimate] = []
        for i, z in enumerate(spatial_grid):
            inner.append(bundle_estimate(bundle, [float(z)], t, p, n_inner, rng_seed + 7919 * (i + 1)))
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

    Both estimates at a point share the same genealogy stream (the
    voting function does not influence tree sampling), so the exact
    recursion makes the comparison pathwise and the margin is exact.
    """
    with timed_report() as box:
        worst = -math.inf
        values = []
        for i, x in enumerate(points):
            seed = rng_seed + 104729 * (i + 1)
            lo = bundle_estimate(bundle, x, t, p_low, n_samples, seed)
            hi = bundle_estimate(bundle, x, t, p_high, n_samples, seed)
            values.append((lo.value, hi.value))
            worst = max(worst, lo.value - hi.value)
    return CheckReport(
        name="monotonicity",
        inputs={
            "model": bundle.spec.label,
            "epsilon": bundle.spec.epsilon,
            "t": t,
            "n_points": len(list(points)),
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
    points: Sequence,
    t: float,
    n_samples: int,
    rng_seed: int,
) -> CheckReport:
    """Constant equilibrium inputs reproduce themselves exactly.

    Back-propagation of a constant through any genealogy is the n-fold
    composition of the bundle's g at a fixed point, so the estimate has
    zero variance; the threshold is floating-point tight. Every vertex
    combines through the bundle's g, which for the nonlinear voter is the
    frozen effective g rather than its coalescence-sampling combiner (its
    equilibria are fixed points of that g by construction).
    """
    g_combo = lambda child, dec, rng: bundle.g.combine_params(child)
    with timed_report() as box:
        worst = 0.0
        for j, const in enumerate((bundle.a, bundle.b)):
            leaf = lambda P, c=const: np.full(P.shape[0], c)
            for i, x in enumerate(points):
                est = estimate_vote_probability(
                    bundle.spec,
                    bundle.kernel,
                    x,
                    t,
                    leaf,
                    n_samples,
                    rng_seed + 31 * (i + 1) + j,
                    combine=g_combo,
                )
                worst = max(worst, abs(est.value - const))
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
    n_points: int = 6,
    variant: str = "plus",
    threshold: float = 0.08,
    boundary_layer: float = 1.5,
) -> CheckReport:
    """At short-time sub-level points, shrinking epsilon drives the
    estimate to the equilibrium the tilted surface predicts.

    variant="plus": points of the fast sub-level set under the profile
    (a + delta, b) must approach a; variant="minus" is the mirrored
    check approaching b. The statistic is the final-epsilon worst
    deviation from the target; non-monotone trends beyond the noise are
    recorded in the notes.
    """
    eps_list = sorted(set(float(e) for e in epsilon_list), reverse=True)
    if len(eps_list) < 2:
        raise ArgumentError("need at least two epsilon values")
    _, f_upper, grad = curvature_envelope_fields(phi)
    sets = psi_alpha_sets(phi, alpha, h)
    near_zero = np.abs(phi.values) <= 2 * phi.spacing * np.maximum(grad, 1e-12)
    if np.any(grad[near_zero] <= 1e-9):
        raise ArgumentError("phi has a vanishing gradient on its zero set")
    # points within the finite-epsilon boundary layer of the largest
    # epsilon have not collapsed yet; the asymptotic statement is locally
    # uniform on the interior, so sample at depth
    layer = boundary_layer * eps_list[0] * abs(math.log(eps_list[0]))
    with timed_report() as box:
        if variant == "plus":
            depth = signed_distance(sets.psi).values
            mask = sets.l_minus & (depth <= -layer)
            order_by = depth  # most negative first
        elif variant == "minus":
            psi_plus = ScalarField(
                phi.dim, phi.origin.copy(), phi.spacing, phi.values - h * (f_upper + alpha), h
            )
            depth = signed_distance(psi_plus).values
            mask = sets.l_plus & (depth >= layer)
            order_by = -depth  # most positive first
        else:
            raise ArgumentError("variant must be 'plus' or 'minus'")
        points = _select_mask_points(phi, mask, order_by, n_points)
        trend: list[float] = []
        stderrs: list[float] = []
        for k, eps in enumerate(eps_list):
            b_eps = _bundle_at(bundle, eps)
            if variant == "plus":
                p = plus_phase_profile(phi, delta, b_eps.a, b_eps.b)
                target = b_eps.a
            else:
                p = minus_phase_profile(phi, delta, b_eps.a, b_eps.b)
                target = b_eps.b
            ests = [
                bundle_estimate(b_eps, x, h, p, n_samples, rng_seed + 613 * (k + 1) + i)
                for i, x in enumerate(points)
            ]
            devs = [abs(e.value - target) for e in ests]
            trend.append(max(devs))
            stderrs.append(max(e.stderr for e in ests))
        notes = []
        noise = 4.0 * (np.array(stderrs[:-1]) + np.array(stderrs[1:]))
        rises = np.diff(trend) > noise
        if rises.any():
            notes.append(f"trend not monotone at steps {np.flatnonzero(rises).tolist()}")
        statistic = trend[-1]
        full_threshold = threshold + 4.0 * stderrs[-1]
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
    ("not yet formed") rather than a plain failure.
    """
    b_eps = _bundle_at(bundle, epsilon)
    scale = epsilon * abs(math.log(epsilon))
    t_form = sigma1 * epsilon**2 * abs(math.log(epsilon))
    t = t_override if t_override is not None else t_form
    with timed_report() as box:
        sets = psi_alpha_sets(phi, alpha, t)
        dist = signed_distance(sets.psi)
        deep = dist.values <= -K * scale
        points = _select_mask_points(phi, deep, dist.values, n_points)
        p = plus_phase_profile(phi, delta, b_eps.a, b_eps.b)
        ests = [
            bundle_estimate(b_eps, x, t, p, n_samples, rng_seed + 211 * (i + 1))
            for i, x in enumerate(points)
        ]
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


def check_propagation_vs_1d(
    bundle: BundleLike,
    phi: ScalarField,
    alpha: float,
    delta: float,
    epsilon: float,
    time_grid: Sequence[float],
    n_samples: int,
    rng_seed: int,
    K2: float = 2.0,
    C_allow: float = 1.0,
    k_power: float = 2.0,
    n_points: int = 8,
) -> CheckReport:
    """Domination of the multi-d estimate by the shifted 1-D profile.

    For each time, sample points around the tilted surface's zero set
    and compare the multi-d estimate under (a + delta, b) data with the
    1-D step-data profile evaluated at d(t, x) + K2 eps |log eps|. The
    allowance C_allow * eps^k_power absorbs the finite-eps comparison
    error; the statistic is the worst excess beyond 4 sigma. A bundle
    without a voting kernel has no 1-D profile and is rejected at once.
    """
    b_eps = _bundle_at(bundle, epsilon)
    _require_kernel(b_eps.kernel)
    scale = epsilon * abs(math.log(epsilon))
    with timed_report() as box:
        worst = -math.inf
        details = []
        for j, t in enumerate(time_grid):
            sets = psi_alpha_sets(phi, alpha, float(t))
            dist = signed_distance(sets.psi)
            # points spread in distance around the interface
            band = np.abs(dist.values) <= 4.0 * K2 * scale
            if not band.any():
                band = np.abs(dist.values) <= np.quantile(np.abs(dist.values), 0.2)
            points = _select_mask_points(phi, band, dist.values, n_points)
            p = plus_phase_profile(phi, delta, b_eps.a, b_eps.b)
            for i, x in enumerate(points):
                seed = rng_seed + 4013 * (j + 1) + 17 * i
                multi = bundle_estimate(b_eps, x, float(t), p, n_samples, seed)
                d_val = float(dist.interp(np.atleast_2d(x))[0])
                z = d_val + K2 * scale
                one_d = bbm1d_vote_prob(
                    z, float(t), epsilon, b_eps.kernel, n_samples, seed + 1,
                    a=b_eps.a, b=b_eps.b,
                )
                excess = multi.value - one_d.value - 4.0 * (multi.stderr + one_d.stderr)
                details.append(
                    {"t": float(t), "d": d_val, "multi": multi.value, "one_d": one_d.value}
                )
                worst = max(worst, excess)
        allowance = C_allow * epsilon**k_power
    return CheckReport(
        name="propagation_vs_1d",
        inputs={
            "model": b_eps.spec.label,
            "epsilon": epsilon,
            "alpha": alpha,
            "delta": delta,
            "time_grid": [float(t) for t in time_grid],
            "K2": K2,
            "C_allow": C_allow,
            "k_power": k_power,
            "n_samples": n_samples,
        },
        statistic=float(worst),
        threshold=float(allowance),
        passed=bool(worst <= allowance),
        budget={"allowance": allowance, "n_comparisons": len(details)},
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
    n_steps: int = 64,
    budget: Optional[float] = None,
) -> CheckReport:
    """Brownian paths see the distance process as a supermartingale with
    drift at most -alpha / (4 L).

    Runs Euler paths from x, evaluates the signed distance to the tilted
    surface along them (frozen at the first exit from the band), and
    tests E[d at s^Lambda] <= d(t,x) - alpha/(4L) E[s^Lambda] up to
    4 sigma plus a discretization budget. With alpha = 0 and planar phi
    the process is an exact martingale.
    """
    if s <= 0 or s > t:
        raise ArgumentError("need 0 < s <= t")
    if n_paths < 2:
        raise ArgumentError("need n_paths >= 2 for a standard error")
    if n_steps < 1:
        raise ArgumentError("need n_steps >= 1")
    if not (math.isfinite(band_r0) and band_r0 > 0):
        raise ArgumentError("band_r0 must be finite and positive")
    if x is None:
        raise ArgumentError("starting point x is required")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = phi.dim
    if x.shape != (dim,):
        raise ArgumentError("x must match the field dimension")
    if budget is None:
        budget = phi.spacing
    rng = derive_rng(rng_seed, 0x170)
    with timed_report() as box:
        f_lower, _, _ = curvature_envelope_fields(phi)
        taus = t - np.linspace(0.0, s, n_steps + 1)  # backward times along the path
        coords = phi.coordinates()
        # distances are evaluated only at the band shell and at the
        # nodes the paths interpolate
        dists = []
        L = 0.0  # sup |D psi| over the band, all slices
        for tau in taus:
            psi = ScalarField(dim, phi.origin.copy(), phi.spacing, phi.values - tau * (f_lower - alpha), tau)
            dist = LazySignedDistance(psi, coords)
            dists.append(dist)
            band = dist.band(band_r0)
            if band.any():
                d1 = _first_derivs(_pad_neumann(psi.values), phi.spacing, dim)
                grad = np.sqrt(sum(g * g for g in d1)).ravel()
                L = max(L, float(grad[band].max()))

        d0 = float(dists[0].interp(x[None, :])[0])
        if abs(d0) >= band_r0:
            raise ArgumentError(f"x starts outside the band (|d|={abs(d0):.3g} >= {band_r0})")
        if L <= 0:
            raise ArgumentError("gradient bound L vanished on the band")

        dt_step = s / n_steps
        pos = np.tile(x, (n_paths, 1))
        alive = np.ones(n_paths, dtype=bool)
        d_final = np.full(n_paths, d0)
        time_in = np.zeros(n_paths)
        for j in range(1, n_steps + 1):
            if not alive.any():
                break
            pos[alive] += math.sqrt(dt_step) * rng.standard_normal((int(alive.sum()), dim))
            d_now = dists[j].interp(pos[alive])
            d_final[alive] = d_now
            time_in[alive] = j * dt_step
            exited = np.abs(d_now) >= band_r0
            if taus[j] <= 0:
                exited = np.ones_like(exited, dtype=bool)
            alive_idx = np.flatnonzero(alive)
            alive[alive_idx[exited]] = False
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
            "n_steps": n_steps,
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
    kurtosis_rtol: float = 0.10,
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
            devs.append(abs(kurt / 3.0 - 1.0) / kurtosis_rtol)
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
    threshold: float = 0.1,
) -> CheckReport:
    """Phases predicted by the level-set flow attract the dual estimates.

    Evolves the signed distance to the interface defined by p, then at
    sample points clearly inside a phase checks that the estimate under
    the voting function p approaches the corresponding equilibrium as
    epsilon decreases; the statistic is the worst final deviation.
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
        worst = -math.inf
        details = []
        for T in sorted(evolved):
            u_T = evolved[T]
            for i, x in enumerate(sample_points):
                x_arr = np.atleast_1d(np.asarray(x, dtype=float))
                u_val = float(u_T.interp(x_arr[None, :])[0])
                if abs(u_val) <= margin:
                    continue
                devs = []
                for k, eps in enumerate(eps_list):
                    b_eps = _bundle_at(bundle, eps)
                    target = b_eps.b if u_val > 0 else b_eps.a
                    est = bundle_estimate(
                        b_eps, x_arr, T, leaf, n_samples, rng_seed + 89 * (k + 1) + 7 * i
                    )
                    devs.append(abs(est.value - target))
                details.append({"T": T, "x": x_arr.tolist(), "u": u_val, "devs": devs})
                worst = max(worst, devs[-1])
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
        threshold=float(threshold),
        passed=bool(worst <= threshold),
        budget={"comparisons": details},
        seed=rng_seed,
        runtime=box["runtime"],
        reference="annealed limit follows generalized curvature flow",
    )


def check_allen_cahn_duality(
    bundle: ModelBundle,
    p0: ScalarField,
    points: Sequence[tuple[float, Sequence[float]]],
    n_samples: int,
    rng_seed: int,
    pde_budget: float = 0.02,
    branch_gamma: float = 1.0,
) -> CheckReport:
    """Monte Carlo dual versus the g-derived reaction-diffusion solution.

    Solves du/dt = Lap u / 2 + gamma eps^-2 (g(u) - u) from p0 and
    compares, at the given (t, x) points, with the tree-exact Monte
    Carlo estimate under the same (piecewise-constant) voting function.
    The statistic is the worst absolute difference beyond 4 sigma.
    """
    eps = bundle.spec.epsilon
    with timed_report() as box:
        times = sorted(set(float(t) for t, _ in points))
        fields: dict[float, ScalarField] = {}
        current, t_now = p0, 0.0
        for T in times:
            current = solve_reaction_diffusion(eps, bundle.g, branch_gamma, current, T - t_now)
            t_now = T
            fields[T] = current
        leaf = p0.as_leaf_function()
        worst = -math.inf
        details = []
        for i, (t, x) in enumerate(points):
            x_arr = np.atleast_1d(np.asarray(x, dtype=float))
            pde_val = float(fields[float(t)].interp(x_arr[None, :])[0])
            est = bundle_estimate(bundle, x_arr, float(t), leaf, n_samples, rng_seed + 37 * (i + 1))
            gap = abs(est.value - pde_val) - 4.0 * est.stderr
            details.append({"t": float(t), "x": x_arr.tolist(), "mc": est.value, "pde": pde_val})
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
        budget={"comparisons": details, "pde_budget": pde_budget},
        seed=rng_seed,
        runtime=box["runtime"],
        reference="dual vote probability solves the bistable reaction-diffusion equation",
    )
