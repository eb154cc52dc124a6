"""Acceptance suite: the twelve exit criteria, one test each.

Every test prints a single PASS/FAIL line (visible with -v/-s or in the
captured output for failures) and asserts both the criterion's
tolerance and its runtime cap. Monte Carlo seeds are frozen, so every
statistic here is reproducible bit for bit.
"""

import math
import time

import numpy as np

from dualflow.dualtree import (
    root_vote_prob_exact,
    sample_root_votes,
    simulate_tree,
)
from dualflow.gfunction import (
    ExchangeableKernel,
    find_fixed_points,
    gbar,
    iterate_g,
    kernel_g,
    majority_kernel,
    nlv_polynomial_g,
)
from dualflow.models import (
    SR_THETA_LEVELS,
    lotka_volterra_dual,
    nonlinear_voter_dual,
    sexual_reproduction_dual,
    slfv_dual,
    ternary_bbm,
    voter_forward_oracle,
)
from dualflow.onedim import interface_profile, step_profile
from dualflow.pde import (
    evolve_mcf_levelset,
    field_from_function,
    zero_crossing_points,
)
from dualflow.rng import derive_rng
from dualflow.verify import (
    check_allen_cahn_duality,
    check_equilibria,
    check_interface_formation,
    check_ito_coupling_drift,
    check_propagation_vs_1d,
    check_semigroup,
)

from conftest import NLV_RATES


def report(num: int, title: str, ok: bool, detail: str, elapsed: float, cap: float):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {title}: {detail} ({elapsed:.1f}s / cap {cap:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < cap, f"criterion {num} exceeded its runtime cap: {line}"


def test_criterion_01_gfunction_exactness():
    start = time.perf_counter()
    maj = kernel_g(majority_kernel(3))
    fps_maj = find_fixed_points(maj, tol=1e-13)
    ok = np.allclose(fps_maj, [0.0, 0.5, 1.0], atol=1e-10)

    sr = kernel_g(ExchangeableKernel(SR_THETA_LEVELS))
    fps_sr = find_fixed_points(sr, tol=1e-13)
    ok &= np.allclose(fps_sr, [0.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-10)

    nlv = nlv_polynomial_g(**NLV_RATES)
    ps = np.linspace(0.0, 1.0, 1000)
    sym = float(np.max(np.abs(nlv(ps) + nlv(1.0 - ps) - 1.0)))
    ok &= sym <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        1,
        "g-function exactness",
        bool(ok),
        f"majority fps {np.round(fps_maj, 12).tolist()}, pair-model fps to 1e-10, "
        f"five-voter symmetry residual {sym:.2e}",
        elapsed,
        cap=1.0,
    )


def test_criterion_02_exact_voting_recursion():
    start = time.perf_counter()
    kernels = [
        majority_kernel(3),
        ExchangeableKernel(SR_THETA_LEVELS),
        ExchangeableKernel([0.0, NLV_RATES["a1"], NLV_RATES["a2"], NLV_RATES["a3"], NLV_RATES["a4"], 1.0]),
    ]
    specs = [ternary_bbm(0.45, 1).spec, sexual_reproduction_dual(0.45, 2).spec, None]
    from dualflow.models import nonlinear_voter_dual as _nlv  # 5-ary spec for the third kernel

    specs[2] = _nlv(0.45, L=2, dim=3, gbar_samples=200, gbar_seed=1, **NLV_RATES).spec

    n_trees, n_mc = 1000, 10000
    failures = 0
    built = 0
    seed = 0
    rng = derive_rng(2024, 5)
    while built < n_trees:
        seed += 1
        pick = built % 3
        kern, spec = kernels[pick], specs[pick]
        tree = simulate_tree(spec, [0.0] * spec.dim, 0.25, rng_seed=seed, max_vertices=100000)
        if len(tree) > 200:
            continue
        built += 1
        shift = rng.uniform(-0.5, 0.5)
        leaf_fn = lambda pos, s=shift: float(np.clip(0.5 + 0.4 * math.tanh(pos[0] - s), 0.0, 1.0))
        exact = root_vote_prob_exact(tree, leaf_fn, kern)
        votes = sample_root_votes(tree, leaf_fn, kern, n_mc, rng_seed=seed + 10_000_000)
        mc = float(np.mean(votes))
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / n_mc)
        if abs(mc - exact) > 4.0 * se:
            failures += 1

    # regular trees: the recursion telescopes to the iterated univariate g
    from test_dualtree import regular_tree

    maj_g = kernel_g(majority_kernel(3))
    reg_ok = True
    for height in (2, 5, 8):
        tree = regular_tree(height)
        for p in (0.15, 0.5, 0.77):
            v = root_vote_prob_exact(tree, lambda pos, p=p: p, maj_g)
            reg_ok &= abs(v - iterate_g(maj_g, p, height)) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = failures <= 2 and reg_ok
    report(
        2,
        "exact voting recursion",
        bool(ok),
        f"{failures}/{n_trees} trees outside 4-sigma at {n_mc} samples; "
        f"regular-tree identity to 1e-12: {reg_ok}",
        elapsed,
        cap=120.0,
    )


def test_criterion_03_equilibria_all_models():
    start = time.perf_counter()
    bundles = [
        ternary_bbm(0.25, 1),
        slfv_dual(1000.0, 0.25, 1.0, [(1.0, 1.0)], 0.3, dim=2),
        lotka_volterra_dual(0.3, L=2, dim=3, p3_samples=800, p3_seed=2),
        nonlinear_voter_dual(0.3, L=3, dim=3, gbar_samples=1200, gbar_seed=3, **NLV_RATES),
        sexual_reproduction_dual(0.3, 2),
    ]
    worst = 0.0
    ok = True
    for b in bundles:
        rep = check_equilibria(b, t=0.04, n_samples=60, rng_seed=17)
        ok &= rep.passed
        worst = max(worst, rep.statistic)
    elapsed = time.perf_counter() - start
    report(3, "equilibria across the five models", bool(ok), f"worst deviation {worst:.2e} (threshold 1e-12)", elapsed, cap=60.0)


def test_criterion_04_semigroup():
    start = time.perf_counter()
    b = ternary_bbm(0.25, 1)
    half = step_profile(0.0, 1.0)
    base = check_semigroup(
        b, [0.0], t=0.02, h=0.02, p=half,
        spatial_grid=np.linspace(-1.5, 1.5, 41), n_outer=20000, n_inner=4000, rng_seed=424242,
    )
    doubled = check_semigroup(
        b, [0.0], t=0.02, h=0.02, p=half,
        spatial_grid=np.linspace(-1.5, 1.5, 81), n_outer=40000, n_inner=8000, rng_seed=424242,
    )
    ok = base.passed and doubled.passed and doubled.statistic <= base.statistic
    elapsed = time.perf_counter() - start
    report(
        4,
        "semigroup two-stage identity",
        bool(ok),
        f"statistic {base.statistic:.4f} -> {doubled.statistic:.4f} under doubled resources "
        f"(thresholds {base.threshold:.3f} -> {doubled.threshold:.3f})",
        elapsed,
        cap=600.0,
    )


def test_criterion_05_shrinking_circle():
    start = time.perf_counter()
    n, half, r0, T = 256, 3.0, 1.0, 0.5
    f = field_from_function(
        lambda P: np.linalg.norm(P, axis=1) - r0,
        origin=[-half, -half], spacing=2 * half / (n - 1), extents=[n, n],
    )
    out = evolve_mcf_levelset(f, T=T, cfl=0.2)
    radii = np.linalg.norm(zero_crossing_points(out), axis=1)
    target = math.sqrt(r0**2 - T)
    rel_err = abs(float(radii.mean()) - target) / target
    elapsed = time.perf_counter() - start
    report(5, "shrinking-circle radius law", rel_err <= 0.02, f"relative radius error {rel_err:.2e} at t = r0^2/2", elapsed, cap=120.0)


def test_criterion_06_allen_cahn_duality():
    start = time.perf_counter()
    b = ternary_bbm(0.25, 1)
    p0 = field_from_function(
        lambda P: (P[:, 0] >= 0).astype(float), origin=[-3.0], spacing=6 / 599, extents=[600]
    )
    points = [(0.05, [0.0]), (0.05, [0.3]), (0.1, [-0.2]), (0.1, [0.5]), (0.15, [0.1])]
    rep = check_allen_cahn_duality(b, p0, points, n_samples=40000, rng_seed=12, pde_budget=0.02)
    elapsed = time.perf_counter() - start
    report(
        6,
        "reaction-diffusion duality",
        rep.passed,
        f"worst gap beyond 4-sigma {rep.statistic:.4f} (budget {rep.threshold})",
        elapsed,
        cap=900.0,
    )


def test_criterion_07_interface_stability_1d():
    start = time.perf_counter()
    kern = majority_kernel(3)
    widths = {}
    plateau_dev = 0.0
    for eps in (0.3, 0.2, 0.15):
        t = 2.0 * eps**2 * abs(math.log(eps))
        prof = interface_profile(t=t, epsilon=eps, kernel=kern, n_samples=1500, rng_seed=41)
        widths[eps] = prof.width_in_scale_units
        v, z, w = prof.values, prof.z_grid, prof.width_estimate
        lo = v[z <= -w]
        hi = v[z >= w]
        plateau_dev = max(plateau_dev, float(lo.max(initial=0.0)), float((1.0 - hi).max(initial=0.0)))
    ok = max(widths.values()) <= 3.0 and plateau_dev <= 0.02
    elapsed = time.perf_counter() - start
    report(
        7,
        "1-D interface stability",
        bool(ok),
        f"widths/(eps log) {dict((k, round(v, 2)) for k, v in widths.items())} (bound 3.0), "
        f"plateau deviation {plateau_dev:.4f} (bound 0.02)",
        elapsed,
        cap=1200.0,
    )


def _circle_phi(n=128, half=3.0):
    return field_from_function(
        lambda P: np.sum(P**2, axis=1) - 1.0,
        origin=[-half, -half], spacing=2 * half / (n - 1), extents=[n, n],
    )


def test_criterion_08_interface_formation():
    start = time.perf_counter()
    rep = check_interface_formation(
        ternary_bbm(0.2, 2), _circle_phi(), delta=0.05, epsilon=0.2,
        n_samples=3000, rng_seed=5, tolerance=0.02,
    )
    elapsed = time.perf_counter() - start
    report(
        8,
        "interface formation",
        rep.passed,
        f"worst excess over a: {rep.statistic:.4f} (threshold {rep.threshold:.4f})",
        elapsed,
        cap=1200.0,
    )


def test_criterion_09_propagation_vs_1d():
    start = time.perf_counter()
    rep = check_propagation_vs_1d(
        ternary_bbm(0.2, 2), _circle_phi(), alpha=1.0, delta=0.05, epsilon=0.2,
        time_grid=[0.08, 0.12, 0.16], n_samples=600, rng_seed=5,
    )
    elapsed = time.perf_counter() - start
    report(
        9,
        "multi-d vs 1-D comparison",
        rep.passed,
        f"worst excess beyond 4-sigma {rep.statistic:.4f} (allowance {rep.threshold:.4f})",
        elapsed,
        cap=1800.0,
    )


def test_criterion_10_ito_coupling_drift():
    start = time.perf_counter()
    plane = field_from_function(
        lambda P: P[:, 0], origin=[-2, -2], spacing=4 / 127, extents=[128, 128]
    )
    planar = check_ito_coupling_drift(
        plane, alpha=0.0, t=0.1, s=0.05, band_r0=0.5, n_paths=20000, rng_seed=2, x=[0.0, 0.0]
    )
    # the planar martingale case must pass on Monte Carlo error alone
    planar_strict = planar.statistic <= planar.budget["mc_4sigma"]
    circle = check_ito_coupling_drift(
        _circle_phi(half=2.0, n=128), alpha=1.0, t=0.05, s=0.03, band_r0=0.25,
        n_paths=20000, rng_seed=2, x=[1.05, 0.0],
    )
    ok = planar_strict and circle.passed
    elapsed = time.perf_counter() - start
    report(
        10,
        "distance-process drift",
        bool(ok),
        f"planar statistic {planar.statistic:.4f} <= 4-sigma {planar.budget['mc_4sigma']:.4f}; "
        f"circular statistic {circle.statistic:.4f} (threshold {circle.threshold:.4f})",
        elapsed,
        cap=300.0,
    )


def test_criterion_11_effective_g_convergence():
    start = time.perf_counter()
    poly = nlv_polynomial_g(**NLV_RATES)
    ps = np.linspace(0.0, 1.0, 201)
    sups = []
    for L in (2, 5, 10, 25):
        geff = gbar(L, 3, math.inf, n_samples=3000, rng_seed=101, **NLV_RATES)
        sups.append(float(np.max(np.abs(geff(ps) - poly(ps)))))
    monotone = all(b < a for a, b in zip(sups, sups[1:]))
    ok = monotone and sups[-1] <= 0.002
    elapsed = time.perf_counter() - start
    report(
        11,
        "effective g converges with box width",
        bool(ok),
        f"sup-norm gaps {[round(s, 5) for s in sups]} over L in (2, 5, 10, 25)",
        elapsed,
        cap=1800.0,
    )


def test_criterion_12_voter_duality_oracle():
    start = time.perf_counter()
    size, dim, t = 32, 3, 0.15
    p0 = lambda c: (c[:, 0] < size // 2).astype(float)
    n_reps = 300
    out = voter_forward_oracle(size, dim, p0, t, n_reps, rng_seed=5)
    rng = derive_rng(7, 2)
    walkers = 200000
    worst_margin = -math.inf
    ok = True
    for x in ((0, 8, 8), (15, 20, 4), (16, 0, 0)):
        plus = rng.poisson(t / 2, size=(walkers, dim))
        minus = rng.poisson(t / 2, size=(walkers, dim))
        ends = (np.array(x) + plus - minus) % size
        dual = float(np.mean(p0(ends)))
        fwd = float(out[x])
        se = math.sqrt(max(fwd * (1 - fwd), 1e-9) / n_reps) + math.sqrt(
            max(dual * (1 - dual), 1e-9) / walkers
        )
        margin = abs(fwd - dual) - 4 * se
        worst_margin = max(worst_margin, margin)
        ok &= margin <= 0
    elapsed = time.perf_counter() - start
    report(
        12,
        "forward voter model vs walk dual",
        bool(ok),
        f"worst |forward - dual| beyond 4-sigma: {worst_margin:.4f}",
        elapsed,
        cap=600.0,
    )
