import math

import numpy as np
import pytest

from dualflow.dualtree import VoteEstimate
from dualflow.gfunction import kernel_g, majority_kernel
from dualflow.onedim import (
    InterfaceProfile,
    _width_estimate,
    bbm1d_vote_prob,
    default_z_grid,
    interface_profile,
    slope_check,
)
from dualflow.pde import solve_reaction_diffusion
from dualflow.verify import checks

EPS = 0.25
KERNEL = majority_kernel(3)


@pytest.fixture(scope="module")
def formed_profile():
    return interface_profile(t=0.15, epsilon=EPS, kernel=KERNEL, n_samples=2500, rng_seed=31)


class TestVoteProb:
    def test_constant_equilibrium_input(self):
        est = bbm1d_vote_prob(
            0.7, 0.1, EPS, KERNEL, 500, 3, voting_fn=lambda P: np.zeros(P.shape[0])
        )
        assert est.value == 0.0

    def test_symmetric_at_origin(self):
        est = bbm1d_vote_prob(0.0, 0.1, EPS, KERNEL, 100000, 5)
        assert est.value == pytest.approx(0.5, abs=4 * est.stderr)

    def test_deep_side_saturates(self):
        scale = EPS * abs(math.log(EPS))
        est = bbm1d_vote_prob(3.0 * scale, 0.1, EPS, KERNEL, 4000, 7)
        assert est.value >= 1.0 - 0.02


class TestProfile:
    def test_t_zero_is_the_step(self):
        prof = interface_profile(t=0.0, epsilon=EPS, kernel=KERNEL, n_samples=50, rng_seed=1)
        vals = prof.values
        z = prof.z_grid
        assert np.all(vals[z < 0] == 0.0)
        assert np.all(vals[z >= 0] == 1.0)
        assert prof.width_estimate <= np.diff(z).max() + 1e-12

    def test_width_uses_the_plateau_comparison(self):
        # 1470 of 1500 trees at 1 read 0.98, and 1 - 0.98 = 0.020000000000000018
        # exceeds the 0.02 tolerance: that point is inside the interface
        z = np.array([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3])
        values = [0.0, 0.0, 0.2, 0.5, 0.8, 1470 / 1500, 1.0]
        ests = [VoteEstimate(v, 0.0, 1500, 0, 0.1, (float(x),)) for x, v in zip(z, values)]
        prof = InterfaceProfile(0.1, EPS, 0.0, 1.0, z, ests)
        w = _width_estimate(prof)
        assert w == pytest.approx(0.3)
        assert np.all(1.0 - prof.values[z >= w] <= 0.02)
        assert np.all(prof.values[z <= -w] <= 0.02)

    def test_monotone_up_to_noise(self, formed_profile):
        v, se = formed_profile.values, formed_profile.stderrs
        for i in range(len(v) - 1):
            assert v[i] <= v[i + 1] + 4 * (se[i] + se[i + 1])

    def test_range_confined(self, formed_profile):
        v, se = formed_profile.values, formed_profile.stderrs
        assert np.all(v >= -4 * se)
        assert np.all(v <= 1 + 4 * se)

    def test_reflection_symmetry(self, formed_profile):
        z, v, se = formed_profile.z_grid, formed_profile.values, formed_profile.stderrs
        for i, j in zip(range(len(z)), range(len(z) - 1, -1, -1)):
            if i > j:
                break
            assert v[i] + v[j] == pytest.approx(1.0, abs=4 * (se[i] + se[j]) + 1e-9)

    def test_width_on_eps_log_scale(self, formed_profile):
        assert formed_profile.width_in_scale_units <= 4.0

    def test_stationarity_of_formed_interface(self):
        p1 = interface_profile(t=0.12, epsilon=EPS, kernel=KERNEL, n_samples=2500, rng_seed=101)
        p2 = interface_profile(t=0.18, epsilon=EPS, kernel=KERNEL, n_samples=2500, rng_seed=202)
        w = max(p1.width_estimate, p2.width_estimate)
        for z, v1, e1, v2, e2 in zip(p1.z_grid, p1.values, p1.stderrs, p2.values, p2.stderrs):
            if abs(z) >= w:
                assert v1 == pytest.approx(v2, abs=4 * (e1 + e2) + 1e-9)

    def test_first_branch_decomposition(self):
        # strong Markov at the first branch: averaging g(profile at the
        # branch position/time) over the branch law reproduces the estimate
        from dualflow.gfunction import kernel_g
        from dualflow.rng import derive_rng

        g = kernel_g(KERNEL)
        t, z = 0.12, 0.1
        rate = EPS**-2
        direct = bbm1d_vote_prob(z, t, EPS, KERNEL, 60000, 11)
        rng = derive_rng(13, 5)
        n = 4000
        taus = rng.exponential(1.0 / rate, size=n)
        kept = taus < t
        vals = np.empty(n)
        # censored paths never branch: they read the step directly
        w_leaf = rng.standard_normal(n) * np.sqrt(t) + z
        vals[~kept] = (w_leaf[~kept] >= 0).astype(float)
        zs = z + rng.standard_normal(n) * np.sqrt(np.minimum(taus, t))
        # profile at the remaining time, interpolated over a z-grid
        groups = {}
        for i in np.flatnonzero(kept):
            groups.setdefault(round(t - taus[i], 2), []).append(i)
        for t_rem, idx in groups.items():
            t_rem = max(t_rem, 1e-4)
            grid = default_z_grid(EPS, n_points=21)
            prof = interface_profile(t=t_rem, epsilon=EPS, kernel=KERNEL, z_grid=grid,
                                     n_samples=1200, rng_seed=int(1000 * t_rem))
            u = np.clip(np.interp(zs[idx], grid, prof.values), 0, 1)
            vals[idx] = g(u)
        recomposed = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(n))
        assert recomposed == pytest.approx(direct.value, abs=4 * (se + direct.stderr) + 0.02)


def fine_grid(eps, span_units=2.0):
    # slope checks require spacing <= eps|log eps|/10
    scale = eps * abs(math.log(eps))
    n = int(2 * span_units * 10) + 1
    return np.linspace(-span_units * scale, span_units * scale, n)


class TestExactProfile:
    """The step-data profile solves u_t = u_zz / 2 + eps^-2 (g(u) - u)
    (McKean); `check_propagation_vs_1d` reads it from that PDE."""

    def test_monte_carlo_profile_matches_pde(self, formed_profile):
        # within 4 sigma plus the half-step budget. A tree's value lies in
        # [0, 1], so its variance is at most u (1 - u); that bound stands in
        # for the sample stderr, which is 0 where every tree agrees
        z, t = formed_profile.z_grid, formed_profile.t
        reach = 6.0 * math.sqrt(t)
        step = checks._step_data_field(0.0, 1.0, z[0] - reach, z[-1] + reach, EPS / 40)
        coarse, u = checks._reaction_diffusion_at(EPS, kernel_g(KERNEL), step, np.full(z.size, t), z[:, None])
        sigma = np.maximum(formed_profile.stderrs, np.sqrt(u * (1.0 - u) / 2500))
        assert np.all(np.abs(formed_profile.values - u) <= 4.0 * sigma + np.abs(coarse - u))

    def test_half_step_term_is_first_order(self):
        # halving h and dt halves the difference between successive solves
        g = kernel_g(KERNEL)
        z = np.linspace(-0.6, 0.9, 31)[:, None]
        data = checks._step_data_field(0.0, 1.0, -3.0, 3.0, 0.2 / 20)
        solves = []
        for k in range(4):
            solves.append(solve_reaction_diffusion(0.2, g, 1.0, data, 0.08, dt=2e-3 / 2**k).interp(z))
            data = checks._refined(data)
        terms = [np.abs(a - b).max() for a, b in zip(solves, solves[1:])]
        assert terms[0] < 1e-3
        for coarse, fine in zip(terms, terms[1:]):
            assert 0.4 <= fine / coarse <= 0.6


class TestSlope:
    def test_flat_profile_is_vacuous(self):
        scale = EPS * abs(math.log(EPS))
        grid = 3 * scale + fine_grid(EPS, span_units=0.5)
        prof = interface_profile(t=0.0, epsilon=EPS, kernel=KERNEL,
                                 z_grid=grid, n_samples=50, rng_seed=1)
        rep = slope_check(prof, delta_star=0.09)
        assert rep.vacuous

    def test_step_profile_trivially_passes(self):
        prof = interface_profile(t=0.0, epsilon=EPS, kernel=KERNEL,
                                 z_grid=fine_grid(EPS), n_samples=50, rng_seed=1)
        rep = slope_check(prof, delta_star=0.09)
        assert rep.vacuous or rep.all_pass()

    def test_coarse_grid_rejected(self, formed_profile):
        from dualflow.errors import ArgumentError

        with pytest.raises(ArgumentError):
            slope_check(formed_profile, delta_star=0.09)

    def test_formed_interface_constant_stable_across_seeds(self):
        reps = []
        for seed in (7, 7000):
            prof = interface_profile(t=0.12, epsilon=0.2, kernel=KERNEL,
                                     z_grid=fine_grid(0.2), n_samples=3000, rng_seed=seed)
            rep = slope_check(prof, delta_star=0.09)
            assert not rep.vacuous
            assert rep.all_pass()
            reps.append(rep.fitted_c2)
        assert math.isfinite(reps[0]) and math.isfinite(reps[1])
        assert abs(reps[0] - reps[1]) <= 0.2 * max(reps)
