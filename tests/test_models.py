import inspect
import math

import numpy as np
import pytest

from dualflow.dualtree import estimate_vote_probability
from dualflow.errors import ArgumentError, ResourceError
from dualflow.gfunction import g_pi_batch, nlv_kernel
from dualflow.models import (
    lotka_volterra_dual,
    nonlinear_voter_dual,
    sexual_reproduction_dual,
    slfv_dual,
    ternary_bbm,
    voter_forward_oracle,
    SR_THETA_LEVELS,
)
from dualflow.onedim import step_profile
from dualflow.rng import derive_rng
from dualflow.verify.checks import bundle_estimate

from conftest import NLV_RATES
from test_nlv import _copy_maps

SLFV_ARGS = dict(n=1000.0, beta=0.25, R=1.0, mu_radius_weights=[(0.5, 0.5), (1.0, 0.5)], epsilon_n=0.3, dim=2)


@pytest.fixture(scope="module")
def bundles():
    return {
        "bbm": ternary_bbm(0.3, 2),
        "slfv": slfv_dual(**SLFV_ARGS),
        "lv": lotka_volterra_dual(0.3, L=2, dim=3, p3_samples=1500),
        "nlv": nonlinear_voter_dual(0.3, L=3, dim=3, gbar_samples=1500, **NLV_RATES),
        "sr": sexual_reproduction_dual(0.3, 2),
    }


# (delta_star, a, b) of each fixture bundle's axiom report, recorded with
# the earlier grid-bisection and finite-difference scan (the nlv row again
# when the coalescing walks began to leap, when an infinite horizon became
# one walk to MAX_CUTOFF, and when the walks were uniformized); every axiom
# passed
SCAN_REFERENCE = {
    "bbm": (0.091, 0.0, 1.0),
    "slfv": (0.091, 0.0, 1.0),
    "lv": (0.091, 0.0, 1.0),
    "nlv": (0.058, 0.25369395730785, 0.7463060426920739),
    "sr": (0.061, 0.0, 0.6666666666665151),
}


class TestBundleInvariants:
    def test_axiom_scan_matches_reference(self, bundles):
        for name, b in bundles.items():
            rep = b.g.report
            delta_star, a, b_ = SCAN_REFERENCE[name]
            assert rep.passes == {key: True for key in ("g0", "g1", "g2", "g3", "g5")}, name
            assert rep.delta_star == delta_star, name
            assert abs(rep.a - a) <= 1e-12 and abs(rep.b - b_) <= 1e-12, name

    def test_equilibria_are_fixed_points(self, bundles):
        for name, b in bundles.items():
            for point in (b.a, b.b):
                resid = abs(float(b.g(point)) - point)
                tol = 1e-8
                assert resid <= tol, f"{name}: g({point}) off by {resid}"

    def test_kernels_monotone(self, bundles):
        for name, b in bundles.items():
            assert b.g.report.passes["g0"], name

    def test_dispersal_support_bounds(self, bundles):
        rng = derive_rng(5, 1)
        for name, b in bundles.items():
            bound = b.spec.dispersal_support_bound
            parents = np.zeros((500, b.spec.dim))
            off = b.spec.dispersal(parents, rng)
            max_disp = float(np.max(np.abs(off)))
            assert max_disp <= bound + 1e-12, f"{name}: {max_disp} > {bound}"


class TestTernaryBBM:
    def test_fixed_points(self, bundles):
        assert np.allclose(bundles["bbm"].g.report.fixed_points, [0, 0.5, 1], atol=1e-10)

    def test_dispersal_copies_parent(self, bundles):
        rng = derive_rng(1, 2)
        parents = rng.normal(size=(50, 2))
        off = bundles["bbm"].spec.dispersal(parents, rng)
        assert np.all(off == parents[:, None, :])

    def test_half_is_equilibrium(self, bundles):
        b = bundles["bbm"]
        est = estimate_vote_probability(
            b.spec, b.kernel, [0.0, 0.0], 0.05, lambda P: np.full(P.shape[0], 0.5), 200, 3
        )
        assert est.value == 0.5


class TestSlfv:
    def test_offspring_displacement_bounded(self, bundles):
        b = bundles["slfv"]
        r_max = 1.0 * 1000.0 ** (-0.25)
        rng = derive_rng(2, 3)
        parents = np.zeros((2000, 2))
        off = b.spec.dispersal(parents, rng)
        assert np.max(np.linalg.norm(off, axis=2)) <= 2 * r_max + 1e-12

    def test_msd_linear_positive_slope(self, bundles):
        b = bundles["slfv"]
        rng = derive_rng(4, 5)
        s_list = np.array([0.5, 1.0, 2.0])
        msd = []
        for s in s_list:
            ends = b.spec.motion(np.zeros((20000, 2)), np.full(20000, s), rng)
            msd.append(np.mean(np.sum(ends**2, axis=1)))
        slope = np.sum(s_list * msd) / np.sum(s_list**2)
        assert slope > 0
        # linearity: residual from the through-origin fit stays small
        resid = np.max(np.abs(np.array(msd) - slope * s_list)) / (slope * s_list[-1])
        assert resid < 0.1

    def test_majority_equilibria(self, bundles):
        assert bundles["slfv"].equilibria == (0.0, 0.5, 1.0)

    def test_empty_radius_measure_rejected(self):
        args = dict(SLFV_ARGS)
        args["mu_radius_weights"] = []
        with pytest.raises(ArgumentError):
            slfv_dual(**args)


class TestLotkaVolterra:
    def test_children_in_scaled_box(self, bundles):
        b = bundles["lv"]
        mesh = 0.3**3
        rng = derive_rng(6, 7)
        parents = np.zeros((1000, 3))
        off = b.spec.dispersal(parents, rng)
        assert np.max(np.abs(off[:, 1:, :])) <= 2 * mesh + 1e-12
        assert np.all(off[:, 0, :] == parents)

    def test_p3_increases_with_box_width(self):
        p3 = {}
        for L in (1, 4):
            b = lotka_volterra_dual(0.3, L=L, dim=3, p3_samples=3000, p3_seed=11)
            p3[L] = b.spec.branch_rate * 0.3**2
        assert 0.0 < p3[1] < p3[4] < 1.0

    def test_low_dimension_flagged(self):
        b = lotka_volterra_dual(0.3, L=2, dim=2, p3_samples=500)
        assert "low_dimension" in b.flags


class TestNonlinearVoter:
    def test_effective_g_fixes_half(self, bundles):
        b = bundles["nlv"]
        assert float(b.g(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_equilibria_symmetric_about_half(self, bundles):
        b = bundles["nlv"]
        assert b.a < 0.5 < b.b
        assert b.a + b.b == pytest.approx(1.0, abs=1e-8)

    def test_bundle_states_the_horizon_walked(self, bundles):
        b = bundles["nlv"]
        assert b.g.metadata["effective_horizon"] == 512.0
        stated = "walked to horizon 512 (cutoff capped at 512; tail not fully resolved)"
        assert stated in b.scaling_notes and f"scaling: {b.scaling_notes}" in b.describe()
        assert "inf" not in b.describe()

    def test_large_box_bundle_g_near_polynomial(self, nlv_g):
        b = nonlinear_voter_dual(0.3, L=10, dim=3, gbar_samples=1500, **NLV_RATES)
        ps = np.linspace(0, 1, 101)
        assert np.max(np.abs(b.g(ps) - nlv_g(ps))) < 0.02

    def test_decorated_tree_estimate_preserves_half(self, bundles):
        b = bundles["nlv"]
        est = estimate_vote_probability(
            b.spec,
            b.kernel,
            [0.0, 0.0, 0.0],
            0.05,
            lambda P: np.full(P.shape[0], 0.5),
            150,
            9,
            combine=b.combine,
        )
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_bundle_estimates_pinned(self, bundles):
        # pinned values: any change to the NLV random stream, the decoration
        # draws or the forest combiner moves them. The step leaf takes the
        # equilibria recorded with the values: the bundle's own are roots of
        # its float effective g, which could round differently elsewhere
        b = bundles["nlv"]
        a_pinned, b_pinned = 0.25369395730785, 0.7463060426920739
        assert abs(b.a - a_pinned) <= 1e-12 and abs(b.b - b_pinned) <= 1e-12
        leaf = step_profile(a_pinned, b_pinned)
        pinned = [
            ([0.0, 0.0, 0.0], 21, 0.5414246148643026, 0.01763946573522987),
            ([-0.03, 0.0, 0.0], 22, 0.4614883717684442, 0.01737610622245078),
        ]
        for x, seed, value, stderr in pinned:
            est = bundle_estimate(b, x, 0.05, leaf, 150, seed)
            assert (est.value, est.stderr) == (value, stderr)

    def test_combiner_is_pure_and_exact(self, bundles):
        # rows whose copy maps cover every marked partition, twice, interleaved
        b = bundles["nlv"]
        assert len(inspect.signature(b.combine).parameters) == 2
        maps = np.array(_copy_maps(5) * 2)
        rng = np.random.default_rng(17)
        maps = maps[rng.permutation(len(maps))]
        probs = rng.uniform(0.0, 1.0, (len(maps), 5))
        out = b.combine(probs, maps)
        assert np.array_equal(out, b.combine(probs, maps))
        for copy_map, row, value in zip(maps, probs, out):
            assert abs(value - g_pi_batch(copy_map, row[None, :], **NLV_RATES)[0]) <= 1e-15
        identity = np.tile(np.arange(5), (len(maps), 1))
        assert np.max(np.abs(b.combine(probs, identity) - nlv_kernel(**NLV_RATES).combine_params(probs))) <= 1e-15

    def test_gbar_and_decoration_share_one_marking(self, monkeypatch):
        import dualflow.gfunction.coalescence as coalescence
        import dualflow.models as models

        assert models.mark_blocks is coalescence.mark_blocks
        mark, calls = coalescence.mark_blocks, []

        def spy(caller):
            return lambda rep, rng: calls.append((caller, rep.shape)) or mark(rep, rng)

        monkeypatch.setattr(coalescence, "mark_blocks", spy("gbar"))
        monkeypatch.setattr(models, "mark_blocks", spy("decoration"))
        b = nonlinear_voter_dual(0.5, L=2, dim=3, gbar_samples=200, **NLV_RATES)
        assert calls == [("gbar", (200, 5))]
        calls.clear()
        leaf = lambda P: np.clip(0.5 + 20.0 * P[:, 0], 0.0, 1.0)
        estimate_vote_probability(b.spec, None, [0.0, 0.0, 0.0], 0.2, leaf, 30, 4, combine=b.combine)
        assert calls and {caller for caller, _ in calls} == {"decoration"}

    def test_non_monotone_rates_build_and_flag(self):
        b = nonlinear_voter_dual(
            0.3, L=2, dim=3, a1=0.4, a2=0.3, a3=0.7, a4=0.6, gbar_samples=200, gbar_seed=1
        )
        assert b.flags["b2"] is False
        assert b.flags["balance"] is True
        assert b.equilibria == (0.0, 0.5, 1.0)
        assert b.kernel is None and b.combine is not None


class TestSexualReproduction:
    def test_bernstein_levels_reproduce_cubic(self, bundles):
        # oracle: 3 t1 = 9/11, -6 t1 + 3 t2 = 9/11, 3 t1 - 3 t2 + t3 = -9/11
        t1, t2, t3 = SR_THETA_LEVELS[1:]
        assert 3 * t1 == pytest.approx(9 / 11, abs=1e-15)
        assert -6 * t1 + 3 * t2 == pytest.approx(9 / 11, abs=1e-15)
        assert 3 * t1 - 3 * t2 + t3 == pytest.approx(-9 / 11, abs=1e-15)
        g = bundles["sr"].g
        ps = np.linspace(0, 1, 101)
        target = 9.0 / 11.0 * (ps + ps**2 - ps**3)
        assert np.max(np.abs(g(ps) - target)) <= 1e-12

    def test_fixed_points(self, bundles):
        fps = bundles["sr"].g.report.fixed_points
        assert np.allclose(fps, [0.0, 1 / 3, 2 / 3], atol=1e-8)

    def test_levels_nondecreasing(self):
        assert list(SR_THETA_LEVELS) == sorted(SR_THETA_LEVELS)

    def test_third_is_equilibrium_under_estimation(self, bundles):
        b = bundles["sr"]
        est = estimate_vote_probability(
            b.spec, b.kernel, [0.0, 0.0], 0.03, lambda P: np.full(P.shape[0], 1 / 3), 150, 4
        )
        assert est.value == pytest.approx(1 / 3, abs=1e-12)


class TestVoterOracle:
    def test_all_ones_absorbing(self):
        out = voter_forward_oracle(8, 3, lambda c: np.ones(c.shape[0]), 0.4, 5, rng_seed=1)
        assert np.all(out == 1.0)

    def test_density_preserved_in_expectation(self):
        # oracle: single-site dual is a lattice walk, so the marginal of a
        # constant-q profile stays q
        q = 0.3
        n = 250
        out = voter_forward_oracle(8, 3, lambda c: np.full(c.shape[0], q), 0.3, n, rng_seed=2)
        mean = float(out.mean())
        se = math.sqrt(q * (1 - q) / (n * 8**3)) * 3  # sites correlate; be generous
        assert mean == pytest.approx(q, abs=8 * se)

    def test_resource_bound(self):
        with pytest.raises(ResourceError):
            voter_forward_oracle(101, 3, lambda c: np.ones(c.shape[0]), 0.1, 1, rng_seed=1)

    def test_half_torus_matches_walk_dual(self):
        # dual oracle: P[state(x) = 1] = E[p0 at walk endpoint], the walk
        # jumping to a uniform neighbour at rate dim
        size, dim, t = 16, 2, 0.25
        p0 = lambda c: (c[:, 0] < size // 2).astype(float)
        n = 400
        out = voter_forward_oracle(size, dim, p0, t, n, rng_seed=9)
        rng = derive_rng(77, 1)
        walkers = 200000
        for x in ((0, 4), (7, 0), (12, 8)):
            steps_plus = rng.poisson(t / 2, size=(walkers, dim))
            steps_minus = rng.poisson(t / 2, size=(walkers, dim))
            ends = (np.array(x) + steps_plus - steps_minus) % size
            dual_val = float(np.mean(p0(ends)))
            forward_val = float(out[x])
            se_fwd = math.sqrt(max(forward_val * (1 - forward_val), 1e-9) / n)
            se_dual = math.sqrt(max(dual_val * (1 - dual_val), 1e-9) / walkers)
            assert forward_val == pytest.approx(dual_val, abs=4 * (se_fwd + se_dual))
