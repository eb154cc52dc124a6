import json
import math

import numpy as np
import pytest

from dualflow.errors import ArgumentError
from dualflow.models import (
    lotka_volterra_dual,
    nonlinear_voter_dual,
    sexual_reproduction_dual,
    ternary_bbm,
)
from dualflow.onedim import step_profile
from dualflow.pde import field_from_function
from dualflow.verify import (
    check_allen_cahn_duality,
    check_diffusivity,
    check_equilibria,
    check_flow_consistency,
    check_interface_formation,
    check_ito_coupling_drift,
    check_mcf_duality,
    check_monotonicity,
    check_propagation_vs_1d,
    check_semigroup,
)


def circle_phi(half=3.0, n=128, r2=1.0):
    return field_from_function(
        lambda P: np.sum(P**2, axis=1) - r2, origin=[-half, -half], spacing=2 * half / (n - 1), extents=[n, n]
    )


def plane_phi(half=2.0, n=128):
    return field_from_function(
        lambda P: P[:, 0], origin=[-half, -half], spacing=2 * half / (n - 1), extents=[n, n]
    )


@pytest.fixture(scope="module")
def bbm1():
    return ternary_bbm(0.25, 1)


@pytest.fixture(scope="module")
def bbm2():
    return ternary_bbm(0.2, 2)


class TestSemigroup:
    def test_h_zero_trivial(self, bbm1):
        rep = check_semigroup(
            bbm1, [0.0], t=0.03, h=0.0, p=step_profile(),
            spatial_grid=np.linspace(-1, 1, 41), n_outer=4000, n_inner=1500, rng_seed=3,
        )
        assert rep.passed

    def test_equilibrium_data_exact(self, bbm1):
        rep = check_semigroup(
            bbm1, [0.2], t=0.03, h=0.02, p=lambda P: np.zeros(P.shape[0]),
            spatial_grid=np.linspace(-1, 1, 21), n_outer=1000, n_inner=500, rng_seed=3,
        )
        assert rep.statistic == 0.0
        assert rep.passed

    def test_deterministic_for_fixed_seed(self, bbm1):
        kw = dict(t=0.02, h=0.02, p=step_profile(), spatial_grid=np.linspace(-1, 1, 21),
                  n_outer=2000, n_inner=500, rng_seed=5)
        a = check_semigroup(bbm1, [0.0], **kw)
        b = check_semigroup(bbm1, [0.0], **kw)
        assert a.statistic == b.statistic


class TestMonotonicityAndEquilibria:
    def test_equal_profiles_tie(self, bbm1):
        p = step_profile()
        rep = check_monotonicity(bbm1, p, p, [[0.0]], 0.05, 300, 3)
        assert rep.statistic == 0.0

    def test_constant_pair(self, bbm1):
        rep = check_monotonicity(
            bbm1, lambda P: np.zeros(P.shape[0]), lambda P: np.ones(P.shape[0]), [[0.0]], 0.05, 300, 3
        )
        assert rep.statistic == pytest.approx(-1.0)

    def test_shifted_halfspace(self, bbm1):
        lo = step_profile()
        hi = lambda P: (P[:, 0] >= -0.3).astype(float)
        rep = check_monotonicity(bbm1, lo, hi, [[0.0], [0.2], [-0.4]], 0.05, 500, 9)
        assert rep.passed

    def test_equilibria_three_models(self):
        for bundle in (ternary_bbm(0.3, 1), sexual_reproduction_dual(0.3, 2),
                       lotka_volterra_dual(0.3, L=2, dim=3, p3_samples=800)):
            rep = check_equilibria(bundle, [[0.0] * bundle.spec.dim], 0.04, 100, 7)
            assert rep.passed, bundle.spec.label
            assert rep.statistic <= 1e-12


class TestGeometryChecks:
    def test_formation_deep_inside(self, bbm2):
        rep = check_interface_formation(
            bbm2, circle_phi(), delta=0.05, epsilon=0.2, n_samples=2500, rng_seed=5
        )
        assert rep.passed

    def test_formation_not_yet_formed_note(self, bbm2):
        t_form = 1.0 * 0.2**2 * abs(math.log(0.2))
        rep = check_interface_formation(
            bbm2, circle_phi(), delta=0.4, epsilon=0.2, n_samples=800, rng_seed=5,
            t_override=t_form / 8.0, tolerance=0.005,
        )
        if not rep.passed:
            assert any("not yet formed" in n for n in rep.notes)

    def test_propagation_three_times(self, bbm2):
        rep = check_propagation_vs_1d(
            bbm2, circle_phi(), alpha=1.0, delta=0.05, epsilon=0.2,
            time_grid=[0.08, 0.12], n_samples=400, rng_seed=5,
        )
        assert rep.passed

    def test_propagation_rejects_kernel_less_bundle_at_once(self, monkeypatch):
        import dualflow.verify.checks as checks

        def no_distance(*args, **kwargs):
            raise AssertionError("signed_distance reached before the kernel test")

        monkeypatch.setattr(checks, "signed_distance", no_distance)
        nlv = nonlinear_voter_dual(0.3, L=1, dim=3, gbar_samples=50)
        phi = field_from_function(lambda P: P[:, 0], origin=[-1, -1, -1], spacing=0.5, extents=[5, 5, 5])
        with pytest.raises(ArgumentError, match="no 1-D voting kernel"):
            check_propagation_vs_1d(
                nlv, phi, alpha=1.0, delta=0.05, epsilon=0.3, time_grid=[0.08], n_samples=10, rng_seed=5
            )

    def test_flow_consistency_both_variants(self):
        mk = lambda e: ternary_bbm(e, 2)
        for variant in ("plus", "minus"):
            rep = check_flow_consistency(
                mk, circle_phi(), alpha=1.0, delta=0.05, h=0.05,
                epsilon_list=[0.3, 0.2], n_samples=1000, rng_seed=5, variant=variant,
            )
            assert rep.passed, variant


class TestItoDrift:
    def test_planar_martingale(self):
        rep = check_ito_coupling_drift(
            plane_phi(), alpha=0.0, t=0.1, s=0.05, band_r0=0.5,
            n_paths=20000, rng_seed=2, x=[0.0, 0.0],
        )
        assert rep.statistic <= rep.budget["mc_4sigma"]

    def test_s_equals_zero_degenerate(self):
        with pytest.raises(ArgumentError):
            check_ito_coupling_drift(plane_phi(), 0.0, 0.1, 0.0, 0.5, 100, 2, x=[0.0, 0.0])

    def test_circle_with_drift(self):
        rep = check_ito_coupling_drift(
            circle_phi(half=2.0), alpha=1.0, t=0.05, s=0.03, band_r0=0.25,
            n_paths=15000, rng_seed=2, x=[1.05, 0.0],
        )
        assert rep.passed

    def test_outside_band_rejected(self):
        with pytest.raises(ArgumentError):
            check_ito_coupling_drift(
                circle_phi(half=2.0), 1.0, 0.05, 0.03, 0.1, 100, 2, x=[1.9, 0.0]
            )

    @pytest.mark.parametrize(
        "override",
        [
            {"n_paths": 1},
            {"n_paths": 0},
            {"n_steps": 0},
            {"band_r0": 0.0},
            {"band_r0": -0.5},
            {"band_r0": math.nan},
            {"band_r0": math.inf},
        ],
    )
    def test_bad_arguments_rejected(self, override):
        kw = dict(alpha=0.0, t=0.1, s=0.05, band_r0=0.5, n_paths=100, rng_seed=2, x=[0.0, 0.0])
        kw.update(override)
        with pytest.raises(ArgumentError):
            check_ito_coupling_drift(plane_phi(), **kw)

    # Reports recorded before distances were evaluated lazily; the lazy
    # evaluation must reproduce them exactly.
    PINNED = {
        "planar": {
            "name": "ito_coupling_drift",
            "inputs": {"alpha": 0.0, "t": 0.1, "s": 0.05, "band_r0": 0.5, "n_paths": 300, "n_steps": 64, "x": [0.0, 0.0]},
            "statistic": 0.011936623657972824,
            "threshold": 0.08399285915933749,
            "passed": True,
            "budget": {
                "mc_4sigma": 0.05249679616721151,
                "discretization": 0.031496062992125984,
                "L": 1.0000000000000053,
                "mean_stop_time": 0.04935677083333333,
                "d0": -2.7755575615628914e-17,
                "mean_d_final": 0.011936623657972796,
            },
            "seed": 2,
            "notes": [],
            "reference": "distance along Brownian paths drifts down at rate alpha/(4L)",
        },
        "circular": {
            "name": "ito_coupling_drift",
            "inputs": {"alpha": 1.0, "t": 0.05, "s": 0.03, "band_r0": 0.25, "n_paths": 300, "n_steps": 64, "x": [1.05, 0.0]},
            "statistic": -0.00936653959333783,
            "threshold": 0.06752949213787221,
            "passed": True,
            "budget": {
                "mc_4sigma": 0.03603342914574622,
                "discretization": 0.031496062992125984,
                "L": 2.4562890845159675,
                "mean_stop_time": 0.02536875,
                "d0": 0.10157152230971062,
                "mean_d_final": 0.08962296273347253,
            },
            "seed": 2,
            "notes": [],
            "reference": "distance along Brownian paths drifts down at rate alpha/(4L)",
        },
    }

    @pytest.mark.parametrize("case", ["planar", "circular"])
    def test_reports_pinned(self, case):
        if case == "planar":
            rep = check_ito_coupling_drift(
                plane_phi(), alpha=0.0, t=0.1, s=0.05, band_r0=0.5, n_paths=300, rng_seed=2, x=[0.0, 0.0]
            )
        else:
            rep = check_ito_coupling_drift(
                circle_phi(half=2.0), alpha=1.0, t=0.05, s=0.03, band_r0=0.25,
                n_paths=300, rng_seed=2, x=[1.05, 0.0],
            )
        got = json.loads(rep.to_json())
        got.pop("runtime")
        assert got == self.PINNED[case]


class TestDiffusivity:
    def test_brownian_exact(self, bbm1):
        rep = check_diffusivity(bbm1.spec, [0.05, 0.1, 0.2], 40000, 4)
        assert rep.passed
        assert rep.budget["slope"] == pytest.approx(1.0, abs=0.03)

    def test_lattice_walk_unit_slope(self):
        lv = lotka_volterra_dual(0.3, L=2, dim=3, p3_samples=500)
        rep = check_diffusivity(lv.spec, [0.02, 0.05], 20000, 4)
        assert rep.passed

    def test_sexual_reproduction_doubled_diffusivity(self):
        sr = sexual_reproduction_dual(0.3, 2)
        rep = check_diffusivity(sr.spec, [0.02, 0.05], 20000, 4, target_slope=2.0)
        assert rep.passed

    def test_slfv_support_and_slope(self):
        from dualflow.models import slfv_dual

        b = slfv_dual(1000.0, 0.25, 1.0, [(1.0, 1.0)], 0.3, dim=2)
        rep = check_diffusivity(
            b.spec, [20.0, 40.0], 8000, 4,
            target_slope=1.0, check_gaussianity=True, slope_rtol=math.inf,
        )
        # slope is model-specific (not unit); support and Gaussianity at
        # large jump counts are what matter here
        assert rep.budget["max_dispersal"] <= b.spec.dispersal_support_bound + 1e-12
        assert rep.budget["kurtosis"] == pytest.approx(3.0, abs=0.3)


class TestDualityChecks:
    def test_allen_cahn_matches(self, bbm1):
        p0 = field_from_function(
            lambda P: (P[:, 0] >= 0).astype(float), origin=[-3.0], spacing=6 / 599, extents=[600]
        )
        rep = check_allen_cahn_duality(
            bbm1, p0, [(0.05, [0.0]), (0.1, [0.3])], n_samples=20000, rng_seed=12
        )
        assert rep.passed

    def test_mcf_duality_small_circle(self):
        mk = lambda e: ternary_bbm(e, 2)
        p0 = field_from_function(
            lambda P: np.where(np.linalg.norm(P, axis=1) < 0.3, 0.0, 1.0),
            origin=[-1.2, -1.2], spacing=2.4 / 127, extents=[128, 128],
        )
        rep = check_mcf_duality(
            mk, p0, T_list=[0.05], epsilon_list=[0.3, 0.2],
            sample_points=[[0.8, 0.0], [0.6, 0.6]], n_samples=1200, rng_seed=9, margin=0.08,
        )
        assert rep.passed

    def test_degenerate_p_rejected(self):
        mk = lambda e: ternary_bbm(e, 2)
        p0 = field_from_function(
            lambda P: np.full(P.shape[0], 0.8), origin=[-1, -1], spacing=2 / 31, extents=[32, 32]
        )
        with pytest.raises(ArgumentError):
            check_mcf_duality(mk, p0, [0.05], [0.3, 0.2], [[0.0, 0.0]], 100, 1)


class TestReportContract:
    def test_json_line_is_parseable(self, bbm1):
        rep = check_equilibria(bbm1, [[0.0]], 0.03, 50, 1)
        data = json.loads(rep.to_json())
        assert data["name"] == "equilibria"
        assert data["passed"] is True
        assert set(data) >= {"statistic", "threshold", "seed", "runtime", "reference"}

    def test_statistic_bit_reproducible(self, bbm2):
        kw = dict(delta=0.05, epsilon=0.2, n_samples=400, rng_seed=5)
        a = check_interface_formation(bbm2, circle_phi(n=96), **kw)
        b = check_interface_formation(bbm2, circle_phi(n=96), **kw)
        assert a.statistic == b.statistic


class TestPhaseLabelAgreement:
    def test_level_set_and_reaction_diffusion_agree_on_phases(self):
        # the two deterministic routes assign the same phase wherever the
        # level-set value clears the margin
        from dualflow.pde import evolve_mcf_levelset, signed_distance, solve_reaction_diffusion
        from dualflow.pde.field import ScalarField

        b = ternary_bbm(0.25, 2)
        n, half, r0 = 128, 1.2, 0.3
        spacing = 2 * half / (n - 1)
        p0 = field_from_function(
            lambda P: np.where(np.linalg.norm(P, axis=1) < r0, 0.0, 1.0),
            origin=[-half, -half], spacing=spacing, extents=[n, n],
        )
        T = 0.04
        interface = ScalarField(2, p0.origin.copy(), spacing, p0.values - 0.5)
        u = evolve_mcf_levelset(signed_distance(interface), T)
        ac = solve_reaction_diffusion(0.25, b.g, 1.0, p0, T)
        margin = 0.12
        pts = u.coordinates()
        u_vals = u.values.ravel()
        ac_vals = ac.values.ravel()
        clear = np.abs(u_vals) > margin
        assert clear.sum() > 1000
        level_phase = u_vals[clear] > 0
        ac_phase = ac_vals[clear] > 0.5
        assert np.array_equal(level_phase, ac_phase)


class TestDeepPhaseVsOneDim:
    def test_deep_inside_matches_1d_profile_at_matched_distance(self):
        # multi-d estimate deep inside the favourable half-space saturates,
        # in agreement with the 1-D profile at the same signed distance
        from dualflow.onedim import bbm1d_vote_prob
        from dualflow.verify import bundle_estimate

        b = ternary_bbm(0.2, 2)
        half = lambda P: (P[:, 0] >= 0).astype(float)
        depth = 3.0 * 0.2 * abs(math.log(0.2))
        est = bundle_estimate(b, [depth, 0.0], 0.05, half, 3000, rng_seed=6)
        assert est.value >= 0.95
        one_d = bbm1d_vote_prob(depth, 0.05, 0.2, b.kernel, 3000, 7)
        assert abs(est.value - one_d.value) <= 4 * (est.stderr + one_d.stderr) + 1e-9
