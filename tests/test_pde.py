import math

import numpy as np
import pytest

from dualflow.errors import ArgumentError
from dualflow.gfunction import ExchangeableKernel, kernel_g, majority_kernel
from dualflow.pde import (
    LazySignedDistance,
    ScalarField,
    check_distance_supersolution,
    evolve_mcf_levelset,
    extract_zero_set_csv,
    f_lstar,
    f_star,
    field_from_function,
    psi_alpha_field,
    psi_alpha_sets,
    reaction_time_step,
    signed_distance,
    solve_reaction_diffusion,
    zero_crossing_points,
)


def circle_field(n=128, half=2.0, r0=1.0, squared=True):
    if squared:
        fn = lambda P: np.sum(P**2, axis=1) - r0**2
    else:
        fn = lambda P: np.linalg.norm(P, axis=1) - r0
    return field_from_function(fn, origin=[-half, -half], spacing=2 * half / (n - 1), extents=[n, n])


class TestEnvelopes:
    def test_projection_kills_gradient_direction(self):
        assert f_star(np.eye(2), np.array([1.0, 0.0])) == pytest.approx(-0.5)
        assert f_lstar(np.eye(2), np.array([1.0, 0.0])) == pytest.approx(-0.5)

    def test_zero_gradient_envelopes(self):
        assert f_star(np.eye(2), np.zeros(2)) == pytest.approx(-1.5)
        assert f_lstar(np.eye(2), np.zeros(2)) == pytest.approx(-1.5)
        M = np.diag([2.0, -1.0])
        assert f_star(M, np.zeros(2)) == pytest.approx(-0.5 * (1.0 + 2.0))
        assert f_lstar(M, np.zeros(2)) == pytest.approx(-0.5 * (1.0 - 1.0))

    def test_unit_circle_value(self):
        # oracle by hand: phi = |x|^2 - 1 has D2 = 2 I, D = 2x; on the circle
        # F = -(d - 1) = -1 in two dimensions
        assert f_star(2 * np.eye(2), np.array([2.0, 0.0])) == pytest.approx(-1.0)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ArgumentError):
            f_star(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 0.0]))


class TestLevelSetEvolution:
    def test_affine_data_is_stationary(self):
        f = field_from_function(lambda P: P[:, 0] + 0.2, origin=[-1, -1], spacing=2 / 63, extents=[64, 64])
        out = evolve_mcf_levelset(f, T=0.2)
        assert np.max(np.abs(out.values - f.values)) <= 1e-8

    def test_shrinking_circle_radius_law(self):
        f = circle_field(n=128, half=3.0, squared=False)
        T = 0.5
        out = evolve_mcf_levelset(f, T=T)
        radii = np.linalg.norm(zero_crossing_points(out), axis=1)
        assert radii.mean() == pytest.approx(math.sqrt(1.0 - T), rel=0.02)

    def test_radius_squared_decreases_linearly(self):
        f = circle_field(n=96, half=3.0, squared=False)
        radii2 = []
        ts = [0.1, 0.2, 0.3]
        cur, t_now = f, 0.0
        for t in ts:
            cur = evolve_mcf_levelset(cur, t - t_now)
            t_now = t
            radii2.append(np.mean(np.linalg.norm(zero_crossing_points(cur), axis=1)) ** 2)
        slopes = np.diff(radii2) / np.diff(ts)
        assert np.allclose(slopes, -1.0, atol=0.05)

    def test_radial_symmetry_preserved(self):
        f = circle_field(n=64, half=2.0, squared=False)
        out = evolve_mcf_levelset(f, T=0.2)
        assert np.max(np.abs(out.values - out.values[::-1, :])) <= 1e-10
        assert np.max(np.abs(out.values - out.values[:, ::-1])) <= 1e-10
        assert np.max(np.abs(out.values - out.values.T)) <= 1e-10

    def test_comparison_principle_sampled(self):
        f = circle_field(n=64, half=2.0, squared=False)
        g = ScalarField(2, f.origin.copy(), f.spacing, f.values + 0.1)
        fa = evolve_mcf_levelset(f, T=0.15)
        ga = evolve_mcf_levelset(g, T=0.15)
        assert np.all(fa.values <= ga.values + 1e-9)

    def test_constant_shift_does_not_move_zero_set(self):
        # geometric uniqueness: evolve the signed distance of the shifted
        # field and compare extracted radii
        base = signed_distance(circle_field(n=96, half=2.0))
        shifted = signed_distance(
            ScalarField(2, base.origin.copy(), base.spacing, circle_field(n=96, half=2.0).values + 0.3)
        )
        ra = np.linalg.norm(zero_crossing_points(evolve_mcf_levelset(base, 0.2)), axis=1).mean()
        rb_pts = zero_crossing_points(evolve_mcf_levelset(shifted, 0.2))
        # the shifted field's zero set starts at radius sqrt(r0^2 - ...)
        rb = np.linalg.norm(rb_pts, axis=1).mean()
        assert abs(ra - math.sqrt(1 - 0.2)) < 0.01
        assert abs(rb - math.sqrt(0.7 - 0.2)) < 0.01

    def test_cfl_guard(self):
        f = circle_field(n=32)
        with pytest.raises(ArgumentError):
            evolve_mcf_levelset(f, T=0.1, cfl=0.5)


class TestSignedDistance:
    def test_halfspace_exact(self):
        f = field_from_function(lambda P: P[:, 0], origin=[-1, -1], spacing=2 / 63, extents=[64, 64])
        d = signed_distance(f)
        x = d.coordinates()[:, 0].reshape(64, 64)
        assert np.max(np.abs(d.values - x)) <= 1e-9

    def test_circle_radial_formula(self):
        f = circle_field(n=128, half=2.0)
        d = signed_distance(f)
        exact = np.linalg.norm(d.coordinates(), axis=1).reshape(128, 128) - 1.0
        assert np.max(np.abs(d.values - exact)) <= f.spacing

    def test_eikonal_residual(self):
        f = circle_field(n=128, half=2.0)
        d = signed_distance(f)
        h = d.spacing
        gx, gy = np.gradient(d.values, h, h)
        norm = np.sqrt(gx**2 + gy**2)
        r = np.linalg.norm(d.coordinates(), axis=1).reshape(128, 128)
        off_zero = (np.abs(d.values) > 2 * h) & (r > 0.2) & (r < 1.7)
        assert np.max(np.abs(norm[off_zero] - 1.0)) <= 5 * h / 0.2

    def test_idempotent_up_to_grid(self):
        f = circle_field(n=96, half=2.0)
        d1 = signed_distance(f)
        d2 = signed_distance(d1)
        assert np.max(np.abs(d2.values - d1.values)) <= f.spacing

    def test_single_signed_rejected(self):
        f = field_from_function(lambda P: np.sum(P**2, axis=1) + 1.0, origin=[-1, -1], spacing=2 / 31, extents=[32, 32])
        with pytest.raises(ArgumentError):
            signed_distance(f)


def _distance_cases():
    """Fields covering every ZeroSet branch: 1-D crossings, 2-D circle,
    plane, a saddle cell, a single segment (k == 1), a zero-valued node
    away from the interface, and a 3-D sphere."""
    one_segment = np.ones((3, 3))
    one_segment[0, 0] = -1.0
    touching = np.ones((9, 9))
    touching[:2, :] = -1.0
    touching[7, 7] = 0.0  # a zero node far from any sign change
    return {
        "line1d": field_from_function(
            lambda P: P[:, 0] ** 2 - 0.25, origin=[-1.0], spacing=2 / 99, extents=[100]
        ),
        "circle": circle_field(n=64, half=2.0),
        "plane": field_from_function(
            lambda P: P[:, 0] + 0.3 * P[:, 1], origin=[-1, -1], spacing=2 / 47, extents=[48, 48]
        ),
        "saddle": field_from_function(
            lambda P: P[:, 0] * P[:, 1], origin=[-1.01, -1.02], spacing=0.1, extents=[21, 21]
        ),
        "one_segment": ScalarField(2, np.zeros(2), 0.5, one_segment),
        "touching_zero": ScalarField(2, np.zeros(2), 0.25, touching),
        "sphere3d": field_from_function(
            lambda P: np.linalg.norm(P, axis=1) - 1.0, origin=[-2, -2, -2], spacing=4 / 15, extents=[16] * 3
        ),
    }


class TestLazySignedDistance:
    @pytest.mark.parametrize("name", sorted(_distance_cases()))
    def test_node_subsets_match_signed_distance(self, name):
        f = _distance_cases()[name]
        full = signed_distance(f).values.ravel()
        lazy = LazySignedDistance(f, f.coordinates())
        rng = np.random.default_rng(3)
        for size in (1, full.size // 7, full.size):
            nodes = rng.choice(full.size, size=size, replace=True)
            assert np.array_equal(lazy.at(nodes), full[nodes])
        assert np.array_equal(lazy.at(np.arange(full.size)), full)

    @pytest.mark.parametrize("name", sorted(_distance_cases()))
    def test_band_mask_matches_signed_distance(self, name):
        f = _distance_cases()[name]
        full = np.abs(signed_distance(f).values.ravel())
        for r0 in (1e-3, 0.05, 0.25, 0.5, 1.5):
            assert np.array_equal(LazySignedDistance(f, f.coordinates()).band(r0), full < r0)

    def test_band_evaluates_a_thin_shell(self):
        f = circle_field(n=128, half=2.0)
        lazy = LazySignedDistance(f, f.coordinates())
        lazy.band(0.25)
        evaluated = np.count_nonzero(~np.isnan(lazy._values))
        assert 0 < evaluated < 0.1 * f.values.size

    @pytest.mark.parametrize("name", ["line1d", "circle", "saddle", "sphere3d"])
    def test_interp_matches_signed_distance(self, name):
        f = _distance_cases()[name]
        rng = np.random.default_rng(5)
        lo = f.origin - f.spacing
        hi = f.origin + f.spacing * np.array(f.values.shape)
        pts = rng.uniform(lo, hi, size=(500, f.dim))
        assert np.array_equal(LazySignedDistance(f, f.coordinates()).interp(pts), signed_distance(f).interp(pts))


class TestPsiAlpha:
    def test_h_zero_is_phi(self):
        f = circle_field(n=64)
        triple = psi_alpha_sets(f, alpha=0.7, h=0.0)
        assert np.array_equal(triple.negative_set, f.values < 0)
        assert np.array_equal(triple.positive_set, f.values > 0)

    def test_masks_partition(self):
        f = circle_field(n=64)
        triple = psi_alpha_sets(f, alpha=0.5, h=0.05)
        total = triple.zero_set.astype(int) + triple.positive_set.astype(int) + triple.negative_set.astype(int)
        assert np.all(total == 1)

    def test_sub_level_monotone_in_alpha(self):
        # psi_alpha = phi - h F_lower + h alpha gains h alpha, so the strict
        # sub-level set shrinks (and the super-level remainder grows) as
        # alpha increases, nestedly
        f = circle_field(n=64)
        masks = [psi_alpha_sets(f, alpha, h=0.05).l_minus for alpha in (0.2, 0.6, 1.0)]
        assert masks[0].sum() >= masks[1].sum() >= masks[2].sum()
        assert np.all(masks[2] <= masks[1]) and np.all(masks[1] <= masks[0])

    def test_circle_shrinks_per_curvature(self):
        # oracle: on the unit circle F = -1, so psi = phi + h(1 + alpha)
        # and its zero radius is sqrt(1 - h (1 + alpha))
        f = circle_field(n=128, half=2.0)
        h, alpha = 0.04, 0.0
        psi = psi_alpha_field(f, alpha, h)
        radius = np.linalg.norm(zero_crossing_points(psi), axis=1).mean()
        assert radius == pytest.approx(math.sqrt(1 - h), abs=2e-3)


class TestSupersolution:
    def test_planar_matches_hand_value(self):
        f = field_from_function(lambda P: P[:, 0], origin=[-1, -1], spacing=2 / 63, extents=[64, 64])
        rep = check_distance_supersolution(f, alpha=0.5, h0=0.1, band_r0=0.3)
        # oracle: d(t, x) = x1 + alpha t, so dd/dt = alpha, Lap d = 0,
        # residual = alpha - alpha/4 = 3 alpha / 4
        assert rep.min_residual == pytest.approx(0.375, abs=0.01)

    def test_alpha_zero_planar_equality(self):
        f = field_from_function(lambda P: P[:, 0], origin=[-1, -1], spacing=2 / 63, extents=[64, 64])
        rep = check_distance_supersolution(f, alpha=0.0, h0=0.1, band_r0=0.3)
        assert rep.min_residual == pytest.approx(0.0, abs=1e-6)
        assert rep.passes(budget=0.01)

    def test_circle_passes(self):
        f = circle_field(n=96, half=2.0)
        rep = check_distance_supersolution(f, alpha=1.0, h0=0.05, band_r0=0.2)
        assert rep.min_residual > 0.0


class TestReactionDiffusion:
    def test_fixed_point_constant_in_time(self):
        g = kernel_g(majority_kernel())
        for c in (0.0, 0.5, 1.0):
            p0 = field_from_function(lambda P, c=c: np.full(P.shape[0], c), origin=[-1.0], spacing=0.02, extents=[101])
            out = solve_reaction_diffusion(0.3, g, 1.0, p0, T=0.05)
            assert np.max(np.abs(out.values - c)) <= 1e-12

    def test_majority_reaction_factorization(self):
        # oracle: polynomial division gives g(u) - u = 2 u (1 - u)(u - 1/2)
        g = kernel_g(majority_kernel())
        us = np.linspace(0, 1, 101)
        assert np.max(np.abs((g(us) - us) - 2 * us * (1 - us) * (us - 0.5))) <= 1e-12

    def test_stability_guard(self):
        g = kernel_g(majority_kernel())
        p0 = field_from_function(lambda P: (P[:, 0] > 0).astype(float), origin=[-1.0], spacing=0.02, extents=[101])
        stable = reaction_time_step(0.3, g, 1.0, p0.spacing, 1)
        with pytest.raises(ArgumentError):
            solve_reaction_diffusion(0.3, g, 1.0, p0, T=0.05, dt=2 * stable)

    @pytest.mark.parametrize("levels", [(0.0, 0.0, 1.0, 1.0), (0.0, 3.0 / 11.0, 9.0 / 11.0, 9.0 / 11.0)])
    def test_reaction_bound_uses_exact_stiffness(self, levels):
        # oracle: max |g' - 1| over [0,1] is 1, reached at p = 1 by both the
        # majority cubic 3p^2 - 2p^3 and the pair-model cubic (9/11)(p + p^2 - p^3);
        # a coarse grid makes the reaction bound eps^2 / (4 gamma |g' - 1|) bind
        g = kernel_g(ExchangeableKernel(levels))
        assert reaction_time_step(0.3, g, 1.0, spacing=10.0, dim=1) == pytest.approx(0.3**2 / 4.0, rel=1e-15)

    def test_interface_sharpens_toward_equilibria(self):
        g = kernel_g(majority_kernel())
        p0 = field_from_function(lambda P: (P[:, 0] >= 0).astype(float), origin=[-2.0], spacing=0.01, extents=[401])
        out = solve_reaction_diffusion(0.2, g, 1.0, p0, T=0.1)
        assert float(out.interp(np.array([[-1.0]]))[0]) <= 0.02
        assert float(out.interp(np.array([[1.0]]))[0]) >= 0.98


class TestFieldIO:
    def test_binary_roundtrip(self):
        f = circle_field(n=48)
        back = ScalarField.from_bytes(f.to_bytes())
        assert back.dim == f.dim
        assert back.spacing == f.spacing
        assert np.array_equal(back.values, f.values)
        assert np.array_equal(back.origin, f.origin)

    def test_zero_set_csv(self):
        f = circle_field(n=48)
        csv = extract_zero_set_csv(f)
        lines = csv.strip().splitlines()
        assert lines[0] == "x0,x1"
        pts = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=0.05)

    def test_interp_matches_grid_values(self):
        f = circle_field(n=32)
        coords = f.coordinates()
        assert np.allclose(f.interp(coords), f.values.ravel(), atol=1e-12)
