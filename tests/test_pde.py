import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dualflow.errors import ArgumentError
from dualflow.gfunction import ExchangeableKernel, kernel_g, majority_kernel
from dualflow.pde import (
    LazySignedDistance,
    ScalarField,
    TiltedSurface,
    check_distance_supersolution,
    curvature_envelope_fields,
    curvature_rhs,
    evolve_mcf_levelset,
    f_lstar,
    f_star,
    field_from_function,
    reaction_time_step,
    signed_distance,
    solve_reaction_diffusion,
    zero_crossing_points,
)
from dualflow.pde.distance import ZeroSet, zero_set_segments
from dualflow.pde.reaction import DEFAULT_SAFETY, fast_grid_size, neumann_solver
from dualflow.verify import checks


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T": math.nan},
            {"T": math.inf},
            {"T": 0.1, "cfl": math.nan},
            {"T": 0.1, "reg_delta": math.nan},
            {"T": 0.1, "reg_delta": math.inf},
        ],
    )
    def test_non_finite_arguments_rejected(self, kwargs):
        with pytest.raises(ArgumentError):
            evolve_mcf_levelset(circle_field(n=16), **kwargs)


def _evolve_cases():
    """(field, T, cfl) per case: data with a flat patch (zero gradient) and
    -0.0 nodes, T off the step grid so that the last step is partial."""
    rng = np.random.default_rng(23)
    x = np.linspace(-1.0, 1.0, 101)
    v1 = np.cos(3.0 * x) - 0.2
    v1[40:50] = 0.25
    v1[70] = -0.0
    v1[80:83] = (-0.0, 0.0, -0.0)  # D^2 u = -0.0 at the middle node
    a, b = np.meshgrid(np.linspace(-1, 1, 40), np.linspace(-1, 1, 37), indexing="ij")
    v2 = np.sin(2.0 * a) * np.cos(3.0 * b) + 0.1 * rng.standard_normal((40, 37))
    v2[5:12, 20:30] = 0.4
    v2[30, :] = -0.0
    X, Y, Z = np.meshgrid(*[np.linspace(-1, 1, n) for n in (16, 17, 18)], indexing="ij")
    v3 = X**2 + 0.5 * Y**2 + 2.0 * Z**2 - 0.4 + 0.05 * rng.standard_normal((16, 17, 18))
    v3[2:6, 3:7, 4:9] = 1.0
    v3[8, 8, 8] = -0.0
    X, Y, Z = np.meshgrid(*[np.linspace(-1, 1, n) for n in (40, 30, 30)], indexing="ij")
    v4 = np.sin(2.0 * X) + Y * Z - 0.1
    v4[10:14, :, 5:9] = 0.3
    return {
        "1d": (ScalarField(1, [-1.0], 0.02, v1), 0.0123, 0.2),
        "256x256": (circle_field(n=256, half=3.0, squared=False), 0.00513, 0.2),
        "40x37": (ScalarField(2, [-1.0, -1.0], 2.0 / 39, v2), 0.0371, 0.2),
        "16x17x18": (ScalarField(3, [-1.0, -1.0, -1.0], 2.0 / 15, v3), 0.0789, 0.15),
        # more nodes than one block of the step, the last block partial
        "300x70": (
            field_from_function(
                lambda P: np.hypot(P[:, 0], 3.0 * P[:, 1]) - 1.0, origin=[-1.5, -0.5], spacing=0.01, extents=[300, 70]
            ),
            0.00031,
            0.2,
        ),
        "40x30x30": (ScalarField(3, [-1.0, -1.0, -1.0], 2.0 / 29, v4), 0.0111, 0.15),
    }


# SHA-256 of evolve_mcf_levelset(...).values.tobytes(), recorded with the
# fused step in unscaled differences
PINNED_EVOLVE = {
    "1d": "92959c1b4a88971b22e70792bd3225e4f6f33d7b43bb880a9967cb23a40bbb3a",
    "256x256": "fac05ca7b90e1f4622cd3337f21c078aaddf06db536bb4db1dc8b4b5bdd7b108",
    "40x37": "91a9cc8b7efeb98be2929df309406fa07b41416d057802aa909d08bd74839d1f",
    "16x17x18": "2806e87568657010807776629053c25d4a2ed06c1c5cc41e0a030cc331625796",
    "300x70": "21e474eff9247d66e2d51068ca173a42b1686d3ef15722c8cc7fd35a8e54a353",
    "40x30x30": "25df902fd275dd9b14657189703ee682a44f63ae87c595228eadfcf6e9c72365",
}


def _reference_first_derivs(up, h, dim):
    core = tuple(slice(1, -1) for _ in range(dim))
    derivs = []
    for k in range(dim):
        hi = list(core)
        lo = list(core)
        hi[k] = slice(2, None)
        lo[k] = slice(None, -2)
        derivs.append((up[tuple(hi)] - up[tuple(lo)]) / (2 * h))
    return derivs


def _reference_second_derivs(up, h, dim):
    core = tuple(slice(1, -1) for _ in range(dim))
    out = {}
    u = up[core]
    for k in range(dim):
        hi = list(core)
        lo = list(core)
        hi[k] = slice(2, None)
        lo[k] = slice(None, -2)
        out[(k, k)] = (up[tuple(hi)] - 2 * u + up[tuple(lo)]) / h**2
    for k in range(dim):
        for l in range(k + 1, dim):
            pp = list(core)
            pm = list(core)
            mp = list(core)
            mm = list(core)
            pp[k] = slice(2, None)
            pp[l] = slice(2, None)
            pm[k] = slice(2, None)
            pm[l] = slice(None, -2)
            mp[k] = slice(None, -2)
            mp[l] = slice(2, None)
            mm[k] = slice(None, -2)
            mm[l] = slice(None, -2)
            out[(k, l)] = (up[tuple(pp)] - up[tuple(pm)] - up[tuple(mp)] + up[tuple(mm)]) / (4 * h**2)
    return out


def _reference_curvature_terms(u, h):
    """The plain stencil: np.pad per call, a fresh array per derivative,
    sums through sum(). Returns D^2 u by index pair, |Du|^2, Lap u and
    Du^T D^2 u Du."""
    dim = u.ndim
    up = np.pad(u, 1, mode="edge")
    d1 = _reference_first_derivs(up, h, dim)
    d2 = _reference_second_derivs(up, h, dim)
    grad2 = sum(d * d for d in d1)
    lap = sum(d2[(k, k)] for k in range(dim))
    quad = sum(d1[k] * d1[k] * d2[(k, k)] for k in range(dim))
    for k in range(dim):
        for l in range(k + 1, dim):
            quad = quad + 2 * d1[k] * d1[l] * d2[(k, l)]
    return d2, grad2, lap, quad


def _reference_envelopes(phi):
    d2, grad2, lap, quad = _reference_curvature_terms(phi.values, phi.spacing)
    safe = grad2 > 1e-12
    common = -0.5 * (lap - np.divide(quad, grad2, out=np.zeros_like(quad), where=safe))
    f_lower, f_upper = common.copy(), common.copy()
    for ij in map(tuple, np.argwhere(~safe)):
        M = np.empty((phi.dim, phi.dim))
        for (k, l), d in d2.items():
            M[k, l] = M[l, k] = d[ij]
        eigs = np.linalg.eigvalsh(M)
        f_lower[ij] = -0.5 * (float(np.trace(M)) + eigs[0])
        f_upper[ij] = -0.5 * (float(np.trace(M)) + eigs[-1])
    return f_lower, f_upper, np.sqrt(grad2)


def _stencil_abs_sum(u):
    """Sum of |u| over each node's 3^dim neighbourhood, the rim repeating
    the wall node: the scale of a stencil's rounding error."""
    up = np.abs(np.pad(u, 1, mode="edge"))
    total = np.zeros(u.shape)
    for shift in itertools.product(range(3), repeat=u.ndim):
        total += up[tuple(slice(k, k + n) for k, n in zip(shift, u.shape))]
    return total


class TestStencilBitIdentical:
    @pytest.mark.parametrize("name", sorted(_evolve_cases()))
    def test_evolve_digest_pinned(self, name):
        f, T, cfl = _evolve_cases()[name]
        out = evolve_mcf_levelset(f, T=T, cfl=cfl)
        assert hashlib.sha256(out.values.tobytes()).hexdigest() == PINNED_EVOLVE[name]
        assert out.time_stamp == T

    @pytest.mark.parametrize("name", sorted(_evolve_cases()))
    def test_rhs_and_envelopes_match_reference(self, name):
        # the fused kernel rounds in another order than the plain stencil:
        # a few roundings of terms no larger than the stencil's |u| sum / h^2
        f, _, _ = _evolve_cases()[name]
        h = f.spacing
        _, grad2, lap, quad = _reference_curvature_terms(f.values, h)
        reg = 1e-3
        err = np.abs(curvature_rhs(f.values, h, reg) - 0.5 * (lap - quad / (grad2 + reg**2)))
        assert np.all(err <= 16 * np.finfo(float).eps * _stencil_abs_sum(f.values) / h**2)
        for got, want in zip(curvature_envelope_fields(f), _reference_envelopes(f)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "A, b",
        [
            ([[1.0, 0.5], [0.5, -2.0]], [0.5, -1.0]),
            ([[1.0, 0.5, -0.25], [0.5, -2.0, 0.75], [-0.25, 0.75, 1.5]], [0.5, -1.0, 0.25]),
        ],
        ids=["2d", "3d"],
    )
    def test_rhs_exact_on_quadratics(self, A, b):
        # oracle: central differences of u = x.A x + b.x are exact, Du = 2 A x + b
        # and D^2 u = 2 A; the dyadic grid keeps every node value exact
        A, b = np.array(A), np.array(b)
        dim, h, reg = len(b), 0.125, 1e-3
        f = field_from_function(lambda P: np.einsum("ik,kl,il->i", P, A, P) + P @ b, origin=[-1.0] * dim, spacing=h, extents=[17] * dim)
        P = f.coordinates().reshape(f.values.shape + (dim,))
        p = 2.0 * P @ A + b
        H = 2.0 * A
        want = 0.5 * (np.trace(H) - np.einsum("...k,kl,...l->...", p, H, p) / (np.sum(p * p, axis=-1) + reg**2))
        inner = (slice(1, -1),) * dim  # the walls' one-sided rim is not exact
        got = curvature_rhs(f.values, h, reg)[inner]
        assert np.all(np.abs(got - want[inner]) <= 16 * np.finfo(float).eps * np.abs(H).sum())

    def test_step_allocates_nothing_per_step(self, monkeypatch):
        # A 256^2 solve must hold two padded buffers and the blocks' shared
        # work array while it steps, and the output too once it returns (the
        # input is allocated before tracing starts). The work array has 8 rows
        # (dim + 4, then one a_l per axis) of the largest view of the first
        # block, 66 x 256: 1,081,344 bytes. Each step's peak is read as it
        # refreshes its rim. The slack, 256 KiB, is a quarter of the work
        # array; it covers numpy's ufunc buffers (two of 8,192 doubles, made
        # and freed within one call) and the blocks' views, ~165 KiB in all.
        # So a 512 KiB temporary made in a step fails, even though the end
        # of the solve, with its output, peaks higher than the steps do.
        import dualflow.pde.curvature as curvature

        f = circle_field(n=256, half=3.0, squared=False)
        dt = 0.2 * f.spacing**2
        evolve_mcf_levelset(f, dt, cfl=0.2)  # imports, untraced
        rows = curvature._BLOCK_NODES // 256
        padded, work, output, slack = 258**2 * 8, 8 * (rows + 2) * 256 * 8, 256**2 * 8, 256 * 1024
        # the step peaks go to arrays made before tracing starts, so that
        # recording them allocates nothing traced
        refresh, step_peaks, n_steps = curvature._refresh_rim, np.zeros(64, dtype=np.int64), np.zeros(1, dtype=np.int64)

        def traced_refresh(up):
            refresh(up)
            step_peaks[n_steps[0]] = tracemalloc.get_traced_memory()[1]
            n_steps[0] += 1
            tracemalloc.reset_peak()

        monkeypatch.setattr(curvature, "_refresh_rim", traced_refresh)
        peaks = []
        for steps in (1, 50):
            tracemalloc.start()
            try:
                evolve_mcf_levelset(f, steps * dt, cfl=0.2)
                peaks.append(tracemalloc.get_traced_memory()[1])  # since the last step
            finally:
                tracemalloc.stop()
        assert n_steps[0] == 51
        assert peaks[1] <= peaks[0] + 1024
        assert max(step_peaks) <= 2 * padded + work + slack
        assert max(peaks) <= 2 * padded + work + output + slack


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
    away from the interface, a circle cut by a wall, a non-square grid, and
    a 3-D sphere."""
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
        "wall_circle": field_from_function(
            lambda P: (P[:, 0] - 0.3) ** 2 + (P[:, 1] + 1.0) ** 2 - 0.6, origin=[-1, -1], spacing=2 / 39, extents=[40, 40]
        ),
        "non_square": field_from_function(
            lambda P: P[:, 0] ** 2 + 2.0 * P[:, 1] ** 2 - 0.5, origin=[-1.5, -0.8], spacing=0.04, extents=[70, 41]
        ),
        "sphere3d": field_from_function(
            lambda P: np.linalg.norm(P, axis=1) - 1.0, origin=[-2, -2, -2], spacing=4 / 15, extents=[16] * 3
        ),
    }


def _reference_segment_distance(segments, points):
    """The (n, k, 2) segment kernel: distance from each point to the nearest
    of the k segments with the nearest midpoints."""
    from scipy.spatial import cKDTree

    a = segments[:, 0, :]
    ab = segments[:, 1, :] - a
    len2 = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    k = min(12, a.shape[0])
    _, idx = cKDTree(0.5 * (segments[:, 0, :] + segments[:, 1, :])).query(points, k=k)
    if k == 1:
        idx = idx[:, None]
    a, ab = a[idx], ab[idx]
    t = np.clip(np.sum((points[:, None, :] - a) * ab, axis=2) / len2[idx], 0.0, 1.0)
    off = points[:, None, :] - (a + t[:, :, None] * ab)
    return np.sqrt(np.sum(off * off, axis=2).min(axis=1))


def _every_segment_distance(segments, points):
    """The segment kernel's minimum over every segment, 256 points at a time."""
    a = segments[:, 0, :]
    ab = segments[:, 1, :] - a
    len2 = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    out = np.empty(len(points))
    for lo in range(0, len(points), 256):
        p = points[lo : lo + 256, None, :]
        t = np.clip(np.sum((p - a) * ab, axis=2) / len2, 0.0, 1.0)
        off = p - (a + t[:, :, None] * ab)
        out[lo : lo + 256] = np.sqrt(np.sum(off * off, axis=2).min(axis=1))
    return out


def _cosine_field(seed):
    """A sum of four random plane cosines, shifted, on a random 2-D grid."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(12, 72, size=2))
    h = float(rng.uniform(0.02, 0.1))
    origin = rng.uniform(-1.5, 0.5, size=2)
    x, y = np.meshgrid(origin[0] + h * np.arange(shape[0]), origin[1] + h * np.arange(shape[1]), indexing="ij")
    values = np.zeros(shape)
    for _ in range(4):
        k = rng.normal(0.0, 0.4 / h, size=2)
        values += rng.uniform(0.3, 1.0) * np.cos(k[0] * x + k[1] * y + rng.uniform(0, 2 * np.pi))
    return ScalarField(2, origin, h, values - rng.uniform(-0.5, 0.5))


class TestZeroSetKernel:
    @pytest.mark.parametrize("name", ["circle", "saddle", "small_circle", "one_segment", "non_square"])
    def test_matches_reference_kernel(self, name):
        cases = _distance_cases()
        cases["small_circle"] = circle_field(n=4, half=1.5)
        f = cases[name]
        segments = zero_set_segments(f)
        assert (segments.shape[0] < 12) == (name in ("small_circle", "one_segment"))
        assert (segments.shape[0] == 1) == (name == "one_segment")
        rng = np.random.default_rng(11)
        lo = f.origin - 2 * f.spacing
        hi = f.origin + f.spacing * (np.array(f.values.shape) + 1)
        points = np.vstack([f.coordinates(), rng.uniform(lo, hi, size=(300, 2))])
        assert ZeroSet(f).distance(points).tobytes() == _reference_segment_distance(segments, points).tobytes()


    @pytest.mark.parametrize("name", ["line1d", "circle", "sphere3d"])
    def test_chunks_equal_one_evaluation(self, name, monkeypatch):
        import dualflow.pde.distance as distance

        f = _distance_cases()[name]
        rng = np.random.default_rng(5)
        lo, hi = f.origin, f.origin + f.spacing * (np.array(f.values.shape) - 1)
        points = rng.uniform(lo, hi, size=(3000, f.dim))
        zero_set = ZeroSet(f)
        monkeypatch.setattr(distance, "_CHUNK", 512)  # several chunks in every dimension
        chunked = zero_set.distance(points)
        monkeypatch.setattr(distance, "_CHUNK", 1 << 40)
        assert chunked.tobytes() == zero_set.distance(points).tobytes()

    @pytest.mark.parametrize("seed", [*range(24), 229, 357])
    def test_exact_against_every_segment(self, seed):
        # seeds 229 and 357 hold a point whose nearest segment was not among
        # the 12 with the nearest midpoints, the candidates of a former search
        f = _cosine_field(seed)
        try:
            segments = zero_set_segments(f)
        except ArgumentError:
            pytest.skip("single-signed field")
        rng = np.random.default_rng(seed + 1000)
        lo = f.origin - 3 * f.spacing
        hi = f.origin + f.spacing * (np.array(f.values.shape) + 2)
        inside_and_out = rng.uniform(lo, hi, size=(500, 2))
        points = np.vstack([f.coordinates(), inside_and_out, rng.normal(0.0, 50.0, size=(20, 2))])
        assert ZeroSet(f).distance(points).tobytes() == _every_segment_distance(segments, points).tobytes()

    @pytest.mark.parametrize("name", ["line1d", "circle", "sphere3d"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, name, bad):
        f = _distance_cases()[name]
        points = np.zeros((3, f.dim))
        points[1, -1] = bad
        with pytest.raises(ArgumentError, match="finite"):
            ZeroSet(f).distance(points)


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

    @pytest.mark.parametrize("seed", range(12))
    def test_band_mask_on_random_fields(self, seed):
        f = _cosine_field(seed)
        try:
            full = np.abs(signed_distance(f).values.ravel())
        except ArgumentError:
            pytest.skip("single-signed field")
        for r0 in (0.5 * f.spacing, 3 * f.spacing, 0.4):
            assert np.array_equal(LazySignedDistance(f, f.coordinates()).band(r0), full < r0)

    @pytest.mark.parametrize("name", ["zero_nodes_circle", "plane", "line1d", "sphere3d"])
    def test_band_on_node_subsets(self, name):
        if name == "zero_nodes_circle":  # 12 nodes lie exactly on the circle, such as (3, 4)
            f = field_from_function(
                lambda P: np.sum(P**2, axis=1) - 25.0, origin=[-8.0, -8.0], spacing=0.5, extents=[33, 33]
            )
            assert np.count_nonzero(f.values == 0.0) == 12
        else:
            f = _distance_cases()[name]
        n = f.values.size
        rng = np.random.default_rng(4)
        for r0 in (0.05, 0.5, 1.5):
            full = LazySignedDistance(f, f.coordinates()).band(r0)
            for size in (0, 1, n // 5, n):
                nodes = rng.choice(n, size=size, replace=False)
                got = LazySignedDistance(f, f.coordinates()).band(r0, nodes)
                assert got.dtype == bool and np.array_equal(got, full[nodes])

    def test_band_evaluates_a_thin_shell(self):
        f = circle_field(n=128, half=2.0)
        lazy = LazySignedDistance(f, f.coordinates())
        lazy.band(0.25)
        evaluated = np.count_nonzero(~np.isnan(lazy._values))
        assert 0 < evaluated < 0.1 * f.values.size

    def test_band_queries_under_half_the_nodes(self):
        f = circle_field(n=128, half=2.0)
        lazy = LazySignedDistance(f, f.coordinates())
        tiles = lazy.zero_set.tiles
        nearest_midpoint = tiles.nearest_midpoint
        queried = []

        def counting(points, tile):
            queried.append(len(points))
            return nearest_midpoint(points, tile)

        tiles.nearest_midpoint = counting
        lazy.band(0.35)
        assert 0 < sum(queried) < 0.5 * f.values.size

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
        surface = TiltedSurface(f, alpha=0.7)
        for upper in (False, True):
            psi = surface.at(0.0, upper)
            assert np.array_equal(psi.values, f.values) and psi.time_stamp == 0.0
        with pytest.raises(ArgumentError, match="t >= 0"):
            surface.at(-1e-3)

    def test_sub_level_monotone_in_alpha(self):
        # psi_alpha = phi - h F_lower + h alpha gains h alpha, so the strict
        # sub-level set shrinks (and the super-level remainder grows) as
        # alpha increases, nestedly; the upper surface loses h alpha, so its
        # strict super-level set shrinks
        f = circle_field(n=64)
        surfaces = [TiltedSurface(f, alpha) for alpha in (0.2, 0.6, 1.0)]
        for masks in (
            [s.at(0.05).values < 0.0 for s in surfaces],
            [s.at(0.05, upper=True).values > 0.0 for s in surfaces],
        ):
            assert masks[0].sum() > masks[1].sum() > masks[2].sum()
            assert np.all(masks[2] <= masks[1]) and np.all(masks[1] <= masks[0])

    def test_circle_shrinks_per_curvature(self):
        # oracle: for phi = |x|^2 - 1, F = -1 wherever D phi != 0, so
        # psi = phi + h(1 + alpha), zero radius sqrt(1 - h (1 + alpha)), and
        # the upper surface is phi + h(1 - alpha), radius sqrt(1 - h (1 - alpha))
        f = circle_field(n=128, half=2.0)
        h = 0.04
        radius = lambda psi: np.linalg.norm(zero_crossing_points(psi), axis=1).mean()
        assert radius(TiltedSurface(f, 0.0).at(h)) == pytest.approx(math.sqrt(1 - h), abs=2e-3)
        surface = TiltedSurface(f, 0.5)
        assert radius(surface.at(h)) == pytest.approx(math.sqrt(1 - 1.5 * h), abs=2e-3)
        assert radius(surface.at(h, upper=True)) == pytest.approx(math.sqrt(1 - 0.5 * h), abs=2e-3)


def _supersolution_cases():
    """(field, kwargs, min_residual, n_band_points, number of vanishing-gradient
    sites, SHA-256 prefix of the report's repr), recorded while the check
    still built every signed-distance field in full. The saddle's centre
    has |D psi| = 0; the 70x50 grid and the 21x22x20 box are not square."""
    i = (np.arange(41) - 20) * 0.1  # exactly symmetric about the centre node
    return {
        "circle128": (
            circle_field(n=128, half=2.0),
            dict(alpha=1.0, h0=0.05, band_r0=0.35),
            0.009315707850749477, 30232, 0, "741c6e7fd4278c07",
        ),
        "circle_70x50": (
            field_from_function(
                lambda P: np.sum(P**2, axis=1) - 0.5, origin=[-1.5, -1.1], spacing=0.045, extents=[70, 50]
            ),
            dict(alpha=0.7, h0=0.04, band_r0=0.3, n_times=7, lap_step_cells=3),
            -0.3967522419491439, 6352, 0, "770f998b60234009",
        ),
        "plane": (
            field_from_function(lambda P: P[:, 0] + 0.2 * P[:, 1], origin=[-1, -1], spacing=2 / 63, extents=[64, 64]),
            dict(alpha=0.5, h0=0.1, band_r0=0.3),
            -7.772207369638483, 7727, 0, "1335e9abac4fc77c",
        ),
        "sphere3d": (
            field_from_function(
                lambda P: np.linalg.norm(P, axis=1) - 1.0, origin=[-1.6, -1.7, -1.5], spacing=0.16, extents=[21, 22, 20]
            ),
            dict(alpha=1.0, h0=0.05, band_r0=0.3, lap_step_cells=2),
            -2.407285423766087, 11622, 0, "146b94256a591044",
        ),
        "saddle": (
            ScalarField(2, [-2.0, -2.0], 0.1, i[:, None] ** 2 - i[None, :] ** 2),
            dict(alpha=1.0, h0=0.05, band_r0=0.3, lap_step_cells=2),
            -12.90620999339215, 4013, 11, "eccfbb8853df0fd4",
        ),
    }


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

    @pytest.mark.parametrize("name", sorted(_supersolution_cases()))
    def test_report_pinned(self, name):
        f, kwargs, min_residual, n_band, n_vanishing, digest = _supersolution_cases()[name]
        rep = check_distance_supersolution(f, **kwargs)
        assert rep.min_residual == min_residual
        assert rep.n_band_points == n_band
        assert len(rep.vanishing_gradient_sites) == n_vanishing
        assert hashlib.sha256(repr(dataclasses.asdict(rep)).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h0": math.nan},
            {"h0": math.inf},
            {"band_r0": math.nan},
            {"band_r0": math.inf},
            {"lap_step_cells": 0},
            {"lap_step_cells": -2},
            {"lap_step_cells": 2.5},
            {"n_times": 9.0},
            {"n_times": 2},
            {"lap_step_cells": 40},  # no node is 40 nodes from every wall of a 64^2 grid
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        f = field_from_function(lambda P: P[:, 0], origin=[-1, -1], spacing=2 / 63, extents=[64, 64])
        args = {"alpha": 0.5, "h0": 0.1, "band_r0": 0.3, **kwargs}
        with pytest.raises(ArgumentError):
            check_distance_supersolution(f, **args)

    @pytest.mark.parametrize("n_times", [9, 33])
    def test_three_slices_alive_at_a_time(self, n_times):
        # the benchmark's 128^2 circle; with every slice alive together the
        # peak was 6.0 MB at 9 slices and 13.6 MB at 33, with three 4.1-4.2 MB
        f = circle_field(n=128, half=2.0)
        check_distance_supersolution(circle_field(n=32), alpha=1.0, h0=0.05, band_r0=0.2)  # imports, untraced
        tracemalloc.start()
        try:
            rep = check_distance_supersolution(f, alpha=1.0, h0=0.05, band_r0=0.2, n_times=n_times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.min_residual > 0.0
        assert peak < 5e6


PINNED_REACTION = {
    "1d": "01f9768edd4a03623b1bb6f8bcfef046553475ae33449570ff065e0b24888f2c",
    "2d": "4d5422733ab038322966fe4166fd728bb9851a9eb8d7020513f03905c6c0bb56",
}


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
        # the step bound is eps^2 / (4 gamma |g' - 1|) on any grid
        g = kernel_g(ExchangeableKernel(levels))
        assert reaction_time_step(0.3, g, 1.0, spacing=10.0, dim=1) == pytest.approx(0.3**2 / 4.0, rel=1e-15)

    def test_interface_sharpens_toward_equilibria(self):
        g = kernel_g(majority_kernel())
        p0 = field_from_function(lambda P: (P[:, 0] >= 0).astype(float), origin=[-2.0], spacing=0.01, extents=[401])
        out = solve_reaction_diffusion(0.2, g, 1.0, p0, T=0.1)
        assert float(out.interp(np.array([[-1.0]]))[0]) <= 0.02
        assert float(out.interp(np.array([[1.0]]))[0]) >= 0.98

    @pytest.mark.parametrize(
        "override",
        [
            {"dt": -1.0},
            {"dt": 0.0},
            {"dt": math.nan},
            {"safety": -0.5},
            {"safety": 0.0},
            {"safety": 1.5},
            {"T": math.nan},
            {"T": math.inf},
            {"T": -0.1},
            {"epsilon": math.inf},
            {"epsilon": math.nan},
            {"branch_gamma": math.inf},
            {"branch_gamma": math.nan},
        ],
    )
    def test_bad_arguments_rejected(self, override):
        p0 = field_from_function(lambda P: (P[:, 0] > 0).astype(float), origin=[-1.0], spacing=0.02, extents=[101])
        kw = dict(epsilon=0.3, g=kernel_g(majority_kernel()), branch_gamma=1.0, p0=p0, T=0.05)
        kw.update(override)
        with pytest.raises(ArgumentError):
            solve_reaction_diffusion(**kw)

    def test_default_step_is_safety_times_reaction_bound(self):
        # the implicit diffusion bounds no step, even on this fine grid
        g = kernel_g(majority_kernel())
        p0 = field_from_function(lambda P: (P[:, 0] > 0).astype(float), origin=[-1.0], spacing=0.02, extents=[101])
        stable = reaction_time_step(0.3, g, 1.0, p0.spacing, 1)
        assert stable == pytest.approx(0.3**2 / 4.0, rel=1e-15)  # no diffusion bound
        default = solve_reaction_diffusion(0.3, g, 1.0, p0, T=0.05)
        explicit = solve_reaction_diffusion(0.3, g, 1.0, p0, T=0.05, dt=DEFAULT_SAFETY * stable)
        assert default.values.tobytes() == explicit.values.tobytes()
        assert default.time_stamp == 0.05

    @pytest.mark.parametrize("name", sorted(PINNED_REACTION))
    def test_solution_digest_pinned(self, name):
        # SHA-256 of the semi-implicit solution (one DCT solve of the whole grid per step)
        rng = np.random.default_rng(31)
        p0 = {
            "1d": field_from_function(lambda P: (P[:, 0] >= 0.1).astype(float), origin=[-2.0], spacing=0.01, extents=[401]),
            "2d": ScalarField(2, [-1.0, -1.0], 0.05, rng.random((30, 25))),
        }[name]
        out = solve_reaction_diffusion(0.2, kernel_g(majority_kernel()), 1.0, p0, T=0.0131)
        assert hashlib.sha256(out.values.tobytes()).hexdigest() == PINNED_REACTION[name]


def _neumann_matrix(shape, c):
    """I - c D assembled densely, D the sum over axes of the second
    difference whose wall nodes repeat themselves as their missing neighbour."""
    lap = np.zeros((math.prod(shape),) * 2)
    for k, n in enumerate(shape):
        d = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1) - 2.0 * np.eye(n)
        d[0, 0] += 1.0
        d[-1, -1] += 1.0
        term = np.ones((1, 1))
        for j, m in enumerate(shape):
            term = np.kron(term, d if j == k else np.eye(m))
        lap += term
    return np.eye(len(lap)) - c * lap


class TestNeumannSolver:
    @pytest.mark.parametrize("shape", [(1,), (2,), (7,), (8,), (7, 9), (1, 6), (4, 5, 3), (6, 1, 2)])
    @pytest.mark.parametrize("c", [0.37, 25.0])
    def test_matches_dense_solve(self, shape, c):
        r = np.random.default_rng(len(shape) * 100 + shape[0]).standard_normal(shape)
        x = neumann_solver(shape, c)(r)
        assert x.shape == r.shape
        assert np.max(np.abs(x - np.linalg.solve(_neumann_matrix(shape, c), r.ravel()).reshape(shape))) <= 1e-14

    def test_one_node_axes_are_the_identity(self):
        r = np.random.default_rng(5).standard_normal((1, 1))
        assert np.array_equal(neumann_solver((1,), 3.0)(r[0]), r[0])
        assert np.array_equal(neumann_solver((1, 1), 3.0)(r), r)

    @pytest.mark.parametrize("shape", [(600,), (3360,), (64, 48), (12, 10, 9)])
    def test_step_data_stays_in_unit_interval(self, shape):
        # I - c D is an M-matrix, so 0 <= r <= 1 gives 0 <= x <= 1; the
        # transforms may add rounding of a few ulps
        rng = np.random.default_rng(sum(shape))
        ulps = 8 * np.finfo(float).eps
        for c in (0.01, 1.0, 400.0):
            r = (rng.random(shape) < 0.5).astype(float)
            x = neumann_solver(shape, c)(r)
            assert x.min() >= -ulps and x.max() <= 1.0 + ulps

    def test_fast_grid_size(self):
        assert [fast_grid_size(n) for n in (1, 2, 11, 13, 600, 1653, 1657)] == [1, 2, 12, 14, 600, 1680, 1680]
        # the 1-D comparison profile's step data: 1654 nodes cover [-1.7, 2.43], 1680 are laid
        data = checks._step_data_field(0.0, 1.0, -1.7, 2.43, 0.0025)
        z = data.axes()[0]
        assert z.size == 1680 and z[0] <= -1.7 and z[-27] >= 2.43
        assert np.array_equal(data.values, (z >= 0).astype(float))


def _nagumo_error(kernel, b, wave, eps, T):
    """max |u - U| on |z| < 0.8 after T from (0, b) step data at h = eps/40
    on nodes covering [-3, 3], U the exact standing wave of
    u_t = u_zz/2 + eps^-2 (g(u) - u)."""
    data = checks._step_data_field(0.0, b, -3.0, 3.0, eps / 40)
    u = solve_reaction_diffusion(eps, kernel_g(kernel), 1.0, data, T).values
    z = data.axes()[0]
    near = np.abs(z) < 0.8
    return float(np.max(np.abs(u[near] - wave(z[near] / eps))))


class TestNagumoWave:
    # Bounds fixed from the tridiagonal (LAPACK) solver the DCT solve
    # replaced, which gave 1.76e-5 and 8.8e-6 (majority) and 8.25e-5 (pair)
    @pytest.mark.parametrize("eps, T", [(0.2, 0.5), (0.1, 0.2)])
    def test_majority_voting(self, eps, T):
        # g(u) - u = u (1 - u)(2u - 1): U(z) = 1 / (1 + exp(-sqrt(2) z / eps))
        wave = lambda s: 1.0 / (1.0 + np.exp(-math.sqrt(2.0) * s))
        assert _nagumo_error(majority_kernel(), 1.0, wave, eps, T) <= 5e-5

    def test_pair_model(self):
        # g(u) - u = -u (3u - 1)(3u - 2) / 11: U(z) = (2/3) / (1 + exp(-2 z / (sqrt(11) eps)))
        wave = lambda s: (2.0 / 3.0) / (1.0 + np.exp(-2.0 * s / math.sqrt(11.0)))
        kernel = ExchangeableKernel((0.0, 3.0 / 11.0, 9.0 / 11.0, 9.0 / 11.0))
        assert _nagumo_error(kernel, 2.0 / 3.0, wave, 0.1, 0.5) <= 2e-4


class TestFieldIO:
    def test_zero_set_points(self):
        # the zero set as points, one row per crossing, dim columns
        pts = zero_crossing_points(circle_field(n=48))
        assert pts.ndim == 2 and pts.shape[1] == 2 and len(pts) > 0
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=0.05)

    def test_interp_matches_grid_values(self):
        f = circle_field(n=32)
        coords = f.coordinates()
        assert np.allclose(f.interp(coords), f.values.ravel(), atol=1e-12)


def _reference_corners(field, points):
    """Plain multilinear corners: clamp to the hull, then one (flat index,
    weight) pair per corner, weight built from ones."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    shape = np.array(field.values.shape)
    rel = np.clip((pts - field.origin) / field.spacing, 0.0, shape - 1.000001)
    base = np.minimum(np.floor(rel).astype(int), shape - 2)
    frac = rel - base
    corners = []
    for corner in range(2**field.dim):
        weight = np.ones(pts.shape[0])
        idx = []
        for k in range(field.dim):
            b = (corner >> k) & 1
            weight = weight * (frac[:, k] if b else 1.0 - frac[:, k])
            idx.append(base[:, k] + b)
        corners.append((np.ravel_multi_index(tuple(idx), field.values.shape), weight))
    return corners


def _reference_interp(field, points):
    corners = _reference_corners(field, points)
    out = np.zeros(corners[0][1].shape[0])
    for flat, weight in corners:
        out += weight * field.values.ravel()[flat]
    return out


def _interp_cases():
    rng = np.random.default_rng(17)
    return {
        "1d": field_from_function(lambda P: np.sin(3 * P[:, 0]), origin=[-1.0], spacing=0.07, extents=[31]),
        "2d": ScalarField(2, [-0.4, 0.3], 0.11, rng.standard_normal((13, 9))),
        "3d": ScalarField(3, [0.2, -1.0, 0.5], 0.3, rng.standard_normal((5, 7, 4))),
        "2x2": ScalarField(2, [0.0, 0.0], 1.0, np.array([[1.0, -2.0], [0.5, 3.0]])),
        "negative_zero": ScalarField(2, [0.0, 0.0], 0.5, np.full((4, 5), -0.0)),
        "negative_2d": ScalarField(2, [0.0, 0.0], 0.5, -1.0 - rng.random((4, 5))),
    }


def _interp_points(field, rng):
    lo = field.origin - 3 * field.spacing
    hi = field.origin + field.spacing * (np.array(field.values.shape) + 2)
    inside = rng.uniform(lo, hi, size=(400, field.dim))  # points outside the hull too
    nodes = field.coordinates()[rng.integers(0, field.values.size, size=50)]
    corner = field.origin + field.spacing * (np.array(field.values.shape) - 1)
    return np.vstack([inside, nodes, field.origin[None, :], corner[None, :]])


class TestInterpBitIdentical:
    @pytest.mark.parametrize("name", sorted(_interp_cases()))
    def test_interp_matches_reference_corner_sum(self, name):
        f = _interp_cases()[name]
        pts = _interp_points(f, np.random.default_rng(len(name)))
        got = f.interp(pts)
        assert got.tobytes() == _reference_interp(f, pts).tobytes()
        assert got[0:1].tobytes() == f.interp(pts[0]).tobytes()  # a single point

    @pytest.mark.parametrize("name", sorted(_interp_cases()))
    def test_corners_match_reference(self, name):
        f = _interp_cases()[name]
        pts = _interp_points(f, np.random.default_rng(len(name)))
        flat, got = f.interp_corners(pts)
        ref = _reference_corners(f, pts)
        assert len(got) == len(ref) == 2**f.dim
        for (offset, weight), (ref_flat, ref_weight) in zip(got, ref):
            assert np.array_equal(flat + offset, ref_flat)
            assert weight.tobytes() == ref_weight.tobytes()

    def test_single_node_axis_rejected(self):
        f = ScalarField(2, [0.0, 0.0], 0.5, np.ones((4, 1)))
        with pytest.raises(ArgumentError, match="two nodes per axis"):
            f.interp(np.array([[0.6, 0.0]]))

    def test_negative_zero_field_interpolates_to_positive_zero(self):
        f = _interp_cases()["negative_zero"]
        out = f.interp(_interp_points(f, np.random.default_rng(0)))
        assert np.all(out == 0.0) and not np.signbit(out).any()


def test_scipy_spatial_is_imported_only_for_a_3d_distance():
    import dualflow

    code = (
        "import sys, dualflow.verify.checks, dualflow.models\n"
        "assert 'scipy.spatial' not in sys.modules, 'imported at load'\n"
        "from dualflow.pde import LazySignedDistance, field_from_function, signed_distance\n"
        "signed_distance(field_from_function(lambda P: P[:, 0], origin=[-1.0], spacing=0.5, extents=[5]))\n"
        "plane = field_from_function(lambda P: P[:, 0] + 0.3 * P[:, 1], origin=[-1, -1], spacing=0.1, extents=[21, 21])\n"
        "signed_distance(plane)\n"
        "LazySignedDistance(plane, plane.coordinates()).band(0.3)\n"
        "assert 'scipy.spatial' not in sys.modules, 'imported by a 1-D or 2-D distance'\n"
        "signed_distance(field_from_function(lambda P: P[:, 0], origin=[-1.0] * 3, spacing=0.5, extents=[5] * 3))\n"
        "assert 'scipy.spatial' in sys.modules\n"
    )
    src = str(Path(dualflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_reaction_diffusion_loads_no_scipy_linalg():
    # the Neumann solve is numpy's FFT; scipy.linalg takes ~28 MB and ~0.2 s to load
    import dualflow

    root = Path(dualflow.__file__).resolve().parents[2]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "import numpy as np, workloads\n"
        "from pathlib import Path\n"
        "from dualflow.gfunction import kernel_g, majority_kernel\n"
        "from dualflow.pde import ScalarField, solve_reaction_diffusion\n"
        "g = kernel_g(majority_kernel())\n"
        "for shape in [(40,), (12, 9)]:\n"
        "    solve_reaction_diffusion(0.2, g, 1.0, ScalarField(len(shape), [0.0] * len(shape), 0.05, np.full(shape, 0.3)), 0.01)\n"
        "cls = workloads.WORKLOADS['ternary_interface']\n"
        "w = cls(Path(sys.argv[1]), Path(sys.argv[1]) / '.perfbench-out')\n"
        "assert all(passed for _, passed, _ in w.solve(w.setup(7, cls.sizes['smoke'], 0)).gates)\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy.linalg')]\n"
        "assert loaded == [], loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code, str(root)], check=True, env=env)


def test_benchmark_imports_load_no_slow_scipy_module():
    # scipy.linalg and scipy.spatial take ~0.4 s each to load, so the solver
    # and the distances import them on first use, not at load
    import dualflow

    root = Path(dualflow.__file__).resolve().parents[2]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "import dualflow, workloads\n"
        "slow = [m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.spatial'))]\n"
        "assert slow == [], slow\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
