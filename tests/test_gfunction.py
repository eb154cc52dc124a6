import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from dualflow.errors import ArgumentError
from dualflow.gfunction import (
    ExchangeableKernel,
    GAxiomReport,
    GFunction,
    eval_multivariate_g,
    find_fixed_points,
    gbar,
    iterate_g,
    kernel_g,
    majority_kernel,
    nlv_kernel,
    verify_g_axioms,
)
from dualflow.models import SR_THETA_LEVELS

from conftest import NLV_RATES, hand_majority_cubic


class TestEvalMultivariate:
    def test_majority_two_ones_is_certain(self, majority):
        assert eval_multivariate_g(majority, [1.0, 1.0, 0.0]) == 1.0

    def test_majority_symmetric_half(self, majority):
        assert eval_multivariate_g(majority, [0.5, 0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_majority_equal_inputs_match_hand_cubic(self, majority):
        # oracle: 3 p^2 - 2 p^3 at p = 0.2 -> 0.104
        assert eval_multivariate_g(majority, [0.2, 0.2, 0.2]) == pytest.approx(0.104, abs=1e-12)
        grid = np.linspace(0.0, 1.0, 17)
        for p in grid:
            expected = hand_majority_cubic(float(p))
            assert eval_multivariate_g(majority, [p, p, p]) == pytest.approx(expected, abs=1e-13)

    def test_dimension_mismatch(self, majority):
        with pytest.raises(ArgumentError):
            eval_multivariate_g(majority, [0.5, 0.5])

    def test_out_of_range_prob(self, majority):
        with pytest.raises(ArgumentError):
            eval_multivariate_g(majority, [0.5, 0.5, 1.5])

    @given(
        p=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        bump=st.integers(0, 2),
        extra=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_each_coordinate(self, p, bump, extra):
        kern = majority_kernel(3)
        q = list(p)
        q[bump] = min(1.0, q[bump] + extra * (1.0 - q[bump]))
        assert eval_multivariate_g(kern, p) <= eval_multivariate_g(kern, q) + 1e-12


class TestIterate:
    def test_fixed_point_half(self, majority_g):
        for n in (0, 1, 5, 50):
            assert iterate_g(majority_g, 0.5, n) == pytest.approx(0.5, abs=1e-12)

    def test_endpoints_absorbing(self, majority_g):
        for n in (1, 7, 100):
            assert iterate_g(majority_g, 0.0, n) == 0.0
            assert iterate_g(majority_g, 1.0, n) == 1.0

    def test_triple_composition_matches_oracle(self, majority_g):
        # oracle: apply the hand cubic three times
        expected = 0.4
        for _ in range(3):
            expected = hand_majority_cubic(expected)
        assert expected == pytest.approx(0.19674569827, abs=1e-9)
        assert iterate_g(majority_g, 0.4, 3) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", [0.51, 0.6, 0.85, 1.0])
    def test_converges_to_stable_point_monotonically(self, majority_g, p):
        seq = [p]
        for _ in range(200):
            seq.append(float(majority_g(seq[-1])))
        assert all(b >= a - 1e-15 for a, b in zip(seq, seq[1:]))
        assert seq[-1] == pytest.approx(1.0, abs=1e-9)

    def test_negative_count_rejected(self, majority_g):
        with pytest.raises(ArgumentError):
            iterate_g(majority_g, 0.5, -1)


class TestFixedPoints:
    def test_majority_triple(self, majority_g):
        fps = find_fixed_points(majority_g, tol=1e-13)
        assert np.allclose(fps, [0.0, 0.5, 1.0], atol=1e-10)

    def test_sexual_reproduction_cubic(self):
        g = GFunction(
            3,
            lambda p: 9.0 / 11.0 * (p + p**2 - p**3),
            lambda rows: 9.0 / 11.0 * (rows.mean(axis=1) + rows.mean(axis=1) ** 2 - rows.mean(axis=1) ** 3),
            [0.0, 9.0 / 11.0, 9.0 / 11.0, -9.0 / 11.0],
            label="sr",
        )
        fps = find_fixed_points(g, tol=1e-13)
        assert np.allclose(fps, [0.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-10)

    def test_identity_reports_degeneracy(self):
        g = GFunction(1, lambda p: np.asarray(p, dtype=float), lambda rows: rows[:, 0], [0.0, 1.0])
        fps = find_fixed_points(g, tol=1e-12)
        assert fps.degenerate, "identity map must be flagged degenerate"
        lo, hi = fps.degenerate[0]
        assert lo == 0.0 and hi == 1.0


class TestAxiomReport:
    def test_majority_full_report(self, majority_g):
        rep = verify_g_axioms(majority_g)
        assert rep.all_pass()
        assert (rep.a, rep.mu, rep.b) == (0.0, 0.5, 1.0)
        # oracle: d/dp (3p^2 - 2p^3) = 6p - 6p^2 -> 1.5 at 1/2, 0 at 0 and 1
        assert rep.derivative_at["mu"] == pytest.approx(1.5, abs=1e-4)
        assert rep.derivative_at["a"] == pytest.approx(0.0, abs=1e-4)
        assert rep.derivative_at["b"] == pytest.approx(0.0, abs=1e-4)
        assert 0.0 < rep.c0 < 1.0
        assert 0.0 < rep.delta_star < 1.0

    def test_sexual_reproduction_interior_b(self):
        g = GFunction(
            3,
            lambda p: 9.0 / 11.0 * (np.asarray(p) + np.asarray(p) ** 2 - np.asarray(p) ** 3),
            lambda rows: np.where(
                np.all(rows == rows[:, :1], axis=1), 9.0 / 11.0 * (rows[:, 0] + rows[:, 0] ** 2 - rows[:, 0] ** 3), 0.0
            ),
            [0.0, 9.0 / 11.0, 9.0 / 11.0, -9.0 / 11.0],
            label="sr",
        )
        rep = verify_g_axioms(g)
        assert np.allclose(sorted(rep.fixed_points), [0.0, 1 / 3, 2 / 3], atol=1e-8)
        assert rep.b == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert rep.passes["g1"] and rep.passes["g2"]

    def test_square_fails_fixed_point_axiom(self):
        g = GFunction(2, lambda p: np.asarray(p) ** 2, lambda rows: rows[:, 0] * rows[:, 1], [0.0, 0.0, 1.0])
        rep = verify_g_axioms(g)
        assert not rep.passes["g1"]

    def test_non_monotone_flagged_not_raised(self):
        kern_like = GFunction(
            2,
            lambda p: 4 * np.asarray(p) * (1 - np.asarray(p)),
            lambda rows: 4 * rows[:, 0] * (1 - rows[:, 1]),
            [0.0, 4.0, -4.0],
        )
        rep = verify_g_axioms(kern_like)
        assert not rep.passes["g0"]

    def test_report_json_roundtrip(self, majority_g):
        rep = verify_g_axioms(majority_g)
        back = type(rep).from_json(rep.to_json())
        assert back.passes == rep.passes
        assert back.a == rep.a and back.b == rep.b


class TestKernelG:
    def test_univariate_is_multivariate_diagonal(self, majority_g):
        for p in np.linspace(0, 1, 11):
            assert float(majority_g(p)) == majority_g.multi([p, p, p])

    def test_deterministic_detection(self):
        assert majority_kernel(3).is_deterministic
        assert not ExchangeableKernel([0.0, 0.3, 0.7, 1.0]).is_deterministic

    def test_levels_must_be_monotone(self):
        with pytest.raises(ArgumentError):
            ExchangeableKernel([0.0, 0.8, 0.2, 1.0])

    def test_gfunction_json_roundtrip(self, majority_g):
        majority_g.report = verify_g_axioms(majority_g)
        back = GFunction.from_json(majority_g.to_json())
        ps = np.linspace(0, 1, 13)
        assert np.allclose(back(ps), majority_g(ps), atol=1e-15)
        assert back.report.passes == majority_g.report.passes


class TestPolynomialForm:
    @pytest.mark.parametrize("name", ["majority3", "pair_model", "nlv_kernel", "nlv_quintic", "gbar"])
    def test_coefficients_match_evaluation(self, name, majority_g, nlv_g):
        g = {
            "majority3": lambda: majority_g,
            "pair_model": lambda: kernel_g(ExchangeableKernel(SR_THETA_LEVELS)),
            "nlv_kernel": lambda: kernel_g(nlv_kernel(**NLV_RATES)),
            "nlv_quintic": lambda: nlv_g,
            "gbar": lambda: gbar(2, 3, math.inf, n_samples=200, rng_seed=11, **NLV_RATES),
        }[name]()
        ps = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(P.polyval(ps, g.coeffs) - g(ps))) <= 1e-14

    def test_majority_fixed_points_exact(self, majority_g):
        assert list(find_fixed_points(majority_g)) == [0.0, 0.5, 1.0]

    def test_pair_model_fixed_points(self):
        fps = find_fixed_points(kernel_g(ExchangeableKernel(SR_THETA_LEVELS)))
        assert np.max(np.abs(np.array(fps) - [0.0, 1.0 / 3.0, 2.0 / 3.0])) <= 1e-15

    @pytest.mark.parametrize("coeffs", [None, [], [0.0, np.nan]])
    def test_coefficients_required(self, coeffs):
        with pytest.raises(ArgumentError):
            GFunction(1, lambda p: p, lambda rows: rows[:, 0], coeffs)

    def test_finite_difference_report_still_loads(self):
        # recorded by the earlier finite-difference scan (step 1e-5)
        path = Path(__file__).parent / "data" / "majority3_axiom_report_finite_differences.json"
        rep = GAxiomReport.from_json(path.read_text())
        assert rep.all_pass()
        assert (rep.a, rep.mu, rep.b, rep.delta_star) == (0.0, 0.5, 1.0, 0.091)
        assert rep.derivative_at["mu"] == pytest.approx(1.5, abs=1e-4)
