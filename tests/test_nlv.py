from itertools import product

import numpy as np
import pytest

from dualflow.errors import ArgumentError
from dualflow.gfunction import (
    MarkedPartition,
    find_fixed_points,
    g_pi_batch,
    kernel_g,
    nlv_kernel,
    nlv_polynomial_g,
    nlv_rate_flags,
    singleton_partition,
    verify_g_axioms,
)
from dualflow.gfunction.coalescence import _partition_frequencies, sample_coalescent_partitions
from dualflow.gfunction.nlv import g_pi_univariate_coeffs

from conftest import NLV_RATES


class TestPolynomialG:
    def test_endpoint_and_midpoint_fixed(self, nlv_g):
        assert float(nlv_g(0.0)) == 0.0
        assert float(nlv_g(1.0)) == pytest.approx(1.0, abs=1e-15)
        assert float(nlv_g(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_vote_flip_symmetry_on_grid(self, nlv_g):
        ps = np.linspace(0.0, 1.0, 1000)
        resid = np.abs(nlv_g(ps) + nlv_g(1.0 - ps) - 1.0)
        assert resid.max() <= 1e-12

    def test_univariate_matches_bernoulli_enumeration(self, nlv_g):
        # oracle: exact enumeration of the five-child kernel at equal inputs
        kern = nlv_kernel(**NLV_RATES)
        for p in (0.3, 0.1, 0.77):
            enum = kern.combine_params(np.full((1, 5), p))[0]
            assert float(nlv_g(p)) == pytest.approx(enum, abs=1e-14)

    def test_unbalanced_rates_refuse_the_multivariate_form(self):
        # off balance the kernel's diagonal is not the quintic: at p = 0.3
        # the quintic gives 0.2596 and the kernel 0.2345, so a constant row
        # and a row one ulp off it would disagree; no form is attached
        rows = np.array([[0.3] * 5, [0.3] * 4 + [0.3 + 1e-12]])
        balanced = nlv_polynomial_g(**NLV_RATES)
        assert abs(np.diff(balanced.combine_params(rows))[0]) < 1e-11
        g = nlv_polynomial_g(0.1, 0.3, 0.6, 0.85)
        assert "kernel_levels" not in g.metadata
        with pytest.raises(ArgumentError, match="multivariate form"):
            g.combine_params(rows)
        report = verify_g_axioms(g)
        assert not report.passes["g0"]
        assert "multivariate evaluation unavailable; monotonicity unchecked" in report.notes

    def test_interior_fixed_points_analytic(self, nlv_g):
        # A = 0.1, B = -0.5: interior roots solve p(1-p) = A/(A-B) = 1/6
        expected_a = (1.0 - np.sqrt(1.0 - 4.0 / 6.0)) / 2.0
        fps = find_fixed_points(nlv_g, tol=1e-13)
        assert np.allclose(fps, [0.0, expected_a, 0.5, 1.0 - expected_a, 1.0], atol=1e-10)

    def test_flags_for_reference_rates(self):
        flags = nlv_rate_flags(**NLV_RATES)
        assert flags["b1"] and flags["b2"] and flags["b3"] and flags["balance"]

    def test_flags_flag_violations(self):
        flags = nlv_rate_flags(a1=0.1, a2=0.2, a3=0.8, a4=0.9)
        assert not flags["b1"]  # A = -0.5 < 0
        assert flags["balance"]


def _marked_partitions(n=5):
    """Every marked partition of {1..n}, from the restricted-growth label
    strings (each label at most one above every label before it)."""
    out = []
    for labels in product(range(n), repeat=n):
        if any(labels[i] > max(labels[:i], default=-1) + 1 for i in range(n)):
            continue
        blocks = tuple(tuple(i + 1 for i in range(n) if labels[i] == b) for b in range(max(labels) + 1))
        out.extend(MarkedPartition(blocks, marks) for marks in product(*blocks))
    return out


def _copy_map(partition):
    """0-based copy map of a marked partition: member j + 1 copies c[j] + 1."""
    copy = [0] * partition.n
    for block, mark in zip(partition.blocks, partition.marks):
        for j in block:
            copy[j - 1] = mark - 1
    return tuple(copy)


class TestMarkedPartitions:
    def test_count_is_196(self):
        parts = _marked_partitions(5)
        assert len(parts) == len(set(parts)) == 196
        # every partition coalescing walks produce is one of them
        rng = np.random.default_rng(5)
        start = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
        rep, _, _ = sample_coalescent_partitions(start, 3, 2.0, 3.0, 400, rng)
        weights, _ = _partition_frequencies(rep, rng)
        assert len(weights) > 10 and set(weights) <= set(parts)

    def test_copy_map_roundtrip(self):
        for part in _marked_partitions(5):
            assert MarkedPartition.from_copy_map(_copy_map(part)) == part
        for bad in ((1, 2, 2, 3, 4), (0, 0, 0, 0, 7), (-1, 1, 2, 3, 4)):  # c[c[j]] != c[j], or out of range
            with pytest.raises(ArgumentError):
                MarkedPartition.from_copy_map(bad)

    def test_parse_string_roundtrip(self):
        for part in _marked_partitions(5):
            assert MarkedPartition.parse(str(part)) == part

    def test_malformed_partitions_rejected(self):
        with pytest.raises(ArgumentError):
            MarkedPartition(((1, 2), (2, 3), (4, 5)), (1, 2, 4))  # overlap
        with pytest.raises(ArgumentError):
            MarkedPartition(((1, 2), (3, 4, 5)), (3, 4))  # mark outside block


def g_pi(partition, probs, **rates):
    """g^pi at one probability vector, through a one-row batch."""
    return float(g_pi_batch(partition, np.asarray(probs, dtype=float)[None, :], **rates)[0])


def _reference_g_pi(partition, probs, a1, a2, a3, a4):
    """The plain definition at one probability vector: a scalar loop over
    the representatives' vote patterns."""
    levels = [0.0, a1, a2, a3, a4, 1.0]
    total = 0.0
    for pattern in range(2**partition.n_blocks):
        weight, k = 1.0, 0
        for j, (block, mark) in enumerate(zip(partition.blocks, partition.marks)):
            w = (pattern >> j) & 1
            weight *= probs[mark - 1] if w else 1.0 - probs[mark - 1]
            k += len(block) * w
        total += levels[k] * weight
    return total


class TestGPi:
    def test_singleton_equals_raw_kernel_bitwise(self):
        # both are exact enumerations in the same order: tolerance zero
        pi0 = singleton_partition()
        kern = nlv_kernel(**NLV_RATES)
        rng = np.random.default_rng(42)
        for _ in range(25):
            probs = rng.uniform(0, 1, 5)
            assert g_pi(pi0, probs, **NLV_RATES) == kernel_g(kern).combine_params(probs[None, :])[0]

    def test_all_in_one_block_copies_the_mark(self):
        for j in range(1, 6):
            part = MarkedPartition(((1, 2, 3, 4, 5),), (j,))
            probs = np.array([0.12, 0.3, 0.55, 0.71, 0.9])
            # all five modified votes equal v_j: a0 (1 - p_j) + a5 p_j = p_j
            assert g_pi(part, probs, **NLV_RATES) == pytest.approx(probs[j - 1], abs=1e-15)

    def test_two_block_partition_matches_four_term_sum(self):
        part = MarkedPartition(((1, 2), (3, 4, 5)), (1, 3))
        p = 0.37
        probs = np.full(5, p)
        a = [0.0, NLV_RATES["a1"], NLV_RATES["a2"], NLV_RATES["a3"], NLV_RATES["a4"], 1.0]
        # oracle: blocks of sizes 2 and 3 -> counts {0, 2, 3, 5}
        expected = (
            (1 - p) * (1 - p) * a[0]
            + p * (1 - p) * a[2]
            + (1 - p) * p * a[3]
            + p * p * a[5]
        )
        assert g_pi(part, probs, **NLV_RATES) == pytest.approx(expected, abs=1e-15)

    def test_univariate_coeffs_match_pointwise(self):
        ps = np.array([0.0, 0.21, 0.5, 0.83, 1.0])
        for part in _marked_partitions(5):
            coeffs = g_pi_univariate_coeffs(part, **NLV_RATES)
            poly_vals = np.polynomial.polynomial.polyval(ps, coeffs)
            direct = g_pi_batch(part, np.repeat(ps[:, None], 5, axis=1), **NLV_RATES)
            assert np.max(np.abs(poly_vals - direct)) <= 1e-13

    def test_batch_matches_scalar(self):
        part = MarkedPartition(((1, 3), (2,), (4, 5)), (3, 2, 5))
        rng = np.random.default_rng(3)
        probs = rng.uniform(0, 1, (8, 5))
        batch = g_pi_batch(part, probs, **NLV_RATES)
        for row, val in zip(probs, batch):
            assert val == pytest.approx(_reference_g_pi(part, row, **NLV_RATES), abs=1e-14)

    def test_wrong_length_rejected(self):
        # a short row, short rows, a bare vector, and rows outside [0,1]
        for probs in (np.full(4, 0.5), np.full((2, 4), 0.5), np.full(5, 0.5), np.full((2, 5), 1.5)):
            with pytest.raises(ArgumentError):
                g_pi_batch(singleton_partition(), probs, **NLV_RATES)
