from itertools import product

import numpy as np
import pytest

from dualflow.errors import ArgumentError
from dualflow.gfunction import (
    find_fixed_points,
    g_pi_batch,
    kernel_g,
    nlv_kernel,
    nlv_polynomial_g,
    nlv_rate_flags,
    verify_g_axioms,
)
from dualflow.gfunction.coalescence import mark_blocks, sample_coalescent_partitions
from dualflow.gfunction.nlv import check_copy_map, g_pi_univariate_coeffs, parse_partition, partition_label

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


IDENTITY = (0, 1, 2, 3, 4)


def _labelled_maps(n=5):
    """(label, copy map) of every marked partition of {1..n}, built from
    the restricted-growth block strings (each block index at most one
    above every index before it) and a choice of mark per block."""
    out = []
    for labels in product(range(n), repeat=n):
        if any(labels[i] > max(labels[:i], default=-1) + 1 for i in range(n)):
            continue
        blocks = [[i for i in range(n) if labels[i] == b] for b in range(max(labels) + 1)]
        for marks in product(*blocks):
            text = "|".join("".join(f"{i + 1}*" if i == mark else f"{i + 1}" for i in block) for block, mark in zip(blocks, marks))
            copy = [0] * n
            for block, mark in zip(blocks, marks):
                for i in block:
                    copy[i] = mark
            out.append((text, tuple(copy)))
    return out


def _copy_maps(n=5):
    """The idempotent maps of {0..n-1} into itself: c[c[j]] = c[j]."""
    return [c for c in product(range(n), repeat=n) if all(c[c[j]] == c[j] for j in range(n))]


class TestMarkedPartitions:
    def test_count_is_196(self):
        maps = _copy_maps(5)
        assert len(maps) == 196
        assert sorted(c for _, c in _labelled_maps(5)) == maps
        # every copy map that marked coalescing walks produce is one of them
        rng = np.random.default_rng(5)
        start = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
        rep, _, _ = sample_coalescent_partitions(start, 3, 2.0, 3.0, 400, rng)
        drawn = set(map(tuple, mark_blocks(rep, rng).tolist()))
        assert len(drawn) > 10 and drawn <= set(maps)

    def test_copy_map_roundtrip(self):
        # the label of every copy map, and the map of every label, against
        # the enumeration that builds both from the blocks and their marks
        for text, copy_map in _labelled_maps(5):
            assert partition_label(copy_map) == text
            assert parse_partition(text).tolist() == list(copy_map)
        assert partition_label(IDENTITY) == "1*|2*|3*|4*|5*"

    def test_parse_string_roundtrip(self):
        for copy_map in _copy_maps(5):
            text = partition_label(copy_map)
            assert tuple(parse_partition(text).tolist()) == copy_map
            assert partition_label(parse_partition(text)) == text
        assert parse_partition("3*|12*").tolist() == [1, 1, 2]  # blocks in any order

    def test_malformed_partitions_rejected(self):
        # a chain and a swap (c[c[j]] != c[j] puts a mark outside its own
        # block), entries out of range, an empty map, floats, two dimensions
        bad_maps = [(1, 2, 2, 3, 4), (2, 1, 0, 3, 4), (0, 0, 0, 0, 7), (-1, 1, 2, 3, 4), (), (0.0, 1.0), [[0, 1], [0, 1]]]
        refusers = [
            check_copy_map,
            partition_label,
            lambda c: g_pi_batch(c, np.full((1, 5), 0.5), **NLV_RATES),
            lambda c: g_pi_univariate_coeffs(c, **NLV_RATES),
        ]
        for bad, refuse in product(bad_maps, refusers):
            with pytest.raises(ArgumentError):
                refuse(bad)
        # an overlap, a block with no mark and one with two, a gap, and junk
        for text in ["12*|2*3|4*5", "12|3*4*5", "1*|3*", "", "1*x", "*1", "1**", "0*|1*"]:
            with pytest.raises(ArgumentError):
                parse_partition(text)


def g_pi(copy_map, probs, **rates):
    """g^c at one probability vector, through a one-row batch."""
    return float(g_pi_batch(copy_map, np.asarray(probs, dtype=float)[None, :], **rates)[0])


def _reference_g_pi(copy_map, probs, a1, a2, a3, a4):
    """The plain definition at one probability vector: a scalar loop over
    the marks' vote patterns."""
    levels = [0.0, a1, a2, a3, a4, 1.0]
    marks = list(dict.fromkeys(copy_map))
    total = 0.0
    for pattern in range(2 ** len(marks)):
        weight, k = 1.0, 0
        for j, mark in enumerate(marks):
            w = (pattern >> j) & 1
            weight *= probs[mark] if w else 1.0 - probs[mark]
            k += list(copy_map).count(mark) * w
        total += levels[k] * weight
    return total


class TestGPi:
    def test_singleton_equals_raw_kernel_bitwise(self):
        # both are exact enumerations in the same order: tolerance zero
        kern = nlv_kernel(**NLV_RATES)
        rng = np.random.default_rng(42)
        for _ in range(25):
            probs = rng.uniform(0, 1, 5)
            assert g_pi(IDENTITY, probs, **NLV_RATES) == kernel_g(kern).combine_params(probs[None, :])[0]

    def test_all_in_one_block_copies_the_mark(self):
        for j in range(5):
            probs = np.array([0.12, 0.3, 0.55, 0.71, 0.9])
            # all five modified votes equal v_j: a0 (1 - p_j) + a5 p_j = p_j
            assert g_pi([j] * 5, probs, **NLV_RATES) == pytest.approx(probs[j], abs=1e-15)

    def test_two_block_partition_matches_four_term_sum(self):
        part = (0, 0, 2, 2, 2)  # blocks {1, 2} and {3, 4, 5}, marked 1 and 3
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
        for part in _copy_maps(5):
            coeffs = g_pi_univariate_coeffs(part, **NLV_RATES)
            poly_vals = np.polynomial.polynomial.polyval(ps, coeffs)
            direct = g_pi_batch(part, np.repeat(ps[:, None], 5, axis=1), **NLV_RATES)
            assert np.max(np.abs(poly_vals - direct)) <= 1e-13

    def test_batch_matches_scalar(self):
        part = (2, 1, 2, 4, 4)  # blocks {1, 3}, {2}, {4, 5}, marked 3, 2 and 5
        rng = np.random.default_rng(3)
        probs = rng.uniform(0, 1, (8, 5))
        batch = g_pi_batch(part, probs, **NLV_RATES)
        for row, val in zip(probs, batch):
            assert val == pytest.approx(_reference_g_pi(part, row, **NLV_RATES), abs=1e-14)

    def test_wrong_length_rejected(self):
        # a short row, short rows, a bare vector, and rows outside [0,1]
        for probs in (np.full(4, 0.5), np.full((2, 4), 0.5), np.full(5, 0.5), np.full((2, 5), 1.5)):
            with pytest.raises(ArgumentError):
                g_pi_batch(IDENTITY, probs, **NLV_RATES)
