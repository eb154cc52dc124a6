import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dualflow.errors import ArgumentError
from dualflow.gfunction import gbar
from dualflow.gfunction.coalescence import (
    _MAX_LEAP,
    _merge_initial_coincidences,
    _run_coalescing,
    mark_blocks,
    sample_box_offsets,
    sample_coalescent_partitions,
)
from dualflow.gfunction.nlv import partition_label
from dualflow.models import nonlinear_voter_dual
from dualflow.rng import derive_rng

from conftest import NLV_RATES

# Frozen regression constant: probability that two coalescing walkers
# started on adjacent sites of the 3-D lattice (jump rate 3 each) have
# merged by the practical infinite-horizon cutoff. Measured once with
# 1e6 samples and horizon doubling (stderr 4.7e-4); the all-time merge
# probability is the SRW return constant 0.3405, of which the capped
# horizon resolves all but ~5e-3.
ADJACENT_MERGE_WEIGHT = 0.3351


def _copy_map_frequencies(rep, rng):
    """Weights and binomial stderrs of the copy maps `mark_blocks` draws
    from the label rows, keyed by their labels."""
    maps, counts = np.unique(mark_blocks(rep, rng), axis=0, return_counts=True)
    weights = {partition_label(c): k / rep.shape[0] for c, k in zip(maps, counts)}
    return weights, {p: math.sqrt(w * (1.0 - w) / rep.shape[0]) for p, w in weights.items()}


def _partition_weights(start, horizon, n_samples, seed):
    """Copy-map weights and binomial stderrs of 3-D coalescing walks
    (jump rate 3) from ``start``, marks drawn on the walks' stream."""
    rng = derive_rng(seed, 0xC0A1)
    rep, _, _ = sample_coalescent_partitions(start, 3, horizon, 3.0, n_samples, rng)
    return _copy_map_frequencies(rep, rng)


def _singleton_weight(weights, m):
    return weights.get(partition_label(range(m)), 0.0)


class TestPartitionDistribution:
    def test_far_apart_never_meet(self):
        weights, _ = _partition_weights([[0, 0, 0], [10**6, 0, 0]], 1.0, 1500, 42)
        assert _singleton_weight(weights, 2) == 1.0

    def test_identical_starts_already_merged(self):
        weights, stderr = _partition_weights([[1, 2, 3], [1, 2, 3]], 1.0, 800, 42)
        merged = [p for p in weights if "|" not in p]
        assert sum(weights[p] for p in merged) == 1.0
        # marks are uniform within the block
        w = [weights[p] for p in merged]
        assert len(w) == 2
        assert abs(w[0] - w[1]) <= 3 * (stderr[merged[0]] + stderr[merged[1]])

    def test_adjacent_sites_regression_constant(self):
        n = 20000
        weights, _ = _partition_weights([[0, 0, 0], [1, 0, 0]], math.inf, n, 7)
        merge = 1.0 - _singleton_weight(weights, 2)
        se = math.sqrt(merge * (1 - merge) / n)
        assert merge == pytest.approx(ADJACENT_MERGE_WEIGHT, abs=4 * se + 0.004)

    def test_weights_sum_to_one(self):
        weights, _ = _partition_weights([[0, 0, 0], [1, 0, 0], [0, 1, 0]], 2.0, 2000, 3)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_coarsening_monotone_in_horizon(self):
        start = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0]]
        w = {}
        for t in (0.5, 4.0):
            weights, stderr = _partition_weights(start, t, 4000, 11)
            w[t] = (_singleton_weight(weights, 5), max(stderr.values()))
        slack = 3 * (w[0.5][1] + w[4.0][1])
        assert w[0.5][0] >= w[4.0][0] - slack

    def test_zero_samples_rejected(self):
        with pytest.raises(ArgumentError):
            _partition_weights([[0, 0, 0]], 1.0, 0, 1)


def test_mark_blocks_marks_each_member_uniformly():
    # 30,000 rows with the block {1, 3, 5} and two singletons: every member
    # of the block is its mark a third of the time, within 4 sigma
    n = 30_000
    maps = mark_blocks(np.tile([0, 1, 0, 3, 0], (n, 1)), np.random.default_rng(8))
    assert maps.shape == (n, 5)
    assert np.array_equal(maps[:, [1, 3]], np.tile([1, 3], (n, 1)))
    assert np.array_equal(maps[:, [0, 2, 4]], np.repeat(maps[:, :1], 3, axis=1))
    freq = np.bincount(maps[:, 0], minlength=5)[[0, 2, 4]] / n
    assert np.max(np.abs(freq - 1 / 3)) <= 4 * math.sqrt(2 / 9 / n), freq


class TestGbar:
    def test_symmetry_and_fixed_points_any_config(self):
        geff = gbar(2, 3, 8.0, n_samples=1200, rng_seed=5, **NLV_RATES)
        ps = np.linspace(0, 1, 101)
        assert np.max(np.abs(geff(ps) + geff(1 - ps) - 1)) <= 1e-10
        assert float(geff(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(geff(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert float(geff(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_weight_vector_sums_to_one(self):
        geff = gbar(3, 3, 16.0, n_samples=1000, rng_seed=9, **NLV_RATES)
        total = sum(geff.metadata["weights"].values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_box_approaches_polynomial(self, nlv_g):
        ps = np.linspace(0, 1, 101)
        sup = {}
        for L in (2, 10):
            geff = gbar(L, 3, math.inf, n_samples=1500, rng_seed=13, **NLV_RATES)
            sup[L] = float(np.max(np.abs(geff(ps) - nlv_g(ps))))
        assert sup[10] < sup[2]
        assert sup[10] < 0.02

    def test_interior_equilibria_bracket_half(self):
        from dualflow.gfunction import find_fixed_points

        geff = gbar(4, 3, math.inf, n_samples=1500, rng_seed=21, **NLV_RATES)
        fps = find_fixed_points(geff, tol=1e-13)
        interior = [p for p in fps if 0.02 < p < 0.98 and abs(p - 0.5) > 0.01]
        assert len(interior) == 2
        a_eps, b_eps = interior
        assert a_eps < 0.5 < b_eps
        assert a_eps + b_eps == pytest.approx(1.0, abs=1e-8)


class TestGbarHorizonConvergence:
    def test_interior_fixed_point_converges_with_horizon(self):
        # derived targets (n=4000, seed 77): longer coalescence horizons
        # move the lower equilibrium monotonically toward its limit
        from dualflow.gfunction import find_fixed_points

        targets = {2.0: 0.2175, 16.0: 0.2338, math.inf: 0.2468}
        measured = {}
        for horizon in targets:
            geff = gbar(3, 3, horizon, n_samples=4000, rng_seed=77, **NLV_RATES)
            fps = find_fixed_points(geff, tol=1e-13)
            inter = [p for p in fps if 0.02 < p < 0.48]
            assert len(inter) == 1
            measured[horizon] = inter[0]
        assert measured[2.0] < measured[16.0] < measured[math.inf]
        for horizon, target in targets.items():
            assert measured[horizon] == pytest.approx(target, abs=0.012)


class TestBadWalkInputs:
    START = [[0, 0, 0], [1, 0, 0]]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(horizon=math.nan),
            dict(horizon=-math.inf),
            dict(horizon=-1.0),
            dict(jump_rate=math.inf),
            dict(jump_rate=math.nan),
            dict(jump_rate=0.0),
        ],
        ids=repr,
    )
    def test_rejected(self, kwargs):
        args = dict(horizon=math.inf, jump_rate=3.0) | kwargs
        with pytest.raises(ArgumentError):
            sample_coalescent_partitions(
                self.START, 3, args["horizon"], args["jump_rate"], 10, np.random.default_rng(0)
            )

    @pytest.mark.parametrize(
        "start,dim,n_samples",
        [
            ([[0.4, 0, 0], [0, 0, 0]], 3, 10),
            (np.full((10, 2, 3), 0.5), 3, 10),
            ([[math.nan, 0, 0], [0, 0, 0]], 3, 10),
            ([[math.inf, 0, 0], [0, 0, 0]], 3, 10),
            ([["0", "0", "0"], ["1", "0", "0"]], 3, 10),
            ([[0, 0, 0], [2**61 // 3 + 1, 0, 0]], 3, 10),
            ([[0, 0, 0], [-(2**63), 0, 0]], 3, 10),
            ([[0, 0, 0], [1, 0, 0]], 3, 2.5),
            ([[0, 0, 0], [1, 0, 0]], 3, 10.0),
            ([[0, 0, 0], [1, 0, 0]], 3, True),
            ([[i] for i in range(43)], 1, 10),
            ([[], []], 0, 10),
        ],
        ids=[
            "fractional", "fractional_per_sample", "nan", "inf", "strings",
            "l1_overflow", "int64_min", "n_fractional", "n_float", "n_bool", "43_walkers", "dim_zero",
        ],
    )
    def test_bad_start_or_count_rejected(self, start, dim, n_samples):
        with pytest.raises(ArgumentError):
            sample_coalescent_partitions(start, dim, 1.0, 3.0, n_samples, np.random.default_rng(0))

    def test_integral_float_offsets_accepted(self):
        runs = [
            sample_coalescent_partitions(start, 3, 4.0, 3.0, 50, np.random.default_rng(3))
            for start in (self.START, np.asarray(self.START, dtype=float))
        ]
        assert np.array_equal(runs[0][0], runs[1][0])

    @pytest.mark.parametrize("L,dim", [(1, 1), (0, 3), (0, 1)])
    def test_box_without_four_nonzero_sites_rejected(self, L, dim):
        with pytest.raises(ArgumentError):
            sample_box_offsets(L, dim, 5, np.random.default_rng(0))

    def test_box_with_exactly_four_nonzero_sites_accepted(self):
        # L=2, dim=1: the four nonzero sites of [-2, 2] in some order
        offs = sample_box_offsets(2, 1, 20, np.random.default_rng(0))
        assert (np.sort(offs[:, 1:, 0], axis=1) == [-2, -1, 1, 2]).all()

    def test_gbar_and_nlv_bundle_reject_small_box(self):
        with pytest.raises(ArgumentError):
            gbar(1, 1, 1.0, n_samples=10, rng_seed=1, **NLV_RATES)
        with pytest.raises(ArgumentError):
            nonlinear_voter_dual(0.3, 1, dim=1)


# SHA-256 of the labels (little-endian int64) and of repr((cutoff, notes))
# for each case below, recorded with the leaping pass; any change to the
# walk's draws or results shows here.
PINNED_WALKS = {
    "d1_m2_T4": "8dc6423475f6c8e423fe2ade1b20e637ad01949f4430bb300288423f3e337b12",
    "d1_m3_inf": "87c8d7feb1887982a4ad1f55c9d81a2eda2deed9acaf67d57ff6569eb3b99ba1",
    "d2_m3_T0.5": "8b7c50d43b0540af3030b109e3b43ebc2332db68d7bb5f19344e5c422e36f2f9",
    "d2_m5_inf": "6ae3f04bd6d2b0d9de70a8d08193ea38ea33b1e586c83b94f9df8393314f50ac",
    "d3_m2_inf": "8d4eaa1c7d9b3becc82a3bec2d9f8117dcbfc2a08d89eaeefe40caca28960884",
    "d3_m3_T4_slow": "8b7968a689a67d9dc448aa11a54107a3561d981fde65afaab7d7649da729c6a1",
    "d3_m5_T4": "0d58bcc152b1fab54b2eee28beeb91d3c3425121644e11daa11b74930880246f",
    "d3_m5_inf": "e89eca6a049cdd8166a4ca011f096ba9bde5de7d48f913467cc54a326484e021",
    "d3_m3_coincident_inf": "84bfd0326c4bc34814adb4258283491d2ea5b751a20edc450b7e08fa1ad3f2ce",
    "d3_m5_box_inf": "1414f7349b6c63f63df49dd529fd0d900f3b5a4be02e53be5dabc447e5d3aa95",
    "d3_m5_box_T2": "688515672108cda827690c6952e4477c04bd7a87ee89ca56b686aeb420995abc",
    "d3_m5_box_n1_inf": "8407e4bc32d76bccc14a9d4f19fda083d80a075a4bd4a23a884faecade51570c",
    "d3_m5_box_n3_inf": "97bf0b19d869b0886a8f845d76d254f8a92a4482e176d3c955a5ba42793fc3d3",
}

# name: (start, dim, horizon, jump_rate, n_samples); "box" draws per-sample
# (n, 5, 3) starts from sample_box_offsets(2, 3, ...), as the NLV combine does
WALK_CASES = {
    "d1_m2_T4": ([[0], [1]], 1, 4.0, 1.0, 200),
    "d1_m3_inf": ([[0], [2], [-3]], 1, math.inf, 1.0, 100),
    "d2_m3_T0.5": ([[0, 0], [1, 0], [0, 1]], 2, 0.5, 2.0, 300),
    "d2_m5_inf": ([[0, 0], [1, 0], [0, 1], [-1, 0], [2, 2]], 2, math.inf, 2.0, 60),
    "d3_m2_inf": ([[0, 0, 0], [1, 0, 0]], 3, math.inf, 3.0, 200),
    "d3_m3_T4_slow": ([[0, 0, 0], [1, 1, 0], [0, 0, 2]], 3, 4.0, 0.5, 300),
    "d3_m5_T4": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0]], 3, 4.0, 3.0, 300),
    "d3_m5_inf": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0]], 3, math.inf, 3.0, 120),
    "d3_m3_coincident_inf": ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 3, math.inf, 3.0, 150),
    "d3_m5_box_inf": ("box", 3, math.inf, 3.0, 150),
    "d3_m5_box_T2": ("box", 3, 2.0, 3.0, 150),
    "d3_m5_box_n1_inf": ("box", 3, math.inf, 3.0, 1),
    "d3_m5_box_n3_inf": ("box", 3, math.inf, 3.0, 3),
}


class TestWalksBitIdentical:
    @pytest.mark.parametrize("name", list(WALK_CASES))
    def test_walk_digest_pinned(self, name):
        start, dim, horizon, jump_rate, n = WALK_CASES[name]
        seed = sum(map(ord, name))
        if start == "box":
            start = sample_box_offsets(2, 3, n, np.random.default_rng(seed))
        rep, cutoff, notes = sample_coalescent_partitions(
            start, dim, horizon, jump_rate, n, np.random.default_rng(seed)
        )
        digest = hashlib.sha256(rep.astype("<i8").tobytes())
        digest.update(repr((cutoff, notes)).encode())
        assert digest.hexdigest() == PINNED_WALKS[name]

    def test_gbar_metadata_pinned(self):
        path = Path(__file__).parent / "data" / "gbar_L2_dim3_inf_n200_seed11.json"
        expected = json.loads(path.read_text())
        meta = gbar(2, 3, math.inf, n_samples=200, rng_seed=11, **NLV_RATES).metadata
        assert meta == expected
        assert list(meta["weights"]) == list(expected["weights"])


def _reference_run_coalescing(pos, rep, t, t_end, jump_rate, rng):
    """The plain one-jump-per-pass definition, gathering from the full arrays."""
    n, m, dim = pos.shape
    ar_m = np.arange(m)
    rows = np.arange(n)
    while rows.size:
        active = rep[rows] == ar_m[None, :]
        k = active.sum(axis=1)
        running = (t[rows] < t_end) & (k > 1)
        finished = rows[~running]
        t[finished] = np.maximum(t[finished], t_end)
        rows = rows[running]
        if rows.size == 0:
            return
        active = active[running]
        k = k[running]
        dt = rng.exponential(1.0, size=rows.size) / (k * jump_rate)
        proposal = t[rows] + dt
        fire = proposal <= t_end
        t[rows] = np.minimum(proposal, t_end)
        if not fire.any():
            continue
        frows = rows[fire]
        af = active[fire]
        nf = frows.size
        u = rng.integers(0, k[fire])
        walker = np.argmax(np.cumsum(af, axis=1) == (u + 1)[:, None], axis=1)
        direction = rng.integers(0, 2 * dim, size=nf)
        axis = direction >> 1
        pos[frows, walker, axis] += np.where(direction & 1, -1, 1)
        newpos = pos[frows, walker, :]
        af[np.arange(nf), walker] = False
        hits = np.all(pos[frows] == newpos[:, None, :], axis=2) & af
        hit_any = hits.any(axis=1)
        if hit_any.any():
            rr = frows[hit_any]
            partner = np.argmax(hits[hit_any], axis=1)
            w = walker[hit_any]
            lo = np.minimum(rep[rr, w], rep[rr, partner])
            hi = np.maximum(rep[rr, w], rep[rr, partner])
            sub = rep[rr]
            np.putmask(sub, sub == hi[:, None], np.broadcast_to(lo[:, None], sub.shape))
            rep[rr] = sub


def _pooled_z(count_a, count_b, n):
    """Two-sample z of equal-size binomial counts, pooled variance."""
    p = (count_a + count_b) / (2 * n)
    return 0.0 if p in (0.0, 1.0) else (count_a - count_b) / math.sqrt(2 * n * p * (1 - p))


def _block_counts(rep):
    m = rep.shape[1]
    return np.bincount((rep == np.arange(m)).sum(axis=1), minlength=m + 1)


@pytest.mark.parametrize("case", range(24))
def test_walk_pass_equals_reference(case):
    """The leaping pass and the plain one-jump definition give the same
    block-count law (within 4 sigma, 4000 samples of one random start)
    after each of several successive horizons, and both leave every
    clock at the horizon and no two active walkers on one site."""
    gen = np.random.default_rng(case)
    dim, m, n = int(gen.integers(1, 5)), int(gen.integers(2, 7)), 4000
    start = np.broadcast_to(gen.integers(-2, 3, size=(m, dim)), (n, m, dim))
    states = []
    for _ in range(2):
        pos, rep = start.copy(), np.tile(np.arange(m), (n, 1))
        _merge_initial_coincidences(pos, rep)
        states.append((pos, rep, np.zeros(n)))
    rngs = [np.random.default_rng(1000 + case), np.random.default_rng(2000 + case)]
    for t_end in (0.25, 0.25, 2.0, 9.0):
        jump_rate = float(gen.choice([0.5, dim]))
        _run_coalescing(*states[0], t_end, jump_rate, rngs[0])
        _reference_run_coalescing(*states[1], t_end, jump_rate, rngs[1])
        for pos, rep, t in states:
            assert (t == t_end).all()
            for i in range(m):
                for j in range(i + 1, m):
                    both = (rep[:, i] == i) & (rep[:, j] == j)
                    assert not (both & (pos[:, i] == pos[:, j]).all(axis=1)).any()
        counts = [_block_counts(rep) for _, rep, _ in states]
        z = [_pooled_z(a, b, n) for a, b in zip(*counts)]
        assert max(map(abs, z)) <= 4.0, (t_end, z)


def _merge_probability_1d(distance, horizon, jump_rate):
    """P(two walkers on Z at this distance have met by the horizon).

    Their difference jumps +-1 at rate 2 * jump_rate and a merge is its
    first visit to 0, so the answer is the Poisson(2 * jump_rate *
    horizon) mixture, over the number of jumps, of the embedded walk's
    probability to hit 0 within that many steps (dynamic programming on
    the unabsorbed mass)."""
    lam = 2.0 * jump_rate * horizon
    n_max = int(lam + 12 * math.sqrt(lam) + 40)
    mass = np.zeros(distance + n_max + 2)
    mass[distance] = 1.0
    pois = math.exp(-lam)
    hit, total = 0.0, 0.0
    for steps in range(n_max + 1):
        total += pois * hit
        pois *= lam / (steps + 1)
        nxt = np.zeros_like(mass)
        nxt[:-1] += 0.5 * mass[1:]
        nxt[1:] += 0.5 * mass[:-1]
        hit += nxt[0]
        nxt[0] = 0.0
        mass = nxt
    return total


@pytest.mark.parametrize(
    "distance,horizons",
    [(1, (0.5, 2.0)), (2, (1.0,)), (3, (0.25, 0.25, 4.0, 10.0)), (6, (8.0, 30.0)), (15, (40.0,))],
    ids=repr,
)
def test_two_walkers_dim1_match_exact_law(distance, horizons):
    """The merged fraction of 40,000 pairs matches the exact merge
    probability within 4 sigma after each of successive horizons."""
    n, jump_rate = 40_000, 1.0
    pos = np.zeros((n, 2, 1), dtype=np.int64)
    pos[:, 1, 0] = distance
    rep = np.tile(np.arange(2), (n, 1))
    t = np.zeros(n)
    rng = np.random.default_rng(distance)
    for horizon in horizons:
        _run_coalescing(pos, rep, t, horizon, jump_rate, rng)
        p = _merge_probability_1d(distance, horizon, jump_rate)
        merged = float(np.mean(rep[:, 1] == 0))
        assert abs(merged - p) <= 4 * math.sqrt(p * (1 - p) / n), (horizon, merged, p)


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("horizons", [(1.0,), (0.25, 0.25, 2.0, 9.0)], ids=repr)
def test_box_starts_law_matches_reference(m, horizons):
    """Block-count frequencies of 20,000 box starts (L = 2 in 3-D, as the
    NLV bundle draws them) agree with the plain definition within 4 sigma
    after each horizon, and marked-partition frequencies after the last."""
    n = 20_000
    start = sample_box_offsets(2, 3, n, np.random.default_rng(m))[:, :m]
    states, rngs = [], [np.random.default_rng(10 + m), np.random.default_rng(20 + m)]
    for _ in range(2):
        pos, rep = start.copy(), np.tile(np.arange(m), (n, 1))
        _merge_initial_coincidences(pos, rep)
        states.append((pos, rep, np.zeros(n)))
    for horizon in horizons:
        _run_coalescing(*states[0], horizon, 3.0, rngs[0])
        _reference_run_coalescing(*states[1], horizon, 3.0, rngs[1])
        counts = [_block_counts(rep) for _, rep, _ in states]
        z = [_pooled_z(a, b, n) for a, b in zip(*counts)]
        assert max(map(abs, z)) <= 4.0, (horizon, z)
    freq = [_copy_map_frequencies(rep, np.random.default_rng(5))[0] for _, rep, _ in states]
    z = [_pooled_z(freq[0].get(p, 0.0) * n, freq[1].get(p, 0.0) * n, n) for p in set(freq[0]) | set(freq[1])]
    assert max(map(abs, z)) <= 4.0, max(z, key=abs)


def test_far_walkers_leap_in_bounded_steps():
    """Walkers 10**6 apart never meet by t = 2000; each pass takes at
    most _MAX_LEAP jumps per sample, so memory stays small although the
    first leap could be 10**6 jumps long."""
    n = 500
    pos = np.zeros((n, 2, 3), dtype=np.int64)
    pos[:, 1, 0] = 10**6
    rep = np.tile(np.arange(2), (n, 1))
    tracemalloc.start()
    try:
        passes, jumps = _run_coalescing(pos, rep, np.zeros(n), 2000.0, 3.0, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep == np.arange(2)).all()
    assert jumps <= passes * _MAX_LEAP * n
    assert jumps == pytest.approx(2 * 3.0 * 2000.0 * n, rel=0.01)
    assert peak < 32 * 2**20


def test_box_walk_pass_count_guard():
    """750 L = 2 box starts taken through gbar's doubling to the 512 cap
    need fewer than 2,000 passes (the one-jump-per-pass walk took 8,228)."""
    n = 750
    rng = np.random.default_rng(2024)
    pos = sample_box_offsets(2, 3, n, rng)
    rep = np.tile(np.arange(5), (n, 1))
    _merge_initial_coincidences(pos, rep)
    t = np.zeros(n)
    passes = 0
    cutoff = 8.0
    while cutoff <= 512.0:
        passes += _run_coalescing(pos, rep, t, cutoff, 3.0, rng)[0]
        cutoff *= 2
    assert passes < 2000
