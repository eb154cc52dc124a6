import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualflow.errors import ArgumentError
from dualflow.gfunction import coalescence_partition_distribution, gbar
from dualflow.gfunction.coalescence import (
    _merge_initial_coincidences,
    _run_coalescing,
    sample_box_offsets,
    sample_coalescent_partitions,
)
from dualflow.models import nonlinear_voter_dual

from conftest import NLV_RATES

# Frozen regression constant: probability that two coalescing walkers
# started on adjacent sites of the 3-D lattice (jump rate 3 each) have
# merged by the practical infinite-horizon cutoff. Measured once with
# 1e6 samples and horizon doubling (stderr 4.7e-4); the all-time merge
# probability is the SRW return constant 0.3405, of which the capped
# horizon resolves all but ~5e-3.
ADJACENT_MERGE_WEIGHT = 0.3351


class TestPartitionDistribution:
    def test_far_apart_never_meet(self):
        d = coalescence_partition_distribution(
            [[0, 0, 0], [10**6, 0, 0]], 3, 1.0, 3.0, 1500, rng_seed=42
        )
        assert d.singleton_weight == 1.0

    def test_identical_starts_already_merged(self):
        d = coalescence_partition_distribution(
            [[1, 2, 3], [1, 2, 3]], 3, 1.0, 3.0, 800, rng_seed=42
        )
        merged = [p for p in d.weights if p.n_blocks == 1]
        assert sum(d.weights[p] for p in merged) == 1.0
        # marks are uniform within the block
        w = [d.weights[p] for p in merged]
        assert len(w) == 2
        assert abs(w[0] - w[1]) <= 3 * (d.stderr[merged[0]] + d.stderr[merged[1]])

    def test_adjacent_sites_regression_constant(self):
        d = coalescence_partition_distribution(
            [[0, 0, 0], [1, 0, 0]], 3, math.inf, 3.0, 20000, rng_seed=7
        )
        merge = 1.0 - d.singleton_weight
        se = math.sqrt(merge * (1 - merge) / d.n_samples)
        assert merge == pytest.approx(ADJACENT_MERGE_WEIGHT, abs=4 * se + 0.004)

    def test_weights_sum_to_one(self):
        d = coalescence_partition_distribution(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]], 3, 2.0, 3.0, 2000, rng_seed=3
        )
        assert sum(d.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_coarsening_monotone_in_horizon(self):
        start = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0]]
        w = {}
        for t in (0.5, 4.0):
            d = coalescence_partition_distribution(start, 3, t, 3.0, 4000, rng_seed=11)
            w[t] = (d.singleton_weight, max(d.stderr.values()))
        slack = 3 * (w[0.5][1] + w[4.0][1])
        assert w[0.5][0] >= w[4.0][0] - slack

    def test_zero_samples_rejected(self):
        with pytest.raises(ArgumentError):
            coalescence_partition_distribution([[0, 0, 0]], 3, 1.0, 3.0, 0, rng_seed=1)

    def test_csv_export(self):
        d = coalescence_partition_distribution(
            [[0, 0, 0], [1, 0, 0]], 3, 1.0, 3.0, 500, rng_seed=5
        )
        csv = d.to_csv()
        assert csv.splitlines()[0] == "partition,weight,stderr"
        assert len(csv.splitlines()) == len(d.weights) + 1


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
            dict(initial_cutoff=0.0),
            dict(initial_cutoff=math.nan),
            dict(initial_cutoff=16.0, max_cutoff=8.0),
            dict(max_cutoff=math.inf),
        ],
        ids=repr,
    )
    def test_rejected(self, kwargs):
        args = dict(horizon=math.inf, jump_rate=3.0) | kwargs
        horizon, jump_rate = args.pop("horizon"), args.pop("jump_rate")
        with pytest.raises(ArgumentError):
            sample_coalescent_partitions(
                self.START, 3, horizon, jump_rate, 10, np.random.default_rng(0), **args
            )

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
# for each case below, recorded with the plain one-jump-per-pass
# implementation; any change to the walk's draws or results shows here.
PINNED_WALKS = {
    "d1_m2_T4": "2fb68c9b608dcf9a438590d46aebc658e285eef87f2a1b0eaa9d331ab009edf9",
    "d1_m3_inf": "a742e2d0384d07b78e33d035c0c48ead9537018c738379a889773abe695a9bcb",
    "d2_m3_T0.5": "786bd3e19cf1038923a823dcdb6480968e16e45ad1f468dc26f3b2b80b4e570f",
    "d2_m5_inf": "20f296b914803506b282157be3c8ead4423a761d2a47d12a0af14d8eaedcc3c5",
    "d3_m2_inf": "ed0a22ed84cb7fbf2a0773367bcd4021ed6d9247881edf85989d9d2d07bc37d6",
    "d3_m3_T4_slow": "1ab3e52f583bb5392596c1d29a673c3c8e6de9b0887ddfa8f1e63857e9761b1d",
    "d3_m5_T4": "fd92bd3b4706b091921728c2df0b45768adcaa581eb74287e7c02b3ec0de05f6",
    "d3_m5_inf": "ecce59a9567ba0b1b1e2c9af067095982d57039e146fc21aeb2305dd796d8179",
    "d3_m3_coincident_inf": "179ac15ec4510ae12ed4db1f85a36f537f41da78e9b178000727665d997d5d13",
    "d3_m5_box_inf": "117c5c715bec439874d8b06821f5109dc9f4ac7f3e7a1feb9549d60e1a03da53",
    "d3_m5_box_T2": "59979dfd4371a0a013a1fbda8026a5d47729ba924cfbb46c43dbcd5ae4e996da",
    "d3_m5_box_n1_inf": "99380d1c6896122bf22a82ea917a9353188745aae281ee998b2ab1fa2a9dc37d",
    "d3_m5_box_n3_inf": "6acb7136f2c326273efbcb0ad968566db6a1237d3d1870d66beb28a9d9b6f466",
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


@pytest.mark.parametrize("case", range(24))
def test_walk_pass_equals_reference(case):
    """Positions, labels, clocks and generator state match the plain
    definition after each of several successive horizons."""
    gen = np.random.default_rng(case)
    dim, m, n = int(gen.integers(1, 5)), int(gen.integers(2, 7)), int(gen.integers(1, 120))
    pos = gen.integers(-2, 3, size=(n, m, dim))
    rep = np.tile(np.arange(m), (n, 1))
    _merge_initial_coincidences(pos, rep)
    state = [(pos, rep, np.zeros(n)), (pos.copy(), rep.copy(), np.zeros(n))]
    rngs = [np.random.default_rng(1000 + case), np.random.default_rng(1000 + case)]
    for t_end in (0.25, 0.25, 2.0, 9.0):
        jump_rate = float(gen.choice([0.5, dim]))
        _run_coalescing(*state[0], t_end, jump_rate, rngs[0])
        _reference_run_coalescing(*state[1], t_end, jump_rate, rngs[1])
        for new, ref in zip(*state):
            assert np.array_equal(new, ref)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
