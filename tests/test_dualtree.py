import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import dualflow.dualtree.forest
import dualflow.models
from dualflow.dualtree import (
    BranchingSpec,
    TimeLabelledTree,
    Wave,
    estimate_vote_probabilities,
    estimate_vote_probability,
    forest_root_params,
    root_vote_prob_exact,
    sample_votes_batch,
    simulate_tree,
)
from dualflow.errors import ArgumentError, ResourceError
from dualflow.gfunction import iterate_g, kernel_g, majority_kernel
from dualflow.models import brownian_motion, nonlinear_voter_dual, sexual_reproduction_dual, ternary_bbm
from dualflow.onedim import bbm1d_spec, step_profile
from dualflow.pde import field_from_function
from dualflow.rng import derive_rng
from dualflow.verify import check_equilibria, plus_phase_profile

from conftest import NLV_RATES

DATA = Path(__file__).parent / "data"


def bbm_spec(epsilon=0.3, dim=1):
    return ternary_bbm(epsilon, dim).spec


def regular_tree(height: int, n_children: int = 3, leaf_positions=0.0) -> TimeLabelledTree:
    """Deterministic full tree with unit branch spacing, for oracles."""
    horizon = float(height) if height > 0 else 1.0
    waves = []
    for level in range(height + 1):
        n, leaf = n_children**level, level == height
        waves.append(
            Wave(
                np.full(n, leaf),
                leaves=np.full((n, 1), float(leaf_positions)) if leaf else None,
                birth=np.full(n, float(level)),
                death=np.full(n, horizon if leaf else level + 1.0),
                at_death=np.zeros((0 if leaf else n, 1)),
            )
        )
    return TimeLabelledTree(n_children, 1, horizon, np.array([0.0]), waves)


def shape(tree: TimeLabelledTree) -> tuple[int, int]:
    """Heights of the largest regular tree the genealogy contains (the
    first wave that holds a leaf) and of the smallest that contains it
    (the number of waves, less one)."""
    first_leaf = next(w for w, wave in enumerate(tree.waves) if wave.is_leaf.any())
    return first_leaf, len(tree.waves) - 1


class TestUlamIndex:
    """Ulam-Harris paths of the JSON view: child j of the vertex at path u
    sits at u + (j,)."""

    def test_parent_child(self):
        paths = [tuple(rec["path"]) for rec in json.loads(regular_tree(2).to_json())["vertices"]]
        assert paths == sorted(paths) and len(paths) == 13
        assert (2, 1) in paths and (2,) in paths
        assert all(p[:-1] in paths for p in paths if p)
        assert max(map(len, paths)) == 2

    def test_root_has_no_parent(self):
        records = json.loads(regular_tree(2).to_json())["vertices"]
        root = records[0]
        assert root["path"] == [] and root["birth"] == 0.0
        assert [rec["path"] for rec in records if not rec["path"]] == [[]]
        assert all(rec["birth"] == root["death"] for rec in records if len(rec["path"]) == 1)


class TestSimulateTree:
    def test_no_branching_single_leaf(self):
        spec = BranchingSpec(
            dim=1,
            n_children=3,
            branch_rate=0.0,
            motion=brownian_motion(1.0),
            dispersal=lambda parents, rng: np.repeat(parents[:, None, :], 3, axis=1),
        )
        tree = simulate_tree(spec, [0.0], 1.0, rng_seed=4)
        assert len(tree) == 1
        tree.validate()

    def test_zero_horizon_single_vertex(self):
        tree = simulate_tree(bbm_spec(), [0.7], 0.0, rng_seed=4)
        assert len(tree) == 1
        assert tree.leaves()[0, 0] == pytest.approx(0.7)

    def test_mean_leaf_count_matches_growth_rate(self):
        # population mean e^{(N0-1) rate t} = e^{2 rate t} for ternary trees
        spec = bbm_spec(epsilon=0.5)
        t = 0.2
        expected = math.exp(2 * spec.branch_rate * t)
        counts = [len(simulate_tree(spec, [0.0], t, rng_seed=s).leaves()) for s in range(400)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert mean == pytest.approx(expected, abs=4 * se)

    def test_budget_refusal_is_upfront(self):
        spec = bbm_spec(epsilon=0.05)
        with pytest.raises(ResourceError):
            simulate_tree(spec, [0.0], 10.0, rng_seed=1, max_vertices=1000)

    def test_bit_reproducible(self):
        a = simulate_tree(bbm_spec(), [0.0], 0.3, rng_seed=99)
        b = simulate_tree(bbm_spec(), [0.0], 0.3, rng_seed=99)
        assert a.to_json() == b.to_json()

    def test_first_branch_time_is_exponential(self):
        # root lifetimes from simulated trees, compared against the
        # exponential law truncated at the horizon (leaves are censored)
        spec = bbm_spec(epsilon=0.5)  # rate 4
        rate, horizon = spec.branch_rate, 0.5
        lifetimes = []
        for s in range(10000):
            tree = simulate_tree(spec, [0.0], horizon, rng_seed=s)
            death = tree.waves[0].death[0]
            if death < horizon:
                lifetimes.append(death)
        norm = 1.0 - math.exp(-rate * horizon)

        def truncated_cdf(x):
            return (1.0 - np.exp(-rate * np.asarray(x))) / norm

        ks = stats.kstest(lifetimes, truncated_cdf)
        assert ks.statistic < stats.ksone.ppf(0.99, len(lifetimes))

    def test_splitting_property_of_shapes(self):
        # vertex-count law of the height-h truncation matches a direct
        # height-h simulation
        spec = bbm_spec(epsilon=0.45)
        h, t_extra = 0.15, 0.1

        def truncated_count(tree, h):
            return sum(int(np.count_nonzero(wave.birth <= h)) for wave in tree.waves)

        direct = []
        truncated = []
        for s in range(300):
            direct.append(len(simulate_tree(spec, [0.0], h, rng_seed=s)))
            big = simulate_tree(spec, [0.0], h + t_extra, rng_seed=10_000 + s)
            truncated.append(truncated_count(big, h))
        ks = stats.ks_2samp(direct, truncated)
        assert ks.pvalue > 0.01


class TestExactRecursion:
    def test_single_leaf_passthrough(self):
        tree = regular_tree(0)
        g = kernel_g(majority_kernel())
        assert root_vote_prob_exact(tree, lambda pos: 0.37, g) == 0.37

    def test_regular_tree_equals_iterated_g(self, majority_g):
        for height in (1, 3, 6):
            tree = regular_tree(height)
            for p in (0.2, 0.5, 0.9):
                val = root_vote_prob_exact(tree, lambda pos, p=p: p, majority_g)
                assert val == pytest.approx(iterate_g(majority_g, p, height), abs=1e-12)

    def test_height_one_hand_value(self, majority):
        tree = regular_tree(1)
        val = root_vote_prob_exact(tree, lambda pos: 0.2, majority)
        assert val == pytest.approx(0.104, abs=1e-14)

    def test_monotone_in_leaf_probabilities(self, majority_g):
        tree = simulate_tree(bbm_spec(), [0.0], 0.25, rng_seed=8)
        lo = root_vote_prob_exact(tree, lambda pos: 0.4, majority_g)
        hi = root_vote_prob_exact(tree, lambda pos: 0.45, majority_g)
        assert lo <= hi + 1e-15

    def test_monotone_in_a_single_leaf(self, majority_g):
        # raising any one leaf's probability never lowers the root value
        tree = simulate_tree(bbm_spec(), [0.0], 0.25, rng_seed=8)
        leaves = tree.leaves()
        base_probs = derive_rng(55, 2).uniform(0.1, 0.9, size=len(leaves))

        def probs(bumped=None):
            def p(pos):
                (i,) = np.flatnonzero(np.all(leaves == pos, axis=1))
                return min(1.0, base_probs[i] + 0.3) if i == bumped else base_probs[i]

            return p

        for bumped in range(0, len(leaves), max(1, len(leaves) // 5)):
            lo = root_vote_prob_exact(tree, probs(), majority_g)
            hi = root_vote_prob_exact(tree, probs(bumped), majority_g)
            assert lo <= hi + 1e-15


class TestSampleVote:
    def test_all_ones_certain(self, majority):
        tree = regular_tree(3)
        votes = np.ones(len(tree.leaves()), dtype=int)
        assert sample_votes_batch(tree, votes, majority, 1, rng_seed=5)[0] == 1

    def test_deterministic_kernel_ignores_seed(self, majority):
        tree = regular_tree(2)
        votes = np.arange(len(tree.leaves())) % 2
        outs = {int(sample_votes_batch(tree, votes, majority, 1, rng_seed=s)[0]) for s in range(10)}
        assert len(outs) == 1

    def test_incomplete_votes_rejected(self, majority):
        tree = regular_tree(2)
        votes = np.ones(len(tree.leaves()) - 1, dtype=int)
        with pytest.raises(ArgumentError):
            sample_votes_batch(tree, votes, majority, 1, rng_seed=5)

    def test_sampled_mean_matches_exact_recursion(self):
        # random kernel so the per-vertex thinning is active
        from dualflow.gfunction import ExchangeableKernel

        kern = ExchangeableKernel([0.0, 0.25, 0.8, 1.0])
        tree = simulate_tree(bbm_spec(epsilon=0.4), [0.0], 0.2, rng_seed=17)
        leaves = tree.leaves()
        leaf_bits = (derive_rng(3, 1).random(len(leaves)) < 0.6).astype(int)

        # with fixed leaf bits the target is the recursion on those bits
        def bit(pos):
            (i,) = np.flatnonzero(np.all(leaves == pos, axis=1))
            return float(leaf_bits[i])

        target = root_vote_prob_exact(tree, bit, kern)

        n = 20000
        mean = float(np.mean(sample_votes_batch(tree, leaf_bits, kern, n, rng_seed=11)))
        se = math.sqrt(max(target * (1 - target), 1e-12) / n)
        assert mean == pytest.approx(target, abs=4 * se)


class TestShapeStats:
    def test_single_vertex(self):
        spec = BranchingSpec(
            dim=1,
            n_children=3,
            branch_rate=0.0,
            motion=brownian_motion(1.0),
            dispersal=lambda parents, rng: np.repeat(parents[:, None, :], 3, axis=1),
        )
        tree = simulate_tree(spec, [0.0], 1.0, rng_seed=2)
        assert shape(tree) == (0, 0)
        assert tree.leaves().shape == (1, 1)

    def test_deterministic_full_tree(self):
        assert shape(regular_tree(3)) == (3, 3)


class TestForest:
    def test_forest_matches_per_tree_recursion_statistically(self, majority_g):
        spec = bbm_spec(epsilon=0.4)
        p = lambda P: np.clip(0.5 + P[:, 0], 0, 1)
        est = estimate_vote_probability(spec, majority_kernel(), [0.0], 0.15, p, 4000, rng_seed=3)
        singles = [
            root_vote_prob_exact(simulate_tree(spec, [0.0], 0.15, rng_seed=s), lambda x: float(p(x[None, :])[0]), majority_g)
            for s in range(400)
        ]
        se = np.std(singles, ddof=1) / math.sqrt(len(singles))
        assert est.value == pytest.approx(np.mean(singles), abs=4 * (se + est.stderr))

    def test_equilibrium_is_exact_with_zero_variance(self):
        spec = bbm_spec(epsilon=0.4)
        est = estimate_vote_probability(
            spec, majority_kernel(), [0.0], 0.2, lambda P: np.full(P.shape[0], 0.5), 300, rng_seed=5
        )
        assert est.value == 0.5
        assert est.stderr == 0.0

    def test_kernel_or_combiner_required(self):
        with pytest.raises(ArgumentError, match="kernel or a forest combiner"):
            estimate_vote_probability(bbm_spec(), None, [0.0], 0.1, lambda P: np.zeros(P.shape[0]), 10, 1)

    def test_budget_enforced(self):
        spec = bbm_spec(epsilon=0.1)
        with pytest.raises(ResourceError):
            estimate_vote_probability(
                spec, majority_kernel(), [0.0], 1.0, lambda P: np.full(P.shape[0], 1.0), 100, 1
            )

    @pytest.mark.parametrize("bad", [np.nan, -1e-11, 1 + 1e-11])
    def test_bad_leaf_probability_rejected(self, bad):
        leaf = lambda P: np.where(P[:, 0] > 0.0, bad, 0.5)
        with pytest.raises(ArgumentError, match=r"leaf probabilities must lie in \[0,1\]"):
            estimate_vote_probability(bbm_spec(), majority_kernel(), [0.3], 0.1, leaf, 50, rng_seed=2)

    def test_leaves_just_outside_unit_interval_are_clipped(self):
        outside = lambda P: np.where(P[:, 0] > 0.0, 1 + 1e-13, -1e-13)
        exact = lambda P: np.where(P[:, 0] > 0.0, 1.0, 0.0)
        a, b = (
            forest_root_params(bbm_spec(), [[0.05]], 0.1, [leaf], majority_kernel(), 300, np.random.default_rng(4))
            for leaf in (outside, exact)
        )
        assert 0.0 < a.root_params.mean() < 1.0
        assert a.root_params.tobytes() == b.root_params.tobytes()

    def test_leaf_prob_called_once_per_wave_with_leaves(self):
        calls = []

        def leaf(P):
            calls.append(P.shape[0])
            return np.full(P.shape[0], 0.5)

        res = forest_root_params(bbm_spec(), [[0.0]], 0.1, [leaf], majority_kernel(), 40, np.random.default_rng(1))
        assert min(calls) > 0 and sum(calls) == res.total_leaves
        assert 1 < len(calls) <= res.max_depth + 1

    def test_reproducible(self):
        spec = bbm_spec()
        p = lambda P: (P[:, 0] >= 0).astype(float)
        a = estimate_vote_probability(spec, majority_kernel(), [0.1], 0.2, p, 500, rng_seed=7)
        b = estimate_vote_probability(spec, majority_kernel(), [0.1], 0.2, p, 500, rng_seed=7)
        assert a.value == b.value


def _recorded_bbm():
    return lambda pos: float(np.clip(0.5 + 0.4 * math.tanh(pos[0] - 0.1), 0.0, 1.0)), ternary_bbm(0.3, 1).kernel


def _recorded_nlv():
    bundle = nonlinear_voter_dual(0.45, L=2, dim=3, gbar_samples=200, gbar_seed=1)
    return lambda pos: float(np.clip(0.5 + 0.3 * pos[0] - 0.2 * pos[1] + 0.1 * pos[2], 0.0, 1.0)), bundle.g


# file under tests/data -> (leaf_prob, g) its recorded root value was voted
# with: simulate_tree(ternary_bbm(0.3, 1).spec, [0.3], 0.25, rng_seed=21) and
# simulate_tree(nonlinear_voter_dual(0.45, L=2, dim=3, ...).spec, [0, 0, 0],
# 0.15, rng_seed=5), both from the dict layout's simulator, which decorated
# every NLV genealogy
RECORDED_TREES = {
    "tree_ternary_bbm_d1_seed21.json": _recorded_bbm,
    "tree_nlv_d3_seed5.json": _recorded_nlv,
}


class TestTreeJson:
    def test_roundtrip_identity(self):
        tree = simulate_tree(bbm_spec(), [0.3], 0.25, rng_seed=21)
        back = TimeLabelledTree.from_json(tree.to_json())
        assert back.to_json() == tree.to_json()
        back.validate()

    def test_golden_schema_fields(self):
        import json

        tree = simulate_tree(bbm_spec(), [0.0], 0.1, rng_seed=2)
        data = json.loads(tree.to_json())
        assert data["version"] == 1
        assert set(data) == {"version", "n_children", "dim", "horizon", "root_start", "vertices"}
        rec = data["vertices"][0]
        assert {"path", "birth", "death", "position"} <= set(rec)

    @pytest.mark.parametrize("name", sorted(RECORDED_TREES))
    def test_recorded_tree_round_trip(self, name):
        # recorded with the Ulam-Harris dict layout: the wave layout loads
        # them, re-serialises them byte for byte and votes to the same root
        text = (DATA / name).read_text()
        tree = TimeLabelledTree.from_json(text)
        tree.validate()
        assert tree.to_json() == text
        leaf, g = RECORDED_TREES[name]()
        recorded = json.loads((DATA / "tree_root_values.json").read_text())[name]
        assert root_vote_prob_exact(tree, leaf, g) == recorded

    @pytest.mark.parametrize(
        "fault, match",
        [
            ("missing_root", "missing root"),
            ("orphan", "orphan"),
            ("partial_family", "partial family"),
            ("internal_lifetime", "non-positive lifetime"),
            ("birth_mismatch", "birth/death mismatch"),
            ("leaf_before_horizon", "horizon"),
        ],
    )
    def test_malformed_tree_rejected(self, fault, match):
        data = json.loads((DATA / "tree_ternary_bbm_d1_seed21.json").read_text())
        records = {tuple(rec["path"]): rec for rec in data["vertices"]}
        leaf = next(p for p in sorted(records, reverse=True) if p + (1,) not in records)
        if fault == "missing_root":
            del records[()]
        elif fault == "orphan":
            for j in (1, 2, 3):
                records[(9, j)] = dict(records[leaf], path=[9, j])
        elif fault == "partial_family":
            del records[leaf]
        elif fault == "internal_lifetime":
            records[()]["death"] = records[()]["birth"]
        elif fault == "birth_mismatch":
            records[leaf]["birth"] += 1e-3
        else:
            records[leaf]["death"] = data["horizon"] - 1e-3
        data["vertices"] = list(records.values())
        with pytest.raises(ArgumentError, match=match):
            TimeLabelledTree.from_json(json.dumps(data)).validate()



# the nlv_tree horizon: each lineage branches 1.5 times on average
NLV_TREE_T = 1.5 * 0.45**2


@pytest.fixture(scope="module")
def nlv_tree():
    # a 5-ary genealogy; no combiner reads it, so it carries no decorations
    bundle = nonlinear_voter_dual(0.45, L=2, dim=3, gbar_samples=200, gbar_seed=1)
    return bundle, simulate_tree(bundle.spec, [0.0, 0.0, 0.0], NLV_TREE_T, rng_seed=5)


class TestDecoratedTree:
    def test_nlv_tree_branches_repeatedly(self, nlv_tree):
        _, tree = nlv_tree
        events = sum(int(np.count_nonzero(~wave.is_leaf)) for wave in tree.waves)
        assert events >= 5 and len(tree.waves) - 1 >= 3  # 7 events, 4 deep

    def test_json_roundtrip_keeps_decorations(self):
        # recorded when every NLV genealogy was decorated, with (5, 3)
        # displacements: the JSON layer keeps them as opaque arrays
        text = (DATA / "tree_nlv_d3_seed5.json").read_text()
        tree = TimeLabelledTree.from_json(text)
        events = sum(int(np.count_nonzero(~wave.is_leaf)) for wave in tree.waves)
        rows = [wave.decorations for wave in tree.waves if wave.decorations is not None]
        assert events == 14 and sum(len(dec) for dec in rows) == events
        assert all(dec.shape[1:] == (5, 3) for dec in rows)
        back = TimeLabelledTree.from_json(tree.to_json())
        back.validate()
        assert back.to_json() == text
        for a, b in zip(tree.waves, back.waves):
            assert (a.decorations is None) == (b.decorations is None)
            if a.decorations is not None:
                assert np.array_equal(a.decorations, b.decorations)

    def test_only_a_combiner_forest_draws_decorations(self, nlv_tree):
        bundle, tree = nlv_tree
        calls = []
        decorate = bundle.spec.decoration_fn
        spec = dataclasses.replace(
            bundle.spec, decoration_fn=lambda *args: calls.append(args[0].shape[0]) or decorate(*args)
        )
        spied = dataclasses.replace(bundle, spec=spec)
        leaf = lambda P: np.clip(0.5 + 0.3 * P[:, 0], 0.0, 1.0)
        assert all(wave.decorations is None for wave in tree.waves)
        simulate_tree(spec, [0.0, 0.0, 0.0], NLV_TREE_T, rng_seed=5)
        forest_root_params(spec, [[0.0, 0.0, 0.0]], 0.15, [leaf], bundle.g, 20, derive_rng(1))
        check_equilibria(spied, 0.05, 20, 3)
        assert calls == []
        res = forest_root_params(spec, [[0.0, 0.0, 0.0]], 0.15, [leaf], None, 20, derive_rng(1), combine=bundle.combine)
        assert sum(calls) == res.total_vertices - res.total_leaves > 0

    def test_exact_recursion_with_frozen_g_keeps_equilibria(self, nlv_tree):
        # the bundle's effective g ignores decorations; constant equilibrium
        # leaves stay put, as in the forest's equilibria check
        bundle, tree = nlv_tree
        for c in bundle.equilibria:
            assert root_vote_prob_exact(tree, lambda pos, c=c: c, bundle.g) == pytest.approx(c, abs=1e-12)


class TestOneLayout:
    """A genealogy is one root of the forest: same loop, same stream, same
    backward pass, so the two agree bit for bit."""

    @staticmethod
    def _cases():
        sr = sexual_reproduction_dual(0.4, dim=2, mesh=0.1)
        nlv = nonlinear_voter_dual(0.45, L=2, dim=3, gbar_samples=200, gbar_seed=1)
        return {
            "ternary_bbm_d1": (ternary_bbm(0.3, 1).spec, [0.1], 0.25, ternary_bbm(0.3, 1).kernel),
            "ternary_bbm_d2": (ternary_bbm(0.3, 2).spec, [0.1, -0.2], 0.2, ternary_bbm(0.3, 2).kernel),
            "sexual_reproduction_lattice_walk": (sr.spec, [0.1, -0.2], 0.3, sr.kernel),
            "nonlinear_voter_frozen_g": (nlv.spec, [0.0, 0.0, 0.0], 0.15, nlv.g),
        }

    @pytest.mark.parametrize("name", ["ternary_bbm_d1", "ternary_bbm_d2", "sexual_reproduction_lattice_walk", "nonlinear_voter_frozen_g"])
    def test_tree_is_a_one_root_forest(self, name):
        spec, x0, t, kernel = self._cases()[name]
        leaf_vec = lambda P: np.clip(0.5 + 0.8 * P[:, 0] - 0.3 * P[:, -1], 0.0, 1.0)
        leaf = lambda pos: float(leaf_vec(pos[None, :])[0])
        for s in range(6):
            tree = simulate_tree(spec, x0, t, s)
            res = forest_root_params(spec, [x0], t, [leaf_vec], kernel, 1, derive_rng(s, 0x7EE5))
            assert res.total_vertices == len(tree) and res.max_depth == len(tree.waves) - 1
            assert root_vote_prob_exact(tree, leaf, kernel) == res.root_params[0, 0]


class TestRegularContainment:
    def test_containment_quantile_at_formation_scale(self):
        # frozen from a 2e4-seed generation-count oracle (branch structure
        # only): at t = 2 eps^2 |log eps|, eps = 0.2, the tree contains the
        # full ternary tree of height 1 = floor(0.62 |log eps|) with
        # probability 0.959 >= 0.95
        eps, sigma1, delta = 0.2, 2.0, 0.05
        t = sigma1 * eps**2 * abs(math.log(eps))
        height_target = int(0.62 * abs(math.log(eps)))
        spec = bbm_spec(epsilon=eps)
        n = 400
        hits = 0
        for s in range(n):
            tree = simulate_tree(spec, [0.0], t, rng_seed=50_000 + s)
            if shape(tree)[0] >= height_target:
                hits += 1
        frac = hits / n
        se = math.sqrt(0.05 * 0.95 / n)
        assert frac >= 1 - delta - 4 * se


def _forest_cases():
    """(spec, x0, t, leaf_prob, kernel, n_samples) per pinned case."""
    line = field_from_function(lambda P: P[:, 0] - 0.03, origin=[-1.0], spacing=0.02, extents=[101])
    circle = field_from_function(
        lambda P: np.sum(P**2, axis=1) - 0.64, origin=[-1.5, -1.5], spacing=3 / 63, extents=[64, 64]
    )
    t1, t2 = ternary_bbm(0.25, 1), ternary_bbm(0.2, 2)
    sr = sexual_reproduction_dual(0.4, dim=2, mesh=0.1)
    smooth = lambda P: np.clip(0.5 + P[:, 0] - 0.3 * P[:, 1], 0.0, 1.0)
    return {
        "ternary_bbm_d1_plus_phase": (t1.spec, [0.02], 0.1, plus_phase_profile(line, 0.05, 0.0, 1.0), t1.kernel, 400),
        "ternary_bbm_d2_plus_phase": (t2.spec, [0.75, 0.2], 0.08, plus_phase_profile(circle, 0.05, 0.0, 1.0), t2.kernel, 300),
        "bbm1d_step": (bbm1d_spec(0.3), [0.05], 0.2, step_profile(0.0, 1.0), majority_kernel(), 400),
        "sexual_reproduction_lattice_walk": (sr.spec, [0.1, -0.2], 0.3, smooth, sr.kernel, 200),
    }


# SHA-256 of root_params (little-endian f64), total_vertices, total_leaves and
# max_depth, recorded while leaves were still valued in the backward pass; the
# nonlinear voter's since its partitions are drawn in one walk per growth call
PINNED_FORESTS = {
    "bbm1d_step": (
        "28c92e70632933ed114a14204344386750dd5287cff4098a594ca6801de8a3ef",
        56503, 37802, 17,
    ),
    "nonlinear_voter_dual_combine": (
        "636a2b5908af8fd57fa9ed8b4a966fc13eb5c2df470e2b668c930389ab74fe38",
        2365, 1904, 9,
    ),
    "sexual_reproduction_lattice_walk": (
        "4355bd84aba459874a3305202b74febf367fa47b2ca40919dc7b459bdadcfb8c",
        11327, 7618, 18,
    ),
    "ternary_bbm_d1_plus_phase": (
        "3cd05c4cc33db37eb0fd21bdb4c37e76658104624c3cebd0a9f5262edf639749",
        15937, 10758, 13,
    ),
    "ternary_bbm_d2_plus_phase": (
        "eb654936ef80b4e3ab718a7dfaf873c2a33bb58671fda1b6265265ed2eaeefff",
        26202, 17568, 15,
    ),
}


def _forest_digest(res):
    return (
        hashlib.sha256(res.root_params.astype("<f8").tobytes()).hexdigest(),
        res.total_vertices,
        res.total_leaves,
        res.max_depth,
    )


class TestForestBitIdentical:
    @pytest.mark.parametrize("name", sorted(_forest_cases()))
    def test_forest_digest_pinned(self, name):
        spec, x0, t, leaf_prob, kernel, n = _forest_cases()[name]
        res = forest_root_params(spec, [x0], t, [leaf_prob], kernel, n, np.random.default_rng(sum(map(ord, name))))
        assert _forest_digest(res) == PINNED_FORESTS[name]

    def test_nlv_combine_digest_pinned(self):
        bundle = nonlinear_voter_dual(0.5, 2, dim=3, gbar_samples=200, **NLV_RATES)
        leaf = lambda P: np.clip(0.5 + 20.0 * P[:, 0], 0.0, 1.0)
        rng = np.random.default_rng(2024)
        res = forest_root_params(bundle.spec, [[0.0, 0.0, 0.0]], 0.2, [leaf], None, 60, rng, combine=bundle.combine)
        assert _forest_digest(res) == PINNED_FORESTS["nonlinear_voter_dual_combine"]


class TestForestColumns:
    """One forest grown from the first start serves every (start, leaf
    function) column; column k reads its genealogies shifted by x_k - x_0."""

    @staticmethod
    def _columns():
        circle = field_from_function(
            lambda P: np.sum(P**2, axis=1) - 0.64, origin=[-1.5, -1.5], spacing=3 / 63, extents=[64, 64]
        )
        leaf = plus_phase_profile(circle, 0.05, 0.0, 1.0)
        return ternary_bbm(0.2, 2), [[0.75, 0.2], [0.8, 0.0], [0.0, 0.9], [0.75, 0.2]], leaf

    def test_column_zero_is_the_one_column_forest(self):
        bundle, starts, leaf = self._columns()
        smooth = lambda P: np.clip(0.5 + P[:, 0] - 0.3 * P[:, 1], 0.0, 1.0)
        leaves = [leaf, leaf, leaf, smooth]
        many = estimate_vote_probabilities(bundle.spec, bundle.kernel, starts, 0.08, leaves, 300, 11)
        one = estimate_vote_probability(bundle.spec, bundle.kernel, starts[0], 0.08, leaf, 300, 11)
        assert (many[0].value, many[0].stderr) == (one.value, one.stderr)
        assert many[0] == one
        # a column at the first start reads the same genealogies unshifted
        alone = estimate_vote_probability(bundle.spec, bundle.kernel, starts[0], 0.08, smooth, 300, 11)
        assert (many[3].value, many[3].stderr) == (alone.value, alone.stderr)

    def test_later_columns_agree_with_their_own_forests(self):
        bundle, starts, leaf = self._columns()
        many = estimate_vote_probabilities(bundle.spec, bundle.kernel, starts, 0.08, [leaf] * 4, 1500, 12)
        for k in range(1, 4):
            own = estimate_vote_probability(bundle.spec, bundle.kernel, starts[k], 0.08, leaf, 1500, 100 + k)
            assert many[k].n_samples == own.n_samples and tuple(starts[k]) == many[k].x
            assert abs(many[k].value - own.value) <= 4 * math.hypot(many[k].stderr, own.stderr)

    def test_each_column_is_the_shifted_one_column_forest(self):
        # every column's backward pass starts from the state growth left
        bundle, starts, leaf = self._columns()
        many = forest_root_params(bundle.spec, starts, 0.08, [leaf] * 4, bundle.kernel, 200, derive_rng(3, 1))
        for k in range(4):
            shift = np.subtract(starts[k], starts[0])
            one = forest_root_params(
                bundle.spec, starts[:1], 0.08, [lambda P: leaf(P + shift)], bundle.kernel, 200, derive_rng(3, 1)
            )
            assert many.root_params[:, k].tobytes() == one.root_params[:, 0].tobytes()

    def test_nlv_columns_share_the_partitions(self):
        bundle = nonlinear_voter_dual(0.5, 2, dim=3, gbar_samples=200, **NLV_RATES)
        low = lambda P: np.clip(0.5 + 20.0 * P[:, 0], 0.0, 1.0)
        high = lambda P: np.clip(0.6 + 20.0 * P[:, 0], 0.0, 1.0)
        starts = [[0.0, 0.0, 0.0]] * 2
        res = forest_root_params(bundle.spec, starts, 0.2, [low, high], None, 30, derive_rng(4, 1), combine=bundle.combine)
        for k, leaf in enumerate([low, high]):
            one = forest_root_params(bundle.spec, starts[:1], 0.2, [leaf], None, 30, derive_rng(4, 1), combine=bundle.combine)
            assert res.root_params[:, k].tobytes() == one.root_params[:, 0].tobytes()
        # the combiner's partitions are shared, so the order holds tree by tree
        assert np.all(res.root_params[:, 0] <= res.root_params[:, 1])
        assert np.any(res.root_params[:, 0] < res.root_params[:, 1])

    def test_nlv_walk_count_does_not_depend_on_columns(self, monkeypatch):
        # the partitions are drawn during growth, in one walk per growth
        # call (one per root block), whatever K is, and to the horizon the
        # bundle's g was walked to
        bundle = nonlinear_voter_dual(0.5, 2, dim=3, gbar_samples=200, **NLV_RATES)
        walk, cutoffs = dualflow.models.sample_coalescent_partitions, []

        def spy(*args):
            out = walk(*args)
            cutoffs.append(out[1])
            return out

        monkeypatch.setattr(dualflow.models, "sample_coalescent_partitions", spy)
        grow, grown = dualflow.dualtree.forest.grow_waves, []
        monkeypatch.setattr(dualflow.dualtree.forest, "grow_waves", lambda *a, **kw: grown.append(1) or grow(*a, **kw))
        leaf = lambda P: np.clip(0.5 + 20.0 * P[:, 0], 0.0, 1.0)
        counts = []
        for block_vertices in (dualflow.dualtree.forest._BLOCK_VERTICES, 400):  # 1 block, then 3
            monkeypatch.setattr(dualflow.dualtree.forest, "_BLOCK_VERTICES", block_vertices)
            for k in (1, 2, 8):
                cutoffs.clear()
                grown.clear()
                forest_root_params(bundle.spec, np.zeros((k, 3)), 0.2, [leaf] * k, None, 30, derive_rng(4, 1), combine=bundle.combine)
                counts.append((len(cutoffs), len(grown)))
                assert cutoffs == [bundle.g.metadata["effective_horizon"]] * len(cutoffs)
        assert counts == [(1, 1)] * 3 + [(3, 3)] * 3
        assert bundle.g.metadata["effective_horizon"] == 512.0

    @pytest.mark.parametrize(
        "x, t, n",
        [
            ([math.nan, 0.0], 0.05, 50),
            ([math.inf, 0.0], 0.05, 50),
            ([0.0], 0.05, 50),
            ([0.0, 0.0], math.nan, 50),
            ([0.0, 0.0], math.inf, 50),
            ([0.0, 0.0], -0.1, 50),
            ([0.0, 0.0], 0.05, 50.5),
            ([0.0, 0.0], 0.05, 0),
            ([0.0, 0.0], 0.05, True),
        ],
    )
    def test_bad_input_rejected_before_growth(self, x, t, n):
        bundle = ternary_bbm(0.2, 2)
        leaf = lambda P: np.full(P.shape[0], 0.5)
        with pytest.raises(ArgumentError):
            estimate_vote_probability(bundle.spec, bundle.kernel, x, t, leaf, n, 1)

    def test_columns_need_one_leaf_function_each(self):
        bundle, starts, leaf = self._columns()
        with pytest.raises(ArgumentError, match="leaf functions"):
            estimate_vote_probabilities(bundle.spec, bundle.kernel, starts, 0.08, [leaf], 10, 1)
        with pytest.raises(ArgumentError, match="starts"):
            estimate_vote_probabilities(bundle.spec, bundle.kernel, [[0.0, 0.0], [math.nan, 0.0]], 0.08, [leaf] * 2, 10, 1)



class TestForestBlocks:
    """A forest grows and votes its roots in blocks of about
    _BLOCK_VERTICES expected vertices, drawn one after another from its
    one generator."""

    @staticmethod
    def _case():
        bundle = ternary_bbm(0.25, 1)
        leaves = [lambda P: np.clip(0.5 + P[:, 0], 0.0, 1.0), lambda P: np.clip(0.4 + 2.0 * P[:, 0], 0.0, 1.0)]
        return bundle, [[0.0], [0.1]], 0.1, leaves  # about 37 expected vertices per root

    def test_blocks_are_consecutive_forests_on_one_generator(self, monkeypatch):
        bundle, starts, t, leaves = self._case()
        monkeypatch.setattr(dualflow.dualtree.forest, "_BLOCK_VERTICES", 2000)  # 54 roots a block
        grown = []
        grow = dualflow.dualtree.forest.grow_waves
        monkeypatch.setattr(dualflow.dualtree.forest, "grow_waves", lambda *a, **k: grown.append(a[3]) or grow(*a, **k))
        res = forest_root_params(bundle.spec, starts, t, leaves, bundle.kernel, 150, np.random.default_rng(8))
        assert grown == [54, 54, 42]
        rng = np.random.default_rng(8)
        parts = [forest_root_params(bundle.spec, starts, t, leaves, bundle.kernel, n, rng) for n in (54, 54, 42)]
        assert grown == [54, 54, 42] * 2  # each part is one block
        assert res.root_params.tobytes() == np.concatenate([p.root_params for p in parts]).tobytes()
        assert res.total_vertices == sum(p.total_vertices for p in parts)
        assert res.total_leaves == sum(p.total_leaves for p in parts)
        assert res.max_depth == max(p.max_depth for p in parts)
        assert len({p.max_depth for p in parts}) > 1  # the depth is the deepest block's, not the last

    def test_vertex_budget_spans_blocks(self, monkeypatch):
        bundle, starts, t, leaves = self._case()
        monkeypatch.setattr(dualflow.dualtree.forest, "_BLOCK_VERTICES", 2000)
        run = lambda: forest_root_params(bundle.spec, starts, t, leaves, bundle.kernel, 400, np.random.default_rng(9))
        grown = run().total_vertices
        expected = 400 * math.exp(2 * 16 * t) * 1.5
        assert expected < grown - 1  # 14,720 < 16,312: the up-front refusal passes below
        # every block (about 2000 vertices) alone fits the budget; the blocks together do not
        monkeypatch.setattr(dualflow.dualtree.forest, "DEFAULT_VERTEX_BUDGET", grown - 1)
        with pytest.raises(ResourceError, match="exceeded the vertex budget"):
            run()
        monkeypatch.setattr(dualflow.dualtree.forest, "DEFAULT_VERTEX_BUDGET", grown)
        assert run().total_vertices == grown
        monkeypatch.setattr(dualflow.dualtree.forest, "DEFAULT_VERTEX_BUDGET", math.floor(expected) - 1)
        with pytest.raises(ResourceError, match="expected ensemble size"):
            run()

    def test_peak_memory_is_one_block(self):
        # the 20,000-root Allen-Cahn forest: 3.6M vertices in 7 blocks of
        # 2^19; 38.7 MB traced when it was grown whole, 5.8 MB in blocks
        bundle = ternary_bbm(0.25, 1)
        leaf = lambda P: np.clip(0.5 + P[:, 0], 0.0, 1.0)
        forest_root_params(bundle.spec, [[0.0]], 0.15, [leaf], bundle.kernel, 10, np.random.default_rng(0))
        tracemalloc.start()
        try:
            res = forest_root_params(bundle.spec, [[0.0]], 0.15, [leaf], bundle.kernel, 20_000, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.total_vertices > 6 * dualflow.dualtree.forest._BLOCK_VERTICES
        assert peak <= 24 * dualflow.dualtree.forest._BLOCK_VERTICES  # bytes