import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from dualflow.dualtree import (
    ROOT,
    BranchingSpec,
    TimeLabelledTree,
    Vertex,
    estimate_vote_probability,
    forest_root_params,
    root_vote_prob_exact,
    sample_vote,
    sample_votes_batch,
    simulate_tree,
    tree_shape_stats,
)
from dualflow.errors import ArgumentError, ResourceError
from dualflow.gfunction import iterate_g, kernel_g, majority_kernel
from dualflow.models import brownian_motion, nonlinear_voter_dual, sexual_reproduction_dual, ternary_bbm
from dualflow.onedim import bbm1d_spec, step_profile
from dualflow.pde import field_from_function
from dualflow.rng import derive_rng
from dualflow.verify import plus_phase_profile

from conftest import NLV_RATES



def bbm_spec(epsilon=0.3, dim=1):
    return ternary_bbm(epsilon, dim).spec


def regular_tree(height: int, n_children: int = 3, leaf_positions=0.0) -> TimeLabelledTree:
    """Deterministic full tree with unit branch spacing, for oracles."""
    horizon = float(height) if height > 0 else 1.0
    tree = TimeLabelledTree(n_children, 1, horizon, np.array([0.0]))
    frontier = [(ROOT, 0.0)]
    for level in range(height):
        nxt = []
        for u, birth in frontier:
            tree.vertices[u] = Vertex(birth, birth + 1.0, np.array([0.0]))
            for i in range(1, n_children + 1):
                nxt.append((u.child(i), birth + 1.0))
        frontier = nxt
    for u, birth in frontier:
        tree.vertices[u] = Vertex(birth, horizon, np.array([float(leaf_positions)]))
    return tree


class TestUlamIndex:
    def test_parent_child(self):
        u = ROOT.child(2).child(1)
        assert u.path == (2, 1)
        assert u.parent().path == (2,)
        assert u.depth == 2

    def test_root_has_no_parent(self):
        with pytest.raises(ArgumentError):
            ROOT.parent()


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
        assert tree.vertices[ROOT].position_at_death[0] == pytest.approx(0.7)

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
            death = tree.vertices[ROOT].death_time
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
            return sum(
                1 for v in tree.vertices.values() if v.birth_time <= h
            )

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
        leaves = sorted(tree.leaves())
        rng = derive_rng(55, 2)
        base_probs = {u: float(rng.uniform(0.1, 0.9)) for u in leaves}
        for bumped in leaves[:: max(1, len(leaves) // 5)]:
            def p_of(pos, bumped=bumped):
                for u, prob in base_probs.items():
                    if np.array_equal(tree.vertices[u].position_at_death, pos):
                        return min(1.0, prob + 0.3) if u == bumped else prob
                raise AssertionError("unknown leaf position")

            def p_base(pos):
                for u, prob in base_probs.items():
                    if np.array_equal(tree.vertices[u].position_at_death, pos):
                        return prob
                raise AssertionError("unknown leaf position")

            lo = root_vote_prob_exact(tree, p_base, majority_g)
            hi = root_vote_prob_exact(tree, p_of, majority_g)
            assert lo <= hi + 1e-15


class TestSampleVote:
    def test_all_ones_certain(self, majority):
        tree = regular_tree(3)
        votes = {u: 1 for u in tree.leaves()}
        assert sample_vote(tree, votes, majority, rng_seed=5) == 1

    def test_deterministic_kernel_ignores_seed(self, majority):
        tree = regular_tree(2)
        votes = {u: (1 if i % 2 else 0) for i, u in enumerate(sorted(tree.leaves()))}
        outs = {sample_vote(tree, votes, majority, rng_seed=s) for s in range(10)}
        assert len(outs) == 1

    def test_incomplete_votes_rejected(self, majority):
        tree = regular_tree(2)
        votes = {u: 1 for u in tree.leaves()}
        votes.pop(next(iter(votes)))
        with pytest.raises(ArgumentError):
            sample_vote(tree, votes, majority, rng_seed=5)

    def test_sampled_mean_matches_exact_recursion(self):
        # random kernel so the per-vertex thinning is active
        from dualflow.gfunction import ExchangeableKernel

        kern = ExchangeableKernel([0.0, 0.25, 0.8, 1.0])
        tree = simulate_tree(bbm_spec(epsilon=0.4), [0.0], 0.2, rng_seed=17)
        rng = derive_rng(3, 1)
        leaf_bits = {u: int(rng.random() < 0.6) for u in tree.leaves()}

        # with fixed leaf bits the target is the recursion on those bits
        params = {u: float(bit) for u, bit in leaf_bits.items()}
        order = sorted(tree.vertices, key=lambda u: u.depth, reverse=True)
        for u in order:
            if not tree.is_leaf(u):
                child_ps = np.array([[params[c] for c in tree.children_of(u)]])
                params[u] = float(kern.combine_params(child_ps)[0])
        target = params[ROOT]

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
        st = tree_shape_stats(tree)
        assert st.contains_regular_height == 0
        assert st.contained_in_regular_height == 0
        assert st.max_displacement_from_root == pytest.approx(
            abs(tree.vertices[ROOT].position_at_death[0])
        )

    def test_deterministic_full_tree(self):
        tree = regular_tree(3)
        st = tree_shape_stats(tree)
        assert st.contains_regular_height == 3
        assert st.contained_in_regular_height == 3


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
            forest_root_params(bbm_spec(), [0.05], 0.1, leaf, majority_kernel(), 300, np.random.default_rng(4))
            for leaf in (outside, exact)
        )
        assert 0.0 < a.root_params.mean() < 1.0
        assert a.root_params.tobytes() == b.root_params.tobytes()

    def test_leaf_prob_called_once_per_wave_with_leaves(self):
        calls = []

        def leaf(P):
            calls.append(P.shape[0])
            return np.full(P.shape[0], 0.5)

        res = forest_root_params(bbm_spec(), [0.0], 0.1, leaf, majority_kernel(), 40, np.random.default_rng(1))
        assert min(calls) > 0 and sum(calls) == res.total_leaves
        assert 1 < len(calls) <= res.max_depth + 1

    def test_reproducible(self):
        spec = bbm_spec()
        p = lambda P: (P[:, 0] >= 0).astype(float)
        a = estimate_vote_probability(spec, majority_kernel(), [0.1], 0.2, p, 500, rng_seed=7)
        b = estimate_vote_probability(spec, majority_kernel(), [0.1], 0.2, p, 500, rng_seed=7)
        assert a.value == b.value


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


@pytest.fixture(scope="module")
def nlv_tree():
    # a 5-ary genealogy with 14 branching events, each decorated with its
    # (5, 3) int64 lattice displacement array
    bundle = nonlinear_voter_dual(0.45, L=2, dim=3, gbar_samples=200, gbar_seed=1)
    return bundle, simulate_tree(bundle.spec, [0.0, 0.0, 0.0], 0.15, rng_seed=5)


class TestDecoratedTree:
    def test_json_roundtrip_keeps_decorations(self, nlv_tree):
        _, tree = nlv_tree
        decorated = {u: v.decoration for u, v in tree.vertices.items() if v.decoration is not None}
        assert len(decorated) == len(tree.internal()) == 14
        back = TimeLabelledTree.from_json(tree.to_json())
        back.validate()
        assert back.to_json() == tree.to_json()
        for u, dec in decorated.items():
            got = back.vertices[u].decoration
            assert got.dtype == np.int64 and got.shape == (5, 3)
            assert np.array_equal(got, dec)

    def test_exact_recursion_with_frozen_g_keeps_equilibria(self, nlv_tree):
        # the bundle's effective g ignores decorations; constant equilibrium
        # leaves stay put, as in the forest's equilibria check
        bundle, tree = nlv_tree
        for c in bundle.equilibria:
            assert root_vote_prob_exact(tree, lambda pos, c=c: c, bundle.g) == pytest.approx(c, abs=1e-12)


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
            if tree_shape_stats(tree).contains_regular_height >= height_target:
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
# max_depth, recorded while leaves were still valued in the backward pass
PINNED_FORESTS = {
    "bbm1d_step": (
        "28c92e70632933ed114a14204344386750dd5287cff4098a594ca6801de8a3ef",
        56503, 37802, 17,
    ),
    "nonlinear_voter_dual_combine": (
        "ad84a7196173a666124c751b32e2f4dcbc8352d8e6899720713485b206cda9e1",
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
        res = forest_root_params(spec, x0, t, leaf_prob, kernel, n, np.random.default_rng(sum(map(ord, name))))
        assert _forest_digest(res) == PINNED_FORESTS[name]

    def test_nlv_combine_digest_pinned(self):
        bundle = nonlinear_voter_dual(0.5, 2, dim=3, gbar_samples=200, **NLV_RATES)
        leaf = lambda P: np.clip(0.5 + 20.0 * P[:, 0], 0.0, 1.0)
        rng = np.random.default_rng(2024)
        res = forest_root_params(bundle.spec, [0.0, 0.0, 0.0], 0.2, leaf, None, 60, rng, combine=bundle.combine)
        assert _forest_digest(res) == PINNED_FORESTS["nonlinear_voter_dual_combine"]
