"""Branching dual processes as time-labelled genealogies in one wave
layout, plus voting on them."""

from .tree import (
    Wave,
    TimeLabelledTree,
    BranchingSpec,
    expected_population,
    simulate_tree,
    root_vote_prob_exact,
    sample_votes_batch,
    sample_root_votes,
)
from .forest import forest_root_params, ForestResult
from .estimate import VoteEstimate, estimate_vote_probabilities, estimate_vote_probability

__all__ = [
    "Wave",
    "TimeLabelledTree",
    "BranchingSpec",
    "expected_population",
    "simulate_tree",
    "root_vote_prob_exact",
    "sample_votes_batch",
    "sample_root_votes",
    "forest_root_params",
    "ForestResult",
    "VoteEstimate",
    "estimate_vote_probabilities",
    "estimate_vote_probability",
]
