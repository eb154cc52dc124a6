"""Time-labelled genealogies and voting algorithms on them.

A tree records full families: every internal vertex has exactly
n_children children, leaves die at the horizon. Positions are stored at
death times only (leaf positions are what the voting algorithm reads;
internal positions seed the offspring dispersal), never full paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import ArgumentError, ResourceError
from ..gfunction.gfun import GFunction
from ..gfunction.kernels import ExchangeableKernel
from ..rng import derive_rng

__all__ = [
    "UlamIndex",
    "ROOT",
    "Vertex",
    "TimeLabelledTree",
    "BranchingSpec",
    "expected_population",
    "simulate_tree",
    "root_vote_prob_exact",
    "sample_vote",
    "sample_votes_batch",
    "sample_root_votes",
    "tree_shape_stats",
    "TreeShapeStats",
]

DEFAULT_VERTEX_BUDGET = 10_000_000


@dataclass(frozen=True, order=True)
class UlamIndex:
    """Genealogical label: the sequence of child indices from the root."""

    path: tuple[int, ...] = ()

    def parent(self) -> "UlamIndex":
        if not self.path:
            raise ArgumentError("the root has no parent")
        return UlamIndex(self.path[:-1])

    def child(self, i: int) -> "UlamIndex":
        return UlamIndex(self.path + (i,))

    @property
    def depth(self) -> int:
        return len(self.path)

    def __str__(self):
        return "." .join(map(str, self.path)) if self.path else "root"


ROOT = UlamIndex(())


@dataclass
class Vertex:
    birth_time: float
    death_time: float
    position_at_death: np.ndarray
    decoration: Optional[np.ndarray] = None  # the event's decoration_fn row


@dataclass
class TimeLabelledTree:
    n_children: int
    dim: int
    horizon: float
    root_start: np.ndarray
    vertices: dict[UlamIndex, Vertex] = field(default_factory=dict)

    def leaves(self) -> list[UlamIndex]:
        return [u for u in self.vertices if u.child(1) not in self.vertices]

    def internal(self) -> list[UlamIndex]:
        return [u for u in self.vertices if u.child(1) in self.vertices]

    def children_of(self, u: UlamIndex) -> list[UlamIndex]:
        return [u.child(i) for i in range(1, self.n_children + 1)]

    def is_leaf(self, u: UlamIndex) -> bool:
        return u.child(1) not in self.vertices

    def __len__(self):
        return len(self.vertices)

    def validate(self) -> None:
        """Check the structural invariants; raises ArgumentError."""
        if ROOT not in self.vertices:
            raise ArgumentError("missing root")
        for u, v in self.vertices.items():
            present = [u.child(i) in self.vertices for i in range(1, self.n_children + 1)]
            if any(present) and not all(present):
                raise ArgumentError(f"partial family at {u}")
            if u != ROOT and u.parent() not in self.vertices:
                raise ArgumentError(f"orphan vertex {u}")
            if all(present):
                if not v.death_time > v.birth_time:
                    raise ArgumentError(f"non-positive lifetime at internal {u}")
                for i in range(1, self.n_children + 1):
                    if self.vertices[u.child(i)].birth_time != v.death_time:
                        raise ArgumentError(f"birth/death mismatch under {u}")
            else:
                if v.death_time != self.horizon:
                    raise ArgumentError(f"leaf {u} does not die at the horizon")

    # ----- JSON round trip (documented vertex-list schema) -----

    def to_json(self) -> str:
        """Schema: {version, n_children, dim, horizon, root_start,
        vertices: [{path, birth, death, position, decoration?}]}.
        Vertices carry parent links implicitly through their paths."""

        def enc(v: Vertex, u: UlamIndex):
            rec = {
                "path": list(u.path),
                "birth": v.birth_time,
                "death": v.death_time,
                "position": [float(x) for x in np.atleast_1d(v.position_at_death)],
            }
            if v.decoration is not None:
                rec["decoration"] = {"__array__": v.decoration.tolist()}
            return rec

        return json.dumps(
            {
                "version": 1,
                "n_children": self.n_children,
                "dim": self.dim,
                "horizon": self.horizon,
                "root_start": [float(x) for x in np.atleast_1d(self.root_start)],
                "vertices": [enc(v, u) for u, v in sorted(self.vertices.items())],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TimeLabelledTree":
        data = json.loads(text)
        if data.get("version") != 1:
            raise ArgumentError("unsupported tree schema version")
        tree = cls(
            n_children=data["n_children"],
            dim=data["dim"],
            horizon=data["horizon"],
            root_start=np.array(data["root_start"], dtype=float),
        )
        for rec in data["vertices"]:
            dec = rec.get("decoration")
            tree.vertices[UlamIndex(tuple(rec["path"]))] = Vertex(
                birth_time=rec["birth"],
                death_time=rec["death"],
                position_at_death=np.array(rec["position"], dtype=float),
                decoration=None if dec is None else np.array(dec["__array__"]),
            )
        return tree


@dataclass
class BranchingSpec:
    """Motion + branching law of one dual process.

    ``motion(starts, durations, rng)`` maps (n, dim) start points over
    per-row durations to (n, dim) endpoints; ``dispersal(parents, rng)``
    maps (n, dim) branch locations to (n, n_children, dim) offspring
    positions. Both must be vectorized over the leading axis.
    ``decoration_fn(parents, offspring, rng)``, when set, returns an array
    with one row per branching event (leading axis n); the rows reach
    only the model's forest combiner and the tree's vertex records.
    """

    dim: int
    n_children: int
    branch_rate: float
    motion: Callable[[np.ndarray, np.ndarray, np.random.Generator], np.ndarray]
    dispersal: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    label: str = ""
    epsilon: float = float("nan")
    decoration_fn: Optional[Callable[..., np.ndarray]] = None
    dispersal_support_bound: Optional[float] = None  # max-norm bound, if finite-range

    def __post_init__(self):
        if self.branch_rate < 0:
            raise ArgumentError("branch rate must be nonnegative")
        if self.n_children < 1:
            raise ArgumentError("n_children must be positive")


def expected_population(spec: BranchingSpec, t: float) -> float:
    """E|N(t)| = exp((n_children - 1) * branch_rate * t)."""
    exponent = (spec.n_children - 1) * spec.branch_rate * t
    return math.exp(min(exponent, 700.0))


def simulate_tree(
    spec: BranchingSpec,
    x0,
    t: float,
    rng_seed: int,
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
) -> TimeLabelledTree:
    """Simulate the genealogy up to the horizon t.

    Branch times are the points of a rate-``branch_rate`` exponential
    clock per living particle; offspring positions are drawn from the
    dispersal law at the parent's death position. Refuses up front when
    the expected population exceeds the vertex budget.
    """
    if t < 0:
        raise ArgumentError("horizon must be nonnegative")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.dim,):
        raise ArgumentError(f"start point must have dimension {spec.dim}")
    expected = expected_population(spec, t)
    if expected > max_vertices:
        raise ResourceError(
            f"expected population {expected:.3g} exceeds the vertex budget "
            f"{max_vertices} (horizon {t}, rate {spec.branch_rate})"
        )
    rng = derive_rng(rng_seed, 0x7EE5)
    tree = TimeLabelledTree(spec.n_children, spec.dim, t, x0.copy())
    stack: list[tuple[UlamIndex, float, np.ndarray]] = [(ROOT, 0.0, x0)]
    while stack:
        u, birth, pos = stack.pop()
        lifetime = rng.exponential(1.0 / spec.branch_rate) if spec.branch_rate > 0 else math.inf
        if birth + lifetime >= t or spec.branch_rate == 0:
            end = spec.motion(pos[None, :], np.array([t - birth]), rng)[0]
            tree.vertices[u] = Vertex(birth, t, end)
            continue
        death = birth + lifetime
        at_death = spec.motion(pos[None, :], np.array([lifetime]), rng)[0]
        offspring = spec.dispersal(at_death[None, :], rng)[0]
        decoration = None
        if spec.decoration_fn is not None:
            decoration = spec.decoration_fn(at_death[None, :], offspring[None, :, :], rng)[0]
        tree.vertices[u] = Vertex(birth, death, at_death, decoration)
        if len(tree.vertices) + len(stack) * spec.n_children > max_vertices:
            raise ResourceError(f"tree exceeded the vertex budget {max_vertices}")
        for i in range(1, spec.n_children + 1):
            stack.append((u.child(i), death, offspring[i - 1].copy()))
    return tree


def _leaf_prob(leaf_prob, position: np.ndarray) -> float:
    value = float(leaf_prob(position))
    if not 0.0 <= value <= 1.0:
        raise ArgumentError(f"leaf probability {value} outside [0,1]")
    return value


def root_vote_prob_exact(
    tree: TimeLabelledTree,
    leaf_prob: Callable[[np.ndarray], float],
    g: GFunction | ExchangeableKernel,
) -> float:
    """Deterministic bottom-up recursion for the root's vote parameter.

    Leaves carry leaf_prob(position); every internal vertex carries the
    expected theta of its children's parameters (conditioned on this
    tree), so the root value is the conditional vote probability.
    """
    params: dict[UlamIndex, float] = {}
    order = sorted(tree.vertices, key=lambda u: u.depth, reverse=True)
    for u in order:
        if tree.is_leaf(u):
            params[u] = _leaf_prob(leaf_prob, tree.vertices[u].position_at_death)
        else:
            row = np.array([[params[c] for c in tree.children_of(u)]])
            params[u] = float(g.combine_params(row)[0])
    return params[ROOT]


def sample_vote(
    tree: TimeLabelledTree,
    leaf_votes: dict[UlamIndex, int],
    kernel: ExchangeableKernel,
    rng_seed: int,
) -> int:
    """One bottom-up sampled evaluation of the voting algorithm."""
    return int(sample_votes_batch(tree, leaf_votes, kernel, 1, rng_seed)[0])


def _thin_up(
    tree: TimeLabelledTree,
    votes: dict[UlamIndex, np.ndarray],
    kernel: ExchangeableKernel,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fill in the internal vertices' votes, deepest first, from the leaf
    votes already in ``votes``; returns the root's votes. Deterministic
    kernels draw nothing, random ones one Bernoulli thinning per vertex."""
    for u in sorted(tree.vertices, key=lambda u: u.depth, reverse=True):
        if u in votes:
            continue
        stacked = np.stack([votes[c] for c in tree.children_of(u)], axis=1)
        thetas = kernel.theta_batch(stacked)
        if kernel.is_deterministic:
            votes[u] = thetas.astype(np.int8)
        else:
            votes[u] = (rng.random(n_samples) < thetas).astype(np.int8)
    return votes[ROOT]


def sample_votes_batch(
    tree: TimeLabelledTree,
    leaf_votes: dict[UlamIndex, int],
    kernel: ExchangeableKernel,
    n_samples: int,
    rng_seed: int,
) -> np.ndarray:
    """n_samples independent evaluations of the voting algorithm.

    The leaf votes are fixed; the randomness is the per-vertex Bernoulli
    thinning. Deterministic kernels give constant output. Vectorized
    over the sample axis, one pass per vertex.
    """
    leaves = tree.leaves()
    missing = set(leaves) - set(leaf_votes)
    if missing:
        raise ArgumentError(f"missing leaf votes for {sorted(map(str, missing))[:3]} ...")
    votes: dict[UlamIndex, np.ndarray] = {}
    for u in leaves:
        v = int(leaf_votes[u])
        if v not in (0, 1):
            raise ArgumentError(f"leaf vote at {u} must be 0 or 1")
        votes[u] = np.full(n_samples, v, dtype=np.int8)
    return _thin_up(tree, votes, kernel, n_samples, derive_rng(rng_seed, 0xB07E))


def sample_root_votes(
    tree: TimeLabelledTree,
    leaf_prob: Callable[[np.ndarray], float],
    kernel: ExchangeableKernel,
    n_samples: int,
    rng_seed: int,
) -> np.ndarray:
    """Full Monte Carlo voting algorithm: per replicate, leaves draw
    independent Bernoulli(leaf_prob(position)) votes which then thin up
    the tree. The mean over replicates estimates the same quantity that
    root_vote_prob_exact computes in closed form on this tree."""
    rng = derive_rng(rng_seed, 0xF077)
    votes: dict[UlamIndex, np.ndarray] = {}
    for u in tree.leaves():
        p = _leaf_prob(leaf_prob, tree.vertices[u].position_at_death)
        votes[u] = (rng.random(n_samples) < p).astype(np.int8)
    return _thin_up(tree, votes, kernel, n_samples, rng)


@dataclass
class TreeShapeStats:
    contains_regular_height: int
    contained_in_regular_height: int
    max_displacement_from_root: float


def tree_shape_stats(tree: TimeLabelledTree) -> TreeShapeStats:
    """Largest/smallest regular-tree heights bracketing the genealogy,
    plus the largest leaf displacement from the root start point."""
    depths = [u.depth for u in tree.leaves()]
    disp = max(
        float(np.linalg.norm(tree.vertices[u].position_at_death - tree.root_start))
        for u in tree.leaves()
    )
    return TreeShapeStats(
        contains_regular_height=min(depths),
        contained_in_regular_height=max(depths),
        max_displacement_from_root=disp,
    )
