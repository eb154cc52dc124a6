"""Time-labelled genealogies in the wave layout, and voting on them.

A genealogy is stored, grown and voted on one way: as flat per-wave
arrays. Wave 0 holds the roots; the children of the i-th internal vertex
of wave w (the i-th False of ``is_leaf``) fill slots [i*n0, (i+1)*n0) of
wave w+1, in child order. Every internal vertex has exactly n0 children
and leaves die at the horizon. :func:`grow_waves` is the one forward
loop and :func:`vote_back` the one backward pass; the forest
(``forest.py``) and the single-genealogy functions here both use them.

Every wave keeps its leaves' positions, which is what the voting
algorithm reads: leaves are valued only on the backward pass. A single
genealogy (:class:`TimeLabelledTree`) also keeps, per wave, birth and
death times and internal positions at death (they seed the offspring
dispersal), never full paths. Ulam-Harris labels exist only in its JSON
form.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from ..errors import ArgumentError, ResourceError
from ..gfunction.gfun import GFunction
from ..gfunction.kernels import ExchangeableKernel
from ..rng import derive_rng

__all__ = [
    "Wave",
    "TimeLabelledTree",
    "BranchingSpec",
    "expected_population",
    "check_growth",
    "grow_waves",
    "vote_back",
    "simulate_tree",
    "root_vote_prob_exact",
    "sample_votes_batch",
    "sample_root_votes",
]

DEFAULT_VERTEX_BUDGET = 10_000_000


@dataclass
class BranchingSpec:
    """Motion + branching law of one dual process.

    ``motion(starts, durations, rng)`` maps (n, dim) start points over
    per-row durations to (n, dim) endpoints; ``dispersal(parents, rng)``
    maps (n, dim) branch locations to (n, n_children, dim) offspring
    positions. Both must be vectorized over the leading axis.
    ``decoration_fn(parents, offspring, rng)``, when set, returns an array
    with one row per branching event (leading axis n). A forest voted
    through the model's combiner, the only reader of the rows, draws them
    once per growth call, for all of the call's branching events after
    its last wave, so the combiner stays pure; other growth draws none.
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


@dataclass
class Wave:
    """One generation of the wave layout.

    ``leaves`` holds the (n_leaves, dim) leaf positions at the horizon,
    in row order, or None when the wave has no leaf. ``decorations`` has
    one row per internal vertex. Only a genealogy keeps ``birth`` and
    ``death`` (one per vertex) and ``at_death``, the internal vertices'
    positions at death.
    """

    is_leaf: np.ndarray
    leaves: Optional[np.ndarray] = None
    decorations: Optional[np.ndarray] = None
    birth: Optional[np.ndarray] = None
    death: Optional[np.ndarray] = None
    at_death: Optional[np.ndarray] = None


def check_growth(spec: BranchingSpec, x0, t: float, n_roots: int, max_vertices: int) -> tuple[np.ndarray, float]:
    """Validate one growth call and make its up-front budget refusal.

    A start that is not a finite point of dimension ``spec.dim``, a
    horizon that is not finite and >= 0, or a root count that is not an
    integer >= 1 raises ArgumentError. The vertex budget is refused
    (ResourceError) when the expected vertex count n_roots * E|N(t)| *
    n0/(n0 - 1) exceeds it. Returns the start as a (dim,) array and the
    expected vertex count per root.
    """
    if not (isinstance(t, numbers.Real) and math.isfinite(t) and t >= 0):
        raise ArgumentError(f"horizon must be finite and nonnegative, got {t!r}")
    if isinstance(n_roots, bool) or not isinstance(n_roots, numbers.Integral) or n_roots < 1:
        raise ArgumentError(f"the number of roots must be an integer >= 1, got {n_roots!r}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.dim,) or not np.isfinite(x0).all():
        raise ArgumentError(f"start point must be finite, of dimension {spec.dim}")
    n0 = spec.n_children
    # total vertices of a full n0-ary family tree with L leaves: (n0 L - 1)/(n0 - 1)
    expected_total = n_roots * expected_population(spec, t) * n0 / max(n0 - 1, 1)
    if expected_total > max_vertices:
        raise ResourceError(
            f"expected ensemble size {expected_total:.3g} vertices "
            f"exceeds the vertex budget {max_vertices}"
        )
    return x0, expected_total / n_roots


def grow_waves(
    spec: BranchingSpec,
    x0,
    t: float,
    n_roots: int,
    rng: np.random.Generator,
    max_vertices: int,
    genealogy: bool = False,
    decorate: bool = False,
    counted: int = 0,
) -> tuple[list[Wave], int, int]:
    """Grow n_roots independent genealogies from x0 to the horizon t.

    Per wave, in this order, the loop draws the lifetimes, the leaves'
    motion to the horizon, the internal vertices' motion to their deaths
    and the dispersal, and keeps the leaf positions. ``genealogy`` also
    keeps birth, death and internal positions at death. With ``decorate``,
    one ``spec.decoration_fn`` call after the last wave decorates all
    branching events, whose rows are then split back onto their waves.

    Bad input and the up-front budget refusal are those of
    `check_growth`, made before anything is drawn. During growth the
    budget is refused when the running vertex count exceeds it; that
    count starts at ``counted``, the vertices earlier growth on the same
    budget has made. Returns (waves, vertices, leaves) of this call.
    """
    x0, _ = check_growth(spec, x0, t, n_roots, max_vertices)
    n0 = spec.n_children

    waves: list[Wave] = []
    positions = np.tile(x0, (n_roots, 1))
    births = np.zeros(n_roots)
    total = 0
    total_leaves = 0
    events = [] if decorate and spec.decoration_fn is not None else None  # (wave, at_death, offspring)
    while positions.shape[0]:
        n_w = positions.shape[0]
        total += n_w
        if counted + total > max_vertices:
            raise ResourceError(f"ensemble exceeded the vertex budget {max_vertices}")
        if spec.branch_rate > 0:
            lifetimes = rng.exponential(1.0 / spec.branch_rate, size=n_w)
        else:
            lifetimes = np.full(n_w, np.inf)
        is_leaf = births + lifetimes >= t
        wave = Wave(is_leaf)
        if genealogy:
            wave.birth = births
            wave.death = np.where(is_leaf, t, births + lifetimes)
        leaf_rows = np.flatnonzero(is_leaf)
        internal_rows = np.flatnonzero(~is_leaf)
        if leaf_rows.size:
            wave.leaves = spec.motion(positions.take(leaf_rows, axis=0), t - births.take(leaf_rows), rng)
            total_leaves += leaf_rows.size
        if internal_rows.size:
            ilife = lifetimes.take(internal_rows)
            at_death = spec.motion(positions.take(internal_rows, axis=0), ilife, rng)
            offspring = spec.dispersal(at_death, rng)  # (m, n0, dim)
            if events is not None:
                events.append((wave, at_death, offspring))
            if genealogy:
                wave.at_death = at_death
            positions = offspring.reshape(-1, spec.dim)
            births = np.repeat(births.take(internal_rows) + ilife, n0)
            del internal_rows, ilife, at_death, offspring  # released before the next wave grows
        else:
            positions = np.empty((0, spec.dim))
            births = np.empty(0)
        waves.append(wave)
    if events:
        decorated, parents, offspring = zip(*events)
        rows = spec.decoration_fn(np.concatenate(parents), np.concatenate(offspring), rng)
        for wave, part in zip(decorated, np.split(rows, np.cumsum([len(p) for p in parents[:-1]]))):
            wave.decorations = part
    return waves, total, total_leaves


def vote_back(
    deepest_first: Iterable[Wave],
    n0: int,
    leaf_values: Callable[[Wave], np.ndarray],
    combine: Callable[[Wave, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Vote parameters of wave 0, from waves given deepest first.

    Per wave, ``leaf_values(wave)`` gives one row per leaf (called only
    when the wave has leaves), then ``combine(wave, children)`` gives one
    row per internal vertex from the (m, n0, ...) rows of its children.
    Rows may carry trailing axes, such as one vote per sample.
    """
    params = None
    for wave in deepest_first:
        leaf = None if wave.leaves is None else leaf_values(wave)
        inner = None if params is None else combine(wave, params.reshape((-1, n0) + params.shape[1:]))
        like = inner if leaf is None else leaf
        params = np.empty(wave.is_leaf.shape + like.shape[1:], like.dtype)
        if leaf is not None:
            params[np.flatnonzero(wave.is_leaf)] = leaf
        if inner is not None:
            params[np.flatnonzero(~wave.is_leaf)] = inner
    return params


@dataclass
class TimeLabelledTree:
    """One genealogy (one root) in the wave layout."""

    n_children: int
    dim: int
    horizon: float
    root_start: np.ndarray
    waves: list[Wave]

    def __len__(self):
        return sum(wave.is_leaf.size for wave in self.waves)

    def leaves(self) -> np.ndarray:
        """(n_leaves, dim) leaf positions, wave by wave in row order."""
        return np.concatenate([wave.leaves for wave in self.waves if wave.leaves is not None])

    def validate(self) -> None:
        """Check the structural invariants; raises ArgumentError."""
        n0 = self.n_children
        if not self.waves or self.waves[0].is_leaf.size != 1:
            raise ArgumentError("missing root")
        for w, wave in enumerate(self.waves):
            internal = ~wave.is_leaf
            below = self.waves[w + 1] if w + 1 < len(self.waves) else None
            if (0 if below is None else below.is_leaf.size) != n0 * int(internal.sum()):
                raise ArgumentError(f"partial family or orphan vertex below wave {w}")
            if np.any(wave.death[internal] <= wave.birth[internal]):
                raise ArgumentError(f"non-positive lifetime at an internal vertex of wave {w}")
            if below is not None and np.any(below.birth != np.repeat(wave.death[internal], n0)):
                raise ArgumentError(f"birth/death mismatch below wave {w}")
            if np.any(wave.death[wave.is_leaf] != self.horizon):
                raise ArgumentError(f"a leaf of wave {w} does not die at the horizon")

    # ----- JSON view (documented vertex-list schema) -----

    def to_json(self) -> str:
        """Schema: {version, n_children, dim, horizon, root_start,
        vertices: [{path, birth, death, position, decoration?}]}, vertices
        sorted by their Ulam-Harris path (child indices from the root,
        1-based), which carries the parent links."""
        records = []
        paths = [()]
        for wave in self.waves:
            parents = []
            leaf_row = internal_row = 0
            for r, path in enumerate(paths):
                rec = {"path": list(path), "birth": float(wave.birth[r]), "death": float(wave.death[r])}
                if wave.is_leaf[r]:
                    rec["position"] = [float(x) for x in wave.leaves[leaf_row]]
                    leaf_row += 1
                else:
                    rec["position"] = [float(x) for x in wave.at_death[internal_row]]
                    if wave.decorations is not None:
                        rec["decoration"] = {"__array__": wave.decorations[internal_row].tolist()}
                    internal_row += 1
                    parents.append(path)
                records.append((path, rec))
            paths = [p + (j,) for p in parents for j in range(1, self.n_children + 1)]
        records.sort(key=lambda item: item[0])
        return json.dumps(
            {
                "version": 1,
                "n_children": self.n_children,
                "dim": self.dim,
                "horizon": self.horizon,
                "root_start": [float(x) for x in np.atleast_1d(self.root_start)],
                "vertices": [rec for _, rec in records],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TimeLabelledTree":
        """Rebuild the waves from the vertex list. A list that no wave
        layout holds (no root, an orphan, a partial family, decorations on
        leaves or on some branching events only) raises ArgumentError."""
        data = json.loads(text)
        if data.get("version") != 1:
            raise ArgumentError("unsupported tree schema version")
        n0, dim = data["n_children"], data["dim"]
        records = {tuple(rec["path"]): rec for rec in data["vertices"]}
        if () not in records:
            raise ArgumentError("missing root")
        for path in records:
            if path and path[:-1] not in records:
                raise ArgumentError(f"orphan vertex {path}")
            present = [path + (j,) in records for j in range(1, n0 + 1)]
            if any(present) and not all(present):
                raise ArgumentError(f"partial family at {path}")
        waves = []
        paths = [()]
        while paths:
            rows = [records[p] for p in paths]
            is_leaf = np.array([p + (1,) not in records for p in paths])
            pos = np.array([rec["position"] for rec in rows], dtype=float).reshape(len(rows), dim)
            decorations = [rec.get("decoration") for rec in rows]
            if any(d is not None for d, leaf in zip(decorations, is_leaf) if leaf):
                raise ArgumentError("a leaf carries a decoration")
            inner = [d for d, leaf in zip(decorations, is_leaf) if not leaf]
            if len({d is None for d in inner}) > 1:
                raise ArgumentError("only some branching events carry a decoration")
            waves.append(
                Wave(
                    is_leaf,
                    leaves=pos[is_leaf] if is_leaf.any() else None,
                    decorations=np.array([d["__array__"] for d in inner]) if inner and inner[0] is not None else None,
                    birth=np.array([rec["birth"] for rec in rows], dtype=float),
                    death=np.array([rec["death"] for rec in rows], dtype=float),
                    at_death=pos[~is_leaf],
                )
            )
            paths = [p + (j,) for p, leaf in zip(paths, is_leaf) if not leaf for j in range(1, n0 + 1)]
        return cls(n0, dim, data["horizon"], np.array(data["root_start"], dtype=float), waves)


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
    dispersal law at the parent's death position. This is one root of the
    forest's forward loop on ``derive_rng(rng_seed, 0x7EE5)``, with the
    forest's vertex budget.
    """
    waves, _, _ = grow_waves(spec, x0, t, 1, derive_rng(rng_seed, 0x7EE5), max_vertices, genealogy=True)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return TimeLabelledTree(spec.n_children, spec.dim, t, x0.copy(), waves)


def _leaf_probs(wave: Wave, leaf_prob: Callable[[np.ndarray], float]) -> np.ndarray:
    values = np.array([float(leaf_prob(position)) for position in wave.leaves])
    bad = values[~((values >= 0.0) & (values <= 1.0))]
    if bad.size:
        raise ArgumentError(f"leaf probability {bad[0]} outside [0,1]")
    return values


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
    root = vote_back(
        reversed(tree.waves),
        tree.n_children,
        lambda wave: _leaf_probs(wave, leaf_prob),
        lambda wave, children: g.combine_params(children),
    )
    return float(root[0])


def _vote_samples(
    tree: TimeLabelledTree,
    leaf_votes: Callable[[Wave], np.ndarray],
    kernel: ExchangeableKernel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Root votes from per-wave (n_leaves, n_samples) leaf votes.
    Deterministic kernels draw nothing, random ones one Bernoulli
    thinning per internal vertex and sample."""

    def thin(wave, children):
        thetas = kernel.theta_batch(children)
        return thetas == 1.0 if kernel.is_deterministic else rng.random(thetas.shape) < thetas

    return vote_back(reversed(tree.waves), tree.n_children, leaf_votes, thin)[0].astype(np.int8)


def sample_votes_batch(
    tree: TimeLabelledTree,
    leaf_votes,
    kernel: ExchangeableKernel,
    n_samples: int,
    rng_seed: int,
) -> np.ndarray:
    """n_samples independent evaluations of the voting algorithm.

    ``leaf_votes`` holds one 0/1 vote per leaf, in ``tree.leaves()``
    order. The leaf votes are fixed; the randomness is the per-vertex
    Bernoulli thinning. Deterministic kernels give constant output.
    """
    votes = np.asarray(leaf_votes)
    n_leaves = [len(wave.leaves) for wave in tree.waves if wave.leaves is not None]
    if votes.shape != (sum(n_leaves),):
        raise ArgumentError(f"expected {sum(n_leaves)} leaf votes, got shape {votes.shape}")
    if not np.all((votes == 0) | (votes == 1)):
        raise ArgumentError("leaf votes must be 0 or 1")
    per_wave = np.split(votes == 1, np.cumsum(n_leaves)[:-1])  # the backward pass takes them from the end
    return _vote_samples(
        tree,
        lambda wave: np.broadcast_to(per_wave.pop()[:, None], (len(wave.leaves), n_samples)),
        kernel,
        derive_rng(rng_seed, 0xB07E),
    )


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

    def leaf_votes(wave):
        p = _leaf_probs(wave, leaf_prob)
        return rng.random((p.size, n_samples)) < p[:, None]

    return _vote_samples(tree, leaf_votes, kernel, rng)
