"""In-memory span tracer that wraps dualflow's public functions from outside.

A span is recorded around a call made through a module attribute (the
name its caller looks up at call time), so nothing under ``src/`` is
edited. Wrappers draw no random numbers and hand arguments and results
through unchanged; the counts attached to a span are read from the
returned object (``ForestResult``, trees, fields, notes) or from a public
formula of the arguments, after the span's clock has stopped.

Spans nest by call order (the benchmark is single-threaded), so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``install`` patches, ``restore`` undoes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ----- recording -----

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), attrs=dict(attrs)))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[Any, inspect.BoundArguments], dict]] = None,
        rewrap: Optional[Callable[[Any], Any]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``count`` reads attributes off the result."""
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].attrs.update(count(out, bound))
            return rewrap(out) if rewrap is not None else out

        traced.__wrapped__ = fn
        return traced

    # ----- patching -----

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_item(self, mapping: dict, key: str, replacement: Any) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ----- queries -----

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        kids = self.children()
        return [
            s.duration - sum(self.spans[c].duration for c in kids[i])
            for i, s in enumerate(self.spans)
        ]

    def ancestors(self, index: int):
        p = self.spans[index].parent
        while p >= 0:
            yield p
            p = self.spans[p].parent

    def root_of(self, index: int) -> int:
        root = index
        for root in self.ancestors(index):
            pass
        return root


# ----- the instrumentation table -----


def _ceil_steps(total: float, step: float) -> int:
    return int(math.ceil(total / step)) if total > 0 else 0


def _forest_counts(res, bound) -> dict:
    return {
        "vertices": int(res.total_vertices),
        "leaves": int(res.total_leaves),
        "max_depth": int(res.max_depth),
    }


def _coalescence_counts(out, bound) -> dict:
    rep, _cutoff, notes = out
    return {
        "walkers": int(rep.size),
        "capped": sum("capped" in note for note in notes),
    }


def _gbar_counts(g, bound) -> dict:
    return {"samples": int(g.metadata["n_samples"])}


def _evolve_counts(out, bound) -> dict:
    a = bound.arguments
    u0 = a["u0"]
    return {
        "steps": _ceil_steps(float(a["T"]), a["cfl"] * u0.spacing**2),
        "cells": int(u0.values.size),
    }


def _field_cells(out, bound) -> dict:
    return {"cells": int(out.values.size)}


def _tree_counts(tree, bound) -> dict:
    return {"vertices": len(tree)}


def _combine_counts(out, bound) -> dict:
    return {"vertices": int(len(out))}


def _reaction_counts(out, bound) -> dict:
    a = bound.arguments
    dt = a["dt"]
    if dt is None:
        reaction = importlib.import_module("dualflow.pde.reaction")
        p0 = a["p0"]
        dt = a["safety"] * reaction.reaction_time_step(
            a["epsilon"], a["g"], a["branch_gamma"], p0.spacing, p0.dim
        )
    return {"steps": _ceil_steps(float(a["T"]), dt)}


# (span name, [(module, attribute)], count): every place the three workloads
# reach the function through
_FUNCTIONS = [
    ("gfunction.verify_g_axioms", [("dualflow.models", "verify_g_axioms")], None),
    (
        "gfunction.find_fixed_points",
        [("dualflow.models", "find_fixed_points"), ("dualflow.gfunction.gfun", "find_fixed_points")],
        None,
    ),
    (
        "gfunction.gbar",
        [("dualflow.models", "gbar"), ("dualflow.gfunction.coalescence", "gbar")],
        _gbar_counts,
    ),
    (
        "gfunction.coalescence",
        [
            ("dualflow.models", "sample_coalescent_partitions"),
            ("dualflow.gfunction.coalescence", "sample_coalescent_partitions"),
        ],
        _coalescence_counts,
    ),
    ("dualtree.forest", [("dualflow.dualtree.estimate", "forest_root_params")], _forest_counts),
    (
        "dualtree.estimate",
        [
            ("dualflow.verify.checks", "estimate_vote_probability"),
            ("dualflow.onedim", "estimate_vote_probability"),
        ],
        None,
    ),
    ("dualtree.tree.simulate", [("dualflow.dualtree.tree", "simulate_tree")], _tree_counts),
    ("dualtree.tree.exact", [("dualflow.dualtree.tree", "root_vote_prob_exact")], None),
    ("dualtree.tree.sampled", [("dualflow.dualtree.tree", "sample_root_votes")], None),
    ("onedim.bbm1d_vote_prob", [("dualflow.verify.checks", "bbm1d_vote_prob")], None),
    ("verify.bundle_estimate", [("dualflow.verify.checks", "bundle_estimate")], None),
    ("pde.evolve_mcf_levelset", [("dualflow.pde.curvature", "evolve_mcf_levelset")], _evolve_counts),
    (
        "pde.signed_distance",
        [("dualflow.verify.checks", "signed_distance"), ("dualflow.pde.levelsets", "signed_distance")],
        _field_cells,
    ),
    (
        "pde.curvature_envelope_fields",
        [
            ("dualflow.verify.checks", "curvature_envelope_fields"),
            ("dualflow.pde.levelsets", "curvature_envelope_fields"),
        ],
        None,
    ),
    (
        "pde.solve_reaction_diffusion",
        [("dualflow.verify.checks", "solve_reaction_diffusion")],
        _reaction_counts,
    ),
    (
        "pde.check_distance_supersolution",
        [("dualflow.pde.levelsets", "check_distance_supersolution")],
        None,
    ),
]

CHECKS = [
    "check_interface_formation",
    "check_propagation_vs_1d",
    "check_ito_coupling_drift",
    "check_allen_cahn_duality",
]

BUNDLE_FACTORIES = ["ternary_bbm", "nonlinear_voter_dual"]


def _wrap_spec(tracer: Tracer, spec):
    spec.motion = tracer.wrap("models.motion", spec.motion)
    spec.dispersal = tracer.wrap("models.dispersal", spec.dispersal)
    if spec.decoration_fn is not None:
        spec.decoration_fn = tracer.wrap("models.decoration", spec.decoration_fn)
    return spec


def install(tracer: Tracer) -> None:
    """Patch every instrumented attribute; ``tracer.restore()`` undoes it."""
    for name, places, count in _FUNCTIONS:
        for module, attr in places:
            owner = importlib.import_module(module)
            tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    checks = importlib.import_module("dualflow.verify.checks")
    for check in CHECKS:
        tracer.patch(checks, check, tracer.wrap(f"verify.{check}", getattr(checks, check)))

    # voting functions handed to the forest as leaf_prob
    leaf = lambda fn: tracer.wrap("verify.leaf_prob", fn)
    tracer.patch(checks, "plus_phase_profile", _rewrap(checks.plus_phase_profile, leaf))
    field_cls = importlib.import_module("dualflow.pde.field").ScalarField
    tracer.patch(field_cls, "as_leaf_function", _rewrap(field_cls.as_leaf_function, leaf))

    # bundles: time the build, then wrap the built spec fields and combiner
    def instrument_bundle(bundle):
        _wrap_spec(tracer, bundle.spec)
        if bundle.combine is not None:
            bundle.combine = tracer.wrap("models.nlv_combine", bundle.combine, _combine_counts)
        return bundle

    models = importlib.import_module("dualflow.models")
    for factory in BUNDLE_FACTORIES:
        traced = tracer.wrap("models.build", getattr(models, factory), rewrap=instrument_bundle)
        tracer.patch(models, factory, traced)
        tracer.patch_item(models.MODEL_FACTORIES, factory, traced)

    onedim = importlib.import_module("dualflow.onedim")
    tracer.patch(onedim, "bbm1d_spec", _rewrap(onedim.bbm1d_spec, lambda spec: _wrap_spec(tracer, spec)))


def _rewrap(fn: Callable, post: Callable) -> Callable:
    """Call ``fn`` untimed and pass its result through ``post``."""

    def wrapper(*args, **kwargs):
        return post(fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


# ----- per-layer metrics -----

PDE_SPANS = [
    "pde.evolve_mcf_levelset",
    "pde.signed_distance",
    "pde.curvature_envelope_fields",
    "pde.solve_reaction_diffusion",
    "pde.check_distance_supersolution",
]
FOREST_SPANS = ["dualtree.forest", "models.motion", "models.dispersal", "models.decoration"]

# layer -> (how its time is counted, span names); "inclusive" sums the
# outermost spans of the set, "self" sums their self times
LAYERS = {
    "verify_g_axioms": ("inclusive", ["gfunction.verify_g_axioms"]),
    "gbar_coalescence": ("inclusive", ["gfunction.gbar", "gfunction.coalescence"]),
    "coalescence": ("inclusive", ["gfunction.coalescence"]),
    "forest": ("self", FOREST_SPANS),
    "nlv_combine": ("inclusive", ["models.nlv_combine"]),
    "pde": ("self", PDE_SPANS),
    "bundle_builds": ("inclusive", ["models.build"]),
}

PER_LAYER_UNITS = {
    "gfunction.verify_g_axioms.calls": "count",
    "gfunction.verify_g_axioms.ms_per_call": "ms",
    "gfunction.find_fixed_points.calls": "count",
    "gfunction.find_fixed_points.ms_per_call": "ms",
    "gfunction.gbar.calls": "count",
    "gfunction.gbar.s": "s",
    "gfunction.gbar.us_per_sample": "us",
    "gfunction.coalescence.calls": "count",
    "gfunction.coalescence.s": "s",
    "gfunction.coalescence.walkers": "count",
    "gfunction.coalescence.capped": "count",
    "dualtree.forest.calls": "count",
    "dualtree.forest.vertices": "count",
    "dualtree.forest.leaves": "count",
    "dualtree.forest.max_depth": "count",
    "dualtree.forest.self_s": "s",
    "dualtree.forest.ns_per_vertex": "ns",
    "dualtree.estimate.calls": "count",
    "dualtree.estimate.ms.p50": "ms",
    "dualtree.estimate.ms.tail": "ms",
    "dualtree.estimate.ms.tail_pct": "%",
    "dualtree.estimate.ms.samples": "count",
    "dualtree.tree.trees": "count",
    "dualtree.tree.vertices": "count",
    "dualtree.tree.simulate_s": "s",
    "dualtree.tree.exact_s": "s",
    "dualtree.tree.sampled_s": "s",
    "models.bundle_builds": "count",
    "models.build_s": "s",
    "models.motion.calls": "count",
    "models.motion.s": "s",
    "models.dispersal.s": "s",
    "models.decoration.s": "s",
    "models.nlv_combine.calls": "count",
    "models.nlv_combine.vertices": "count",
    "models.nlv_combine.ms_per_vertex": "ms",
    "verify.leaf_prob.s": "s",
    "onedim.bbm1d_vote_prob.calls": "count",
    "onedim.bbm1d_vote_prob.s": "s",
    "pde.evolve_mcf_levelset.steps": "count",
    "pde.evolve_mcf_levelset.cells": "count",
    "pde.evolve_mcf_levelset.ms_per_step": "ms",
    "pde.signed_distance.calls": "count",
    "pde.signed_distance.cells": "count",
    "pde.signed_distance.ms_per_call": "ms",
    "pde.curvature_envelope_fields.calls": "count",
    "pde.curvature_envelope_fields.ms_per_call": "ms",
    "pde.solve_reaction_diffusion.steps": "count",
    "pde.solve_reaction_diffusion.ms_per_step": "ms",
    "pde.check_distance_supersolution.s": "s",
    **{f"verify.{check}.s": "s" for check in CHECKS},
    "verify.self_s": "s",
    "share.coalescence": "fraction",
    "share.forest": "fraction",
    "share.pde": "fraction",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}


class _Index:
    """Spans grouped by name, with self times and root phases."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.spans = tracer.spans
        self.self_s = tracer.self_times()
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            self.by_name.setdefault(s.name, []).append(i)
        self.phase = [self.spans[tracer.root_of(i)].name for i in range(len(self.spans))]
        self.iterations = len(self.by_name.get("bench.solve", [])) or 1

    def select(self, names, phase=None) -> list[int]:
        out = [i for n in names for i in self.by_name.get(n, [])]
        return [i for i in out if phase is None or self.phase[i] == phase]

    def inclusive(self, names, phase=None) -> float:
        names = set(names)
        return sum(
            self.spans[i].duration
            for i in self.select(names, phase)
            if not any(self.spans[a].name in names for a in self.tracer.ancestors(i))
        )

    def self_time(self, names, phase=None) -> float:
        return sum(self.self_s[i] for i in self.select(names, phase))

    def layer(self, layer: str, phase=None) -> float:
        how, names = LAYERS[layer]
        return self.inclusive(names, phase) if how == "inclusive" else self.self_time(names, phase)

    # per traced iteration
    def calls(self, name: str) -> float:
        return len(self.by_name.get(name, [])) / self.iterations

    def seconds(self, name: str) -> float:
        return self.inclusive([name]) / self.iterations

    def attr(self, name: str, key: str) -> float:
        return sum(self.spans[i].attrs.get(key, 0) for i in self.by_name.get(name, [])) / self.iterations


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _tail(durations_ms: list[float]) -> tuple[float, float]:
    """Highest whole percentile with at least ten samples beyond it, or
    (0, 0) when there are too few samples for one."""
    n = len(durations_ms)
    if n <= 10:
        return 0.0, 0.0
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted(durations_ms)[rank - 1], float(pct)


def per_layer_metrics(tracer: Tracer, untraced_solve_s: list[float], traced_solve_s: list[float]) -> dict:
    """Every per-layer metric as name -> (value, unit), per traced iteration."""
    ix = _Index(tracer)
    m: dict[str, float] = {}

    for name in ("gfunction.verify_g_axioms", "gfunction.find_fixed_points"):
        m[f"{name}.calls"] = ix.calls(name)
        m[f"{name}.ms_per_call"] = _ratio(ix.seconds(name), ix.calls(name), 1e3)
    m["gfunction.gbar.calls"] = ix.calls("gfunction.gbar")
    m["gfunction.gbar.s"] = ix.seconds("gfunction.gbar")
    m["gfunction.gbar.us_per_sample"] = _ratio(m["gfunction.gbar.s"], ix.attr("gfunction.gbar", "samples"), 1e6)
    m["gfunction.coalescence.calls"] = ix.calls("gfunction.coalescence")
    m["gfunction.coalescence.s"] = ix.seconds("gfunction.coalescence")
    m["gfunction.coalescence.walkers"] = ix.attr("gfunction.coalescence", "walkers")
    m["gfunction.coalescence.capped"] = ix.attr("gfunction.coalescence", "capped")

    forest = "dualtree.forest"
    m[f"{forest}.calls"] = ix.calls(forest)
    m[f"{forest}.vertices"] = ix.attr(forest, "vertices")
    m[f"{forest}.leaves"] = ix.attr(forest, "leaves")
    m[f"{forest}.max_depth"] = max((ix.spans[i].attrs["max_depth"] for i in ix.by_name.get(forest, [])), default=0)
    m[f"{forest}.self_s"] = ix.self_time([forest]) / ix.iterations
    m[f"{forest}.ns_per_vertex"] = _ratio(ix.seconds(forest), m[f"{forest}.vertices"], 1e9)

    estimates = [ix.spans[i].duration * 1e3 for i in ix.by_name.get("dualtree.estimate", [])]
    m["dualtree.estimate.calls"] = ix.calls("dualtree.estimate")
    m["dualtree.estimate.ms.p50"] = statistics.median(estimates) if estimates else 0.0
    m["dualtree.estimate.ms.tail"], m["dualtree.estimate.ms.tail_pct"] = _tail(estimates)
    m["dualtree.estimate.ms.samples"] = len(estimates)

    m["dualtree.tree.trees"] = ix.calls("dualtree.tree.simulate")
    m["dualtree.tree.vertices"] = ix.attr("dualtree.tree.simulate", "vertices")
    m["dualtree.tree.simulate_s"] = ix.seconds("dualtree.tree.simulate")
    m["dualtree.tree.exact_s"] = ix.seconds("dualtree.tree.exact")
    m["dualtree.tree.sampled_s"] = ix.seconds("dualtree.tree.sampled")

    m["models.bundle_builds"] = ix.calls("models.build")
    m["models.build_s"] = ix.seconds("models.build")
    m["models.motion.calls"] = ix.calls("models.motion")
    m["models.motion.s"] = ix.seconds("models.motion")
    m["models.dispersal.s"] = ix.seconds("models.dispersal")
    m["models.decoration.s"] = ix.seconds("models.decoration")
    m["models.nlv_combine.calls"] = ix.calls("models.nlv_combine")
    m["models.nlv_combine.vertices"] = ix.attr("models.nlv_combine", "vertices")
    m["models.nlv_combine.ms_per_vertex"] = _ratio(
        ix.seconds("models.nlv_combine"), m["models.nlv_combine.vertices"], 1e3
    )
    m["verify.leaf_prob.s"] = ix.seconds("verify.leaf_prob")
    m["onedim.bbm1d_vote_prob.calls"] = ix.calls("onedim.bbm1d_vote_prob")
    m["onedim.bbm1d_vote_prob.s"] = ix.seconds("onedim.bbm1d_vote_prob")

    evolve = "pde.evolve_mcf_levelset"
    m[f"{evolve}.steps"] = ix.attr(evolve, "steps")
    m[f"{evolve}.cells"] = ix.attr(evolve, "cells")
    m[f"{evolve}.ms_per_step"] = _ratio(ix.seconds(evolve), m[f"{evolve}.steps"], 1e3)
    m["pde.signed_distance.calls"] = ix.calls("pde.signed_distance")
    m["pde.signed_distance.cells"] = ix.attr("pde.signed_distance", "cells")
    m["pde.signed_distance.ms_per_call"] = _ratio(
        ix.seconds("pde.signed_distance"), m["pde.signed_distance.calls"], 1e3
    )
    m["pde.curvature_envelope_fields.calls"] = ix.calls("pde.curvature_envelope_fields")
    m["pde.curvature_envelope_fields.ms_per_call"] = _ratio(
        ix.seconds("pde.curvature_envelope_fields"), m["pde.curvature_envelope_fields.calls"], 1e3
    )
    reaction = "pde.solve_reaction_diffusion"
    m[f"{reaction}.steps"] = ix.attr(reaction, "steps")
    m[f"{reaction}.ms_per_step"] = _ratio(ix.seconds(reaction), m[f"{reaction}.steps"], 1e3)
    m["pde.check_distance_supersolution.s"] = ix.seconds("pde.check_distance_supersolution")

    for check in CHECKS:
        m[f"verify.{check}.s"] = ix.seconds(f"verify.{check}")
    verify_spans = [f"verify.{check}" for check in CHECKS] + ["verify.bundle_estimate"]
    m["verify.self_s"] = ix.self_time(verify_spans) / ix.iterations

    solve = ix.inclusive(["bench.solve"])
    for layer in ("coalescence", "forest", "pde"):
        m[f"share.{layer}"] = _ratio(ix.layer(layer, "bench.solve"), solve)
    m["trace.solve_s"] = statistics.median(traced_solve_s)
    m["trace.overhead_s"] = m["trace.solve_s"] - statistics.median(untraced_solve_s)

    missing = set(PER_LAYER_UNITS) ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metric table and values disagree on {sorted(missing)}")
    return {name: (float(m[name]), PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}


def layer_time(tracer: Tracer) -> dict:
    """Seconds per traced iteration in each layer, split by phase."""
    ix = _Index(tracer)
    out = {
        layer: {phase: ix.layer(layer, f"bench.{phase}") / ix.iterations for phase in ("setup", "solve")}
        for layer in LAYERS
    }
    out["total"] = {
        phase: ix.inclusive([f"bench.{phase}"]) / ix.iterations for phase in ("setup", "solve")
    }
    return out


def write_spans(tracer: Tracer, out_dir: Path, workload: str, seed: int) -> Path:
    """All spans as JSON lines: name, parent index, start, end, attributes."""
    path = Path(out_dir) / f"spans-{workload}-{seed}.jsonl"
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.parent, s.start - t0, s.end - t0, s.attrs]) + "\n")
    return path
