"""The benchmark's gates, run in-process at their smallest size.

Each workload of ``perfbench/workloads.py`` runs its ``setup`` and
``solve`` at the ``smoke`` size with seed 7. Every gate must pass, and
the digest of the check statistics must equal the one pinned here, so a
change that fails a gate or moves a benchmark result bit shows up in
the test suite, not only in a benchmark run. The digests were recorded
with numpy 2.4 and scipy 1.17; other versions may round differently.

``perfbench/spans.py`` patches dualflow's functions by module attribute,
so a renamed or moved function would break only the traced benchmark
runs; installing and restoring its tracer here shows that every
attribute it patches still resolves. The same tracer counts the forests
the ``ternary_interface`` smoke run grows, so a return to one forest per
point fails here, and the walks the ``nlv_coalescence`` smoke run makes,
so a combiner that walks again fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED_DIGESTS = {
    "ternary_interface": "c2303e217e6d6089",
    "nlv_coalescence": "0cc679f606744c83",
    "curvature_pde": "d9f3b7a3adbdda35",
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_workload_is_pinned(workloads):
    assert set(workloads.WORKLOADS) == set(PINNED_DIGESTS)


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_gates_pass_and_digest_pinned(workloads, name):
    cls = workloads.WORKLOADS[name]
    workload = cls(ROOT, ROOT / ".perfbench-out")
    outcome = workload.solve(workload.setup(7, cls.sizes["smoke"], 0))
    assert [(gate, detail) for gate, passed, detail in outcome.gates if not passed] == []
    assert outcome.digest == PINNED_DIGESTS[name]


def test_span_tracer_patches_resolve_and_restore():
    spans = _load("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # raises if a patched module or attribute is gone
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    current = lambda owner, attr: owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
    assert len(patched) >= len(spans._FUNCTIONS) + len(spans.CHECKS)
    assert all(callable(original) for _, _, original in patched)
    assert [(attr, current(owner, attr)) for owner, attr, _ in patched] == [(attr, fn) for _, attr, fn in patched]


def _traced_smoke(workloads, name):
    """Run a workload's smoke size under the span tracer; returns a span counter."""
    spans = _load("spans")
    tracer = spans.Tracer()
    cls = workloads.WORKLOADS[name]
    workload = cls(ROOT, ROOT / ".perfbench-out")
    try:
        spans.install(tracer)
        outcome = workload.solve(workload.setup(7, cls.sizes["smoke"], 0))
    finally:
        tracer.restore()
    assert outcome.digest == PINNED_DIGESTS[name]
    return lambda span_name: sum(span.name == span_name for span in tracer.spans)


def test_ternary_interface_grows_one_forest_per_group(workloads):
    count = _traced_smoke(workloads, "ternary_interface")
    # formation: 1 forest; propagation: 1 per time (3); Allen-Cahn: 1 per distinct t (3)
    assert count("dualtree.forest") == 7


def test_nlv_walks_once_per_gbar_and_decorated_wave(workloads):
    count = _traced_smoke(workloads, "nlv_coalescence")
    # the partitions are drawn while the forest grows; the combiner walks none
    assert count("models.decoration") > 0 and count("models.nlv_combine") > 0
    assert count("gfunction.coalescence") == count("gfunction.gbar") + count("models.decoration")
