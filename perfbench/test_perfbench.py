"""Self-test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that traced and untraced runs of one seed give identical check
statistics and digest, and that the benchmark refuses to run without the
dualflow sources next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, timeout: float = 300):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    return info, result


def assert_metrics(result: dict, table: list) -> None:
    assert set(result) == RESULT_KEYS
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in table}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    info0, plain = parse(run_bench(workload, 0))
    info1, traced = parse(run_bench(workload, 1))
    assert_metrics(plain, SPEC["end_to_end"])
    assert_metrics(traced, SPEC["per_layer"])
    for name in ("setup_s", "solve_s", "peak_rss_mb"):
        assert plain["metrics"][name]["value"] > 0
    assert plain["correct"] and plain["failed"] == 0, info0["failures"]
    assert traced["correct"] and traced["failed"] == 0, info1["failures"]
    # tracing must not move a single random draw or result bit
    assert info0["digest"] == info1["digest"]
    assert info0["statistics"] == info1["statistics"]


def test_refuses_without_sources():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(BENCH_DIR.parent / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(WORKLOADS[0], 0, cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
