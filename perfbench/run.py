"""dualflow benchmark: one seeded workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dualflow source tree (the package is imported
from ``src/``). BLAS/OpenMP threads are pinned to 1. Each iteration
sets the workload up (import excluded, bundles built through the public
factories) and then solves it; the run repeats iterations for about
``--seconds`` and reports medians.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics taken
from the traced ones, plus the tracing overhead; spans are written to
``.perfbench-out/`` when the run ends. Every iteration gates its results
at the acceptance tolerances and must reproduce the first iteration's
digest. The last stdout line is the JSON result; the line before it
holds run metadata, the digest and the check statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_SETUPS = 3

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="bench", help="bench (default) or smoke")
    return parser.parse_args(argv)


def import_program():
    """Import dualflow from ROOT/src; returns (workloads module, seconds)."""
    package = ROOT / "src" / "dualflow" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no dualflow source tree at {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads  # imports numpy and the dualflow modules

    elapsed = time.perf_counter() - start
    import dualflow

    if Path(dualflow.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported dualflow from {dualflow.__file__}, not {package}")
    return workloads, elapsed


def run_metadata(args, size: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": {"name": args.size, **size},
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_description(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
    }


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_description() -> dict:
    """CPU model and cache sizes as the kernel describes them, if readable."""
    cpu = {"model": "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            cpu["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return cpu


class Run:
    """Iterations of one workload: timings, gates and digests."""

    def __init__(self, workload, seed: int, size: dict, tracer=None):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.solve_s: list[float] = []
        self.traced_solve_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = None
        self.statistics = None

    def iterate(self, iteration: int, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer is not None:
            spans.install(tracer)
        try:
            setup_s, inputs = self._timed("bench.setup", iteration, tracer,
                                          lambda: self.workload.setup(self.seed, self.size, iteration))
            solve_s, outcome = self._timed("bench.solve", iteration, tracer,
                                           lambda: self.workload.solve(inputs))
        finally:
            if tracer is not None:
                tracer.restore()
        self.setup_s.append(setup_s)
        (self.traced_solve_s if traced else self.solve_s).append(solve_s)
        self._judge(outcome, iteration)

    def extra_setup(self, iteration: int) -> None:
        start = time.perf_counter()
        self.workload.setup(self.seed, self.size, iteration)
        self.setup_s.append(time.perf_counter() - start)

    @staticmethod
    def _timed(name, iteration, tracer, fn):
        span = tracer.open(name, iteration=iteration) if tracer is not None else None
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
        return elapsed, out

    def _judge(self, outcome, iteration: int) -> None:
        for name, passed, detail in outcome.gates:
            self.attempted += 1
            if not passed:
                self.failed += 1
                self.failures.append(f"iteration {iteration} {name}: {detail}")
        if self.digest is None:
            self.digest, self.statistics = outcome.digest, outcome.statistics
        else:  # every iteration must reproduce the first one bit for bit
            self.attempted += 1
            if outcome.digest != self.digest:
                self.failed += 1
                self.failures.append(f"iteration {iteration}: digest {outcome.digest} != {self.digest}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wall_start = time.perf_counter()
    workloads, import_s = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choices {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.size not in cls.sizes:
        print(f"perfbench: unknown size {args.size!r}; choices {sorted(cls.sizes)}", file=sys.stderr)
        return 2
    size = cls.sizes[args.size]
    OUT_DIR.mkdir(exist_ok=True)
    workload = cls(ROOT, OUT_DIR)

    run = Run(workload, args.seed, size, spans.Tracer() if args.trace else None)

    # closed loop: one caller, the next iteration starts when the last ends;
    # a traced run interleaves untraced and traced iterations as U T T U ...
    # The run stops at the iteration boundary nearest to --seconds.
    measure_start = time.perf_counter()
    iteration = 0
    while True:
        start = time.perf_counter()
        run.iterate(iteration, traced=bool(args.trace) and iteration % 4 in (1, 2))
        iteration += 1
        now = time.perf_counter()
        remaining = args.seconds - (now - measure_start)
        if remaining < 0.5 * (now - start) and (not args.trace or iteration >= 2):
            break
    while len(run.setup_s) < MIN_SETUPS and not args.trace:
        run.extra_setup(iteration)
        iteration += 1

    info = {
        "meta": run_metadata(args, size),
        "iterations": len(run.solve_s) + len(run.traced_solve_s),
        "import_s": import_s,
        "setup_s_samples": run.setup_s,
        "solve_s_samples": run.solve_s,
        "digest": run.digest,
        "failures": run.failures,
        "statistics": run.statistics,
    }
    if args.trace:
        tracer = run.tracer
        layer = spans.per_layer_metrics(tracer, run.solve_s, run.traced_solve_s)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        info["traced_solve_s_samples"] = run.traced_solve_s
        info["layer_time"] = spans.layer_time(tracer)
        info["spans_file"] = str(spans.write_spans(tracer, OUT_DIR, args.workload, args.seed).relative_to(ROOT))
    else:
        values = {
            "setup_s": import_s + statistics.median(run.setup_s),
            "solve_s": statistics.median(run.solve_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}
    info["wall_s"] = time.perf_counter() - wall_start
    print(json.dumps({"info": info}, default=repr))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
