"""Configuration-driven experiment runner.

Subcommands:

* ``run --config cfg.json [--seed N] [--jobs K] [--out DIR]`` executes
  the configured checks, writes one JSON line per check to
  ``reports.jsonl``, CSV artifacts next to it, and a summary
  table; exit status 0 iff every check passed (2 on configuration
  errors, 3 on resource errors).
* ``describe MODEL`` prints a model bundle's parameters and g-report.
* ``list-checks`` enumerates runnable check names.

The configuration is strict JSON: unknown keys are rejected, a master
seed is mandatory (no wall-clock seeding), and per-check seeds are
derived from it with the counter-based scheme, so reruns are
byte-identical apart from timing fields.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import ArgumentError, ConfigError, ResourceError
from .models import MODEL_FACTORIES, ModelBundle
from .onedim import interface_profile, step_profile
from .pde.field import field_from_function
from .rng import derive_rng
from .verify import checks as checklib
from .verify.report import CheckReport

CONFIG_VERSION = 1

_TOP_KEYS = {"version", "seed", "output_dir", "jobs", "model", "grid", "checks"}
_MODEL_KEYS = {"name", "params"}
_CHECK_KEYS = {"name", "params"}
_GRID_KEYS = {"origin", "spacing", "extents"}


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def load_config(path: str | Path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "top level")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    if "seed" not in cfg or not isinstance(cfg["seed"], int):
        raise ConfigError("an integer master seed is mandatory")
    model = cfg.get("model")
    if not isinstance(model, dict):
        raise ConfigError("a model block is required")
    _reject_unknown(model, _MODEL_KEYS, "model block")
    if model.get("name") not in MODEL_FACTORIES:
        raise ConfigError(
            f"unknown model {model.get('name')!r}; choices: {sorted(MODEL_FACTORIES)}"
        )
    if "grid" in cfg:
        _reject_unknown(cfg["grid"], _GRID_KEYS, "grid block")
    checks = cfg.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks must be a list")
    for i, chk in enumerate(checks):
        if not isinstance(chk, dict):
            raise ConfigError(f"check #{i} must be an object")
        _reject_unknown(chk, _CHECK_KEYS, f"check #{i}")
        if chk.get("name") not in CHECK_RUNNERS:
            raise ConfigError(
                f"unknown check {chk.get('name')!r}; choices: {sorted(CHECK_RUNNERS)}"
            )
        params = chk.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"params of check #{i} must be an object")
        _reject_unknown(params, _check_params(chk["name"]), f"params of check #{i} ({chk['name']})")
    return cfg


# ----- geometry helpers shared by configured checks -----


def _phi_field(grid: dict, shape: str, dim: int):
    origin = grid.get("origin", [-3.0] * dim)
    spacing = grid.get("spacing", 6.0 / 127)
    extents = grid.get("extents", [128] * dim)
    if shape == "circle":
        fn = lambda P: np.sum(P**2, axis=1) - 1.0
    elif shape == "small_circle":
        fn = lambda P: np.sum(P**2, axis=1) - 0.09
    elif shape == "plane":
        fn = lambda P: P[:, 0]
    else:
        raise ConfigError(f"unknown phi shape {shape!r}")
    return field_from_function(fn, origin=origin, spacing=spacing, extents=list(extents))


def _make_bundle(model_cfg: dict, epsilon: float | None = None) -> ModelBundle:
    params = dict(model_cfg.get("params", {}))
    if epsilon is not None:
        params["epsilon"] = epsilon
    try:
        return MODEL_FACTORIES[model_cfg["name"]](**params)
    except TypeError as exc:
        raise ConfigError(f"bad model parameters: {exc}") from exc


def _bundle_factory(model_cfg: dict) -> Callable[[float], ModelBundle]:
    return lambda eps: _make_bundle(model_cfg, epsilon=eps)


# ----- configured check runners -----
#
# A runner takes (cfg, bundle, seed) and then its check's params as keyword
# arguments; its signature is the list of params a config may set, with
# their defaults.


def _run_equilibria(cfg, bundle, seed, t=0.05, n_samples=200) -> CheckReport:
    return checklib.check_equilibria(bundle, t=t, n_samples=n_samples, rng_seed=seed)


def _run_monotonicity(cfg, bundle, seed, shift=0.2, points=None, t=0.05, n_samples=400) -> CheckReport:
    lo = step_profile(bundle.a, bundle.b)

    def hi(points):
        z = np.atleast_2d(points)[:, 0]
        return np.where(z >= -shift, bundle.b, bundle.a)

    return checklib.check_monotonicity(
        bundle,
        lo,
        hi,
        points=points if points is not None else [[0.0] * bundle.spec.dim],
        t=t,
        n_samples=n_samples,
        rng_seed=seed,
    )


def _run_semigroup(
    cfg, bundle, seed, grid_span=1.5, grid_points=61, x=(0.0,), t=0.02, h=0.02, n_outer=20000, n_inner=4000
) -> CheckReport:
    return checklib.check_semigroup(
        bundle,
        x,
        t=t,
        h=h,
        p=step_profile(bundle.a, bundle.b),
        spatial_grid=np.linspace(-grid_span, grid_span, grid_points),
        n_outer=n_outer,
        n_inner=n_inner,
        rng_seed=seed,
    )


def _run_diffusivity(
    cfg, bundle, seed, s_list=(0.05, 0.1, 0.2), n_samples=40000, target_slope=1.0, check_gaussianity=True
) -> CheckReport:
    return checklib.check_diffusivity(
        bundle.spec,
        s_list=s_list,
        n_samples=n_samples,
        rng_seed=seed,
        target_slope=target_slope,
        check_gaussianity=check_gaussianity,
    )


def _run_interface_formation(
    cfg, bundle, seed, phi="circle", delta=0.05, n_samples=3000, K=2.0, sigma1=1.0, tolerance=0.02
) -> CheckReport:
    return checklib.check_interface_formation(
        bundle,
        _phi_field(cfg.get("grid", {}), phi, bundle.spec.dim),
        delta=delta,
        epsilon=bundle.spec.epsilon,
        n_samples=n_samples,
        rng_seed=seed,
        K=K,
        sigma1=sigma1,
        tolerance=tolerance,
    )


def _run_flow_consistency(
    cfg, bundle, seed, phi="circle", alpha=1.0, delta=0.05, h=0.05, epsilon_list=(0.3, 0.2, 0.15),
    n_samples=1500, variant="plus",
) -> CheckReport:
    return checklib.check_flow_consistency(
        _bundle_factory(cfg["model"]),
        _phi_field(cfg.get("grid", {}), phi, bundle.spec.dim),
        alpha=alpha,
        delta=delta,
        h=h,
        epsilon_list=epsilon_list,
        n_samples=n_samples,
        rng_seed=seed,
        variant=variant,
    )


def _run_propagation(
    cfg, bundle, seed, phi="circle", alpha=1.0, delta=0.05, time_grid=(0.08, 0.12, 0.16), n_samples=600
) -> CheckReport:
    return checklib.check_propagation_vs_1d(
        bundle,
        _phi_field(cfg.get("grid", {}), phi, bundle.spec.dim),
        alpha=alpha,
        delta=delta,
        epsilon=bundle.spec.epsilon,
        time_grid=time_grid,
        n_samples=n_samples,
        rng_seed=seed,
    )


def _run_ito_drift(
    cfg, bundle, seed, phi="plane", alpha=0.0, t=0.1, s=0.05, band_r0=0.5, n_paths=20000, x=None
) -> CheckReport:
    dim = bundle.spec.dim
    return checklib.check_ito_coupling_drift(
        _phi_field(cfg.get("grid", {}), phi, dim),
        alpha=alpha,
        t=t,
        s=s,
        band_r0=band_r0,
        n_paths=n_paths,
        rng_seed=seed,
        x=x if x is not None else [0.0] * dim,
    )


def _run_profile(cfg, bundle, seed, t=0.1, n_samples=1500, width_bound=4.0) -> tuple[CheckReport, dict]:
    import time as _time

    start = _time.perf_counter()
    prof = interface_profile(
        t=t,
        epsilon=bundle.spec.epsilon,
        kernel=bundle.kernel,
        n_samples=n_samples,
        rng_seed=seed,
        a=bundle.a,
        b=bundle.b,
    )
    stat = prof.width_in_scale_units
    report = CheckReport(
        name="interface_profile_width",
        inputs={"t": prof.t, "epsilon": prof.epsilon, "n_samples": n_samples},
        statistic=float(stat),
        threshold=float(width_bound),
        passed=bool(stat <= width_bound),
        budget={"width": prof.width_estimate},
        seed=seed,
        runtime=_time.perf_counter() - start,
        reference="1-D interface width stays on the eps log scale",
    )
    return report, {"interface_profile.csv": prof.to_csv()}


def _run_allen_cahn(
    cfg, bundle, seed, half_width=3.0, grid_points=600, points=((0.05, 0.0), (0.1, 0.3), (0.15, -0.2)),
    n_samples=20000, pde_budget=0.02,
) -> CheckReport:
    if bundle.spec.dim != 1:
        raise ConfigError("allen_cahn_duality runs on a dim-1 model")
    p0 = field_from_function(
        lambda P: np.where(P[:, 0] >= 0, bundle.b, bundle.a),
        origin=[-half_width], spacing=2 * half_width / (grid_points - 1), extents=[grid_points],
    )
    return checklib.check_allen_cahn_duality(
        bundle,
        p0,
        [(t, [x]) for t, x in points],
        n_samples=n_samples,
        rng_seed=seed,
        pde_budget=pde_budget,
    )


def _run_mcf_duality(
    cfg, bundle, seed, r0=0.3, half_width=1.2, grid_points=128, T_list=(0.05,), epsilon_list=(0.3, 0.2),
    sample_points=((0.8, 0.0), (0.6, 0.6)), n_samples=1200, margin=0.08,
) -> CheckReport:
    if bundle.spec.dim != 2:
        raise ConfigError("mcf_duality runs on a dim-2 model")
    p0 = field_from_function(
        lambda P: np.where(np.linalg.norm(P, axis=1) < r0, bundle.a, bundle.b),
        origin=[-half_width, -half_width], spacing=2 * half_width / (grid_points - 1),
        extents=[grid_points, grid_points],
    )
    return checklib.check_mcf_duality(
        _bundle_factory(cfg["model"]),
        p0,
        T_list=T_list,
        epsilon_list=epsilon_list,
        sample_points=sample_points,
        n_samples=n_samples,
        rng_seed=seed,
        margin=margin,
    )


CHECK_RUNNERS: dict[str, Callable] = {
    "equilibria": _run_equilibria,
    "monotonicity": _run_monotonicity,
    "semigroup": _run_semigroup,
    "diffusivity": _run_diffusivity,
    "interface_formation": _run_interface_formation,
    "flow_consistency": _run_flow_consistency,
    "propagation_vs_1d": _run_propagation,
    "ito_coupling_drift": _run_ito_drift,
    "interface_profile_width": _run_profile,
    "allen_cahn_duality": _run_allen_cahn,
    "mcf_duality": _run_mcf_duality,
}


def _check_params(name: str) -> set:
    """The params a configured check reads: its runner's keyword arguments."""
    return set(list(inspect.signature(CHECK_RUNNERS[name]).parameters)[3:])


def _execute_check(args: tuple) -> tuple[int, CheckReport, dict]:
    cfg, index, chk = args
    seed = int(derive_rng(cfg["seed"], 0xC0DE, index).integers(0, 2**62))
    bundle = _make_bundle(cfg["model"])
    runner = CHECK_RUNNERS[chk["name"]]
    out = runner(cfg, bundle, seed, **chk.get("params", {}))
    report, artifacts = out if isinstance(out, tuple) else (out, {})
    return index, report, artifacts


def run(config_path: str, seed_override: int | None = None, jobs: int | None = None, out_dir: str | None = None) -> int:
    """Execute a configuration; returns the process exit status."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if seed_override is not None:
        cfg["seed"] = seed_override
    jobs = jobs or cfg.get("jobs", 1)
    out = Path(out_dir or cfg.get("output_dir", "dualflow-out"))
    out.mkdir(parents=True, exist_ok=True)

    tasks = [(cfg, i, chk) for i, chk in enumerate(cfg.get("checks", []))]
    results: list[tuple[int, CheckReport, dict]] = []
    try:
        if jobs > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_execute_check, tasks))
        else:
            results = [_execute_check(t) for t in tasks]
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (ArgumentError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    results.sort(key=lambda triple: (triple[1].name, triple[0]))
    report_path = out / "reports.jsonl"
    with open(report_path, "w") as fh:
        for _, rep, _arts in results:
            fh.write(rep.to_json() + "\n")
    for index, rep, artifacts in results:
        for fname, payload in artifacts.items():
            (out / f"{rep.name}-{index:02d}-{fname}").write_text(payload)

    width = max((len(r.name) for _, r, _a in results), default=10)
    lines = [f"{'check'.ljust(width)}  status  statistic     threshold     property"]
    all_pass = True
    for _, rep, _arts in results:
        all_pass &= rep.passed
        lines.append(
            f"{rep.name.ljust(width)}  {'PASS' if rep.passed else 'FAIL'}    "
            f"{rep.statistic:+.4e}  {rep.threshold:+.4e}  {rep.reference}"
        )
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    print(f"reports: {report_path}")
    return 0 if all_pass else 1


def describe(model_name: str) -> int:
    if model_name not in MODEL_FACTORIES:
        print(f"unknown model {model_name!r}; choices: {sorted(MODEL_FACTORIES)}", file=sys.stderr)
        return 2
    defaults: dict[str, Any] = {
        "ternary_bbm": dict(epsilon=0.25, dim=2),
        "slfv_dual": dict(n=1000.0, beta=0.25, R=1.0, mu_radius_weights=[(1.0, 1.0)], epsilon_n=0.25, dim=2),
        "lotka_volterra_dual": dict(epsilon=0.25, L=2, dim=3, p3_samples=1500),
        "nonlinear_voter_dual": dict(epsilon=0.25, L=3, dim=3, gbar_samples=1500),
        "sexual_reproduction_dual": dict(epsilon=0.25, dim=2),
    }
    bundle = MODEL_FACTORIES[model_name](**defaults[model_name])
    print(bundle.describe())
    return 0


def list_checks() -> int:
    for name in sorted(CHECK_RUNNERS):
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dualflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_desc = sub.add_parser("describe", help="print a model bundle")
    p_desc.add_argument("model")
    sub.add_parser("list-checks", help="list runnable checks")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.seed, args.jobs, args.out)
    if args.command == "describe":
        return describe(args.model)
    return list_checks()


if __name__ == "__main__":
    sys.exit(main())
