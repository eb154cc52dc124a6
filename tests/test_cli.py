import json
from pathlib import Path

import pytest

from dualflow.cli import load_config, main, run
from dualflow.errors import ConfigError


def write_cfg(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"

BASE = {
    "version": 1,
    "seed": 77,
    "model": {"name": "ternary_bbm", "params": {"epsilon": 0.3, "dim": 1}},
    "checks": [],
}


class TestConfigValidation:
    def test_empty_checks_ok(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 0

    def test_unknown_model_rejected(self, tmp_path):
        cfg = dict(BASE, model={"name": "nosuch"})
        path = write_cfg(tmp_path, cfg)
        assert run(str(path), out_dir=str(tmp_path / "out")) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(BASE, wallclock=True)
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cfg))

    @pytest.mark.parametrize(
        "check",
        [
            {"name": "equilibria", "params": {"n_sample": 7, "tt": 0.01}},
            {"name": "equilibria", "params": {"points": [[0.0]]}},
            {"name": "semigroup", "params": {"cfg": {}}},
            {"name": "monotonicity", "params": [0.05]},
        ],
    )
    def test_unknown_check_params_rejected(self, tmp_path, check):
        path = write_cfg(tmp_path, dict(BASE, checks=[check]))
        with pytest.raises(ConfigError):
            load_config(path)
        out = tmp_path / "out"
        assert run(str(path), out_dir=str(out)) == 2
        assert not (out / "reports.jsonl").exists()

    def test_unknown_check_rejected(self, tmp_path):
        cfg = dict(BASE, checks=[{"name": "nosuch"}])
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cfg))

    def test_missing_seed_rejected(self, tmp_path):
        cfg = {k: v for k, v in BASE.items() if k != "seed"}
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cfg))

    def test_ito_drift_single_path_exits_2(self, tmp_path):
        cfg = dict(BASE, checks=[{"name": "ito_coupling_drift", "params": {"n_paths": 1}}])
        out = tmp_path / "out"
        assert run(str(write_cfg(tmp_path, cfg)), out_dir=str(out)) == 2
        assert not (out / "reports.jsonl").exists()

    @pytest.mark.parametrize(
        "check, params",
        [
            ("interface_profile_width", {"t": 0.05, "n_samples": 20}),
            ("propagation_vs_1d", {"phi": "plane", "time_grid": [0.02], "n_samples": 4}),
        ],
    )
    def test_one_dimensional_comparison_on_nlv_exits_2(self, tmp_path, check, params):
        # the nonlinear voter votes through sibling coalescence only, so
        # the checks that need a plain 1-D kernel are configuration errors
        cfg = dict(
            BASE,
            model={
                "name": "nonlinear_voter_dual",
                "params": {"epsilon": 0.3, "L": 2, "dim": 3, "gbar_samples": 200, "gbar_seed": 1},
            },
            grid={"origin": [-1.0, -1.0, -1.0], "spacing": 0.125, "extents": [17, 17, 17]},
            checks=[{"name": check, "params": params}],
        )
        out = tmp_path / "out"
        assert run(str(write_cfg(tmp_path, cfg)), out_dir=str(out)) == 2
        assert not (out / "reports.jsonl").exists()

    def test_bad_json_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{");
        with pytest.raises(ConfigError, match="line"):
            load_config(path)


class TestRun:
    CFG = dict(
        BASE,
        checks=[
            {"name": "equilibria", "params": {"t": 0.04, "n_samples": 100}},
            {"name": "monotonicity", "params": {"t": 0.04, "n_samples": 200}},
        ],
    )

    def test_reports_written_and_exit_zero(self, tmp_path):
        path = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert run(str(path), out_dir=str(out)) == 0
        lines = (out / "reports.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert rec["passed"] is True
        assert (out / "summary.txt").exists()

    def test_reruns_byte_identical_modulo_runtime(self, tmp_path):
        path = write_cfg(tmp_path, self.CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(str(path), out_dir=str(out))
            recs = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
            for r in recs:
                r.pop("runtime")
            outs.append(json.dumps(recs, sort_keys=True))
        assert outs[0] == outs[1]

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = dict(
            BASE,
            checks=[{"name": "semigroup", "params": {"t": 0.02, "h": 0.02, "n_outer": 2000, "n_inner": 400, "grid_points": 21}}],
        )
        path = write_cfg(tmp_path, cfg)
        stats = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            run(str(path), seed_override=seed, out_dir=str(out))
            rec = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
            stats.append(rec["statistic"])
        assert stats[0] != stats[1]

    def test_parallel_jobs_same_reports(self, tmp_path):
        path = write_cfg(tmp_path, self.CFG)
        texts = []
        for jobs, name in ((1, "ser"), (2, "par")):
            out = tmp_path / name
            assert run(str(path), jobs=jobs, out_dir=str(out)) == 0
            recs = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
            for r in recs:
                r.pop("runtime")
            texts.append(json.dumps(recs, sort_keys=True))
        assert texts[0] == texts[1]


class TestEntryPoints:
    def test_main_list_checks(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        assert "equilibria" in out and "semigroup" in out

    def test_main_describe_unknown_model(self, capsys):
        assert main(["describe", "bogus"]) == 2

    def test_quickstart_config_parses(self):
        cfg = load_config(QUICKSTART)
        assert cfg["model"]["name"] == "ternary_bbm"
        assert len(cfg["checks"]) == 3

    def test_quickstart_grows_five_forests(self, tmp_path, monkeypatch):
        # equilibria 1 (a and b are its columns), monotonicity 1, semigroup
        # 3 (direct, the inner grid as columns, two-stage)
        import dualflow.dualtree.estimate as estimate

        calls = []
        forest = estimate.forest_root_params
        monkeypatch.setattr(estimate, "forest_root_params", lambda *a, **kw: calls.append(1) or forest(*a, **kw))
        assert run(str(QUICKSTART), out_dir=str(tmp_path / "out")) == 0
        assert len(calls) == 5


class TestArtifacts:
    def test_profile_check_writes_csv(self, tmp_path):
        cfg = dict(
            BASE,
            checks=[{"name": "interface_profile_width", "params": {"t": 0.08, "n_samples": 300}}],
        )
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(str(path), out_dir=str(out)) == 0
        csvs = list(out.glob("interface_profile_width-*-interface_profile.csv"))
        assert len(csvs) == 1
        head = csvs[0].read_text().splitlines()[0]
        assert head == "z,value,stderr"
