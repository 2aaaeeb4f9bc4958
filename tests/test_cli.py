"""Config-driven runs: schema validation, exit codes, artifacts, reports."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pstlab
from pstlab.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    EXPERIMENTS,
    ConfigError,
    apply_overrides,
    emit_report,
    load_config,
    main,
    parse_time_value,
    resolve_config,
    run_config,
)


REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def small_sp_config(tmp_path: Path, **extra) -> Path:
    payload = {
        "experiment": "sp_series",
        "chain": {"n": 3},
        "plan": {"total_time": "2pi", "steps": 16},
        "noise": {},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(extra)
    return write_config(tmp_path, payload)


class TestTimeParsing:
    @pytest.mark.parametrize("text,value", [
        ("2pi", 2 * math.pi),
        ("0.5pi", 0.5 * math.pi),
        ("pi", math.pi),
        (1.5, 1.5),
        ("1.5", 1.5),
    ])
    def test_accepted_forms(self, text, value):
        assert parse_time_value(text) == pytest.approx(value)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_time_value("twopi")


class TestOverrides:
    def test_dotted_paths(self):
        cfg = {"chain": {"n": 4}}
        out = apply_overrides(cfg, ["chain.n=3", "noise.zeta=0.2", "seed=7"])
        assert out["chain"]["n"] == 3
        assert out["noise"]["zeta"] == 0.2
        assert out["seed"] == 7

    def test_strings_pass_through(self):
        out = apply_overrides({}, ["plan.total_time=0.5pi"])
        assert out["plan"]["total_time"] == "0.5pi"

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["chain.n"])


class TestRunConfig:
    def test_sp_series_outputs(self, tmp_path):
        cfg = small_sp_config(tmp_path)
        manifest_path = run_config(cfg)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["experiment"] == "sp_series"
        csv_path = Path(manifest["outputs"]["series_csv"])
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "t,site,sp"
        assert len(lines) == 1 + 17  # header + k = 0..16
        assert manifest["results"]["sp_star"] is not None

    def test_headline_row_count(self, tmp_path):
        """The default 80-step plan emits 81 rows."""
        cfg = write_config(tmp_path, {
            "experiment": "sp_series",
            "noise": {},
            "output_dir": str(tmp_path / "out"),
        })
        manifest = json.loads(run_config(cfg).read_text())
        lines = Path(manifest["outputs"]["series_csv"]).read_text().strip().split("\n")
        assert len(lines) == 1 + 81

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_sp_config(tmp_path, shots=128)
        first = Path(json.loads(run_config(cfg).read_text())["outputs"]["series_csv"]).read_bytes()
        second = Path(json.loads(run_config(cfg).read_text())["outputs"]["series_csv"]).read_bytes()
        assert first == second

    def test_run_id_stable(self, tmp_path):
        cfg = small_sp_config(tmp_path)
        a = json.loads(run_config(cfg).read_text())["run_id"]
        b = json.loads(run_config(cfg).read_text())["run_id"]
        assert a == b

    def test_ideal_flag_is_kept_in_manifest_and_run_id(self, tmp_path):
        base = {"experiment": "sp_series", "chain": {"n": 3}, "plan": {"steps": 8}}
        noisy_cfg = write_config(tmp_path, {**base, "noise": {}}, name="noisy.json")
        ideal_cfg = write_config(tmp_path, {**base, "noise": {"ideal": True}}, name="ideal.json")
        noisy = json.loads(run_config(noisy_cfg, out=tmp_path / "noisy").read_text())
        ideal = json.loads(run_config(ideal_cfg, out=tmp_path / "ideal").read_text())
        assert ideal["run_id"] != noisy["run_id"]
        assert ideal["config"]["noise"] == {"ideal": True}

    def test_equivalent_configs_share_run_id(self, tmp_path):
        """The id hashes the resolved inputs: spelled-out defaults, an
        integer where the field is a float, and the output directory do not
        change it."""
        base = {"experiment": "sp_series", "chain": {"n": 3}, "plan": {"steps": 8}}
        default = write_config(tmp_path, {**base, "noise": {}, "output_dir": str(tmp_path / "a")},
                               name="default.json")
        spelled = write_config(tmp_path, {**base, "noise": {"zeta": 0.1, "readout_error": 0},
                                          "seed": 0,
                                          "output_dir": str(tmp_path / "b")}, name="spelled.json")
        a = json.loads(run_config(default).read_text())
        b = json.loads(run_config(spelled).read_text())
        assert a["run_id"] == b["run_id"]
        assert (tmp_path / "a" / "series.csv").read_bytes() == (tmp_path / "b" / "series.csv").read_bytes()
        other = json.loads(run_config(spelled, overrides=["noise.zeta=0.2"]).read_text())
        assert other["run_id"] != a["run_id"]

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_output_inventory(self, tmp_path, experiment):
        """Each experiment writes exactly its files, and the manifest lists
        each one under its file name with "." as "_"."""
        expected = {
            "sp_series": ["series.csv", "series.json"],
            "site_resolved": ["series.csv", "series.json"],
            "arbitrary_transfer": ["tomography.csv", "tomography.json"],
            "rescale": [f"{stem}.{ext}" for stem in ("noisy", "ideal", "corrected")
                        for ext in ("csv", "json")],
            "grid_search": ["grid.csv", "grid.json"],
            "bayes_opt": ["grid.csv", "grid.json", "ledger.jsonl", "report.json"],
        }[experiment]
        cfg = write_config(tmp_path, {
            "experiment": experiment,
            "chain": {"n": 3},
            "plan": {"steps": 8},
            "noise": {},
            "grid": {"lo": 2.8, "hi": 3.0, "step": 0.2},
            "bo": {"iterations_per_start": 0, "batch_size": 8, "top_starts": 1},
            "output_dir": str(tmp_path / "out"),
        })
        outputs = json.loads(run_config(cfg).read_text())["outputs"]
        assert outputs == {name.replace(".", "_"): str(tmp_path / "out" / name)
                           for name in expected}
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            expected + ["manifest.json"])

    def test_bayes_opt_ledger_is_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "bayes_opt",
            "chain": {"n": 3},
            "plan": {"steps": 16},
            "noise": {},
            "grid": {"lo": 2.8, "hi": 3.0, "step": 0.2},
            "bo": {"iterations_per_start": 1, "batch_size": 8, "top_starts": 1},
            "seed": 3,
        })
        first = json.loads(run_config(cfg, out=tmp_path / "a").read_text())
        second = json.loads(run_config(cfg, out=tmp_path / "b").read_text())
        ledger = (tmp_path / "a" / "ledger.jsonl").read_bytes()
        assert ledger == (tmp_path / "b" / "ledger.jsonl").read_bytes()
        assert len(ledger.splitlines()) == first["results"]["evaluations"]
        assert first["run_id"] == second["run_id"]

    @pytest.mark.parametrize("grid,on_grid", [({"lo": 0.8, "hi": 1.0, "step": 0.2}, True),
                                              ({"lo": 2.8, "hi": 3.0, "step": 0.2}, False)])
    def test_bayes_opt_simulates_each_point_once(self, tmp_path, monkeypatch, grid, on_grid):
        """Starts and the j0 = 1 baseline reuse their grid runs; only new ledger
        entries, and a baseline off the grid, cost a simulation."""
        import pstlab.optimizer as optimizer

        runs = []
        real = optimizer.run_sp_series
        monkeypatch.setattr(optimizer, "run_sp_series", lambda cfg: runs.append(cfg) or real(cfg))
        cfg = write_config(tmp_path, {
            "experiment": "bayes_opt",
            "chain": {"n": 3},
            "plan": {"steps": 16},
            "noise": {},
            "grid": grid,
            "bo": {"iterations_per_start": 1, "batch_size": 8, "top_starts": 2},
            "output_dir": str(tmp_path / "out"),
        })
        run_config(cfg)
        grid_rows = json.loads((tmp_path / "out" / "grid.json").read_text())
        kinds = [json.loads(line)["kind"]
                 for line in (tmp_path / "out" / "ledger.jsonl").read_text().splitlines()]
        assert kinds.count("start") == 2
        new_entries = sum(kind != "start" for kind in kinds)
        assert len(runs) == len(grid_rows) + new_entries + (0 if on_grid else 1)

    def test_bayes_opt_starts_are_top_grid_records(self, tmp_path):
        """The top_starts best grid points, in rank order, seed the search."""
        cfg = write_config(tmp_path, {
            "experiment": "bayes_opt",
            "chain": {"n": 3},
            "plan": {"steps": 16},
            "noise": {},
            "grid": {"lo": 2.6, "hi": 3.0, "step": 0.1},
            "bo": {"iterations_per_start": 0, "batch_size": 8, "top_starts": 2},
            "output_dir": str(tmp_path / "out"),
        })
        run_config(cfg)
        grid_rows = json.loads((tmp_path / "out" / "grid.json").read_text())
        entries = [json.loads(line)
                   for line in (tmp_path / "out" / "ledger.jsonl").read_text().splitlines()]
        starts = [entry["j0"] for entry in entries if entry["kind"] == "start"]
        assert starts == [row["j0"] for row in grid_rows[:2]]

    def test_overrides_change_chain(self, tmp_path):
        cfg = small_sp_config(tmp_path)
        manifest = json.loads(run_config(cfg, overrides=["chain.n=4"]).read_text())
        assert manifest["config"]["chain"]["n"] == 4

    def test_ideal_run_via_null_noise(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "sp_series",
            "chain": {"n": 3},
            "plan": {"steps": 16},
            "noise": None,
            "output_dir": str(tmp_path / "out"),
        })
        manifest = json.loads(run_config(cfg).read_text())
        # 16-step plan: coarse grid and larger Trotter error cap the peak
        assert manifest["results"]["sp_star"] >= 0.9

    def test_rescale_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "rescale",
            "chain": {"n": 3},
            "plan": {"steps": 40},
            "noise": {},
            "output_dir": str(tmp_path / "out"),
        })
        manifest = json.loads(run_config(cfg).read_text())
        assert set(manifest["fitted"]) == {"alpha", "beta", "s"}
        assert manifest["results"]["corrected"]["sp_star"] >= manifest["results"]["noisy"]["sp_star"]
        assert Path(manifest["outputs"]["corrected_csv"]).exists()

    def test_grid_search_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "grid_search",
            "grid": {"lo": 2.8, "hi": 3.0, "step": 0.1},
            "plan": {"steps": 16},
            "noise": {},
            "output_dir": str(tmp_path / "out"),
        })
        manifest = json.loads(run_config(cfg).read_text())
        lines = Path(manifest["outputs"]["grid_csv"]).read_text().strip().split("\n")
        assert lines[0] == "rank,j0,peak_sp,t_star"
        assert len(lines) == 1 + 3

    def test_grid_json_is_standard_json_without_a_peak(self, tmp_path):
        """A scale with no peak in (0, T/2] writes t_star null, not NaN."""
        cfg = write_config(tmp_path, {
            "experiment": "grid_search",
            "grid": {"lo": 0.4, "hi": 2.2, "step": 1.8},  # j0 = 0.4 arrives after T/2
            "plan": {"steps": 16},
            "noise": {},
            "output_dir": str(tmp_path / "out"),
        })
        manifest = json.loads(run_config(cfg).read_text())

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        rows = json.loads(Path(manifest["outputs"]["grid_json"]).read_text(),
                          parse_constant=reject)
        assert {row["j0"]: row["t_star"] is None for row in rows} == {0.4: True, 2.2: False}
        csv_rows = Path(manifest["outputs"]["grid_csv"]).read_text().strip().split("\n")
        assert csv_rows[-1].endswith(",0.4,0,nan")

    def test_arbitrary_transfer_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "arbitrary_transfer",
            "chain": {"n": 3},
            "plan": {"steps": 12},
            "noise": None,
            "output_dir": str(tmp_path / "out"),
        })
        manifest = json.loads(run_config(cfg).read_text())
        header = Path(manifest["outputs"]["tomography_csv"]).read_text().split("\n")[0]
        assert header == "t,site,sp,x,y,z,fidelity,fidelity_phase_corrected"


class TestExitCodes:
    def test_ok(self, tmp_path):
        cfg = small_sp_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == EXIT_OK

    def test_single_site_chain_is_schema_violation(self, tmp_path):
        cfg = small_sp_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--set", "chain.n=1"])
        assert code == EXIT_SCHEMA

    def test_unknown_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "teleport"})
        assert main(["run", "--config", str(cfg)]) == EXIT_SCHEMA

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == EXIT_SCHEMA

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == EXIT_IO

    def test_unknown_noise_key(self, tmp_path):
        cfg = small_sp_config(tmp_path, noise={"t3": 1.0})
        assert main(["run", "--config", str(cfg)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("experiment", ["grid_search", "bayes_opt"])
    @pytest.mark.parametrize("noise", [None, {"ideal": True}], ids=["null", "ideal"])
    def test_search_refuses_ideal_noise(self, tmp_path, experiment, noise):
        """The search objective is a noisy run; an ideal config must not run noisy."""
        cfg = write_config(tmp_path, {
            "experiment": experiment,
            "chain": {"n": 3},
            "plan": {"steps": 16},
            "noise": noise,
            "grid": {"lo": 2.8, "hi": 3.0, "step": 0.2},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", "--config", str(cfg)]) == EXIT_SCHEMA
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change", [
        # misspelled keys inside a block
        {"plan": {"step": 8}},
        {"chain": {"jo": 2}},
        {"experiment": "bayes_opt", "bo": {"top_start": 1}},
        {"experiment": "grid_search", "grid": {"stp": 0.2}},
        {"experiment": "arbitrary_transfer", "amplitudes": {"c": 1.0}},
        # non-object blocks
        *({"experiment": experiment, block: value}
          for experiment, block in (("sp_series", "plan"), ("grid_search", "grid"),
                                    ("bayes_opt", "bo"), ("arbitrary_transfer", "amplitudes"))
          for value in (5, None, [1, 2])),
        # values of the wrong type or out of range
        {"chain": {"n": "x"}},
        {"shots": "many"},
        {"chain": {"n": 4, "couplings": [1, 2]}},
        {"experiment": "grid_search", "grid": {"step": 0}},
        {"experiment": "bayes_opt", "bo": {"top_starts": 0}},
        {"plan": {"steps": 4.7}},
        # keys of removed options
        {"noise": {"thermal_mode": "reset"}},
        {"noise": {"px": 1e-3}},
        # noise values and output_dir of the wrong JSON type
        {"noise": {"ideal": "false"}},
        {"noise": {"ideal": 1}},
        {"noise": {"pauli_on": "no", "depol_on": "no", "thermal_on": "no", "zz_on": "no"}},
        {"noise": {"p_pauli": True}},
        {"output_dir": 5},
    ], ids=repr)
    def test_schema_violation_exits_2_before_running(self, tmp_path, monkeypatch, change):
        import pstlab.optimizer as optimizer

        runs = []
        monkeypatch.setattr(optimizer, "run_sp_series", lambda cfg: runs.append(cfg))
        cfg = write_config(tmp_path, {
            "experiment": "sp_series",
            "chain": {"n": 3},
            "plan": {"steps": 16},
            "noise": {},
            "grid": {"lo": 2.8, "hi": 3.0, "step": 0.2},
            "bo": {"iterations_per_start": 1, "batch_size": 8, "top_starts": 1},
            "output_dir": str(tmp_path / "out"),
            **change,
        })
        assert main(["run", "--config", str(cfg)]) == EXIT_SCHEMA
        assert runs == []
        assert not (tmp_path / "out").exists()

    def test_shipped_configs_resolve(self):
        """Every example config passes the schema, so none uses a removed or
        misspelled key."""
        paths = sorted((REPO / "configs").glob("*.json"))
        assert len(paths) >= 8
        for path in paths:
            resolve_config(load_config(path))

    def test_seed_flag_overrides(self, tmp_path):
        cfg = small_sp_config(tmp_path, shots=64)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--seed", "5", "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--seed", "6", "--out", str(out_b)]) == EXIT_OK
        a = (out_a / "series.csv").read_text()
        b = (out_b / "series.csv").read_text()
        assert a != b


class TestReport:
    def test_single_manifest_passthrough(self, tmp_path):
        cfg = small_sp_config(tmp_path)
        manifest_path = run_config(cfg)
        outputs = emit_report([manifest_path], out=tmp_path / "rep")
        report = (tmp_path / "rep" / "report.csv").read_text().strip().split("\n")
        assert report[0].startswith("t,")
        payload = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert len(payload["summary"]) == 1

    def test_ideal_noisy_corrected_improvement(self, tmp_path):
        noisy_cfg = write_config(tmp_path, {
            "experiment": "rescale",
            "chain": {"n": 4},
            "plan": {"steps": 40},
            "noise": {},
            "output_dir": str(tmp_path / "resc"),
        }, name="rescale.json")
        manifest_path = run_config(noisy_cfg)
        emit_report([manifest_path], out=tmp_path / "rep")
        payload = json.loads((tmp_path / "rep" / "report.json").read_text())
        rows = {row["label"]: row for row in payload["summary"]}
        assert {"noisy", "ideal", "corrected"} <= set(rows)
        assert rows["noisy"]["improvement"] == pytest.approx(0.0)
        assert rows["corrected"]["improvement"] > 0.1
        assert rows["corrected"]["improvement_pct"] > 10

    def test_grid_manifest_passthrough(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "grid_search",
            "grid": {"lo": 2.9, "hi": 3.0, "step": 0.1},
            "plan": {"steps": 16},
            "noise": {},
            "output_dir": str(tmp_path / "grid"),
        })
        manifest_path = run_config(cfg)
        emit_report([manifest_path], out=tmp_path / "rep")
        lines = (tmp_path / "rep" / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "rank,j0,peak_sp,t_star"

    def test_requires_manifest(self):
        with pytest.raises(ConfigError):
            emit_report([])

    def test_manifest_without_series_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "arbitrary_transfer",
            "chain": {"n": 2},
            "plan": {"steps": 4},
            "noise": None,
            "output_dir": str(tmp_path / "out"),
        })
        manifest_path = run_config(cfg)
        capsys.readouterr()
        assert main(["report", str(manifest_path), "--out", str(tmp_path / "rep")]) == EXIT_SCHEMA
        assert str(manifest_path) in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


class TestCommittedRuns:
    @pytest.mark.parametrize("name", ["headline", "rescale"])
    def test_regenerates_byte_identical(self, tmp_path, name):
        """configs/<name>.json reproduces every output committed under runs/<name>/."""
        committed = REPO / "runs" / name
        manifest_path = run_config(REPO / "configs" / f"{name}.json", out=tmp_path)
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced == sorted(p.name for p in committed.iterdir())
        for fname in produced:
            if fname != "manifest.json":
                assert (tmp_path / fname).read_bytes() == (committed / fname).read_bytes(), fname
        new = json.loads(manifest_path.read_text())
        old = json.loads((committed / "manifest.json").read_text())
        assert set(new.pop("outputs")) == set(old.pop("outputs"))
        del new["duration_s"], old["duration_s"]
        assert new == old


class TestImports:
    def test_package_and_cli_import_without_scipy(self):
        """numpy is the only runtime dependency: importing scipy's submodules
        would add over a second to every CLI start."""
        code = ("import sys, pstlab, pstlab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        path = [str(Path(pstlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "[]"
