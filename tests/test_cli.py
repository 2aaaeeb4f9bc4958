"""Config-driven runs: schema validation, exit codes, artifacts, reports."""

import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pstlab
from pstlab import optimizer, sim_core
from pstlab.chains import pst_couplings
from pstlab.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_SIM,
    EXPERIMENTS,
    ConfigError,
    _BLOCKS,
    _atomic_write,
    _run_id,
    _write_files,
    apply_overrides,
    emit_report,
    load_config,
    main,
    parse_time_value,
    resolve_config,
    run_config,
)
from pstlab.experiments import ExperimentConfig

import oracle

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
        # in-range values beside "ideal": true change nothing that runs
        valued_cfg = write_config(tmp_path, {**base, "noise": {"ideal": True, "zeta": 0.3}},
                                  name="valued.json")
        valued = json.loads(run_config(valued_cfg, out=tmp_path / "valued").read_text())
        assert valued["run_id"] == ideal["run_id"]

    def test_equivalent_configs_share_run_id(self, tmp_path):
        """The id hashes the resolved inputs the experiment reads:
        spelled-out defaults, an integer where the field is a float, the
        output directory, an amplitudes block outside arbitrary_transfer and
        a j0 beside explicit couplings do not change it."""
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

        def run_id(name, payload):
            manifest = run_config(write_config(tmp_path, payload, name=f"{name}.json"),
                                  out=tmp_path / name)
            return json.loads(manifest.read_text())["run_id"]

        def series(name):
            return (tmp_path / name / "series.csv").read_bytes()

        assert run_id("plain", base) == run_id("amps", {**base, "amplitudes": {"a": 0, "b": 1}})
        assert series("plain") == series("amps")
        couplings = {"n": 4, "couplings": [3**0.5, 2.0, 3**0.5]}
        assert (run_id("bonds", {**base, "chain": couplings})
                == run_id("bonds_j0", {**base, "chain": {**couplings, "j0": 3.0}}))
        assert series("bonds") == series("bonds_j0")
        transfer = {**base, "experiment": "arbitrary_transfer"}
        assert (run_id("zero", {**transfer, "amplitudes": {"a": 1, "b": 0}})
                != run_id("one", {**transfer, "amplitudes": {"a": 0, "b": 1}}))

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
        entries, and a baseline off the grid, cost a simulation. runs counts
        the candidates simulated, alone or as lock-step batch members."""
        import pstlab.optimizer as optimizer

        runs = []
        real_one, real_batch = optimizer.run_sp_series, optimizer.run_first_peaks
        monkeypatch.setattr(optimizer, "run_sp_series", lambda cfg: runs.append(cfg) or real_one(cfg))
        monkeypatch.setattr(optimizer, "run_first_peaks", lambda cfg, profiles:
                            runs.extend(profiles) or real_batch(cfg, profiles))
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
        assert set(manifest["fitted"]) == {"alpha", "beta", "s", "collapsed"}
        assert manifest["results"]["corrected"]["sp_star"] >= manifest["results"]["noisy"]["sp_star"]
        assert Path(manifest["outputs"]["corrected_csv"]).exists()

    def test_a_collapsed_fit_is_flagged(self, tmp_path):
        """At 256 shots the fit can find no decay at all, alpha = beta = 0,
        with s far from 1; the manifest says so."""
        cfg = write_config(tmp_path, {
            "experiment": "rescale",
            "chain": {"n": 4},
            "plan": {"steps": 160},
            "noise": {},
            "shots": 256,
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
        })
        fitted = json.loads(run_config(cfg).read_text())["fitted"]
        assert fitted == {"alpha": 0.0, "beta": 0.0, "s": 1.625, "collapsed": True}

    def test_the_committed_exact_fit_is_not_collapsed(self):
        fitted = json.loads((REPO / "runs" / "rescale" / "manifest.json").read_text())["fitted"]
        assert fitted["collapsed"] is False and fitted["alpha"] > 0 and fitted["beta"] > 0

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

    @pytest.mark.parametrize("noise", [
        {"ideal": True, "t1": -5, "p_pauli": 7},
        {"ideal": True, "t1": -5},
        {"ideal": True, "p_pauli": 7},
        {"ideal": True, "t1": 50e-6},  # below T2 / 2 with the default T2
    ], ids=["t1_and_p_pauli", "t1", "p_pauli", "t2_above_2t1"])
    def test_ideal_block_values_are_checked(self, tmp_path, capsys, noise):
        """"ideal": true turns the noise off, yet an out-of-range value
        beside it exits 2 before anything runs, as it would without it."""
        cfg = small_sp_config(tmp_path, noise=noise)
        assert main(["run", "--config", str(cfg)]) == EXIT_SCHEMA
        assert "invalid noise block" in capsys.readouterr().err
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
        # amplitudes, grid and bo blocks are checked whatever the experiment,
        # though only arbitrary_transfer, grid_search and bayes_opt read them
        *({"experiment": experiment, **block} for experiment in EXPERIMENTS
          for block in ({"amplitudes": {"a": 0.6, "b": "0.8"}}, {"grid": {"step": 0}},
                        {"bo": {"top_starts": 0}})),
        # values of the wrong type or out of range
        {"chain": {"n": "x"}},
        {"shots": "many"},
        {"chain": {"n": 4, "couplings": [1, 2]}},
        {"chain": {"n": 4, "couplings": [1, math.nan, 1]}},
        {"chain": {"n": 4, "couplings": [1, math.inf, 1]}},
        {"chain": {"n": 3, "j0": math.inf}},
        {"plan": {"steps": 4.7}},
        {"chain": {"n": 1}},
        {"plan": {"steps": 0}},
        {"plan": {"total_time": 0}},
        # time values that are no finite positive number of the JSON type
        {"plan": {"total_time": True}},
        {"plan": {"total_time": math.nan}},
        {"plan": {"total_time": "inf"}},
        {"plan": {"total_time": "nanpi"}},
        {"plan": {"total_time": "1e400pi"}},
        {"shots": 0},
        # shots and seed, which ExperimentConfig checks
        {"shots": 1e20},
        {"shots": 2**63},
        {"shots": 2.5},
        {"shots": True},
        {"seed": -1},
        {"seed": 1.5},
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

    @pytest.mark.parametrize("b,code", [(0.8000000003, EXIT_SIM), (0.8 + 4e-13, EXIT_OK)],
                             ids=["off_by_3e-10", "off_by_4e-13"])
    def test_amplitude_norm_is_checked_at_the_gate_tolerance(self, tmp_path, capsys, b, code):
        """|A|^2 + |B|^2 = 1 is held to the prep gate's own unitarity
        tolerance, so a pair off by 4.8e-10 is refused by the amplitude rule,
        with its message, and a pair off by 6.4e-13, which the gate accepts,
        still runs."""
        cfg = write_config(tmp_path, {
            "experiment": "arbitrary_transfer",
            "chain": {"n": 3},
            "plan": {"steps": 4},
            "noise": {},
            "amplitudes": {"a": 0.6, "b": b},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        if code == EXIT_SIM:
            assert "|A|^2 + |B|^2 = 1.00000000048, must be 1" in err, err
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


class TestSchemaTable:
    @staticmethod
    def resolved(cfg: dict):
        """What a config runs: its ExperimentConfig, search and run id, read
        as the JSON file would be."""
        experiment, exp_cfg, search = resolve_config(json.loads(json.dumps(cfg)))
        return exp_cfg, search, _run_id(experiment, exp_cfg, search)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_a_stated_default_changes_nothing(self, experiment):
        """A config that states a _BLOCKS default, one key or all of them,
        resolves to what the config that omits it resolves to."""
        base = {"experiment": experiment}
        want = self.resolved(base)
        stated = {block: {key: default for key, (_, default) in schema.items()
                          if default is not None} for block, schema in _BLOCKS.items()}
        for block, values in stated.items():
            for key, default in values.items():
                assert self.resolved({**base, block: {key: default}}) == want, f"{block}.{key}"
        assert self.resolved({**base, **stated}) == want

    def test_readme_schema_shows_the_table_defaults(self):
        """The README's config schema block shows every _BLOCKS block, and
        each key it shows is in the table with the table's default."""
        text = (REPO / "README.md").read_text(encoding="utf-8")
        start = text.index("```json\n", text.index("Config schema")) + len("```json\n")
        shown = json.loads(text[start:text.index("```", start)])
        assert set(_BLOCKS) <= set(shown)
        for block, schema in _BLOCKS.items():
            for key, value in shown[block].items():
                name = f"{block}.{key}"
                assert key in schema, name
                parse, default = schema[key]
                assert parse(value, name) == parse(default, name), name


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

    def test_committed_report_regenerates_byte_identical(self, tmp_path):
        """runs/report/ is the report of the committed rescale run."""
        outputs = emit_report([REPO / "runs" / "rescale" / "manifest.json"], out=tmp_path)
        assert sorted(outputs) == ["report_csv", "report_json"]
        for name in ("report.csv", "report.json"):
            assert (tmp_path / name).read_bytes() == (REPO / "runs" / "report" / name).read_bytes()

    def test_runs_from_another_directory(self, tmp_path, monkeypatch):
        """Runs written with relative output dirs report from anywhere: each
        manifest's outputs are read next to the manifest."""
        (tmp_path / "project").mkdir()
        monkeypatch.chdir(tmp_path / "project")
        series = run_config(small_sp_config(tmp_path, output_dir="runs/series")).resolve()
        grid = run_config(write_config(tmp_path, {
            "experiment": "grid_search",
            "grid": {"lo": 2.9, "hi": 3.0, "step": 0.1},
            "plan": {"steps": 16},
            "noise": {},
            "output_dir": "runs/grid",
        }, name="grid.json")).resolve()
        assert not Path(json.loads(series.read_text())["outputs"]["series_json"]).is_absolute()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["report", str(series), "--out", "series_rep"]) == EXIT_OK
        assert main(["report", str(grid), "--out", "grid_rep"]) == EXIT_OK
        assert (tmp_path / "elsewhere" / "series_rep" / "report.csv").read_text().startswith("t,")
        assert ((tmp_path / "elsewhere" / "grid_rep" / "report.csv").read_text()
                == (grid.parent / "grid.csv").read_text())

    def test_series_with_nan_exits_3_with_nothing_written(self, tmp_path, capsys):
        """json reads a NaN token as a float; the report refuses the series,
        naming its column's label and its site."""
        manifest_path = run_config(small_sp_config(tmp_path))
        series_path = tmp_path / "out" / "series.json"
        payload = json.loads(series_path.read_text())
        site, vals = next(iter(payload["values"].items()))
        assert site == "3"  # the end site of the 3-site chain
        vals[3] = math.nan
        series_path.write_text(json.dumps(payload))
        assert "NaN" in series_path.read_text()
        capsys.readouterr()
        assert main(["report", str(manifest_path), "--out", str(tmp_path / "rep")]) == EXIT_SIM
        err = capsys.readouterr().err
        assert "series: site 3: values must be finite" in err, err
        assert not (tmp_path / "rep").exists()

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


    def test_label_that_cannot_be_encoded_exits_3_with_nothing_written(self, tmp_path,
                                                                        capsys):
        """A manifest output key holding a lone surrogate (a \\ud800 escape,
        which json.loads reads) becomes a report.csv label that UTF-8 cannot
        encode: the report exits 3 before it makes its directory."""
        manifest = json.loads((REPO / "runs" / "headline" / "manifest.json").read_text())
        manifest["outputs"] = {"\ud800_json": "series.json"}
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        assert "\\ud800_json" in manifest_path.read_text()
        shutil.copy(REPO / "runs" / "headline" / "series.json", tmp_path / "series.json")
        capsys.readouterr()
        assert main(["report", str(manifest_path), "--out", str(tmp_path / "rep")]) == EXIT_SIM
        assert "can't encode" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


def malformed_manifests() -> dict:
    """{case: bytes} of manifests that no run writes, most from a committed one."""
    headline = json.loads((REPO / "runs" / "headline" / "manifest.json").read_text())
    grid = json.loads((REPO / "runs" / "grid_search" / "manifest.json").read_text())
    del grid["outputs"]["grid_csv"]
    texts = {
        "list": json.dumps([headline]),
        "outputs_list": json.dumps({**headline, "outputs": []}),
        "grid_without_grid_csv": json.dumps(grid),
        "series_without_run_id": json.dumps({k: v for k, v in headline.items() if k != "run_id"}),
        "not_json": "manifest: headline\n",
    }
    return {**{case: text.encode() for case, text in texts.items()}, "not_utf8": b"{\xff}"}


class TestReportManifests:
    """Every manifest is checked as it is read: a malformed one exits 2,
    naming its file, before anything is written."""

    @pytest.mark.parametrize("case", ["list", "outputs_list", "grid_without_grid_csv",
                                      "series_without_run_id", "not_json", "not_utf8"])
    def test_malformed_manifest_exits_2_with_nothing_written(self, tmp_path, capsys, case):
        path = tmp_path / "manifest.json"
        path.write_bytes(malformed_manifests()[case])
        capsys.readouterr()
        good = REPO / "runs" / "headline" / "manifest.json"
        assert main(["report", str(good), str(path), "--out", str(tmp_path / "rep")]) == EXIT_SCHEMA
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("case", ["values_list", "times_object", "values_of_numbers",
                                      "not_json", "times_not_numbers", "times_short"])
    def test_malformed_series_output_exits_2_with_nothing_written(self, tmp_path, capsys, case):
        """A series output next to a copy of the headline manifest that is
        not JSON, whose times is not a list or values not an object of
        lists, whose times hold a string, or whose times are one entry
        short of the values, exits 2 naming the output, and nothing is
        written."""
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(REPO / "runs" / "headline" / "manifest.json", run / "manifest.json")
        payload = json.loads((REPO / "runs" / "headline" / "series.json").read_text())
        if case == "values_list":
            payload["values"] = list(payload["values"].values())
        elif case == "times_object":
            payload["times"] = {"0": payload["times"]}
        elif case == "values_of_numbers":
            payload["values"] = {site: vals[0] for site, vals in payload["values"].items()}
        elif case == "times_not_numbers":
            payload["times"][1] = "a"
        elif case == "times_short":
            payload["times"] = payload["times"][:-1]
        text = "{not json" if case == "not_json" else json.dumps(payload)
        (run / "series.json").write_text(text)
        capsys.readouterr()
        argv = ["report", str(run / "manifest.json"), "--out", str(tmp_path / "rep")]
        assert main(argv) == EXIT_SCHEMA
        assert f"config error: {run / 'series.json'}: " in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_runs_that_share_a_label_keep_their_own_columns(self, tmp_path):
        """headline and n3 both write "series": each column is headed by
        the label and the run's place in the argument list, and holds that
        run's values."""
        manifests = [run_config(REPO / "configs" / f"{name}.json", out=tmp_path / name)
                     for name in ("headline", "n3")]
        emit_report(manifests, out=tmp_path / "rep")
        lines = (tmp_path / "rep" / "report.csv").read_text().split("\n")
        assert lines[0] == "t,series#1,series#2"
        rows = [line.split(",") for line in lines[1:lines.index("")]]
        for column, manifest in enumerate(manifests, start=1):
            payload = json.loads((manifest.parent / "series.json").read_text())
            (values,) = payload["values"].values()
            assert [row[column] for row in rows] == [f"{v:.12g}" for v in values]
        summary = json.loads((tmp_path / "rep" / "report.json").read_text())["summary"]
        assert [row["label"] for row in summary] == ["series#1", "series#2"]


class TestAtomicWrite:
    """A failed write leaves the old file as it was and no .tmp file."""

    def test_text_that_cannot_be_encoded(self, tmp_path):
        """_write_files encodes every text before it writes any: a later
        file that cannot be encoded leaves the earlier one's old bytes."""
        path = tmp_path / "a.json"
        path.write_bytes(b"old\n")
        with pytest.raises(UnicodeEncodeError):
            _write_files(tmp_path, {"a.json": "new\n", "b.csv": "lone surrogate \ud800"})
        assert sorted(os.listdir(tmp_path)) == ["a.json"]
        assert path.read_bytes() == b"old\n"

    def test_a_failed_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "a.json"
        path.write_bytes(b"old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            _atomic_write(path, b"new\n")
        assert sorted(os.listdir(tmp_path)) == ["a.json"]
        assert path.read_bytes() == b"old\n"

    def test_writes_the_text_as_utf8_bytes(self, tmp_path):
        path = tmp_path / "a.csv"
        assert _write_files(tmp_path, {"a.csv": "t,\u00e9\n"}) == {"a_csv": str(path)}
        assert sorted(os.listdir(tmp_path)) == ["a.csv"]
        assert path.read_bytes() == "t,\u00e9\n".encode()


class TestCommittedRuns:
    @pytest.mark.parametrize("name", ["bayes_opt", "grid_search", "headline", "plus_transfer",
                                      "rescale"])
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
        del new["duration_s"], old["duration_s"], new["source_sha256"], old["source_sha256"]
        assert new == old


class TestOneEngine:
    @pytest.mark.parametrize("name", ["ideal", "rescale"])
    def test_ideal_runs_make_no_kraus_loop_calls(self, tmp_path, monkeypatch, name):
        """configs/ideal.json, and the ideal reference series of the rescale
        handler, run on the fused Pauli engine: the Kraus-loop oracle
        sim_core.apply_unitary is not called, under any pstlab module's name
        for it."""
        calls = []
        original = sim_core.apply_unitary

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "pstlab" and getattr(module, "apply_unitary", None) is original:
                monkeypatch.setattr(module, "apply_unitary", counted)
        run_config(REPO / "configs" / f"{name}.json", out=tmp_path)
        assert calls == []
        sim_core.apply_unitary(sim_core.DensityMatrix.zero(1),
                               sim_core.UnitaryGate(sim_core.PAULI_X, (0,)))
        assert len(calls) == 1  # the counter sees a call

    def test_production_runs_build_no_density_matrix(self, tmp_path, monkeypatch):
        """Every configs/*.json runs without constructing a DensityMatrix, the
        state type of the Kraus-loop oracle: tomography and fidelity work on
        arrays."""
        def refuse(self, *args, **kwargs):
            raise AssertionError("DensityMatrix built on the production path")

        monkeypatch.setattr(sim_core.DensityMatrix, "__init__", refuse)
        configs = sorted((REPO / "configs").glob("*.json"))
        assert len(configs) >= 8
        for path in configs:
            run_config(path, out=tmp_path / path.stem)
        with pytest.raises(AssertionError, match="production path"):
            sim_core.DensityMatrix.zero(1)  # the guard is live

    def test_optimizer_scores_only_through_objectives(self, tmp_path, monkeypatch):
        """configs/bayes_opt.json scores its grid, the j0 = 1 baseline, the
        probes and the GP picks through the batched optimizer.objectives: the
        one-candidate optimizer.objective is never called."""
        def refuse(*args, **kwargs):
            raise AssertionError("optimizer.objective called on the production path")

        monkeypatch.setattr(optimizer, "objective", refuse)
        run_config(REPO / "configs" / "bayes_opt.json", out=tmp_path)
        with pytest.raises(AssertionError, match="production path"):
            optimizer.objective(pst_couplings(4, 1.0), ExperimentConfig())  # the guard is live


class TestSourceHash:
    def test_manifest_hash_follows_the_package_sources(self, tmp_path):
        """source_sha256 is the same for a copy of the package anywhere, and
        changes when one source file does."""
        manifest = json.loads(run_config(small_sp_config(tmp_path)).read_text())
        copy = tmp_path / "pkg" / "pstlab"
        shutil.copytree(Path(pstlab.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def copy_hash():
            proc = subprocess.run(
                [sys.executable, "-c", "from pstlab import cli; print(cli._source_sha256())"],
                env=dict(os.environ, PYTHONPATH=str(copy.parent)), capture_output=True,
                text=True, timeout=120, check=True)
            return proc.stdout.strip()

        assert copy_hash() == manifest["source_sha256"]
        (copy / "chains.py").write_text((copy / "chains.py").read_text() + "# edited\n")
        edited = copy_hash()
        assert len(edited) == 64 and edited != manifest["source_sha256"]


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

    def test_no_package_module_defines_an_oracle_name(self):
        """The test oracles live in tests/oracle.py alone: no pstlab module,
        nor any class it defines, has a public name that oracle defines."""
        names = {name for name, obj in vars(oracle).items()
                 if not name.startswith("_") and getattr(obj, "__module__", None) == oracle.__name__}
        assert {"kraus_loop", "to_density_matrix"} <= names  # read from the module
        modules = [pstlab, *(importlib.import_module(f"pstlab.{info.name}")
                             for info in pkgutil.iter_modules(pstlab.__path__))]
        clashes = []
        for module in modules:
            scopes = [(module.__name__, vars(module))]
            scopes += [(f"{module.__name__}.{cls.__name__}", vars(cls))
                       for _, cls in inspect.getmembers(module, inspect.isclass)
                       if cls.__module__ == module.__name__]
            clashes += [f"{where}.{name}" for where, scope in scopes for name in names & set(scope)]
        assert not clashes, sorted(clashes)

    def test_every_imported_name_is_used(self):
        """Each name a pstlab module other than __init__ imports is read in
        that module, so an import left behind by a deletion is caught."""
        unused = []
        for path in sorted(Path(pstlab.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                       if name not in used]
        assert not unused, unused

    def test_experiments_computes_no_power_of_four(self):
        """Where a Pauli string sits in the graded state is sim_core's one
        rule (graded_index), so experiments raises 4 to no power: no
        graded-layout arithmetic comes back there."""
        tree = ast.parse((Path(pstlab.__file__).parent / "experiments.py").read_text("utf-8"))
        bases = [node.left for node in ast.walk(tree)
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]
        bases += [node.args[0] for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", "")) in ("pow", "power")
                  and node.args]
        assert [base.lineno for base in bases
                if isinstance(base, ast.Constant) and base.value == 4] == []

    def test_every_private_name_is_read(self):
        """Each private top-level function, class or constant of a pstlab
        module is read somewhere in the package, so one that a change left
        without a caller is caught."""
        trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(Path(pstlab.__file__).parent.glob("*.py"))}
        read = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
        orphans = []
        for name, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                orphans += [f"{name}:{node.lineno} {d}" for d in defined
                            if d.startswith("_") and not d.startswith("__") and d not in read]
        assert not orphans, orphans
