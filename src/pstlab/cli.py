"""Batch front door: run configured experiments, persist manifests and
CSV/JSON outputs, and join finished runs into comparison reports.

Each experiment is one entry of HANDLERS: it runs and returns its output
files as {file name: text}. One writer, _write_files, writes every run and
report file atomically and keys the manifest's outputs by file name
("series.csv" -> "series_csv"). Every run writes both CSV and JSON.

Config schema (JSON):

    {
      "experiment": "sp_series" | "site_resolved" | "arbitrary_transfer"
                    | "rescale" | "grid_search" | "bayes_opt",
      "chain": {"n": 4, "j0": 1.0}            // or {"n": 4, "couplings": [..]}
      "plan": {"total_time": "2pi", "steps": 80},
      "noise": {},                             // {} = full defaults; null = ideal
                                               // (refused by rescale/grid_search/bayes_opt)
      "shots": null,                           // null = exact mode
      "seed": 0,
      "output_dir": "runs/headline",
      "amplitudes": {"a": 0.7071.., "b": ...}  // arbitrary_transfer only
      "grid": {"lo": 0.1, "hi": 4.0, "step": 0.1},        // grid_search/bayes_opt
      "bo": {"top_starts": 3, "iterations_per_start": 5,   // bayes_opt only
             "batch_size": 64}
    }

The keys shown are the only ones each block allows; "noise" takes the
NoiseParams fields and "ideal". Every block is optional, but a present one
must be an object (noise may be null). An unknown key at any level, a
non-object block, a non-integer count, a value of the wrong JSON type (noise
toggles and "ideal" must be true/false, noise rates and times numbers,
"output_dir" a string or null) or an out-of-range value exits 2 before
anything runs. Time values accept multiples of pi in string form
("0.5pi", "2pi", "pi"). Defaults reproduce the headline N=4, T=2pi, 80-step
setup with the full noise stack, so a minimal config is
{"experiment": "sp_series"}.

Exit codes: 0 success, 2 schema violation, 3 simulation error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .chains import pst_couplings
from .experiments import (
    ExperimentConfig,
    SPTimeSeries,
    detect_first_peak,
    run_arbitrary_transfer,
    run_sp_series,
    run_site_resolved,
    series_to_csv,
    series_to_json,
    tomography_to_csv,
    tomography_to_json,
)
from .mitigation import apply_rescaling, fit_rescaling
from .noise import NoiseParams
from .optimizer import Candidate, bayes_optimize, grid_search_j0, objective

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SIM = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Config file fails the schema; maps to exit code 2."""


@dataclass
class RunManifest:
    run_id: str
    experiment: str
    config: dict
    artifact_version: str
    outputs: dict
    duration_s: float
    fitted: dict | None = None
    results: dict = field(default_factory=dict)

    def write(self, path: Path) -> Path:
        _atomic_write(path, _json_text(asdict(self)))
        return path


def parse_time_value(value) -> float:
    """Float seconds-of-J0 or a 'pi' multiple string like '0.5pi'."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip().lower().replace(" ", "")
        if text.endswith("pi"):
            head = text[:-2]
            if head in ("", "+"):
                return math.pi
            if head == "-":
                return -math.pi
            try:
                return float(head) * math.pi
            except ValueError as exc:
                raise ConfigError(f"cannot parse time value {value!r}") from exc
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse time value {value!r}") from exc
    raise ConfigError(f"cannot parse time value {value!r}")


def _real(value, name: str) -> float:
    """A finite JSON number; strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """A whole JSON number (8 or 8.0); 4.7, "4" and true are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _parse_amplitude(value, name: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], name), _real(value[1], name))
    return complex(_real(value, name))


# Allowed keys of each object block; "noise" is checked against NoiseParams.
_BLOCK_KEYS = {
    "chain": ("n", "j0", "couplings"),
    "plan": ("total_time", "steps"),
    "amplitudes": ("a", "b"),
    "grid": ("lo", "hi", "step"),
    "bo": ("top_starts", "iterations_per_start", "batch_size"),
}


def _block(cfg: dict, name: str) -> dict:
    """cfg[name], {} when absent; anything but an object of known keys is refused."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be an object, got {block!r}")
    unknown = set(block) - set(_BLOCK_KEYS[name])
    if unknown:
        raise ConfigError(f"unknown {name} key(s) {sorted(unknown)}; "
                          f"allowed: {list(_BLOCK_KEYS[name])}")
    return block


def load_config(path) -> dict:
    raw = Path(path).read_text()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply --set dotted.path=value pairs; values parsed as JSON when possible."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return cfg


def _noise_value(value, name: str, default):
    """A noise value of its field's JSON type: a finite number for rates and
    times, true/false for the toggles and ideal, a string for zz_mode."""
    if isinstance(default, float):
        return _real(value, f"noise.{name}")
    if not isinstance(value, type(default)):
        raise ConfigError(f"noise.{name} must be a {type(default).__name__}, got {value!r}")
    return value


def _build_noise(block) -> NoiseParams | None:
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError("noise block must be an object or null")
    # a typed copy: the caller's block goes into the manifest unchanged
    defaults = {"ideal": False, **{f.name: f.default for f in fields(NoiseParams)}}
    params = {key: _noise_value(value, key, defaults[key]) if key in defaults else value
              for key, value in block.items()}
    if params.pop("ideal", False):
        return None
    try:
        return NoiseParams.from_dict(params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid noise block: {exc}") from exc


def resolve_config(cfg: dict, seed_override=None):
    """Validate the raw dict and build the typed experiment inputs:
    (experiment, ExperimentConfig, grid and GP settings)."""
    unknown = set(cfg) - {"experiment", "noise", "shots", "seed", "output_dir", *_BLOCK_KEYS}
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    blocks = {name: _block(cfg, name) for name in _BLOCK_KEYS}

    chain = blocks["chain"]
    n = _integer(chain.get("n", 4), "chain.n")
    if n < 2:
        raise ConfigError(f"chain.n must be >= 2, got {n}")
    couplings = chain.get("couplings")
    if couplings is not None:
        if not isinstance(couplings, list):
            raise ConfigError(f"chain.couplings must be a list, got {couplings!r}")
        couplings = tuple(_real(j, "chain.couplings") for j in couplings)
    j0 = _real(chain.get("j0", 1.0), "chain.j0")

    plan = blocks["plan"]
    total_time = parse_time_value(plan.get("total_time", "2pi"))
    steps = _integer(plan.get("steps", 80), "plan.steps")
    if total_time <= 0 or steps < 1:
        raise ConfigError("plan.total_time must be > 0 and plan.steps >= 1")

    noise = _build_noise(cfg.get("noise", {}))
    if noise is None and experiment in ("rescale", "grid_search", "bayes_opt"):
        raise ConfigError(f"{experiment} needs a noise block")
    output_dir = cfg.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string or null, got {output_dir!r}")
    shots = cfg.get("shots")
    if shots is not None:
        shots = _integer(shots, "shots")
        if shots < 1:
            raise ConfigError("shots must be >= 1 or null")
    seed = _integer(cfg.get("seed", 0) if seed_override is None else seed_override, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    amps = blocks["amplitudes"]
    amp_a = _parse_amplitude(amps.get("a", 1.0 / math.sqrt(2.0)), "amplitudes.a")
    amp_b = _parse_amplitude(amps.get("b", 1.0 / math.sqrt(2.0)), "amplitudes.b")
    search = _search_settings(experiment, blocks)

    try:
        exp_cfg = ExperimentConfig(
            n_sites=n,
            j0=j0,
            couplings=couplings,
            total_time=total_time,
            n_steps=steps,
            noise=noise,
            shots=shots,
            seed=seed,
            amp_a=amp_a,
            amp_b=amp_b,
        )
        exp_cfg.profile()  # a wrong coupling count or a non-positive j0 fails here, not mid-run
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return experiment, exp_cfg, search


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_files(out_dir: Path, files: dict) -> dict:
    """Write each {file name: text} under out_dir; returns the manifest's
    outputs map, keyed by file name with "." as "_" ("grid.csv" -> "grid_csv")."""
    outputs = {}
    for name, text in files.items():
        path = out_dir / name
        _atomic_write(path, text)
        outputs[name.replace(".", "_")] = str(path)
    return outputs


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _search_settings(experiment: str, blocks: dict) -> dict:
    """The grid and GP settings the experiment uses, with defaults filled in."""
    settings = {}
    if experiment in ("grid_search", "bayes_opt"):
        grid = {key: _real(blocks["grid"].get(key, default), f"grid.{key}")
                for key, default in (("lo", 0.1), ("hi", 4.0), ("step", 0.1))}
        if not 0 < grid["lo"] <= grid["hi"] or grid["step"] <= 0:
            raise ConfigError(f"grid needs 0 < lo <= hi and step > 0, got {grid}")
        settings["grid"] = grid
    if experiment == "bayes_opt":
        bo = {key: _integer(blocks["bo"].get(key, default), f"bo.{key}")
              for key, default in (("top_starts", 3), ("iterations_per_start", 5),
                                   ("batch_size", 64))}
        if bo["top_starts"] < 1 or bo["iterations_per_start"] < 0 or bo["batch_size"] < 1:
            raise ConfigError(f"bo needs top_starts >= 1, iterations_per_start >= 0 "
                              f"and batch_size >= 1, got {bo}")
        settings["bo"] = bo
    return settings


def _run_id(experiment: str, exp_cfg: ExperimentConfig, search: dict) -> str:
    """Hash of the resolved inputs, so configs that run the same thing share an id."""
    blob = json.dumps({"experiment": experiment, "config": exp_cfg.to_dict(), **search},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# Each handler runs one experiment and returns (files, fitted, results): files
# maps output file names to their text; fitted and results go into the manifest.

def _series_result(series: SPTimeSeries):
    return _series_files("series", series), None, _peak_summary(series)


def _arbitrary_transfer(exp_cfg: ExperimentConfig, search: dict):
    record = run_arbitrary_transfer(exp_cfg)
    files = {"tomography.csv": tomography_to_csv(record, exp_cfg.n_sites),
             "tomography.json": tomography_to_json(record)}
    best = int(np.argmax(record.fidelity))
    return files, None, {"peak_fidelity": float(record.fidelity[best]),
                         "peak_fidelity_time": float(record.times[best])}


def _rescale(exp_cfg: ExperimentConfig, search: dict):
    noisy = run_sp_series(exp_cfg)
    ideal = run_sp_series(replace(exp_cfg, noise=None, shots=None))
    params = fit_rescaling(noisy, ideal)
    corrected = apply_rescaling(noisy, params)
    files = {**_series_files("noisy", noisy), **_series_files("ideal", ideal),
             **_series_files("corrected", corrected)}
    fitted = {"alpha": params.alpha, "beta": params.beta, "s": params.s}
    return files, fitted, {"noisy": _peak_summary(noisy), "corrected": _peak_summary(corrected)}


def _grid_search(exp_cfg: ExperimentConfig, search: dict):
    records = grid_search_j0(exp_cfg, **search["grid"])
    return _grid_files(records), None, {"best_j0": records[0].candidate.j0,
                                        "best_objective": records[0].objective}


def _bayes_opt(exp_cfg: ExperimentConfig, search: dict):
    records = grid_search_j0(exp_cfg, **search["grid"])
    bo = search["bo"]
    best, ledger = bayes_optimize(exp_cfg, records[:bo["top_starts"]],
                                  bo["iterations_per_start"], bo["batch_size"])
    baseline, baseline_t = _baseline(records, exp_cfg)
    report = {
        "best_couplings": list(best.candidate.couplings),
        "best_objective": best.objective,
        "best_t_star": best.t_star,
        "baseline_j0": 1.0,
        "baseline_objective": baseline,
        "baseline_t_star": baseline_t,
        "improvement": best.objective - baseline,
        "evaluations": len(ledger),
    }
    files = {**_grid_files(records), "ledger.jsonl": _ledger_jsonl(ledger),
             "report.json": _json_text(report)}
    return files, None, report


HANDLERS = {
    "sp_series": lambda exp_cfg, search: _series_result(run_sp_series(exp_cfg)),
    "site_resolved": lambda exp_cfg, search: _series_result(run_site_resolved(exp_cfg)),
    "arbitrary_transfer": _arbitrary_transfer,
    "rescale": _rescale,
    "grid_search": _grid_search,
    "bayes_opt": _bayes_opt,
}
EXPERIMENTS = tuple(HANDLERS)


def run_config(path, overrides=(), seed=None, out=None) -> Path:
    """Execute one experiment config; returns the manifest path."""
    raw = apply_overrides(load_config(path), overrides)
    experiment, exp_cfg, search = resolve_config(raw, seed_override=seed)
    out_dir = Path(out) if out else Path(raw.get("output_dir") or "runs")
    started = time.time()
    files, fitted, results = HANDLERS[experiment](exp_cfg, search)
    manifest = RunManifest(
        run_id=_run_id(experiment, exp_cfg, search),
        experiment=experiment,
        config=raw,
        artifact_version=__version__,
        outputs=_write_files(out_dir, files),
        duration_s=round(time.time() - started, 6),
        fitted=fitted,
        results=results,
    )
    manifest_path = manifest.write(out_dir / "manifest.json")
    print(manifest_path)
    return manifest_path


def _baseline(grid_records, exp_cfg: ExperimentConfig) -> tuple:
    """(objective, t_star) of the j0 = 1 profile, read from the grid when it is on it."""
    couplings = pst_couplings(exp_cfg.n_sites, 1.0).couplings
    for rec in grid_records:
        if rec.candidate.couplings == couplings:
            return rec.objective, rec.t_star
    return objective(Candidate(couplings=couplings, j0=1.0), exp_cfg)


def _peak_summary(series: SPTimeSeries) -> dict:
    try:
        t_star, sp_star = detect_first_peak(series)
        return {"t_star": t_star, "sp_star": sp_star}
    except ValueError:
        return {"t_star": None, "sp_star": None}


def _series_files(stem: str, series: SPTimeSeries) -> dict:
    return {f"{stem}.csv": series_to_csv(series), f"{stem}.json": series_to_json(series)}


def _grid_files(records) -> dict:
    lines = ["rank,j0,peak_sp,t_star"]
    for rank, rec in enumerate(records, start=1):
        lines.append(f"{rank},{rec.candidate.j0:.12g},{rec.objective:.12g},{rec.t_star:.12g}")
    payload = [
        {
            "rank": rank,
            "j0": rec.candidate.j0,
            "couplings": list(rec.candidate.couplings),
            "peak_sp": rec.objective,
            "t_star": None if math.isnan(rec.t_star) else rec.t_star,
        }
        for rank, rec in enumerate(records, start=1)
    ]
    return {"grid.csv": "\n".join(lines) + "\n", "grid.json": _json_text(payload)}


def _ledger_jsonl(ledger) -> str:
    lines = []
    for rec in ledger:
        lines.append(
            json.dumps(
                {
                    "couplings": list(rec.candidate.couplings),
                    "j0": rec.candidate.j0,
                    "objective": rec.objective,
                    "t_star": None if math.isnan(rec.t_star) else rec.t_star,
                    "seed": rec.seed,
                    "kind": rec.kind,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def _load_manifest_series(manifest: dict) -> list:
    """(label, times, values) triples for every series a manifest produced."""
    out = []
    for key, path in manifest.get("outputs", {}).items():
        if not key.endswith("_json") or key in ("grid_json", "report_json"):
            continue
        payload = json.loads(Path(path).read_text())
        if "times" not in payload or "values" not in payload:
            continue
        stem = key[: -len("_json")]
        times = np.asarray(payload["times"], dtype=float)
        for site, vals in sorted(payload["values"].items()):
            label = f"{stem}_site{site}" if len(payload["values"]) > 1 else stem
            out.append((label, times, np.asarray(vals, dtype=float)))
    return out


def emit_report(manifest_paths, out=None) -> dict:
    """Join runs on the time grid and summarize peaks.

    Grid-search manifests pass their ranking table through; series-producing
    manifests are joined column-wise, resampled by linear interpolation
    (with a warning entry) when their grids differ. Any other manifest (an
    arbitrary_transfer run, whose tomography SP is not a transfer SP) is
    refused before anything is written.
    """
    if not manifest_paths:
        raise ConfigError("emit_report needs at least one manifest")
    out_dir = Path(out) if out else Path(".")
    manifests = [json.loads(Path(p).read_text()) for p in manifest_paths]

    grid_only = [m for m in manifests if m.get("experiment") in ("grid_search", "bayes_opt")]
    series_entries = []
    for path, m in zip(manifest_paths, manifests):
        entries = _load_manifest_series(m)
        if not entries and m not in grid_only:
            raise ConfigError(f"{path}: a {m.get('experiment')} run has no series to report")
        series_entries.extend(entries)

    files: dict = {}
    warnings: list = []
    summary: list = []
    if series_entries:
        base_times = series_entries[0][1]
        for label, times, _ in series_entries[1:]:
            if len(times) != len(base_times) or not np.allclose(times, base_times):
                warnings.append(f"grid of {label} resampled onto {series_entries[0][0]}")
        columns = {}
        for label, times, vals in series_entries:
            columns[label] = np.interp(base_times, times, vals)
            summary.append({"label": label,
                            **_peak_summary(SPTimeSeries(times=times, values={1: vals}))})
        peaks = [s["sp_star"] for s in summary if s["sp_star"] is not None]
        baseline = min(peaks) if peaks else None
        for s in summary:
            if s["sp_star"] is None or baseline is None or baseline == 0:
                s["improvement"] = None
                s["improvement_pct"] = None
            else:
                s["improvement"] = s["sp_star"] - baseline
                s["improvement_pct"] = 100.0 * (s["sp_star"] - baseline) / baseline
        labels = [label for label, _, _ in series_entries]
        lines = ["t," + ",".join(labels)]
        for i, t in enumerate(base_times):
            lines.append(f"{t:.12g}," + ",".join(f"{columns[l][i]:.12g}" for l in labels))
        lines.append("")
        lines.append("label,t_star,sp_star,improvement,improvement_pct")
        for s in summary:
            lines.append(
                f"{s['label']},{_fmt_opt(s['t_star'])},{_fmt_opt(s['sp_star'])},"
                f"{_fmt_opt(s['improvement'])},{_fmt_opt(s['improvement_pct'])}"
            )
        for w in warnings:
            lines.append(f"warning,{w},,,")
        files["report.csv"] = "\n".join(lines) + "\n"
    elif grid_only:
        # passthrough: re-emit the first grid table as the report
        files["report.csv"] = Path(grid_only[0]["outputs"]["grid_csv"]).read_text()

    payload = {
        "summary": summary,
        "warnings": warnings,
        "runs": [m["run_id"] for m in manifests],
    }
    if grid_only:
        payload["grid_runs"] = [
            {"run_id": m["run_id"], "results": m.get("results", {})} for m in grid_only
        ]
    files["report.json"] = _json_text(payload)
    return _write_files(out_dir, files)


def _fmt_opt(v) -> str:
    return "" if v is None else f"{v:.12g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pstlab", description="Spin-chain transfer experiments, mitigation, optimization."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("--config", required=True, help="path to the JSON config")
    runp.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="KEY=VALUE", help="dotted-path config override")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--out", default=None, help="output directory (overrides output_dir)")

    repp = sub.add_parser("report", help="comparison table across finished runs")
    repp.add_argument("manifests", nargs="+", help="manifest.json paths")
    repp.add_argument("--out", default=".", help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            run_config(args.config, overrides=args.overrides, seed=args.seed, out=args.out)
        else:
            for path in emit_report(args.manifests, out=args.out).values():
                print(path)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM


if __name__ == "__main__":
    sys.exit(main())
