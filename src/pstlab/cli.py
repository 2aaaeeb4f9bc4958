"""Batch front door: run configured experiments, persist manifests and
CSV/JSON outputs, and join finished runs into comparison reports.

Each experiment is one entry of HANDLERS: it runs and returns its output
files as {file name: text}. One writer, _write_files, encodes every text
(one that cannot be encoded writes nothing), makes the output directory
once and writes every run and report file atomically, a failed write
leaving no temporary file (_atomic_write), and keys the manifest's outputs
by file name ("series.csv" -> "series_csv"). Every run writes both CSV and
JSON; all JSON text, the manifest's too, is experiments.json_text.

Config schema (JSON): "experiment" (one of EXPERIMENTS), the object blocks
of _BLOCKS ("chain", "plan", "amplitudes", "grid", "bo"), which states each
block's keys, parsers and defaults once, "noise" (the NoiseParams fields and
"ideal"; {} = full defaults, null = ideal, refused by rescale, grid_search
and bayes_opt), "shots" (null = exact mode), "seed" and "output_dir". Every
block is optional, but a present one must be an object (noise may be null),
and every block is checked whatever the experiment, though each experiment
reads only its own (_SEARCH_BLOCKS). An unknown key at any level, a
non-object block, a non-integer count, a value of the wrong JSON type (noise
toggles and "ideal" must be true/false, noise rates and times numbers,
"output_dir" a string or null) or an out-of-range value exits 2 before
anything runs. Time values accept multiples of pi in string form
("0.5pi", "2pi", "pi"). The defaults (_BLOCKS, NoiseParams) reproduce the
headline setup with the full noise stack, so a minimal config is
{"experiment": "sp_series"}.

Exit codes: 0 success, 2 schema violation, 3 simulation error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .chains import pst_couplings
from .experiments import (
    ExperimentConfig,
    SPTimeSeries,
    detect_first_peak,
    digest,
    json_text,
    run_arbitrary_transfer,
    run_sp_series,
    run_site_resolved,
    series_to_csv,
    series_to_json,
    tomography_to_csv,
    tomography_to_json,
    whole_number,
)
from .mitigation import apply_rescaling, fit_rescaling
from .noise import NoiseParams
from .optimizer import bayes_optimize, grid_search_j0

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SIM = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Config file fails the schema; maps to exit code 2."""


def parse_time_value(value) -> float:
    """Float seconds-of-J0 or a 'pi' multiple string like '0.5pi'; booleans
    are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
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
    """A whole JSON number (8 or 8.0; experiments.whole_number); 4.7, "4"
    and true are refused."""
    try:
        return whole_number(value, name)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _amplitude(value, name: str) -> list:
    """[re, im] of a JSON amplitude, a number or a [re, im] pair."""
    if isinstance(value, list) and len(value) == 2:
        return [_real(value[0], name), _real(value[1], name)]
    return [_real(value, name), 0.0]


def _couplings(value, name: str):
    """The chain's explicit couplings as a tuple of finite numbers, or None."""
    if value is None:
        return None
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(_real(j, name) for j in value)


# Every object block's keys, in check order, each with its parser
# (value, "block.key") and its default; "noise" is checked against NoiseParams.
_BLOCKS = {
    "chain": {"n": (_integer, 4), "couplings": (_couplings, None), "j0": (_real, 1.0)},
    "plan": {"total_time": (lambda value, name: parse_time_value(value), "2pi"),
             "steps": (_integer, 80)},
    "amplitudes": {key: (_amplitude, 1.0 / math.sqrt(2.0)) for key in ("a", "b")},
    "grid": {"lo": (_real, 0.1), "hi": (_real, 4.0), "step": (_real, 0.1)},
    "bo": {"top_starts": (_integer, 3), "iterations_per_start": (_integer, 5),
           "batch_size": (_integer, 64)},
}


def _block(cfg: dict, name: str) -> dict:
    """cfg[name] parsed, defaults filled in ({} when absent); anything but an
    object of known keys is refused."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be an object, got {block!r}")
    schema = _BLOCKS[name]
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {name} key(s) {sorted(unknown)}; allowed: {list(schema)}")
    return {key: parse(block.get(key, default), f"{name}.{key}")
            for key, (parse, default) in schema.items()}


def _json_object(path, what: str) -> dict:
    """The JSON object in the file at path; anything else, text that is not
    JSON or UTF-8 included, is a ConfigError that names the file."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: {what} root must be a JSON object")
    return obj


def load_config(path) -> dict:
    return _json_object(path, "config")


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
    ideal = params.pop("ideal", False)
    try:  # checked even when ideal, so a bad value is refused either way
        noise = NoiseParams.from_dict(params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid noise block: {exc}") from exc
    return None if ideal else noise


def resolve_config(cfg: dict, seed_override=None):
    """Validate the raw dict and build the typed experiment inputs:
    (experiment, ExperimentConfig, search), search holding the parsed blocks
    the experiment reads beyond its ExperimentConfig (_SEARCH_BLOCKS)."""
    unknown = set(cfg) - {"experiment", "noise", "shots", "seed", "output_dir", *_BLOCKS}
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    blocks = {name: _block(cfg, name) for name in _BLOCKS}
    grid, bo = blocks["grid"], blocks["bo"]
    if not 0 < grid["lo"] <= grid["hi"] or grid["step"] <= 0:
        raise ConfigError(f"grid needs 0 < lo <= hi and step > 0, got {grid}")
    if bo["top_starts"] < 1 or bo["iterations_per_start"] < 0 or bo["batch_size"] < 1:
        raise ConfigError(f"bo needs top_starts >= 1, iterations_per_start >= 0 "
                          f"and batch_size >= 1, got {bo}")

    noise = _build_noise(cfg.get("noise", {}))
    if noise is None and experiment in ("rescale", "grid_search", "bayes_opt"):
        raise ConfigError(f"{experiment} needs a noise block")
    output_dir = cfg.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string or null, got {output_dir!r}")

    chain, plan = blocks["chain"], blocks["plan"]
    try:  # the constructor checks the chain, the grid, shots and seed, so they fail here
        exp_cfg = ExperimentConfig(
            n_sites=chain["n"],
            j0=chain["j0"],
            couplings=chain["couplings"],
            total_time=plan["total_time"],
            n_steps=plan["steps"],
            noise=noise,
            shots=cfg.get("shots"),
            seed=cfg.get("seed", 0) if seed_override is None else seed_override,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return experiment, exp_cfg, {name: blocks[name] for name in _SEARCH_BLOCKS.get(experiment, ())}


def _atomic_write(path: Path, data: bytes) -> None:
    """Write data to path, whose directory must exist: into <path>.tmp,
    then renamed over path, so a reader sees the old file or the new one
    whole. When a step fails, the .tmp file is removed and the error raised
    again."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_files(out_dir: Path, files: dict) -> dict:
    """Write each {file name: text} as UTF-8 under out_dir, made if missing
    once every text is encoded, so one that cannot be encoded writes nothing;
    returns the manifest's outputs map, keyed by file name with "." as "_"
    ("grid.csv" -> "grid_csv")."""
    data = {name: text.encode() for name, text in files.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name, blob in data.items():
        path = out_dir / name
        _atomic_write(path, blob)
        outputs[name.replace(".", "_")] = str(path)
    return outputs


@functools.cache
def _source_sha256() -> str:
    """SHA-256 of the pstlab package sources, file names and bytes, in name
    order: it tells program versions apart where artifact_version cannot."""
    sha = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        sha.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return sha.hexdigest()


def _run_id(experiment: str, exp_cfg: ExperimentConfig, search: dict) -> str:
    """Hash of the resolved inputs the experiment reads, so configs that run
    the same thing share an id."""
    return digest({"experiment": experiment, "config": exp_cfg.to_dict(), **search})


# Each handler runs one experiment and returns (files, fitted, results): files
# maps output file names to their text; fitted and results go into the manifest.

def _series_result(series: SPTimeSeries):
    return _series_files("series", series), None, _peak_summary(series)


def _arbitrary_transfer(exp_cfg: ExperimentConfig, search: dict):
    record = run_arbitrary_transfer(exp_cfg, [complex(*search["amplitudes"][k]) for k in "ab"])
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
    # collapsed: the fit found no decay to correct, often a sign of shot noise (README)
    fitted = {"alpha": params.alpha, "beta": params.beta, "s": params.s,
              "collapsed": params.alpha == 0.0 and params.beta == 0.0}
    return files, fitted, {"noisy": _peak_summary(noisy), "corrected": _peak_summary(corrected)}


def _grid_search(exp_cfg: ExperimentConfig, search: dict):
    records = grid_search_j0(exp_cfg, **search["grid"])
    return _grid_files(records), None, {"best_j0": records[0].candidate.j0,
                                        "best_objective": records[0].objective}


def _bayes_opt(exp_cfg: ExperimentConfig, search: dict):
    *records, baseline = grid_search_j0(exp_cfg, **search["grid"],
                                        extra=[pst_couplings(exp_cfg.n_sites, 1.0)])
    bo = search["bo"]
    best, ledger = bayes_optimize(exp_cfg, records[:bo["top_starts"]],
                                  bo["iterations_per_start"], bo["batch_size"])
    report = {
        "best_couplings": list(best.candidate.couplings),
        "best_objective": best.objective,
        "best_t_star": best.t_star,
        "baseline_j0": 1.0,
        "baseline_objective": baseline.objective,
        "baseline_t_star": baseline.t_star,
        "improvement": best.objective - baseline.objective,
        "evaluations": len(ledger),
    }
    files = {**_grid_files(records), "ledger.jsonl": _ledger_jsonl(ledger),
             "report.json": json_text(report)}
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
# The _BLOCKS each experiment reads beyond its ExperimentConfig: its search
# settings, which go into its run id.
_SEARCH_BLOCKS = {"arbitrary_transfer": ("amplitudes",), "grid_search": ("grid",),
                  "bayes_opt": ("grid", "bo")}
_GRID_EXPERIMENTS = ("grid_search", "bayes_opt")  # a grid run's report passes grid.csv through


def run_config(path, overrides=(), seed=None, out=None) -> Path:
    """Execute one experiment config; returns the manifest path."""
    raw = apply_overrides(load_config(path), overrides)
    experiment, exp_cfg, search = resolve_config(raw, seed_override=seed)
    out_dir = Path(out) if out else Path(raw.get("output_dir") or "runs")
    started = time.time()
    files, fitted, results = HANDLERS[experiment](exp_cfg, search)
    outputs = _write_files(out_dir, files)
    manifest = {
        "run_id": _run_id(experiment, exp_cfg, search),
        "experiment": experiment,
        "config": raw,
        "artifact_version": __version__,
        "source_sha256": _source_sha256(),
        "outputs": outputs,
        "duration_s": round(time.time() - started, 6),
        "fitted": fitted,
        "results": results,
    }
    manifest_path = out_dir / "manifest.json"
    _atomic_write(manifest_path, json_text(manifest).encode())
    print(manifest_path)
    return manifest_path


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
    return {"grid.csv": "\n".join(lines) + "\n", "grid.json": json_text(payload)}


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


def _output_path(manifest_path, output) -> Path:
    """A manifest's output file: the file of that name next to the manifest,
    so a report reads the same files from any working directory."""
    return Path(manifest_path).parent / Path(output).name


def _read_manifest(path) -> dict:
    """A manifest to report, checked as it is read: a JSON object whose
    experiment and run_id are strings and whose outputs map names to file
    names, holding grid_csv for a grid run."""
    manifest = _json_object(path, "manifest")
    if not all(isinstance(manifest.get(key), str) for key in ("experiment", "run_id")):
        raise ConfigError(f"{path}: a manifest's experiment and run_id must be strings")
    outputs = manifest.get("outputs")
    if not isinstance(outputs, dict) or not all(isinstance(name, str) for name in outputs.values()):
        raise ConfigError(f"{path}: a manifest's outputs must be an object of file names")
    if manifest["experiment"] in _GRID_EXPERIMENTS and "grid_csv" not in outputs:
        raise ConfigError(f"{path}: a {manifest['experiment']} manifest has no grid_csv output")
    return manifest


def _load_manifest_series(manifest_path, manifest: dict) -> list:
    """(label, site, times, values) for every series a manifest produced;
    an output that is no _json_object, whose times is no list or values no
    object of lists, or whose lists hold what is not a number or differ in
    length, is a ConfigError naming the file."""
    out = []
    for key, path in manifest["outputs"].items():
        if not key.endswith("_json") or key in ("grid_json", "report_json"):
            continue
        file = _output_path(manifest_path, path)
        payload = _json_object(file, "series output")
        if "times" not in payload or "values" not in payload:
            continue
        times, values = payload["times"], payload["values"]
        if not (isinstance(times, list) and isinstance(values, dict)
                and all(isinstance(vals, list) for vals in values.values())):
            raise ConfigError(f"{file}: times must be a list and values an object of lists")
        stem = key[: -len("_json")]
        try:
            times = np.asarray(times, dtype=float)
            columns = [(site, np.asarray(vals, dtype=float))
                       for site, vals in sorted(values.items())]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{file}: times and values must hold numbers ({exc})") from None
        for site, vals in columns:
            if times.ndim != 1 or vals.shape != times.shape:
                raise ConfigError(f"{file}: site {site}: {vals.shape} values for {times.shape} "
                                  "times")
            label = f"{stem}_site{site}" if len(values) > 1 else stem
            out.append((label, site, times, vals))
    return out


def emit_report(manifest_paths, out=None) -> dict:
    """Join runs on the time grid and summarize peaks.

    Grid-search manifests pass their ranking table through; series-producing
    manifests are joined column-wise, resampled by linear interpolation
    (with a warning entry) when their grids differ, a label that two runs
    share suffixed with the run's place in the list ("series#2"). A
    malformed manifest (_read_manifest) or any other one (an
    arbitrary_transfer run, whose tomography SP is not a transfer SP) is
    refused before anything is written.
    """
    if not manifest_paths:
        raise ConfigError("emit_report needs at least one manifest")
    out_dir = Path(out) if out else Path(".")
    manifests = [_read_manifest(p) for p in manifest_paths]

    is_grid = [m["experiment"] in _GRID_EXPERIMENTS for m in manifests]
    grid_only = [(path, m) for path, m, grid in zip(manifest_paths, manifests, is_grid) if grid]
    per_run = []
    for path, m, grid in zip(manifest_paths, manifests, is_grid):
        per_run.append(_load_manifest_series(path, m))
        if not per_run[-1] and not grid:
            raise ConfigError(f"{path}: a {m['experiment']} run has no series to report")
    counts = Counter(label for entries in per_run for label, *_ in entries)
    series_entries = [(f"{label}#{i}" if counts[label] > 1 else label, *rest)
                      for i, entries in enumerate(per_run, start=1) for label, *rest in entries]

    files: dict = {}
    warnings: list = []
    summary: list = []
    if series_entries:
        base_times = series_entries[0][2]
        for label, _, times, _ in series_entries[1:]:
            if len(times) != len(base_times) or not np.allclose(times, base_times):
                warnings.append(f"grid of {label} resampled onto {series_entries[0][0]}")
        columns = []
        for label, site, times, vals in series_entries:
            try:
                series = SPTimeSeries(times=times, values={site: vals})
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None
            columns.append([f"{v:.12g}" for v in np.interp(base_times, times, vals).tolist()])
            summary.append({"label": label, **_peak_summary(series)})
        peaks = [s["sp_star"] for s in summary if s["sp_star"] is not None]
        baseline = min(peaks) if peaks else None
        for s in summary:
            if s["sp_star"] is None or baseline is None or baseline == 0:
                s["improvement"] = None
                s["improvement_pct"] = None
            else:
                s["improvement"] = s["sp_star"] - baseline
                s["improvement_pct"] = 100.0 * (s["sp_star"] - baseline) / baseline
        lines = ["t," + ",".join(s["label"] for s in summary)]
        lines += [f"{t:.12g}," + ",".join(row) for t, *row in zip(base_times.tolist(), *columns)]
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
        path, m = grid_only[0]
        files["report.csv"] = _output_path(path, m["outputs"]["grid_csv"]).read_text()

    payload = {
        "summary": summary,
        "warnings": warnings,
        "runs": [m["run_id"] for m in manifests],
    }
    if grid_only:
        payload["grid_runs"] = [
            {"run_id": m["run_id"], "results": m.get("results", {})} for _, m in grid_only
        ]
    files["report.json"] = json_text(payload)
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
