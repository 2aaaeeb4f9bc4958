"""Batch front door: run configured experiments, persist manifests and
CSV/JSON outputs, and join finished runs into comparison reports.

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
non-object block, a non-integer count or an out-of-range value exits 2
before anything runs. Time values accept multiples of pi in string form
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
from dataclasses import asdict, dataclass, field, replace
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
from .optimizer import (
    BOConfig,
    Candidate,
    bayes_optimize,
    grid_search_j0,
    objective,
)

EXPERIMENTS = ("sp_series", "site_resolved", "arbitrary_transfer",
               "rescale", "grid_search", "bayes_opt")

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
        _atomic_write(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
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


def _build_noise(block) -> NoiseParams | None:
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError("noise block must be an object or null")
    params = dict(block)  # the caller's block goes into the manifest and the run id
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


def _emit_series(series: SPTimeSeries, out_dir: Path, stem: str, fmt: str,
                 corrected: SPTimeSeries | None = None) -> dict:
    outputs = {}
    if fmt in ("csv", "both"):
        path = out_dir / f"{stem}.csv"
        _atomic_write(path, series_to_csv(series, corrected))
        outputs[f"{stem}_csv"] = str(path)
    if fmt in ("json", "both"):
        path = out_dir / f"{stem}.json"
        _atomic_write(path, series_to_json(series))
        outputs[f"{stem}_json"] = str(path)
    return outputs


def run_config(path, overrides=(), seed=None, out=None, fmt: str = "both") -> Path:
    """Execute one experiment config; returns the manifest path."""
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"format must be csv, json, or both, got {fmt!r}")
    raw = apply_overrides(load_config(path), overrides)
    experiment, exp_cfg, search = resolve_config(raw, seed_override=seed)
    out_dir = Path(out) if out else Path(raw.get("output_dir", "runs") or "runs")
    run_id = _run_id(experiment, exp_cfg, search)
    started = time.time()

    outputs: dict = {}
    fitted = None
    results: dict = {}

    if experiment == "sp_series":
        series = run_sp_series(exp_cfg)
        outputs.update(_emit_series(series, out_dir, "series", fmt))
        results.update(_peak_summary(series))
    elif experiment == "site_resolved":
        series = run_site_resolved(exp_cfg)
        outputs.update(_emit_series(series, out_dir, "series", fmt))
        results.update(_peak_summary(series))
    elif experiment == "arbitrary_transfer":
        record = run_arbitrary_transfer(exp_cfg)
        if fmt in ("csv", "both"):
            p = out_dir / "tomography.csv"
            _atomic_write(p, tomography_to_csv(record, exp_cfg.n_sites))
            outputs["tomography_csv"] = str(p)
        if fmt in ("json", "both"):
            p = out_dir / "tomography.json"
            _atomic_write(p, tomography_to_json(record))
            outputs["tomography_json"] = str(p)
        best = int(np.argmax(record.fidelity))
        results["peak_fidelity"] = float(record.fidelity[best])
        results["peak_fidelity_time"] = float(record.times[best])
    elif experiment == "rescale":
        if exp_cfg.noise is None:
            raise ConfigError("rescale experiment needs a noise block")
        noisy = run_sp_series(exp_cfg)
        ideal_cfg = replace(exp_cfg, noise=None, shots=None)
        ideal = run_sp_series(ideal_cfg)
        params = fit_rescaling(noisy, ideal)
        corrected = apply_rescaling(noisy, params)
        outputs.update(_emit_series(noisy, out_dir, "noisy", fmt))
        outputs.update(_emit_series(ideal, out_dir, "ideal", fmt))
        outputs.update(_emit_series(corrected, out_dir, "corrected", fmt))
        fitted = {"alpha": params.alpha, "beta": params.beta, "s": params.s}
        results["noisy"] = _peak_summary(noisy)
        results["corrected"] = _peak_summary(corrected)
    elif experiment == "grid_search":
        records = _grid_records(search["grid"], exp_cfg)
        outputs.update(_emit_grid(records, out_dir, fmt))
        results["best_j0"] = records[0].candidate.j0
        results["best_objective"] = records[0].objective
    elif experiment == "bayes_opt":
        records = _grid_records(search["grid"], exp_cfg)
        bo = search["bo"]
        bo_cfg = BOConfig(
            starts=records[:bo["top_starts"]],
            iterations_per_start=bo["iterations_per_start"],
            batch_size=bo["batch_size"],
            seed=exp_cfg.seed,
            n_sites=exp_cfg.n_sites,
            total_time=exp_cfg.total_time,
            n_steps=exp_cfg.n_steps,
            noise=exp_cfg.noise,
        )
        best, ledger = bayes_optimize(bo_cfg)
        outputs.update(_emit_grid(records, out_dir, fmt))
        ledger_path = out_dir / "ledger.jsonl"
        _atomic_write(ledger_path, _ledger_jsonl(ledger))
        outputs["ledger_jsonl"] = str(ledger_path)
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
        report_path = out_dir / "report.json"
        _atomic_write(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
        outputs["report_json"] = str(report_path)
        results.update(report)
    else:  # pragma: no cover - resolve_config already rejects unknown names
        raise ConfigError(f"unhandled experiment {experiment!r}")

    manifest = RunManifest(
        run_id=run_id,
        experiment=experiment,
        config=raw,
        artifact_version=__version__,
        outputs=outputs,
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
    return objective(Candidate(couplings=couplings, j0=1.0), n_sites=exp_cfg.n_sites,
                     total_time=exp_cfg.total_time, n_steps=exp_cfg.n_steps,
                     noise=exp_cfg.noise, seed=exp_cfg.seed)


def _peak_summary(series: SPTimeSeries) -> dict:
    try:
        t_star, sp_star = detect_first_peak(series)
        return {"t_star": t_star, "sp_star": sp_star}
    except ValueError:
        return {"t_star": None, "sp_star": None}


def _grid_records(grid: dict, exp_cfg: ExperimentConfig):
    if exp_cfg.noise is None:
        raise ConfigError("grid_search and bayes_opt need a noise block")
    return grid_search_j0(
        **grid,
        n_sites=exp_cfg.n_sites,
        total_time=exp_cfg.total_time,
        n_steps=exp_cfg.n_steps,
        noise=exp_cfg.noise,
        seed=exp_cfg.seed,
    )


def _emit_grid(records, out_dir: Path, fmt: str) -> dict:
    outputs = {}
    if fmt in ("csv", "both"):
        lines = ["rank,j0,peak_sp,t_star"]
        for rank, rec in enumerate(records, start=1):
            lines.append(
                f"{rank},{rec.candidate.j0:.12g},{rec.objective:.12g},{rec.t_star:.12g}"
            )
        path = out_dir / "grid.csv"
        _atomic_write(path, "\n".join(lines) + "\n")
        outputs["grid_csv"] = str(path)
    if fmt in ("json", "both"):
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
        path = out_dir / "grid.json"
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        outputs["grid_json"] = str(path)
    return outputs


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


def emit_report(manifest_paths, out=None, fmt: str = "both") -> dict:
    """Join runs on the time grid and summarize peaks.

    Grid-search manifests pass their ranking table through; series-producing
    manifests are joined column-wise, resampled by linear interpolation
    (with a warning entry) when their grids differ.
    """
    if not manifest_paths:
        raise ConfigError("emit_report needs at least one manifest")
    out_dir = Path(out) if out else Path(".")
    manifests = [json.loads(Path(p).read_text()) for p in manifest_paths]

    grid_only = [m for m in manifests if m.get("experiment") in ("grid_search", "bayes_opt")]
    series_entries = []
    for m in manifests:
        series_entries.extend(_load_manifest_series(m))

    outputs: dict = {}
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
            series = SPTimeSeries(times=times, values={1: vals})
            try:
                t_star, sp_star = detect_first_peak(series)
            except ValueError:
                t_star, sp_star = None, None
            summary.append({"label": label, "t_star": t_star, "sp_star": sp_star})
        peaks = [s["sp_star"] for s in summary if s["sp_star"] is not None]
        baseline = min(peaks) if peaks else None
        for s in summary:
            if s["sp_star"] is None or baseline is None or baseline == 0:
                s["improvement"] = None
                s["improvement_pct"] = None
            else:
                s["improvement"] = s["sp_star"] - baseline
                s["improvement_pct"] = 100.0 * (s["sp_star"] - baseline) / baseline
        if fmt in ("csv", "both"):
            labels = [label for label, _, _ in series_entries]
            lines = ["t," + ",".join(labels)]
            for i, t in enumerate(base_times):
                lines.append(
                    f"{t:.12g}," + ",".join(f"{columns[l][i]:.12g}" for l in labels)
                )
            lines.append("")
            lines.append("label,t_star,sp_star,improvement,improvement_pct")
            for s in summary:
                lines.append(
                    f"{s['label']},{_fmt_opt(s['t_star'])},{_fmt_opt(s['sp_star'])},"
                    f"{_fmt_opt(s['improvement'])},{_fmt_opt(s['improvement_pct'])}"
                )
            for w in warnings:
                lines.append(f"warning,{w},,,")
            path = out_dir / "report.csv"
            _atomic_write(path, "\n".join(lines) + "\n")
            outputs["report_csv"] = str(path)
    elif grid_only and fmt in ("csv", "both"):
        # passthrough: re-emit the first grid table as the report
        src = Path(grid_only[0]["outputs"]["grid_csv"]).read_text()
        path = out_dir / "report.csv"
        _atomic_write(path, src)
        outputs["report_csv"] = str(path)

    if fmt in ("json", "both"):
        payload = {
            "summary": summary,
            "warnings": warnings,
            "runs": [m["run_id"] for m in manifests],
        }
        if grid_only:
            payload["grid_runs"] = [
                {"run_id": m["run_id"], "results": m.get("results", {})} for m in grid_only
            ]
        path = out_dir / "report.json"
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        outputs["report_json"] = str(path)
    return outputs


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
    runp.add_argument("--format", default="both", choices=("csv", "json", "both"))

    repp = sub.add_parser("report", help="comparison table across finished runs")
    repp.add_argument("manifests", nargs="+", help="manifest.json paths")
    repp.add_argument("--out", default=".", help="output directory")
    repp.add_argument("--format", default="both", choices=("csv", "json", "both"))

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            run_config(args.config, overrides=args.overrides, seed=args.seed,
                       out=args.out, fmt=args.format)
        else:
            outputs = emit_report(args.manifests, out=args.out, fmt=args.format)
            for path in outputs.values():
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
