"""Correctness check of one op's outputs against recorded reference outputs.

``extract`` reads the numbers an op produced (its manifest and JSON outputs);
``reference.json`` holds the same extraction made once from a known-good
build by ``record_reference.py``. Exact-mode numbers (SP series, tomography
and fidelity, fitted alpha/beta/s, grid and baseline objectives) must match
to 1e-9 absolute. Shot-sampled SP must fall inside the exact binomial band
around the exact reference whose tails match a two-sided 5-sigma normal
band. The optimizer's seeded part (BO ledger and best candidate) is matched
exactly for the seeds the reference holds and checked for invariants on
every other seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOL = 1e-9
# One tail of a two-sided 5-sigma normal band.
BAND_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _num(value) -> float:
    return math.nan if value is None else float(value)


def _series_payload(got: dict, stem: str, path) -> None:
    payload = json.loads(Path(path).read_text())
    got[f"{stem}.times"] = [float(t) for t in payload["times"]]
    for site, values in payload["values"].items():
        got[f"{stem}.site{site}"] = [float(v) for v in values]


def _peak(got: dict, prefix: str, results: dict) -> None:
    got[f"{prefix}t_star"] = _num(results.get("t_star"))
    got[f"{prefix}sp_star"] = _num(results.get("sp_star"))


def read_manifest(manifest_path) -> dict:
    manifest = json.loads(Path(manifest_path).read_text())
    for path in manifest["outputs"].values():
        if not Path(path).is_file():
            raise FileNotFoundError(f"manifest lists a missing output {path}")
    return manifest


def extract(manifest: dict) -> dict:
    """Flat {name: number | list} of everything the check compares.

    Keys starting with ``seeded.`` depend on the workload seed.
    """
    outputs, results = manifest["outputs"], manifest["results"]
    experiment = manifest["experiment"]
    got: dict = {}
    if experiment in ("sp_series", "site_resolved"):
        _series_payload(got, "series", outputs["series_json"])
        _peak(got, "", results)
    elif experiment == "rescale":
        for stem in ("noisy", "ideal", "corrected"):
            _series_payload(got, stem, outputs[f"{stem}_json"])
        for key in ("alpha", "beta", "s"):
            got[f"fitted.{key}"] = float(manifest["fitted"][key])
        _peak(got, "noisy.", results["noisy"])
        _peak(got, "corrected.", results["corrected"])
    elif experiment == "arbitrary_transfer":
        payload = json.loads(Path(outputs["tomography_json"]).read_text())
        for key in ("times", "x", "y", "z", "sp", "fidelity", "fidelity_phase_corrected"):
            got[f"tomography.{key}"] = [float(v) for v in payload[key]]
        got["peak_fidelity"] = float(results["peak_fidelity"])
    elif experiment == "bayes_opt":
        grid = sorted(json.loads(Path(outputs["grid_json"]).read_text()),
                      key=lambda row: row["j0"])
        got["grid.j0"] = [float(row["j0"]) for row in grid]
        got["grid.couplings"] = [float(c) for row in grid for c in row["couplings"]]
        got["grid.peak_sp"] = [_num(row["peak_sp"]) for row in grid]
        got["grid.t_star"] = [_num(row["t_star"]) for row in grid]
        got["baseline_objective"] = float(results["baseline_objective"])
        got["baseline_t_star"] = _num(results["baseline_t_star"])
        ledger = [json.loads(line) for line in
                  Path(outputs["ledger_jsonl"]).read_text().splitlines() if line]
        got["seeded.ledger.kind"] = [rec["kind"] for rec in ledger]
        got["seeded.ledger.j0"] = [_num(rec["j0"]) for rec in ledger]
        got["seeded.ledger.couplings"] = [float(c) for rec in ledger for c in rec["couplings"]]
        got["seeded.ledger.objective"] = [float(rec["objective"]) for rec in ledger]
        got["seeded.ledger.t_star"] = [_num(rec["t_star"]) for rec in ledger]
        got["seeded.best_couplings"] = [float(c) for c in results["best_couplings"]]
        got["seeded.best_objective"] = float(results["best_objective"])
        got["seeded.improvement"] = float(results["improvement"])
        got["seeded.evaluations"] = int(results["evaluations"])
    else:
        raise ValueError(f"no check defined for experiment {experiment!r}")
    return got


def _flat(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def _differs(a, b, tol: float) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a != b
    a, b = _num(a), _num(b)
    if math.isnan(a) or math.isnan(b):
        return not (math.isnan(a) and math.isnan(b))
    return abs(a - b) > tol


def compare_exact(got: dict, ref: dict, keys) -> list:
    errors = []
    for key in keys:
        if key not in got:
            errors.append(f"{key}: missing")
            continue
        a, b = _flat(got[key]), _flat(ref[key])
        if len(a) != len(b):
            errors.append(f"{key}: {len(a)} values, reference has {len(b)}")
            continue
        bad = [i for i, (x, y) in enumerate(zip(a, b)) if _differs(x, y, TOL)]
        if bad:
            i = bad[0]
            errors.append(f"{key}[{i}]: {a[i]!r} vs reference {b[i]!r} "
                          f"({len(bad)} of {len(a)} differ)")
    return errors


def compare_shots(got: dict, exact: dict, shots: int) -> list:
    """Every sampled SP must lie in the binomial band of the exact SP."""
    from scipy.stats import binom

    errors = compare_exact(got, exact, ["series.times"])
    for key in (k for k in exact if k.startswith("series.site")):
        if len(got.get(key, ())) != len(exact[key]):
            errors.append(f"{key}: sample count differs from the exact reference")
            continue
        for i, (sample, p) in enumerate(zip(got[key], exact[key])):
            count = round(sample * shots)
            tail = min(binom.cdf(count, shots, p), binom.sf(count - 1, shots, p))
            if tail < BAND_TAIL:
                errors.append(f"{key}[{i}]: {count}/{shots} outside the 5-sigma "
                              f"binomial band of p = {p!r}")
    return errors


def optimizer_invariants(got: dict, bo_block: dict) -> list:
    """Checks that hold for every seed, recorded or not."""
    errors = []
    kinds = got["seeded.ledger.kind"]
    objectives = got["seeded.ledger.objective"]
    if got["seeded.evaluations"] != len(kinds):
        errors.append("report evaluations differ from the ledger length")
    if set(kinds) - {"start", "probe", "bo"}:
        errors.append(f"unexpected ledger kinds {sorted(set(kinds))}")
    if kinds.count("start") != bo_block["top_starts"]:
        errors.append(f"{kinds.count('start')} starts, config asks {bo_block['top_starts']}")
    if abs(got["seeded.best_objective"] - max(objectives)) > 1e-12:
        errors.append("best objective is not the ledger maximum")
    gain = got["seeded.best_objective"] - got["baseline_objective"]
    if abs(got["seeded.improvement"] - gain) > 1e-12:
        errors.append("improvement is not best minus baseline")
    grid_peak = dict(zip(got["grid.j0"], got["grid.peak_sp"]))
    width = len(got["seeded.best_couplings"])
    for i, (kind, j0, value) in enumerate(zip(kinds, got["seeded.ledger.j0"], objectives)):
        cps = got["seeded.ledger.couplings"][i * width:(i + 1) * width]
        if kind == "start" and _differs(value, grid_peak.get(j0, math.nan), TOL):
            errors.append(f"ledger start j0={j0}: {value!r} differs from its grid objective")
        if kind == "bo" and not all(mid > cps[0] and mid > cps[-1] for mid in cps[1:-1]):
            errors.append(f"ledger pick {i} violates the middle-bond constraint")
        if not 0.0 <= value <= 1.0:
            errors.append(f"ledger objective {i} = {value!r} outside [0, 1]")
    return errors


def check_op(op, workload: str, got: dict, reference: dict, seed: int) -> list:
    """All mismatches of one op's extracted outputs; empty when correct."""
    if op.band_of is not None:
        exact = reference["ops"][f"{workload}/{op.band_of}"]
        return compare_shots(got, exact, int(op.config["shots"]))
    ref = reference["ops"][f"{workload}/{op.name}"]
    errors = compare_exact(got, ref, ref)
    if op.config["experiment"] == "bayes_opt":
        errors += optimizer_invariants(got, op.config["bo"])
        seeded = reference["seeded"].get(str(seed), {}).get(f"{workload}/{op.name}")
        if seeded is not None:
            errors += compare_exact(got, seeded, seeded)
    return errors


def nonstandard_json_files(manifest_path, manifest: dict) -> int:
    """Outputs (and the manifest) that strict JSON rejects, e.g. for NaN."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    bad = 0
    paths = [Path(manifest_path)] + [Path(p) for p in manifest["outputs"].values()]
    for path in paths:
        if path.suffix not in (".json", ".jsonl"):
            continue
        text = path.read_text()
        docs = text.splitlines() if path.suffix == ".jsonl" else [text]
        try:
            for doc in docs:
                if doc.strip():
                    json.loads(doc, parse_constant=reject)
        except ValueError:
            bad += 1
    return bad


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
