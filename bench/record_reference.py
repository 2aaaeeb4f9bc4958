"""Record ``reference.json``: the outputs the benchmark's correctness check
compares against, made by running every op of every workload once.

    python3 bench/record_reference.py

Run it only on a build whose outputs are known to be right: the check then
holds later builds to these numbers. Exact ops do not depend on the seed and
are recorded once; the optimizer's seeded outputs are recorded for a seed
used while developing the benchmark and for one held out from it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

DEV_SEED = 0
HELD_OUT_SEED = 1


def _jsonable(value):
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _run_op(cli, check, op, work_dir: Path, seed: int) -> dict:
    config_path = work_dir / f"{op.name}.config.json"
    config_path.write_text(json.dumps(op.config))
    with contextlib.redirect_stdout(io.StringIO()):
        manifest_path = cli.run_config(str(config_path), seed=seed, out=str(work_dir / op.name))
    got = check.extract(check.read_manifest(manifest_path))
    return {key: _jsonable(value) for key, value in got.items()}


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import check
    import pstlab.cli as cli

    reference = {"seeds": {"dev": DEV_SEED, "held_out": HELD_OUT_SEED},
                 "host": run.host_record(), "ops": {}, "seeded": {}}
    run.TMP_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="record-", dir=run.TMP_ROOT))
    try:
        for workload, ops in WORKLOADS.items():
            for op in ops:
                if op.band_of is not None:
                    continue
                key = f"{workload}/{op.name}"
                for seed in (DEV_SEED, HELD_OUT_SEED):
                    got = _run_op(cli, check, op, work_dir, seed)
                    exact = {k: v for k, v in got.items() if not k.startswith("seeded.")}
                    seeded = {k: v for k, v in got.items() if k.startswith("seeded.")}
                    if seed == DEV_SEED:
                        reference["ops"][key] = exact
                    elif exact != reference["ops"][key]:
                        raise RuntimeError(f"{key}: exact outputs depend on the seed")
                    if seeded:
                        reference["seeded"].setdefault(str(seed), {})[key] = seeded
                    print(f"recorded {key} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    check.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
