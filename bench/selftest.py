"""The benchmark's own tests.

    python3 bench/selftest.py

Not named ``test_*.py`` on purpose: the checks take about two minutes and
are not part of the package's test suite. They check that

- one short run per workload, untraced and traced, prints every metric named
  in BENCHMARK.json with its unit, and no op fails;
- a perturbed reference makes the correctness check fail an op, so
  ``fail_frac`` can rise above 0;
- a traced headline run applies exactly 15,368 Kraus operators;
- without the package source the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    script = Path(cwd) / "bench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class ShortRuns(unittest.TestCase):
    def _check(self, workload: str, trace: int, spec_key: str):
        proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if spec_key == "end_to_end":
                self.assertGreater(metric["value"], 0, name)
        return result

    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self._check(workload, 0, "end_to_end")
                self._check(workload, 1, "per_layer")


class CorrectnessCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.pin_environment()
        sys.path.insert(0, str(run.SRC))
        import check
        import pstlab.cli as cli

        cls.check, cls.cli = check, cli
        cls.reference = check.load_reference()
        run.TMP_ROOT.mkdir(exist_ok=True)
        cls.work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_ROOT))
        cls.configs = []
        for op in WORKLOADS["series"]:
            path = cls.work_dir / f"{op.name}.config.json"
            path.write_text(json.dumps(op.config))
            cls.configs.append(path)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work_dir, ignore_errors=True)

    def _series_pass(self, reference, seed=0):
        return run.run_pass(self.cli, self.check, run.Clock(), "series", self.configs,
                            self.work_dir, seed, reference)

    def test_reference_passes_and_perturbed_reference_fails(self):
        self.assertEqual(self._series_pass(self.reference).failed, 0)
        perturbed = copy.deepcopy(self.reference)
        perturbed["ops"]["series/headline"]["series.site4"][40] += 1e-6
        result = self._series_pass(perturbed)
        # headline fails on its own values; the shot op's band moves too little to fail
        self.assertGreaterEqual(result.failed, 1)
        self.assertTrue(any("series.site4[40]" in e for e in result.errors), result.errors)

    def test_shot_band_rejects_samples_from_another_series(self):
        exact = self.reference["ops"]["series/headline"]
        shifted = {key: ([min(1.0, v + 0.05) for v in values] if key.startswith("series.site")
                         else values) for key, values in exact.items()}
        self.assertTrue(self.check.compare_shots(shifted, exact, 1024))

    def test_headline_applies_15368_kraus_operators(self):
        from tracing import Tracer

        tracer = Tracer()
        restore = tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.cli.run_config(str(self.configs[0]), seed=0,
                                    out=str(self.work_dir / "traced"))
        finally:
            restore()
        metrics = tracer.metrics()
        self.assertEqual(metrics["sim_core.kraus_applications"], 15368)
        # 721 circuit gates, plus the X that prepare_initial_state applies to
        # a pure state that assemble_circuit then discards
        self.assertEqual(metrics["sim_core.apply_unitary.calls"], 722)
        self.assertEqual(metrics["experiments.detect_first_peak.calls"], 1)
        self.assertFalse(tracer.absent)


    def test_missing_function_is_reported_absent(self):
        from pstlab import experiments
        from tracing import PER_LAYER, Tracer

        original = experiments.tomography_to_csv
        del experiments.tomography_to_csv
        try:
            tracer = Tracer()
            tracer.install()()
        finally:
            experiments.tomography_to_csv = original
        self.assertEqual(tracer.absent, {"experiments.tomography_to_csv"})
        reported = set(tracer.metrics()) | {"cli.nonstandard_json_files", "trace.overhead_frac"}
        self.assertEqual(reported, {name for name, _ in PER_LAYER})


class MissingSource(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        run.TMP_ROOT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.TMP_ROOT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "series", "--seed", "0", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
