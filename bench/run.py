"""pstlab benchmark: whole workloads through ``pstlab.cli.run_config``.

Run from the repository root:

    python3 bench/run.py --workload series --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``series``, ``large-chain``, ``optimize``.
Closed loop, one process, one op at a time; each op is one ``run_config``
call writing into a temporary directory inside the checkout. Passes over the
workload's ops repeat until ``--seconds`` have elapsed (at least one pass).
After every op, untimed, its outputs are checked against ``reference.json``
(see ``check.py``).

Times are calibrated seconds: host seconds scaled by the speed of a fixed
numpy kernel run right before, during and right after every timed call
(see ``CAL_REF_S``), which removes the host's speed drift. Host seconds are
printed alongside.

``--trace 0`` reports the end-to-end metrics, each a median over passes:
``setup_s`` (fresh interpreter to ``import pstlab`` and the workload's configs
resolved; median of several fresh interpreters), ``wall_s`` (time of one
pass), ``steps_per_s`` (Trotter steps simulated per second: an objective
evaluation counts its steps, a tomography step counts once) and
``peak_rss_mb`` (peak resident memory of this process). ``--trace 1``
alternates untraced and traced passes, both timed without the kernel runs
during the call (they would land in the traced spans), and reports the
per-layer metrics of ``tracing.py`` (per pass, median over traced passes) and
``trace.overhead_frac`` = (traced - untraced) / untraced wall time of the
passes of each untraced-traced pair, median over pairs.

Human-readable lines (host record, each metric's median, quartiles and pass
count, ``fail_frac``) come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 2 when the workload is unknown or the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Single-threaded BLAS: the workloads' contractions are small (at most
# 128 x 128 matrices), and one thread keeps runs steady on a shared host.
BLAS_THREADS = "1"
SETUP_REPEATS = 3

# Host-speed calibration. On a shared host the CPU speed drifts by +-15 %
# over seconds to minutes (identical runs of one op take 0.70-1.10 s, with CPU
# time tracking wall time), more than the changes the benchmark must resolve.
# Every timed call therefore runs alongside a fixed numpy kernel shaped like
# the engine's dense update: an untimed long run right before and right after
# the call, and short runs every CAL_PERIOD_S during it, from a SIGALRM
# handler whose time is subtracted from the call's. The call's time is scaled
# by the kernel's speed over the same interval:
#     seconds = host seconds * CAL_REF_S / mean(kernel host seconds per rep)
# The runs during the call are needed: with the long runs alone, the spread
# (IQR / median) of optimize wall_s over five seeds is 0.115; with them it is
# 0.02-0.05 over ten seeds, depending on how busy the host is.
# CAL_REF_S is about the kernel's median on a 2-vCPU Intel Xeon VM, so the
# reported seconds are seconds at that speed. The kernel is the benchmark's
# own code, so no change to the package can move it.
CAL_QUBITS = 5
CAL_REPS = 1000
CAL_SAMPLE_REPS = 50
CAL_PERIOD_S = 0.1
CAL_REF_S = 4e-5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pstlab.cli as cli\n"
    "for path in sys.argv[2:]: cli.resolve_config(cli.load_config(path))\n"
)


def pin_environment() -> None:
    """Fix the thread environment before numpy is imported.

    PSTLAB_THREADS would silently switch grid search to a thread pool.
    """
    os.environ.pop("PSTLAB_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def host_record() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            names = [line.split(":", 1)[1].strip() for line in handle
                     if line.startswith("model name")]
        cpu_model = names[0] if names else cpu_model
    except OSError:
        pass
    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / name).read_text().strip()
                                 for name in ("level", "type", "size"))
            caches[f"L{level}_{kind.lower()}"] = size
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS + ("PSTLAB_THREADS",)},
    }


class Clock:
    """Times calls in host seconds and in calibrated seconds."""

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        shape = (2,) * (2 * CAL_QUBITS)
        self._np = numpy
        self._state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._gate = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)
        self._during, self._sampled_s = [], 0.0
        self.kernel_s = []  # host seconds per rep of every long run

    def _kernel(self, reps: int) -> float:
        """Host seconds per rep of the calibration kernel."""
        np, state = self._np, self._state
        start = perf_counter()
        for i in range(reps):
            q = i % (CAL_QUBITS - 1)
            state = np.moveaxis(np.tensordot(self._gate, state, axes=([2, 3], [q, q + 1])),
                                (0, 1), (q, q + 1))
            state = state / np.abs(state).max()
        return (perf_counter() - start) / reps

    def _sample(self, signum, frame):
        start = perf_counter()
        self._during.append(self._kernel(CAL_SAMPLE_REPS))
        self._sampled_s += perf_counter() - start

    def time(self, call, sample: bool = True) -> tuple:
        """(calibrated s, host s, exception or None) of one call.

        ``sample=False`` skips the runs during the call: for a call that
        waits on a child process, where the kernel would compete with the
        child for the host instead of measuring the speed the call sees, and
        for traced calls, whose spans would include the kernel's time.
        """
        before = self._kernel(CAL_REPS)
        self._during, self._sampled_s = [], 0.0
        error = None
        previous = signal.signal(signal.SIGALRM, self._sample)
        if sample:
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        start = perf_counter()
        try:
            call()
        except Exception as exc:  # the caller counts it as a failed op
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        host = perf_counter() - start - self._sampled_s
        after = self._kernel(CAL_REPS)
        self.kernel_s += [before, after]
        per_rep = statistics.fmean([before, *self._during, after])
        return host * CAL_REF_S / per_rep, host, error


@dataclass
class PassResult:
    wall_s: float = 0.0
    host_s: float = 0.0
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    nonstandard_json: int = 0
    errors: list = field(default_factory=list)


def simulated_steps(config: dict, manifest: dict) -> int:
    """Trotter steps an op simulated: ``plan.steps`` per simulated series.

    rescale simulates a noisy and an ideal series; bayes_opt one series per
    objective evaluation (grid, BO ledger and baseline).
    """
    steps = int(config["plan"]["steps"])
    if config["experiment"] == "rescale":
        return 2 * steps
    if config["experiment"] == "bayes_opt":
        grid = json.loads(Path(manifest["outputs"]["grid_json"]).read_text())
        return (len(grid) + int(manifest["results"]["evaluations"]) + 1) * steps
    return steps


def run_pass(cli, check, clock: Clock, workload: str, config_paths: list, work_dir: Path,
             seed: int, reference: dict, sample: bool = True) -> PassResult:
    """One pass over the workload's ops; only the run_config calls are timed.

    ``sample`` is passed to ``Clock.time``.
    """
    result = PassResult()
    for op, config_path in zip(WORKLOADS[workload], config_paths):
        out_dir = work_dir / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        result.attempted += 1
        manifest_paths = []

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                manifest_paths.append(
                    cli.run_config(str(config_path), seed=seed, out=str(out_dir)))

        seconds, host, error = clock.time(call, sample)
        result.wall_s += seconds
        result.host_s += host
        if error is not None:
            result.failed += 1
            result.errors.append(f"{op.name}: raised " + "".join(
                traceback.format_exception(error)))
            continue
        manifest_path = manifest_paths[0]
        try:
            manifest = check.read_manifest(manifest_path)
            errors = check.check_op(op, workload, check.extract(manifest), reference, seed)
            result.nonstandard_json += check.nonstandard_json_files(manifest_path, manifest)
            result.steps += simulated_steps(op.config, manifest)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"outputs unreadable: {exc!r}"]
        if errors:
            result.failed += 1
            result.errors.append(f"{op.name}: " + "; ".join(errors[:5]))
    return result


def measure_setup(clock: Clock, config_paths: list) -> list:
    """Seconds from a fresh interpreter to pstlab imported and configs resolved."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(p) for p in config_paths]
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, _, error = clock.time(lambda: subprocess.run(
            command, check=True, timeout=120, stdout=subprocess.DEVNULL), sample=False)
        if error is not None:
            raise error
        samples.append(seconds)
    return samples


def _summary(values: list) -> tuple:
    """(median, q1, q3, n); quartiles need two samples and repeat a single one."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3, len(values)


def _report(workload: str, name: str, unit: str, values: list) -> float:
    median, q1, q3, n = _summary(values)
    print(f"{workload:12s} {name:40s} {median:14.6g} {unit:8s} "
          f"q1 {q1:.6g}  q3 {q3:.6g}  n {n}")
    return median


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_environment()
    sys.path.insert(0, str(SRC))
    import check
    import pstlab.cli as cli
    from tracing import PER_LAYER, Tracer

    reference = check.load_reference()
    TMP_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        config_paths = []
        for op in WORKLOADS[workload]:
            path = work_dir / f"{op.name}.config.json"
            path.write_text(json.dumps(op.config))
            config_paths.append(path)
        print("host " + json.dumps(host_record(), sort_keys=True))
        plain, traced, layers, absent = [], [], [], set()
        clock = Clock()
        started = perf_counter()
        while not (traced if trace else plain) or perf_counter() - started < seconds:
            plain.append(run_pass(cli, check, clock, workload, config_paths, work_dir, seed,
                                  reference, sample=not trace))
            if trace:
                tracer = Tracer()
                restore = tracer.install()
                try:
                    traced.append(run_pass(cli, check, clock, workload, config_paths,
                                           work_dir, seed, reference, sample=False))
                finally:
                    restore()
                row = tracer.metrics()
                speed = traced[-1].wall_s / traced[-1].host_s
                row.update({name: value * speed for name, value in row.items()
                            if name.endswith("_s") or name.endswith(".s")})
                row["cli.nonstandard_json_files"] = traced[-1].nonstandard_json
                row["trace.overhead_frac"] = traced[-1].wall_s / plain[-1].wall_s - 1.0
                layers.append(row)
                absent |= tracer.absent
        setup = [] if trace else measure_setup(clock, config_paths)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if absent:
        print("absent, reported as 0: " + ", ".join(sorted(absent)))
    passes = plain + traced
    for p in passes:
        for error in p.errors:
            print(f"FAILED {error}", file=sys.stderr)
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"{workload:12s} {label} passes, calibrated s: "
                  + " ".join(f"{p.wall_s:.4f}" for p in group) + "; host s: "
                  + " ".join(f"{p.host_s:.4f}" for p in group))
    print(f"{workload:12s} calibration kernel host s per rep: median "
          f"{statistics.median(clock.kernel_s):.3g} (reference {CAL_REF_S:g}), "
          f"min {min(clock.kernel_s):.3g}, max {max(clock.kernel_s):.3g}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{workload:12s} {'fail_frac':40s} {failed / attempted:14.6g} ratio    "
          f"({failed} of {attempted} ops)")

    metrics = {}
    if trace:
        for name, unit in PER_LAYER:
            value = _report(workload, name, unit, [row[name] for row in layers])
            metrics[name] = {"value": value, "unit": unit}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, unit, values in (
            ("setup_s", "s", setup),
            ("wall_s", "s", [p.wall_s for p in plain]),
            ("steps_per_s", "steps/s", [p.steps / p.wall_s for p in plain]),
            ("peak_rss_mb", "MB", [rss_mb]),
        ):
            metrics[name] = {"value": _report(workload, name, unit, values), "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pstlab" / "__init__.py").is_file():
        print(f"error: no pstlab source under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
