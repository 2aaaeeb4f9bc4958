"""The benchmark's trace targets name functions the package still has, and
its configs are ones the package accepts.

bench/tracing.py reports a target it cannot find as absent, with zero calls,
so a rename in pstlab would silently zero a per-layer metric. This test reads
its TARGETS (the module uses only the stdlib) and resolves each one, and
does the same for the package functions the bench calls or patches by name
outside TARGETS. bench/workloads.py writes its own configs, so a schema
change would turn a bench run into a failed op; every op's config, with the
seeds the bench passes, is resolved here as run_config resolves it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"
# (bench file, pstlab module, attribute) for each package function a bench
# file names outside TARGETS: tracing.py counts gate ops on the circuits it
# sees, and baseline.py counts them and patches the density-matrix update.
OTHER_REFERENCES = (
    ("tracing.py", "chains", "NoisyCircuit.gate_ops"),
    ("baseline.py", "chains", "NoisyCircuit.gate_ops"),
    ("baseline.py", "sim_core", "_apply_matrix_to_density"),
)


def load_bench_module(name: str, path: Path):
    """The bench file at path, loaded read-only as a module of that name
    (registered first, as dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = load_bench_module("bench_tracing", TRACING).TARGETS
BENCH_OPS = [(workload, op) for workload, ops in
             load_bench_module("bench_workloads", WORKLOADS).WORKLOADS.items() for op in ops]


@pytest.mark.parametrize("span, module_name, attr", TARGETS,
                         ids=[f"{module_name}.{attr}" for _, module_name, attr in TARGETS])
def test_trace_target_resolves_to_a_callable(span, module_name, attr):
    assert_callable(span, module_name, attr)


@pytest.mark.parametrize("bench_file, module_name, attr", OTHER_REFERENCES,
                         ids=[f"{f}:{m}.{a}" for f, m, a in OTHER_REFERENCES])
def test_other_bench_reference_resolves_to_a_callable(bench_file, module_name, attr):
    """The bench file still names the function (else drop its entry here),
    and the package still has it."""
    assert attr.split(".")[-1] in (BENCH / bench_file).read_text()
    assert_callable(bench_file, module_name, attr)


def assert_callable(where: str, module_name: str, attr: str) -> None:
    obj = importlib.import_module(f"pstlab.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        assert obj is not None, f"{where}: pstlab.{module_name}.{attr} not found"
    assert callable(obj), f"{where}: pstlab.{module_name}.{attr} is not callable"


@pytest.mark.parametrize("workload, op", BENCH_OPS,
                         ids=[f"{workload}:{op.name}" for workload, op in BENCH_OPS])
def test_bench_config_resolves(workload, op):
    """cli.resolve_config accepts the op's config, at the seeds the bench
    runs, as the experiment it names."""
    from pstlab.cli import resolve_config

    for seed in (None, 0, 9):
        experiment, config, _ = resolve_config(op.config, seed_override=seed)
        assert experiment == op.config["experiment"], workload
        assert config.seed == (op.config.get("seed", 0) if seed is None else seed)
