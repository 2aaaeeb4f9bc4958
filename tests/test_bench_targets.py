"""The benchmark's trace targets name functions the package still has.

bench/tracing.py reports a target it cannot find as absent, with zero calls,
so a rename in pstlab would silently zero a per-layer metric. This test reads
its TARGETS (the module uses only the stdlib) and resolves each one.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("span, module_name, attr", TARGETS,
                         ids=[f"{module_name}.{attr}" for _, module_name, attr in TARGETS])
def test_trace_target_resolves_to_a_callable(span, module_name, attr):
    obj = importlib.import_module(f"pstlab.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        assert obj is not None, f"{span}: pstlab.{module_name}.{attr} not found"
    assert callable(obj), f"{span}: pstlab.{module_name}.{attr} is not callable"
