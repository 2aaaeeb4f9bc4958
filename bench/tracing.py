"""Per-layer tracing from outside the package.

``Tracer.install`` wraps public functions of the ``pstlab`` modules at every
import site (``pstlab.experiments.apply_channel`` as well as
``pstlab.sim_core.apply_channel``), records one span per call in memory and
counts work at the same boundaries. ``Tracer.metrics`` turns the spans of one
pass into the per-layer metrics: inclusive time, calls, and self time (a
span's duration minus its direct children's). A target a later version no
longer has is reported as absent, with zero calls, instead of failing.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the method on the class.
TARGETS = (
    ("sim_core.apply_unitary", "sim_core", "apply_unitary"),
    ("sim_core.apply_channel", "sim_core", "apply_channel"),
    ("chains.build_trotter_circuit", "chains", "build_trotter_circuit"),
    ("noise.attach_comprehensive", "noise", "attach_comprehensive"),
    ("experiments.assemble_circuit", "experiments", "assemble_circuit"),
    ("experiments.evolve_recorded", "experiments", "evolve_recorded"),
    ("experiments.run_sp_series", "experiments", "run_sp_series"),
    ("experiments.run_site_resolved", "experiments", "run_site_resolved"),
    ("experiments.run_arbitrary_transfer", "experiments", "run_arbitrary_transfer"),
    ("experiments.detect_first_peak", "experiments", "detect_first_peak"),
    ("experiments.serialize", "experiments", "series_to_csv"),
    ("experiments.serialize", "experiments", "series_to_json"),
    ("experiments.serialize", "experiments", "tomography_to_csv"),
    ("experiments.serialize", "experiments", "tomography_to_json"),
    ("mitigation.fit_rescaling", "mitigation", "fit_rescaling"),
    ("mitigation.apply_rescaling", "mitigation", "apply_rescaling"),
    ("optimizer.objective", "optimizer", "objective"),
    ("optimizer.grid_search_j0", "optimizer", "grid_search_j0"),
    ("optimizer.bayes_optimize", "optimizer", "bayes_optimize"),
    ("optimizer.gp", "optimizer", "GaussianProcess.fit"),
    ("optimizer.gp", "optimizer", "GaussianProcess.predict"),
    ("cli.run_config", "cli", "run_config"),
)

# Computed bytes of one dense update: two contractions, each reading and
# writing every complex128 element of the state once (4 x 16 B per element).
UPDATE_BYTES = 4 * 16

# Per-layer metrics with their units, in report order. Times are seconds per
# pass, counts are per pass.
TIMED = ("sim_core.apply_unitary", "sim_core.apply_channel", "chains.build_trotter_circuit",
         "noise.attach_comprehensive", "experiments.assemble_circuit",
         "experiments.evolve_recorded", "experiments.run_arbitrary_transfer",
         "experiments.detect_first_peak", "experiments.serialize", "mitigation.fit_rescaling",
         "mitigation.apply_rescaling", "optimizer.objective", "optimizer.grid_search_j0",
         "optimizer.bayes_optimize", "optimizer.gp", "cli.run_config")
CALLED = ("sim_core.apply_unitary", "sim_core.apply_channel", "chains.build_trotter_circuit",
          "experiments.detect_first_peak", "optimizer.objective")
SELF = {"experiments.evolve_recorded.self_s": "experiments.evolve_recorded",
        "optimizer.bayes_optimize.self_s": "optimizer.bayes_optimize",
        "cli.self_s": "cli.run_config"}
COUNTED = ("sim_core.kraus_applications", "sim_core.bytes_computed", "chains.gate_ops",
           "noise.kraus_ops_scheduled", "optimizer.evals.grid", "optimizer.evals.start",
           "optimizer.evals.probe", "optimizer.evals.bo")
PER_LAYER = (
    [(f"{name}.calls", "count") for name in CALLED]
    + [(f"{name}.s", "s") for name in TIMED]
    + [(name, "s") for name in SELF]
    + [(name, "B" if name.endswith("bytes_computed") else "count") for name in COUNTED]
    + [("optimizer.bo_yield", "ratio"), ("cli.nonstandard_json_files", "count"),
       ("trace.overhead_frac", "ratio")]
)


def _state_size(state) -> int:
    data = getattr(state, "matrix", None)
    return (data if data is not None else state.amplitudes).size


def _count_unitary(counts, args, kwargs, result):
    counts["sim_core.bytes_computed"] += UPDATE_BYTES * _state_size(args[0])


def _count_channel(counts, args, kwargs, result):
    channel = args[1] if len(args) > 1 else kwargs["channel"]
    n_kraus = len(channel.kraus_ops)
    counts["sim_core.kraus_applications"] += n_kraus
    counts["sim_core.bytes_computed"] += UPDATE_BYTES * _state_size(args[0]) * n_kraus


def _count_gate_ops(counts, args, kwargs, result):
    counts["chains.gate_ops"] += sum(1 for _ in result.gate_ops())


def _count_scheduled(counts, args, kwargs, result):
    counts["noise.kraus_ops_scheduled"] += sum(
        len(channel.kraus_ops) for op in result.gate_ops() for channel, _ in op.channels)


def _count_grid(counts, args, kwargs, result):
    counts["optimizer.evals.grid"] += len(result)


def _count_ledger(counts, args, kwargs, result):
    _, ledger = result
    for record in ledger:
        counts[f"optimizer.evals.{record.kind}"] += 1


COUNTERS = {
    "apply_unitary": _count_unitary,
    "apply_channel": _count_channel,
    "assemble_circuit": _count_gate_ops,
    "attach_comprehensive": _count_scheduled,
    "grid_search_j0": _count_grid,
    "bayes_optimize": _count_ledger,
}


class Tracer:
    """Spans and counts of the calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.absent = set()
        self._stack = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts, absent = self.spans, self._stack, self.counts, self.absent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(counts, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, ValueError):
                    absent.add(f"count of {name}")
            return result

        return traced

    def install(self):
        """Patch every target at every import site; returns the undo callable."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pstlab" or key.startswith("pstlab."))]
        undo = []
        for name, module_name, attr in TARGETS:
            home = sys.modules.get(f"pstlab.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(original):
                self.absent.add(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, COUNTERS.get(fn_name))
            sites = [owner] if owner_name else [
                m for m in modules if vars(m).get(fn_name) is original]
            for site in sites:
                undo.append((site, fn_name, original))
                setattr(site, fn_name, wrapper)

        def restore():
            for site, fn_name, original in reversed(undo):
                setattr(site, fn_name, original)

        return restore

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since construction.

        Inclusive time counts only the outermost span of each name, so a
        function reached again below itself is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += (end - start) - child_time[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        out = {f"{name}.calls": calls[name] for name in CALLED}
        out.update({f"{name}.s": inclusive[name] for name in TIMED})
        out.update({metric: own[name] for metric, name in SELF.items()})
        out.update({name: self.counts[name] for name in COUNTED})
        picks = self.counts["optimizer.evals.bo"]
        stage = picks + self.counts["optimizer.evals.start"] + self.counts["optimizer.evals.probe"]
        out["optimizer.bo_yield"] = picks / stage if stage else 0.0
        return out
