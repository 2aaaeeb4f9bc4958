"""The benchmark's workloads: each is a list of ops, and each op is one
``pstlab.cli.run_config`` call on a config the benchmark writes itself.

The configs are copies, not references to ``configs/``, so that editing an
example config cannot silently change what the benchmark measures.

- ``series``: the six small example configs (headline, ideal, n3, sites20,
  rescale, plus_transfer) plus headline with 1024 shots. Everyday N <= 4
  use, where per-run fixed costs (assembly, readout, tomography, the
  mitigation fit, serialization) are a visible share. Drives the engine
  pure-state, density-matrix and shot-sampled.
- ``large-chain``: a noisy N = 6, 80-step site-resolved run with coherent ZZ
  and a noisy N = 7, 10-step run with incoherent ZZ dephasing. The 4^N dense
  update dominates; the two ZZ modes give different gate/channel mixes.
- ``optimize``: one bayes_opt op at N = 4, 80 steps. Many objective
  evaluations share one circuit structure and differ only in angles, so
  caching, batching and the GP stage show here and nowhere else.

The workload seed sets the shot seed in ``series`` and the BO seed in
``optimize``. Every other op is exact and does not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True)
class Op:
    """One run_config call.

    ``band_of`` names the exact op whose reference bounds this shot-sampled
    op.
    """

    name: str
    config: dict
    band_of: str | None = None


def _sp(n, steps=80, experiment="sp_series", total_time="2pi", **extra):
    """An N-site config with the full default noise stack unless overridden."""
    cfg = {
        "experiment": experiment,
        "chain": {"n": n, "j0": 1.0},
        "plan": {"total_time": total_time, "steps": steps},
        "noise": {},
        "seed": 0,
    }
    cfg.update(extra)
    return cfg


# Optimizer op: a three-scale grid whose lowest scale (j0 = 0.4) has no peak
# inside the window, so the no-peak path and its grid.json row are exercised,
# then one GP start with one iteration. With more iterations the number
# of objective evaluations depends on the seed (a start is re-probed only when
# the previous pick improved on it: 6 or 9 evaluations over seeds 0-9 for one
# start and two iterations), and wall time would spread by seed. With one
# iteration every seed makes 3 grid + (1 start + 3 probes + 1 pick) + 1
# baseline = 9 evaluations.
BAYES_OPT = {
    "experiment": "bayes_opt",
    "chain": {"n": 4},
    "plan": {"total_time": "2pi", "steps": 80},
    "noise": {},
    "grid": {"lo": 0.4, "hi": 4.0, "step": 1.8},
    "bo": {"iterations_per_start": 1, "batch_size": 64, "top_starts": 1},
    "seed": 0,
}

WORKLOADS = {
    "series": [
        Op("headline", _sp(4)),
        Op("ideal", _sp(4, noise=None)),
        Op("n3", _sp(3)),
        Op("sites20", _sp(4, steps=20, experiment="site_resolved")),
        Op("rescale", _sp(4, experiment="rescale")),
        Op("plus_transfer",
           _sp(4, steps=40, experiment="arbitrary_transfer",
               amplitudes={"a": 0.7071067811865475, "b": 0.7071067811865475})),
        Op("headline_shots", _sp(4, shots=1024), band_of="headline"),
    ],
    "large-chain": [
        Op("n6_sites", _sp(6, experiment="site_resolved")),
        Op("n7_zz_dephasing",
           _sp(7, steps=10, total_time="0.25pi",
               noise={"zz_mode": "dephasing_channel", "p_zz": 0.01})),
    ],
    "optimize": [Op("bayes_opt", BAYES_OPT)],
}
