"""Coupling-strength optimization: uniform-scale grid search, then
Gaussian-process search over the raw bond strengths.

The objective is the first-period peak SP of one run, an ExperimentConfig
`base` whose noise, plan and seed it keeps: only the couplings change, and
shots are dropped for an exact evaluation on the Pauli-transfer engine. It
is maximized over (J12, J23, J34) for N = 4 (generalizes to N-1 bonds).
Candidates are chains.CouplingProfile: the grid's are engineered profiles,
tagged with their scale j0, and the GP stage's are bare bond tuples, which
must keep the middle bond dominant: J23 > J12 and J23 > J34. The candidates
of one stage, the grid's scales (with any extra candidate, such as a
report's j0 = 1 baseline), an iteration's incumbent and bumped probes, and
the GP pick, are scored together (`objectives`): base's exact config and
their profiles evolve in lock-step as one batch (run_first_peaks), one
circuit per chunk of members, compiled once, each chunk only until every
member's first peak is settled, each member's result identical to its own
full run (`objective`).

Search ranges adapt to local sensitivity: with sensitivity estimated by a
forward difference of increment 0.01,

    delta = min(0.15, max(0.05, 0.1 / (sensitivity + 1e-6))),

and the per-dimension sampling density of each candidate batch is weighted
proportionally to the normalized sensitivities, so flat directions are
explored wide and steep directions densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chains import CouplingProfile, pst_couplings
from .experiments import (
    ExperimentConfig,
    NoPeakError,
    detect_first_peak,
    run_first_peaks,
    run_sp_series,
)

_FD_INCREMENT = 0.01
_DELTA_LO = 0.05
_DELTA_HI = 0.15
_SENS_EPS = 1e-6
_LENGTH_SCALE = 0.1
_OBSERVATION_NOISE = 1e-4
_EI_JITTER = 0.01
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NO_PEAK = (0.0, float("nan"))  # the score of a series with no qualifying peak


def satisfies_constraint(profile: CouplingProfile) -> bool:
    """Every interior bond strictly dominates both edge bonds.

    For the N = 4 layout this is J23 > J12 and J23 > J34; chains with no
    interior bond satisfy it trivially (_middle_dominant on the one row).
    """
    return bool(_middle_dominant(np.array([profile.couplings]))[0])


def _middle_dominant(cps: np.ndarray) -> np.ndarray:
    """The middle-bond rule on each row of a (k, N - 1) couplings array: every
    interior bond (if any) strictly above both edge bonds, a tie failing."""
    mid = cps[:, 1:-1]
    return ((mid > cps[:, :1]) & (mid > cps[:, -1:])).all(axis=1)


@dataclass(frozen=True)
class EvalRecord:
    candidate: CouplingProfile
    objective: float
    t_star: float
    seed: int
    kind: str  # "start" | "probe" | "bo" | "grid" | "extra"


def objective(candidate: CouplingProfile, base: ExperimentConfig):
    """First-period peak SP of `base` run with the candidate's couplings;
    (peak, t_star).

    The run keeps base's noise, plan and seed. Deterministic: an exact run
    on the Pauli-transfer engine, no sampling, whatever base.shots is. A
    series with no qualifying peak (no transfer inside the window) scores 0.
    """
    try:
        t_star, peak = detect_first_peak(run_sp_series(_scored_run(candidate, base)))
    except NoPeakError:
        return _NO_PEAK
    return peak, t_star


def objectives(candidates, base: ExperimentConfig) -> list:
    """objective of each candidate in the list, the runs evolved together as
    one batch of base's exact run and the candidates' profiles, each chunk
    stopped once every member's first peak is settled (run_first_peaks);
    each result equals the candidate's own objective."""
    return [_NO_PEAK if found is None else found[::-1]
            for found in run_first_peaks(replace(base, shots=None), candidates)]


def _scored_run(candidate: CouplingProfile, base: ExperimentConfig) -> ExperimentConfig:
    return replace(base, couplings=candidate.couplings, shots=None)


def _score(ledger: list, base: ExperimentConfig, candidates, kind: str) -> list:
    """The objective value of each candidate. Those whose couplings the
    ledger lacks run as one batch and are appended to it in order, once
    each, as `kind`; the others read their recorded value."""
    seen = {r.candidate.couplings: r.objective for r in ledger}
    new = {}
    for cand in candidates:
        if cand.couplings not in seen:
            new.setdefault(cand.couplings, cand)
    if new:
        for cand, (peak, t_star) in zip(new.values(), objectives(list(new.values()), base)):
            ledger.append(EvalRecord(cand, peak, t_star, seed=base.seed, kind=kind))
            seen[cand.couplings] = peak
    return [seen[cand.couplings] for cand in candidates]


def grid_search_j0(base: ExperimentConfig, lo: float = 0.1, hi: float = 4.0,
                   step: float = 0.1, extra=()) -> list:
    """Evaluate the engineered profile at every uniform scale on the grid.

    Returns EvalRecords sorted by objective, best first (ties keep grid
    order). Grid points are lo, lo+step, ..., hi inclusive; lo == hi gives
    the single-point grid. The candidates in `extra` join the grid's batch;
    their records (kind "extra") follow the grid's, in the order given, and
    one on the grid reuses its grid run.
    """
    if lo > hi:
        raise ValueError(f"need lo <= hi, got {lo}, {hi}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    count = math.floor((hi - lo) / step + 1e-9) + 1  # the tolerance keeps hi itself
    cands = [pst_couplings(base.n_sites, round(lo + i * step, 10)) for i in range(count)]
    on_grid = {cand.couplings for cand in cands}
    runs = cands + [cand for cand in extra if cand.couplings not in on_grid]
    known = dict(zip((cand.couplings for cand in runs), objectives(runs, base)))

    def records(cands, kind):
        return [EvalRecord(cand, *known[cand.couplings], seed=base.seed, kind=kind)
                for cand in cands]

    return sorted(records(cands, "grid"), key=lambda r: -r.objective) + records(extra, "extra")


def sensitivity_and_delta(value: float, bumped_value: float) -> tuple:
    """Forward-difference sensitivity of one bond and its search half-width,
    from the objective at the candidate and with that bond raised by 0.01.

    sensitivity = |f(c + 0.01 e_dim) - f(c)| / 0.01;
    delta = min(0.15, max(0.05, 0.1 / (sensitivity + 1e-6))).
    """
    sensitivity = abs(bumped_value - value) / _FD_INCREMENT
    delta = min(_DELTA_HI, max(_DELTA_LO, 0.1 / (sensitivity + _SENS_EPS)))
    return sensitivity, delta


def _bumped(candidate: CouplingProfile, dimension: int) -> CouplingProfile:
    """The candidate with one bond raised by the forward-difference increment."""
    bumped = list(candidate.couplings)
    bumped[dimension] += _FD_INCREMENT
    return CouplingProfile(candidate.n_sites, tuple(bumped))


class GaussianProcess:
    """Squared-exponential GP with fixed hyperparameters.

    k(x, x') = exp(-|x - x'|^2 / (2 l^2)) with length scale l = 0.1 in every
    dimension; the observation-noise standard deviation 1e-4 is added to the
    kernel diagonal as variance. Deterministic exact inference via Cholesky.
    """

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return np.exp(-d2 / (2.0 * _LENGTH_SCALE**2))

    def fit(self, x, y) -> "GaussianProcess":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # deterministic objective: collapse duplicate inputs to keep K well posed
        _, keep = np.unique(np.round(x, 12), axis=0, return_index=True)
        keep.sort()
        x, y = x[keep], y[keep]
        self._x = x
        self._y_mean = float(np.mean(y))
        k = self._kernel(x, x)
        k[np.diag_indices_from(k)] += _OBSERVATION_NOISE**2
        self._chol = np.linalg.cholesky(k)
        self._alpha = self._solve(y - self._y_mean)
        return self

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """K^-1 b from the Cholesky factor K = L L^T: two solves."""
        return np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, b))

    def predict(self, xs) -> tuple:
        xs = np.asarray(xs, dtype=float)
        ks = self._kernel(xs, self._x)
        mean = self._y_mean + ks @ self._alpha
        v = self._solve(ks.T)
        var = 1.0 - np.sum(ks * v.T, axis=1)
        return mean, np.sqrt(np.clip(var, 1e-18, None))


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
    """E[max(f - best - 0.01, 0)] for f ~ N(mean, std^2), elementwise."""
    gain = mean - best - _EI_JITTER
    z = gain / std
    cdf = 0.5 * np.array([math.erfc(-v / _SQRT2) for v in z.tolist()])
    pdf = np.exp(-z**2 / 2.0) / _SQRT_2PI
    return gain * cdf + std * pdf


def bayes_optimize(base: ExperimentConfig, starts, iterations_per_start: int = 5,
                   batch_size: int = 64):
    """GP-guided refinement of the coupling profile from each start.

    Per start, `iterations_per_start` iterations of: estimate per-bond
    sensitivity and delta at the incumbent, its bumped probes evaluated as
    one batch; sample `batch_size` candidates in the box incumbent +/- delta
    with per-dimension density proportional to normalized sensitivity; drop
    candidates violating the middle-bond constraint (widening the box once if
    that empties the batch); pick the expected-improvement argmax under a GP
    fitted to every evaluation so far; evaluate and record.

    A start is a CouplingProfile, or an EvalRecord of the same base (a grid
    result), whose value is reused, not re-run. Each start is recorded once,
    in the order given.

    Returns (best EvalRecord, full ledger). Deterministic under base.seed.
    """
    if not starts:
        raise ValueError("at least one starting candidate is required")
    rng = np.random.default_rng(base.seed)
    ledger: list = []
    for start in starts:
        if not isinstance(start, EvalRecord):
            _score(ledger, base, [start], "start")
        elif all(r.candidate.couplings != start.candidate.couplings for r in ledger):
            ledger.append(replace(start, kind="start"))

    for start in starts:
        incumbent = start.candidate if isinstance(start, EvalRecord) else start
        (incumbent_val,) = _score(ledger, base, [incumbent], "start")
        for _ in range(iterations_per_start):
            bumped = [_bumped(incumbent, dim) for dim in range(len(incumbent.couplings))]
            value, *bumped_values = _score(ledger, base, [incumbent, *bumped], "probe")
            sens, deltas = np.array([sensitivity_and_delta(value, b) for b in bumped_values]).T
            weights = sens / sens.max() if sens.max() > 0 else np.ones_like(sens)

            batch = _sample_batch(incumbent, deltas, weights, batch_size, rng)
            if not len(batch):
                batch = _sample_batch(incumbent, 2.0 * deltas, weights, batch_size, rng)
            if not len(batch):
                raise RuntimeError("all sampled candidates violate the coupling constraint")

            seen = [(list(r.candidate.couplings), r.objective) for r in ledger]
            gp = GaussianProcess().fit([p for p, _ in seen], [v for _, v in seen])
            mean, std = gp.predict(batch)
            best_val = max(v for _, v in seen)
            ei = expected_improvement(mean, std, best_val)
            chosen = CouplingProfile(incumbent.n_sites, tuple(batch[int(np.argmax(ei))].tolist()))

            (val,) = _score(ledger, base, [chosen], "bo")
            if val > incumbent_val:
                incumbent, incumbent_val = chosen, val

    best = max(ledger, key=lambda r: r.objective)
    return best, ledger


def _sample_batch(incumbent: CouplingProfile, deltas: np.ndarray, weights: np.ndarray,
                  batch_size: int, rng) -> np.ndarray:
    """Box-constrained batch around the incumbent, constraint-filtered: the
    (k, N - 1) array of the kept candidates' couplings, in draw order.

    Each candidate perturbs dimension d with probability weights[d]
    (normalized so the most sensitive dimension always moves); offsets are
    uniform in +/- deltas[d]. Non-positive couplings are rejected along
    with middle-bond-constraint violations (_middle_dominant).
    """
    base = np.array(incumbent.couplings)
    ndim = len(base)
    # per candidate, ndim draws pick the active dimensions and ndim more
    # give the offsets, in the order and by the formula of rng.random(ndim)
    # then rng.uniform(-deltas, deltas)
    draws = rng.random((batch_size, 2 * ndim))
    active = draws[:, :ndim] < weights
    active[~active.any(axis=1), int(np.argmax(weights))] = True
    cps = base + (-deltas + (deltas - -deltas) * draws[:, ndim:]) * active
    cps = cps[(cps > 0).all(axis=1)]
    return cps[_middle_dominant(cps)]
