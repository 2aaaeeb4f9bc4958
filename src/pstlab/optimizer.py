"""Coupling-strength optimization: uniform-scale grid search, then
Gaussian-process search over the raw bond strengths.

The objective is the first-period peak SP of one run, an ExperimentConfig
`base` whose noise, plan and seed it keeps: only the couplings change, and
shots are dropped for an exact evaluation on the Pauli-transfer engine. It
is maximized over (J12, J23, J34) for N = 4 (generalizes to N-1 bonds).
Candidates explored by the GP stage must keep the middle bond dominant:
J23 > J12 and J23 > J34. The candidates of one stage, the grid's scales
(with any extra candidate, such as a report's j0 = 1 baseline) and an
iteration's bumped probes, are evaluated together (`objectives`): their runs
share one circuit, compiled once per chunk of members, and evolve in
lock-step as one batch, each member's result identical to its own run.

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

from .chains import pst_couplings
from .experiments import (
    ExperimentConfig,
    NoPeakError,
    SPTimeSeries,
    detect_first_peak,
    run_sp_batch,
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


@dataclass(frozen=True)
class Candidate:
    """A coupling assignment, optionally tagged with the uniform scale it came from."""

    couplings: tuple
    j0: float | None = None

    def __post_init__(self):
        cps = tuple(float(j) for j in self.couplings)
        if any(j <= 0 for j in cps):
            raise ValueError(f"couplings must be positive, got {cps}")
        object.__setattr__(self, "couplings", cps)

    def satisfies_constraint(self) -> bool:
        """Every interior bond strictly dominates both edge bonds.

        For the N = 4 layout this is J23 > J12 and J23 > J34; chains with
        no interior bond satisfy it trivially.
        """
        first, last = self.couplings[0], self.couplings[-1]
        interior = self.couplings[1:-1]
        return all(mid > first and mid > last for mid in interior)


@dataclass(frozen=True)
class EvalRecord:
    candidate: Candidate
    objective: float
    t_star: float
    seed: int
    kind: str = "eval"  # "start" | "probe" | "bo" | "grid" | "extra"


def objective(candidate: Candidate, base: ExperimentConfig):
    """First-period peak SP of `base` run with the candidate's couplings;
    (peak, t_star).

    The run keeps base's noise, plan and seed. Deterministic: an exact run
    on the Pauli-transfer engine, no sampling, whatever base.shots is. A
    series with no qualifying peak (no transfer inside the window) scores 0.
    """
    return _first_peak(run_sp_series(_scored_run(candidate, base)))


def objectives(candidates, base: ExperimentConfig) -> list:
    """objective of each candidate, the runs evolved together as one batch
    (run_sp_batch); each result equals the candidate's own objective."""
    return [_first_peak(series)
            for series in run_sp_batch([_scored_run(c, base) for c in candidates])]


def _scored_run(candidate: Candidate, base: ExperimentConfig) -> ExperimentConfig:
    return replace(base, couplings=candidate.couplings, shots=None)


def _first_peak(series: SPTimeSeries) -> tuple:
    try:
        t_star, peak = detect_first_peak(series)
    except NoPeakError:
        return 0.0, float("nan")
    return peak, t_star


class _ObjectiveCache:
    """Memoizes objective evaluations and appends every new one to a ledger."""

    def __init__(self, ledger: list, base: ExperimentConfig):
        self.ledger = ledger
        self.base = base
        self._seen = {}

    def __call__(self, candidate: Candidate, kind: str, known=None) -> float:
        """The candidate's objective; `known` = (peak, t_star) skips the run."""
        key = candidate.couplings
        if key in self._seen:
            return self._seen[key]
        if known is None:
            known = objective(candidate, self.base)
        peak, t_star = known
        self._seen[key] = peak
        self.ledger.append(EvalRecord(candidate=candidate, objective=peak, t_star=t_star,
                                      seed=self.base.seed, kind=kind))
        return peak

    def fill(self, candidates, kind: str) -> None:
        """Evaluate the candidates not yet seen in one batch and record them
        in order, as calling this cache on each in turn would."""
        new = {}
        for cand in candidates:
            if cand.couplings not in self._seen:
                new.setdefault(cand.couplings, cand)
        for cand, known in zip(new.values(), objectives(list(new.values()), self.base)):
            self(cand, kind, known)


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
    cands = [Candidate(couplings=pst_couplings(base.n_sites, j0).couplings, j0=j0)
             for j0 in (round(lo + i * step, 10) for i in range(count))]
    on_grid = {cand.couplings for cand in cands}
    runs = cands + [cand for cand in extra if cand.couplings not in on_grid]
    known = dict(zip((cand.couplings for cand in runs), objectives(runs, base)))

    def records(cands, kind):
        return [EvalRecord(cand, *known[cand.couplings], seed=base.seed, kind=kind)
                for cand in cands]

    return sorted(records(cands, "grid"), key=lambda r: -r.objective) + records(extra, "extra")


def sensitivity_and_delta(candidate: Candidate, dimension: int, evaluate) -> tuple:
    """Forward-difference sensitivity of one bond and its search half-width.

    sensitivity = |f(c + 0.01 e_dim) - f(c)| / 0.01;
    delta = min(0.15, max(0.05, 0.1 / (sensitivity + 1e-6))), where
    f = evaluate(candidate, "probe").
    """
    base = evaluate(candidate, "probe")
    shifted = evaluate(_bumped(candidate, dimension), "probe")
    sensitivity = abs(shifted - base) / _FD_INCREMENT
    delta = min(_DELTA_HI, max(_DELTA_LO, 0.1 / (sensitivity + _SENS_EPS)))
    return sensitivity, delta


def _bumped(candidate: Candidate, dimension: int) -> Candidate:
    """The candidate with one bond raised by the forward-difference increment."""
    bumped = list(candidate.couplings)
    bumped[dimension] += _FD_INCREMENT
    return Candidate(couplings=tuple(bumped))


class GaussianProcess:
    """Squared-exponential GP with fixed hyperparameters.

    k(x, x') = exp(-|x - x'|^2 / (2 l^2)) with per-dimension length scale l;
    the observation-noise standard deviation is added to the kernel
    diagonal as variance. Deterministic exact inference via Cholesky.
    """

    def __init__(self, length_scale: float = _LENGTH_SCALE,
                 observation_noise: float = _OBSERVATION_NOISE):
        self.length_scale = length_scale
        self.observation_noise = observation_noise
        self._x = None
        self._y_mean = 0.0
        self._chol = None
        self._alpha = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return np.exp(-d2 / (2.0 * self.length_scale**2))

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
        k[np.diag_indices_from(k)] += self.observation_noise**2
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


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                         jitter: float = _EI_JITTER) -> np.ndarray:
    """E[max(f - best - jitter, 0)] for f ~ N(mean, std^2), elementwise."""
    gain = mean - best - jitter
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

    A start is a Candidate, or an EvalRecord of the same base (a grid
    result), whose value is reused, not re-run.

    Returns (best EvalRecord, full ledger). Deterministic under base.seed.
    """
    if not starts:
        raise ValueError("at least one starting candidate is required")
    rng = np.random.default_rng(base.seed)
    ledger: list = []
    evaluate = _ObjectiveCache(ledger, base)

    candidates = []
    for start in starts:
        known = None
        if isinstance(start, EvalRecord):
            start, known = start.candidate, (start.objective, start.t_star)
        evaluate(start, "start", known)
        candidates.append(start)

    for start in candidates:
        incumbent = start
        incumbent_val = evaluate(start, "start")
        for _ in range(iterations_per_start):
            dims = range(len(incumbent.couplings))
            evaluate.fill([incumbent, *(_bumped(incumbent, dim) for dim in dims)], "probe")
            sens, deltas = [], []
            for dim in dims:
                s_d, d_d = sensitivity_and_delta(incumbent, dim, evaluate)
                sens.append(s_d)
                deltas.append(d_d)
            sens = np.asarray(sens)
            deltas = np.asarray(deltas)
            weights = sens / sens.max() if sens.max() > 0 else np.ones_like(sens)

            batch = _sample_batch(incumbent, deltas, weights, batch_size, rng)
            if not batch:
                batch = _sample_batch(incumbent, 2.0 * deltas, weights, batch_size, rng)
            if not batch:
                raise RuntimeError("all sampled candidates violate the coupling constraint")

            xs = np.array([list(c.couplings) for c in batch])
            seen = [(list(r.candidate.couplings), r.objective) for r in ledger]
            gp = GaussianProcess().fit([p for p, _ in seen], [v for _, v in seen])
            mean, std = gp.predict(xs)
            best_val = max(v for _, v in seen)
            ei = expected_improvement(mean, std, best_val)
            chosen = batch[int(np.argmax(ei))]

            val = evaluate(chosen, "bo")
            if val > incumbent_val:
                incumbent, incumbent_val = chosen, val

    best = max(ledger, key=lambda r: r.objective)
    return best, ledger


def _sample_batch(incumbent: Candidate, deltas: np.ndarray, weights: np.ndarray,
                  batch_size: int, rng) -> list:
    """Box-constrained batch around the incumbent, constraint-filtered.

    Each candidate perturbs dimension d with probability weights[d]
    (normalized so the most sensitive dimension always moves); offsets are
    uniform in +/- deltas[d]. Non-positive couplings are rejected along
    with middle-bond-constraint violations.
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
    out = []
    for row in cps[(cps > 0).all(axis=1)]:
        cand = Candidate(couplings=tuple(row.tolist()))
        if cand.satisfies_constraint():
            out.append(cand)
    return out
