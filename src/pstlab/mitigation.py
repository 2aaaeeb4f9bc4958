"""Rescaling-based error mitigation.

Two corrections: the noisy time axis is stretched by s = t_ideal / t_noisy
so hitting times line up, and the per-step exponential decay is inverted,

    corrected_k = (raw_k - alpha (1 - e^{-beta k})) / e^{-beta k},

where k is the Trotter-step index of the sample, alpha the noise-induced
offset the series decays toward, and beta the decay rate per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .experiments import SPTimeSeries, detect_first_peak

_RELIABLE_FLOOR = 1e-6


@dataclass(frozen=True)
class RescaleParams:
    alpha: float
    beta: float
    s: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha = {self.alpha} outside [0, 1)")
        if self.beta < 0.0:
            raise ValueError(f"beta = {self.beta} must be >= 0")
        if self.s <= 0.0:
            raise ValueError(f"s = {self.s} must be positive")


def forward_decay(values, alpha: float, beta: float) -> np.ndarray:
    """Forward model: n_hat_k = e^{-beta k} n_k + alpha (1 - e^{-beta k})."""
    values = np.asarray(values, dtype=float)
    k = np.arange(len(values))
    env = np.exp(-beta * k)
    return env * values + alpha * (1.0 - env)


def apply_rescaling(noisy: SPTimeSeries, params: RescaleParams) -> SPTimeSeries:
    """Correct a noisy series: scaled time axis plus inverted decay.

    Sample k sits at t_scaled = s * t_k and becomes
    (raw_k - alpha (1 - e^{-beta k})) / e^{-beta k}, clamped to [0, 1].
    Samples whose envelope e^{-beta k} has fallen under 1e-6 are flagged
    unreliable in meta["reliable"] instead of being emitted as corrections.
    """
    k = np.arange(len(noisy.times))
    env = np.exp(-params.beta * k)
    reliable = env >= _RELIABLE_FLOOR
    values = {}
    for site, raw in noisy.values.items():
        corrected = np.where(
            reliable,
            (raw - params.alpha * (1.0 - env)) / np.where(reliable, env, 1.0),
            raw,
        )
        values[site] = np.clip(corrected, 0.0, 1.0)
    meta = dict(noisy.meta)
    meta.update(
        {
            "rescale_alpha": params.alpha,
            "rescale_beta": params.beta,
            "rescale_s": params.s,
            "reliable": reliable.tolist(),
        }
    )
    return SPTimeSeries(times=noisy.times * params.s, values=values, meta=meta)


def _fit_objective(noisy_vals: np.ndarray, ideal_interp: np.ndarray,
                   window: np.ndarray, alphas: np.ndarray,
                   betas: np.ndarray, k: np.ndarray) -> tuple:
    """Grid SSE of corrected-vs-ideal over the window; returns best (alpha, beta).

    Each beta scores every alpha in one broadcast row. The first minimum in
    the row, then a strictly smaller one in a later row, wins, so ties go to
    the first (beta, alpha) in grid order.
    """
    best = (np.inf, 0.0, 0.0)
    raw = noisy_vals[window]
    ideal_w = ideal_interp[window]
    for beta in betas:
        env = np.exp(-beta * k[window])
        corrected = (raw - alphas[:, None] * (1.0 - env)) / env
        sse = np.sum((corrected - ideal_w) ** 2, axis=1)
        i = int(np.argmin(sse))
        if sse[i] < best[0]:
            best = (float(sse[i]), float(alphas[i]), float(beta))
    return best


def fit_rescaling(noisy: SPTimeSeries, ideal: SPTimeSeries,
                  s: float | None = None) -> RescaleParams:
    """Fit (s, alpha, beta) from a noisy series against its ideal reference,
    both read at their end site (SPTimeSeries.series).

    s comes from the two detected first peaks; pass `s` explicitly when the
    true scale is known (synthetic data on a shared grid, where the decay
    envelope can shift the detected peak by a grid point). (alpha, beta)
    minimize the summed squared difference between the corrected noisy SP
    and the ideal SP linearly interpolated onto the scaled time axis, over
    the first two periods. Coarse grid (alpha in [0, 0.8] step 0.01, beta
    in [0, 0.2] step 0.002) followed by two local refinements; fully
    deterministic.
    """
    t_ideal, _ = detect_first_peak(ideal)
    if s is None:
        t_noisy, _ = detect_first_peak(noisy)  # only ever t > 0
        s = t_ideal / t_noisy

    noisy_vals = noisy.series()
    scaled_times = noisy.times * s
    ideal_interp = np.interp(scaled_times, ideal.times, ideal.series())
    window_end = 4.0 * t_ideal  # two periods: each period spans two hitting times
    window = scaled_times <= window_end + 1e-12
    k = np.arange(len(noisy_vals))

    alphas = np.round(np.arange(0.0, 0.8 + 1e-12, 0.01), 10)
    betas = np.round(np.arange(0.0, 0.2 + 1e-12, 0.002), 10)
    _, a_best, b_best = _fit_objective(noisy_vals, ideal_interp, window, alphas, betas, k)
    for step_a, step_b in ((0.002, 0.0004), (0.0002, 0.00004)):
        alphas = np.clip(a_best + np.arange(-6, 7) * step_a, 0.0, 0.999999)
        betas = np.clip(b_best + np.arange(-6, 7) * step_b, 0.0, None)
        _, a_best, b_best = _fit_objective(noisy_vals, ideal_interp, window, alphas, betas, k)
    return RescaleParams(alpha=a_best, beta=b_best, s=s)
