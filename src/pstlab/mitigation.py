"""Rescaling-based error mitigation.

Two corrections: the noisy time axis is stretched by s = t_ideal / t_noisy
so hitting times line up, and the per-step exponential decay is inverted,

    corrected_k = (raw_k - alpha (1 - e^{-beta k})) / e^{-beta k},

where k is the Trotter-step index of the sample, alpha the noise-induced
offset the series decays toward, and beta the decay rate per step.

fit_rescaling picks (alpha, beta) on grids by least squares. For one beta
the SSE is a quadratic in alpha, so a closed-form screen scores the whole
grid at once and, with a bound on its rounding error, keeps only the beta
rows that can hold the minimum; the exact row loop (_decide) scores those,
so the fit is the full grid search's, bit for bit (_fit_objective).
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


def _decide(noisy_vals: np.ndarray, ideal_interp: np.ndarray,
            window: np.ndarray, alphas: np.ndarray,
            betas: np.ndarray, k: np.ndarray) -> tuple:
    """Exact grid SSE of corrected-vs-ideal over the window, row by row;
    returns the best (sse, alpha, beta).

    Each beta scores every alpha in one broadcast row. The first minimum in
    the row, then a strictly smaller one in a later row, wins, so ties go to
    the first (beta, alpha) in grid order. A row whose SSEs hold a NaN is
    skipped (argmin stops at the NaN), and with no finite row the result is
    (inf, 0.0, 0.0).
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


def _row_sums(x: np.ndarray, y: np.ndarray) -> tuple:
    """Row sums of x * x, x * y and y * y of two (B, W) arrays."""
    return tuple(np.einsum("bw,bw->b", p, q) for p, q in ((x, x), (x, y), (y, y)))


def _row_quadratic(s_xx: np.ndarray, s_xy: np.ndarray, s_yy: np.ndarray,
                   alphas: np.ndarray) -> np.ndarray:
    """(B, A) array of sum_k (x_k + alpha y_k)^2 = s_xx + alpha (2 s_xy + alpha s_yy)."""
    out = np.multiply.outer(s_yy, alphas)
    out += 2.0 * s_xy[:, None]
    out *= alphas
    out += s_xx[:, None]
    return out


def _fit_objective(noisy_vals: np.ndarray, ideal_interp: np.ndarray,
                   window: np.ndarray, alphas: np.ndarray,
                   betas: np.ndarray, k: np.ndarray) -> tuple:
    """_decide's result, bit for bit, from _decide on the rows that can win.

    Screen. For one beta, with e_k = e^{-beta k}, u_k = raw_k / e_k,
    v_k = (1 - e_k) / e_k and d_k = u_k - ideal_k, the corrected residual is
    d_k - alpha v_k, so

        SSE(alpha, beta) = S_dd - 2 alpha S_dv + alpha^2 S_vv,

    with S_xy = sum_k x_k y_k over the W window samples. One (B, W) pass
    gives the three sums of every beta, and one (B, A) array the screen's
    SSE Q of every grid point.

    Band. Let D be _decide's float SSE of a point and S the exact SSE on
    _decide's own e_k, and let M_k = |u_k| + |alpha| (|v_k| + 1) + |ideal_k|
    and h = eps / 2 the unit roundoff. To first order in h:
    - D: each residual takes five roundings (1 - e, alpha *, raw -, / e,
      - ideal), each of a quantity that e_k scales to at most M_k, so it is
      off by at most 5h M_k; squaring adds at most 11h M_k^2, and summing W
      terms in any order (W - 1) h sum M_k^2: |D - S| <= (W + 10) h sum M_k^2.
    - Q: u_k, v_k and d_k are off by at most 2h of |u_k| + |ideal_k| or |v_k|,
      each product by 5h of the product of those bounds, each sum by (W - 1) h
      more, and combining the sums by 4h: (W + 8) h sum M_k^2. The screen's
      e^{-beta k} comes from another exp call; if it is off by 4h relative
      from _decide's, each residual moves by 4h (|u_k| + |alpha| (|v_k| + 1))
      (the "+ 1"), which moves the SSE by at most 8h sum M_k^2.
    So |Q - D| <= (W + 13) eps sum M_k^2, and the band

        b = 16 (W + 1) (eps sum M_k^2 + tiny)

    covers it with room for the second-order terms and the rounding of
    Q +- b; tiny, the smallest normal float, covers gradual underflow, which
    costs at most 2^-1075 per operation. Where b is finite, so is every
    intermediate of D (each is about M_k or M_k^2 at most).

    Candidates. A row where any Q or b is not finite (a NaN sample,
    e^{-beta k} under about 1e-154, overflow) is a candidate. Every other row
    has finite D, so _decide never skips it, and with T the smallest Q + b
    over those rows, it is a candidate if some point has Q - b <= T. The
    winner p* of _decide on every row is in a candidate row: it lies in a
    non-finite row, or D(p*) <= D(q) for every point q of the finite rows,
    so Q(p*) - b(p*) <= D(p*) <= Q(q) + b(q) for all of them.

    Decide. _decide then runs on the candidate rows alone, in grid order.
    The rows it drops hold neither the winner nor an equal minimum before
    it, so it returns the result of all rows, with the same tie rule and the
    same NaN and inf behaviour; the screen itself only chooses rows.
    """
    raw = noisy_vals[window]
    ideal_w = ideal_interp[window]
    scale = 16.0 * (raw.size + 1)
    with np.errstate(all="ignore"):  # rows the screen cannot bound are candidates
        env = np.exp(-betas[:, None] * k[window])
        u = raw / env
        v = 1.0 - env
        v /= env
        residual_sums = _row_sums(np.subtract(u, ideal_w, out=env), v)  # env is spent
        u = np.abs(u, out=u)
        u += np.abs(ideal_w)
        v = np.abs(v, out=v)
        v += 1.0
        band_sums = _row_sums(u, v)
        del env, u, v  # free the (B, W) buffers before the two (B, A) ones

        sse = _row_quadratic(*residual_sums, -alphas)  # sum_k (d_k - alpha v_k)^2
        band = _row_quadratic(*band_sums, np.abs(alphas))  # sum_k M_k^2
        band *= scale * np.finfo(float).eps
        band += scale * np.finfo(float).tiny

        finite = np.isfinite(sse.sum(axis=1) + band.sum(axis=1))
        candidates = ~finite
        if finite.any():
            sse += band
            top = sse.min(axis=1)[finite].min()
            band *= 2.0
            sse -= band
            candidates |= sse.min(axis=1) <= top
    return _decide(noisy_vals, ideal_interp, window, alphas, betas[candidates], k)


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
