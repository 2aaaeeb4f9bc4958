"""Rescaling mitigation: scale factor, decay inversion, and fitting."""

import math

import numpy as np
import pytest

from pstlab.chains import pst_couplings
from pstlab import mitigation
from pstlab.experiments import ExperimentConfig, SPTimeSeries, run_sp_series
from pstlab.mitigation import (
    RescaleParams,
    _fit_objective,
    apply_rescaling,
    fit_rescaling,
)
from pstlab.noise import NoiseParams

from oracle import exact_sp_oracle, forward_decay

@pytest.fixture(scope="module")
def ideal_series():
    return run_sp_series(ExperimentConfig(n_sites=4))


class TestScaleFactor:
    def test_scaled_couplings_give_scale_factor(self):
        """Oracle peak time scales as 1/c, so the fitted s between the two series is c."""
        times = np.linspace(0, 2 * math.pi, 801)
        base = SPTimeSeries(times=times, values={4: exact_sp_oracle(pst_couplings(4, 1.0), times)})
        fast = SPTimeSeries(times=times, values={4: exact_sp_oracle(pst_couplings(4, 2.0), times)})
        assert fit_rescaling(fast, base).s == pytest.approx(2.0, abs=0.02)

    def test_identical_series_give_unit_scale(self, ideal_series):
        """Same first peak in both series: s is exactly 1 and no decay is fitted."""
        params = fit_rescaling(ideal_series, ideal_series)
        assert params.s == 1.0
        assert params.alpha == pytest.approx(0.0, abs=1e-9)
        assert params.beta == pytest.approx(0.0, abs=1e-9)


class TestRescaleParams:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RescaleParams(alpha=1.0, beta=0.1, s=1.0)
        with pytest.raises(ValueError):
            RescaleParams(alpha=0.2, beta=-0.1, s=1.0)
        with pytest.raises(ValueError):
            RescaleParams(alpha=0.2, beta=0.1, s=0.0)


class TestApplyRescaling:
    def test_exact_inversion(self, ideal_series):
        """forward-model then correct reproduces the ideal series to 1e-9."""
        alpha, beta = 0.463, 0.054
        noisy = SPTimeSeries(times=ideal_series.times,
                             values={4: forward_decay(ideal_series.series(), alpha, beta)})
        corrected = apply_rescaling(noisy, RescaleParams(alpha=alpha, beta=beta, s=1.0))
        np.testing.assert_allclose(corrected.series(), ideal_series.series(), atol=1e-9)
        np.testing.assert_allclose(corrected.times, ideal_series.times, atol=0)

    def test_first_sample_unchanged(self, ideal_series):
        """k = 0: envelope is 1, offset term vanishes, corrected == raw."""
        noisy = SPTimeSeries(times=ideal_series.times,
                             values={4: forward_decay(ideal_series.series(), 0.4, 0.08)})
        corrected = apply_rescaling(noisy, RescaleParams(alpha=0.4, beta=0.08, s=1.0))
        assert corrected.series()[0] == pytest.approx(noisy.series()[0], abs=1e-15)

    def test_time_axis_scaled(self, ideal_series):
        corrected = apply_rescaling(ideal_series, RescaleParams(alpha=0.0, beta=0.0, s=2.0))
        np.testing.assert_allclose(corrected.times, 2.0 * ideal_series.times, atol=0)

    def test_outputs_clamped(self, ideal_series):
        """Aggressive parameters cannot push corrected values outside [0, 1]."""
        corrected = apply_rescaling(ideal_series, RescaleParams(alpha=0.8, beta=0.15, s=1.0))
        v = corrected.series()
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_underflow_samples_flagged(self, ideal_series):
        """Beyond e^{-beta k} < 1e-6 the sample is flagged, not inverted."""
        params = RescaleParams(alpha=0.3, beta=0.25, s=1.0)  # e^{-0.25k} < 1e-6 for k >= 56
        corrected = apply_rescaling(ideal_series, params)
        reliable = np.array(corrected.meta["reliable"])
        assert not reliable[-1] and reliable[0]
        k_cut = int(np.ceil(-math.log(1e-6) / 0.25))
        assert reliable[: k_cut].all() and not reliable[k_cut:].any()
        # flagged entries pass the raw values through
        np.testing.assert_allclose(corrected.series()[~reliable],
                                   ideal_series.series()[~reliable], atol=1e-12)

    def test_correction_monotone_in_raw(self, ideal_series):
        """Pointwise larger raw SP never yields smaller corrected SP."""
        lo = SPTimeSeries(times=ideal_series.times,
                          values={4: 0.5 * ideal_series.series()})
        hi = SPTimeSeries(times=ideal_series.times,
                          values={4: 0.5 * ideal_series.series() + 0.2})
        params = RescaleParams(alpha=0.3, beta=0.05, s=1.0)
        a = apply_rescaling(lo, params).series()
        b = apply_rescaling(hi, params).series()
        assert np.all(b >= a - 1e-12)


class TestFitRescaling:
    def test_self_fit_is_trivial(self, ideal_series):
        params = fit_rescaling(ideal_series, ideal_series)
        assert params.s == 1.0
        assert params.alpha == pytest.approx(0.0, abs=1e-6)
        assert params.beta == pytest.approx(0.0, abs=1e-6)

    def test_synthetic_recovery(self, ideal_series):
        """Invert a forward-generated decay: parameters recovered to 1e-3.

        The scale is pinned to 1 because the forward model shifts no time
        axis (the decay envelope alone can move the detected grid peak).
        """
        for alpha, beta in ((0.463, 0.054), (0.2, 0.03), (0.6, 0.1)):
            noisy = SPTimeSeries(times=ideal_series.times,
                                 values={4: forward_decay(ideal_series.series(), alpha, beta)})
            fit = fit_rescaling(noisy, ideal_series, s=1.0)
            assert fit.alpha == pytest.approx(alpha, abs=1e-3)
            assert fit.beta == pytest.approx(beta, abs=1e-3)

    def test_fit_requires_detectable_peak(self, ideal_series):
        flat = SPTimeSeries(times=ideal_series.times,
                            values={4: np.full(81, 0.25)})
        with pytest.raises(ValueError):
            fit_rescaling(flat, ideal_series)

    def test_screen_decides_few_rows(self, ideal_series, monkeypatch):
        """On the default noisy/ideal N = 4 pair the exact row loop runs on at
        most 2 rows of each grid (101 coarse, 13 per refinement)."""
        rows = []
        decide = mitigation._decide
        monkeypatch.setattr(mitigation, "_decide",
                            lambda *args: (rows.append(len(args[4])), decide(*args))[1])
        noisy = run_sp_series(ExperimentConfig(n_sites=4, noise=NoiseParams()))
        fit = fit_rescaling(noisy, ideal_series)
        assert (fit.alpha, fit.beta) == (0.2742, 0.02416)
        assert len(rows) == 3 and max(rows) <= 2

    def test_fit_is_deterministic(self, ideal_series):
        noisy = SPTimeSeries(times=ideal_series.times,
                             values={4: forward_decay(ideal_series.series(), 0.3, 0.05)})
        a = fit_rescaling(noisy, ideal_series)
        b = fit_rescaling(noisy, ideal_series)
        assert a == b


def double_loop_fit_objective(noisy_vals, ideal_interp, window, alphas, betas, k) -> tuple:
    """The (beta, alpha) double loop, one SSE per grid point: the oracle of
    _fit_objective, which decides only the rows its closed-form screen keeps."""
    best = (np.inf, 0.0, 0.0)
    for beta in betas:
        env = np.exp(-beta * k[window])
        raw = noisy_vals[window]
        ideal_w = ideal_interp[window]
        for alpha in alphas:
            corrected = (raw - alpha * (1.0 - env)) / env
            sse = float(np.sum((corrected - ideal_w) ** 2))
            if sse < best[0]:
                best = (sse, float(alpha), float(beta))
    return best


class TestFitObjectiveMatchesDoubleLoop:
    """Same SSE, alpha and beta, bit for bit, on fit_rescaling's grids."""

    COARSE = (np.round(np.arange(0.0, 0.8 + 1e-12, 0.01), 10),
              np.round(np.arange(0.0, 0.2 + 1e-12, 0.002), 10))
    # refinements around the lower edge, where clipping repeats grid values
    EDGE = (np.clip(0.002 + np.arange(-6, 7) * 0.002, 0.0, 0.999999),
            np.clip(0.0004 + np.arange(-6, 7) * 0.0004, 0.0, None))
    INNER = (np.clip(0.27 + np.arange(-6, 7) * 0.0002, 0.0, 0.999999),
             np.clip(0.024 + np.arange(-6, 7) * 0.00004, 0.0, None))

    @staticmethod
    def series(seed: int, quantized: bool) -> tuple:
        rng = np.random.default_rng(seed)
        k = np.arange(81)
        ideal = rng.uniform(size=81)
        noisy = forward_decay(ideal, rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.05))
        noisy = noisy + rng.normal(0.0, 0.02, size=81)
        if quantized:  # few distinct values, so equal SSEs turn up
            ideal, noisy = np.round(ideal * 4) / 4, np.round(noisy * 4) / 4
        return noisy, ideal, k <= rng.integers(1, 81), k

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_series(self, seed, quantized):
        noisy, ideal, window, k = self.series(seed, quantized)
        for alphas, betas in (self.COARSE, self.EDGE, self.INNER):
            want = double_loop_fit_objective(noisy, ideal, window, alphas, betas, k)
            assert _fit_objective(noisy, ideal, window, alphas, betas, k) == want

    def test_ties_go_to_the_first_grid_point(self):
        """An empty window scores every point 0; repeated grid values tie too."""
        noisy, ideal, _, k = self.series(0, quantized=True)
        empty = np.zeros(81, dtype=bool)
        for alphas, betas in (self.COARSE, self.EDGE):
            got = _fit_objective(noisy, ideal, empty, alphas, betas, k)
            assert got == double_loop_fit_objective(noisy, ideal, empty, alphas, betas, k)
            assert got == (0.0, alphas[0], betas[0])
        single = k == 0  # e^0 = 1: every beta scores alike
        alphas, betas = self.EDGE
        assert (_fit_objective(noisy, ideal, single, alphas, betas, k)
                == double_loop_fit_objective(noisy, ideal, single, alphas, betas, k))

    @staticmethod
    def assert_matches_under_errstate(noisy, ideal, window, k, grids) -> list:
        """pytest turns numpy's floating-point warnings into errors; the
        double loop warns where these inputs make inf or NaN."""
        got = []
        with np.errstate(all="ignore"):
            for alphas, betas in grids:
                got.append(_fit_objective(noisy, ideal, window, alphas, betas, k))
                assert got[-1] == double_loop_fit_objective(noisy, ideal, window, alphas, betas, k)
        return got

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_nan_sample(self, seed, quantized):
        noisy, ideal, window, k = self.series(seed, quantized)
        noisy = noisy.copy()
        noisy[int(np.flatnonzero(window)[-1]) // 2] = np.nan
        got = self.assert_matches_under_errstate(noisy, ideal, window, k,
                                                 (self.COARSE, self.EDGE, self.INNER))
        assert got == [(np.inf, 0.0, 0.0)] * 3  # every row holds the NaN

    def test_window_where_the_envelope_underflows(self):
        """e^{-beta k} is 0 from about k = 3725 on at beta = 0.2, so the high-beta
        rows hold inf and NaN SSEs, which the screen cannot bound."""
        rng = np.random.default_rng(7)
        k = np.arange(4000)
        ideal = rng.uniform(size=k.size)
        noisy = forward_decay(ideal, 0.3, 0.0005) + rng.normal(0.0, 0.02, size=k.size)
        alphas, betas = self.COARSE
        assert np.exp(-betas[-1] * k[-1]) == 0.0
        got = self.assert_matches_under_errstate(noisy, ideal, k < k.size, k, (self.COARSE,))
        assert np.isfinite(got[0][0])

    def test_row_the_screen_cannot_bound_still_wins(self):
        """At beta = 0.5, v_k = (1 - e_k) / e_k passes 1e154 and its square
        overflows, so the screen's SSE of that row is inf or NaN; the exact SSE
        of its alpha = 0 point is 0, which ties the beta = 0 row's and wins as
        the first grid point."""
        k = np.arange(1000)
        zeros = np.zeros(k.size)
        alphas = self.COARSE[0]
        got = self.assert_matches_under_errstate(zeros, zeros, k < k.size, k,
                                                 ((alphas, np.array([0.5, 0.0])),))
        assert got == [(0.0, 0.0, 0.5)]

    def test_all_non_finite_input(self):
        noisy, ideal, window, k = self.series(0, quantized=False)
        got = self.assert_matches_under_errstate(np.full(81, np.nan), ideal, window, k,
                                                 (self.COARSE, self.EDGE))
        assert got == [(np.inf, 0.0, 0.0)] * 2
