"""Grid search, sensitivity-adaptive ranges, and the GP search loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from pstlab.chains import exact_sp_oracle, pst_couplings
from pstlab.experiments import ExperimentConfig, detect_first_peak, run_sp_series
from pstlab.noise import NoiseParams
from pstlab.optimizer import (
    Candidate,
    GaussianProcess,
    bayes_optimize,
    expected_improvement,
    grid_search_j0,
    objective,
    sensitivity_and_delta,
)

# cheap but real settings for unit tests: 20 Trotter steps instead of 80
FAST = ExperimentConfig(n_steps=20, noise=NoiseParams())


class TestCandidate:
    def test_reported_optimum_accepted(self):
        assert Candidate(couplings=(2.9788, 3.0182, 2.8212)).satisfies_constraint()

    def test_weak_middle_bond_rejected(self):
        assert not Candidate(couplings=(3.0, 2.9, 3.0)).satisfies_constraint()

    def test_positive_couplings_required(self):
        with pytest.raises(ValueError):
            Candidate(couplings=(1.0, -1.0, 1.0))

    def test_engineered_profiles_satisfy_constraint(self):
        for j0 in (0.5, 1.0, 2.9):
            cand = Candidate(couplings=pst_couplings(4, j0).couplings, j0=j0)
            assert cand.satisfies_constraint()


class TestObjective:
    def test_baseline_matches_headline_run(self):
        cand = Candidate(couplings=pst_couplings(4, 1.0).couplings, j0=1.0)
        peak, t_star = objective(cand, FAST)
        assert 0.5 < peak < 1.0
        assert 0 < t_star <= math.pi

    def test_faster_chain_beats_baseline(self):
        base, _ = objective(Candidate(couplings=pst_couplings(4, 1.0).couplings), FAST)
        fast, _ = objective(Candidate(couplings=pst_couplings(4, 2.9).couplings), FAST)
        assert fast > base

    def test_degenerate_scale_scores_zero(self):
        """No transfer inside the window: peak detection fails, objective 0."""
        peak, t_star = objective(Candidate(couplings=pst_couplings(4, 0.01).couplings), FAST)
        assert peak == 0.0
        assert math.isnan(t_star)

    def test_ideal_base_scores_the_ideal_run(self):
        """noise=None is the ideal chain here as everywhere else."""
        base = ExperimentConfig(n_sites=3)
        cand = Candidate(couplings=pst_couplings(3, 1.0).couplings, j0=1.0)
        t_star, peak = detect_first_peak(run_sp_series(base))
        assert objective(cand, base) == (peak, t_star)
        assert peak > 0.99
        assert objective(cand, replace(base, noise=NoiseParams()))[0] < 0.9

    def test_exact_whatever_the_base_shots(self):
        cand = Candidate(couplings=pst_couplings(4, 2.9).couplings)
        assert objective(cand, replace(FAST, shots=64)) == objective(cand, FAST)


class TestGridSearch:
    def test_single_point_grid(self):
        records = grid_search_j0(FAST, lo=1.0, hi=1.0, step=0.1)
        assert len(records) == 1
        assert records[0].candidate.j0 == 1.0

    def test_descending_order_and_count(self):
        records = grid_search_j0(FAST, lo=2.5, hi=3.0, step=0.1)
        assert len(records) == 6
        objs = [r.objective for r in records]
        assert objs == sorted(objs, reverse=True)

    def test_deterministic(self):
        a = grid_search_j0(FAST, lo=2.8, hi=3.0, step=0.1)
        b = grid_search_j0(FAST, lo=2.8, hi=3.0, step=0.1)
        assert [(r.candidate.j0, r.objective) for r in a] == [
            (r.candidate.j0, r.objective) for r in b
        ]

    def test_records_score_their_candidates_on_the_base(self):
        base = ExperimentConfig(n_sites=3, n_steps=20, noise=NoiseParams(), seed=4)
        records = grid_search_j0(base, lo=1.0, hi=1.2, step=0.1)
        assert sorted(r.candidate.j0 for r in records) == [1.0, 1.1, 1.2]
        for rec in records:
            assert len(rec.candidate.couplings) == 2
            assert rec.seed == 4
            assert (rec.objective, rec.t_star) == objective(rec.candidate, base)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            grid_search_j0(FAST, lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            grid_search_j0(FAST, step=0.0)

    def test_oracle_ranking_degenerate_without_noise(self):
        """The exact oracle peaks at 1 for every scale (time rescaling), so a
        noiseless ranking carries no information."""
        for j0 in (0.5, 1.0, 2.0, 4.0):
            prof = pst_couplings(4, j0)
            assert exact_sp_oracle(prof, (math.pi / 2) / j0) == pytest.approx(1.0, abs=1e-9)


class TestSensitivityDelta:
    def make_eval(self, base, bumped):
        calls = iter([base, bumped])

        def evaluate(cand, kind):
            return next(calls)

        return evaluate

    def test_flat_direction_opens_range(self):
        """sensitivity 0 -> delta clamps at the 0.15 ceiling."""
        cand = Candidate(couplings=(1.0, 2.0, 1.0))
        sens, delta = sensitivity_and_delta(cand, 0, evaluate=self.make_eval(0.5, 0.5))
        assert sens == 0.0
        assert delta == 0.15

    def test_steep_direction_narrows_range(self):
        """sensitivity 10 -> delta clamps at the 0.05 floor."""
        sens, delta = sensitivity_and_delta(
            Candidate(couplings=(1.0, 2.0, 1.0)), 1, evaluate=self.make_eval(0.5, 0.6))
        assert sens == pytest.approx(10.0)
        assert delta == 0.05

    def test_unit_sensitivity_mid_range(self):
        sens, delta = sensitivity_and_delta(
            Candidate(couplings=(1.0, 2.0, 1.0)), 2, evaluate=self.make_eval(0.5, 0.51))
        assert sens == pytest.approx(1.0)
        assert delta == pytest.approx(0.1, abs=1e-5)


class TestGaussianProcess:
    def test_posterior_mean_interpolates_observations(self):
        """Mean at a training point matches its value within the noise scale."""
        rng = np.random.default_rng(0)
        x = rng.uniform(2.0, 3.0, size=(12, 3))
        y = np.sin(x).sum(axis=1) * 0.1 + 0.7
        gp = GaussianProcess(length_scale=0.1, observation_noise=1e-4).fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-4)
        assert np.all(std >= 0)

    def test_duplicates_collapsed(self):
        x = [[1.0, 2.0, 1.0], [1.0, 2.0, 1.0], [1.5, 2.5, 1.5]]
        y = [0.5, 0.5, 0.7]
        gp = GaussianProcess().fit(x, y)
        mean, _ = gp.predict([[1.0, 2.0, 1.0]])
        assert mean[0] == pytest.approx(0.5, abs=1e-4)

    def test_uncertainty_grows_away_from_data(self):
        gp = GaussianProcess().fit([[1.0, 1.0, 1.0]], [0.5])
        _, near = gp.predict([[1.0, 1.0, 1.01]])
        _, far = gp.predict([[2.0, 2.0, 2.0]])
        assert far[0] > near[0]

    def test_expected_improvement_positive_for_promising_points(self):
        ei = expected_improvement(np.array([0.9, 0.5]), np.array([0.05, 0.05]),
                                  best=0.6, jitter=0.01)
        assert ei[0] > ei[1]
        assert np.all(ei >= 0)


def ledger_like_points(seed: int) -> np.ndarray:
    """Three starts, each with a +0.01 probe per bond and a few picks within
    +/- 0.15: the tight clusters a GP stage fits."""
    rng = np.random.default_rng(seed)
    points = []
    for j0 in (2.8, 2.9, 3.0):
        start = np.array(pst_couplings(4, j0).couplings)
        points += [start, *(start + 0.01 * np.eye(3))]
        points += list(start + rng.uniform(-0.15, 0.15, size=(4, 3)))
    return np.array(points)


class TestScipyOracles:
    """The GP's Cholesky solves and expected improvement's normal cdf/pdf
    against scipy's cho_solve and scipy.stats.norm."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gp_predict_matches_cho_solve(self, seed):
        rng = np.random.default_rng(seed)
        x = ledger_like_points(seed)
        y = 0.7 + 0.1 * np.sin(3.0 * x).sum(axis=1)
        xs = x[rng.integers(len(x), size=64)] + rng.uniform(-0.15, 0.15, size=(64, 3))
        length_scale, noise = 0.1, 1e-4

        def kernel(a, b):
            d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
            return np.exp(-d2 / (2.0 * length_scale**2))

        chol = cho_factor(kernel(x, x) + noise**2 * np.eye(len(x)), lower=True)
        ks = kernel(xs, x)
        mean = y.mean() + ks @ cho_solve(chol, y - y.mean())
        var = 1.0 - np.sum(ks * cho_solve(chol, ks.T).T, axis=1)
        std = np.sqrt(np.clip(var, 1e-18, None))

        got_mean, got_std = GaussianProcess(length_scale, noise).fit(x, y).predict(xs)
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_std, std, rtol=0, atol=1e-12)

    def test_expected_improvement_matches_norm(self):
        rng = np.random.default_rng(0)
        mean = rng.uniform(0.0, 1.0, 500)
        std = 10.0 ** rng.uniform(-9, 0, 500)  # z from about -1e9 to 1e9
        gain = mean - 0.6 - 0.01
        want = gain * norm.cdf(gain / std) + std * norm.pdf(gain / std)
        np.testing.assert_allclose(expected_improvement(mean, std, 0.6, 0.01), want,
                                   rtol=0, atol=1e-12)


STARTS = [Candidate(couplings=pst_couplings(4, j0).couplings, j0=j0) for j0 in (2.9, 3.0)]


class TestBayesOptimize:
    def optimize(self, seed, starts=STARTS):
        return bayes_optimize(replace(FAST, seed=seed), starts, iterations_per_start=2,
                              batch_size=16)

    def test_deterministic_under_seed(self):
        best_a, ledger_a = self.optimize(5)
        best_b, ledger_b = self.optimize(5)
        assert best_a.candidate.couplings == best_b.candidate.couplings
        assert [(r.candidate.couplings, r.objective, r.kind) for r in ledger_a] == [
            (r.candidate.couplings, r.objective, r.kind) for r in ledger_b
        ]

    def test_seed_changes_trajectory(self):
        _, ledger_a = self.optimize(1)
        _, ledger_b = self.optimize(2)
        bo_a = [r.candidate.couplings for r in ledger_a if r.kind == "bo"]
        bo_b = [r.candidate.couplings for r in ledger_b if r.kind == "bo"]
        assert bo_a != bo_b

    def test_accepted_candidates_satisfy_constraint(self):
        _, ledger = self.optimize(3)
        assert all(r.candidate.satisfies_constraint()
                   for r in ledger if r.kind == "bo")

    def test_final_at_least_start_best(self):
        best, ledger = self.optimize(4)
        start_best = max(r.objective for r in ledger if r.kind == "start")
        assert best.objective >= start_best - 1e-6

    def test_running_max_is_ledger_argmax(self):
        best, ledger = self.optimize(7)
        running = -np.inf
        for rec in ledger:
            running = max(running, rec.objective)
        assert best.objective == running

    def test_gp_mean_matches_recorded_objectives(self):
        """Refit on the finished ledger: posterior mean ~ recorded values."""
        _, ledger = self.optimize(8)
        x = [list(r.candidate.couplings) for r in ledger]
        y = [r.objective for r in ledger]
        gp = GaussianProcess(length_scale=0.1, observation_noise=1e-4).fit(x, y)
        mean, _ = gp.predict(x)
        kept, idx = np.unique(np.round(np.asarray(x), 12), axis=0, return_index=True)
        np.testing.assert_allclose(mean[idx], np.asarray(y)[idx], atol=1e-4)

    def test_grid_record_start_reuses_its_value(self):
        """A start given as its grid record yields the ledger of a start given
        as a bare candidate, without re-running it."""
        records = grid_search_j0(replace(FAST, seed=6), lo=2.9, hi=3.0, step=0.1)
        by_candidate = self.optimize(6, [r.candidate for r in records])
        assert self.optimize(6, records)[1] == by_candidate[1]

    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError, match="starting"):
            bayes_optimize(FAST, [])
