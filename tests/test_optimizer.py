"""Grid search, sensitivity-adaptive ranges, and the GP search loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from pstlab import experiments, optimizer
from pstlab.chains import CouplingProfile, pst_couplings
from pstlab.experiments import ExperimentConfig, SPTimeSeries, detect_first_peak, run_sp_series
from pstlab.noise import NoiseParams
from pstlab.optimizer import (
    GaussianProcess,
    bayes_optimize,
    expected_improvement,
    grid_search_j0,
    objective,
    objectives,
    satisfies_constraint,
    sensitivity_and_delta,
)

from oracle import exact_sp_oracle

# cheap but real settings for unit tests: 20 Trotter steps instead of 80
FAST = ExperimentConfig(n_steps=20, noise=NoiseParams())


class TestCandidate:
    def test_reported_optimum_accepted(self):
        assert satisfies_constraint(CouplingProfile(4, (2.9788, 3.0182, 2.8212)))

    def test_weak_middle_bond_rejected(self):
        assert not satisfies_constraint(CouplingProfile(4, (3.0, 2.9, 3.0)))

    def test_positive_couplings_required(self):
        with pytest.raises(ValueError):
            CouplingProfile(4, (1.0, -1.0, 1.0))

    def test_engineered_profiles_satisfy_constraint(self):
        for j0 in (0.5, 1.0, 2.9):
            assert satisfies_constraint(pst_couplings(4, j0))


class TestObjective:
    def test_baseline_matches_headline_run(self):
        peak, t_star = objective(pst_couplings(4, 1.0), FAST)
        assert 0.5 < peak < 1.0
        assert 0 < t_star <= math.pi

    def test_faster_chain_beats_baseline(self):
        base, _ = objective(pst_couplings(4, 1.0), FAST)
        fast, _ = objective(pst_couplings(4, 2.9), FAST)
        assert fast > base

    def test_degenerate_scale_scores_zero(self):
        """No transfer inside the window: peak detection fails, objective 0."""
        peak, t_star = objective(pst_couplings(4, 0.01), FAST)
        assert peak == 0.0
        assert math.isnan(t_star)

    def test_ideal_base_scores_the_ideal_run(self):
        """noise=None is the ideal chain here as everywhere else."""
        base = ExperimentConfig(n_sites=3)
        cand = pst_couplings(3, 1.0)
        t_star, peak = detect_first_peak(run_sp_series(base))
        assert objective(cand, base) == (peak, t_star)
        assert peak > 0.99
        assert objective(cand, replace(base, noise=NoiseParams()))[0] < 0.9

    def test_exact_whatever_the_base_shots(self):
        cand = pst_couplings(4, 2.9)
        assert objective(cand, replace(FAST, shots=64)) == objective(cand, FAST)


def same_score(a: tuple, b: tuple) -> bool:
    """(peak, t_star) equality that holds for two no-peak scores (0, nan)."""
    return a[0] == b[0] and (a[1] == b[1] or math.isnan(a[1]) and math.isnan(b[1]))


class TestObjectives:
    @pytest.mark.parametrize("n", [3, 4])
    def test_each_member_scores_its_own_objective(self, n):
        base = replace(FAST, n_sites=n)
        cands = [pst_couplings(n, j0) for j0 in (0.01, 1.0, 2.9, 4.0)]
        cands.append(CouplingProfile(n, (1.9, 2.4, 2.0)[:n - 1]))
        got = objectives(cands, base)
        assert got[0][0] == 0.0 and math.isnan(got[0][1])  # no transfer: scores 0
        for cand, score in zip(cands, got, strict=True):
            assert same_score(score, objective(cand, base)), cand

    def test_no_candidates(self):
        assert objectives([], FAST) == []

    # the bench's optimize grid (j0 = 0.4 has no peak in the window) and the
    # j0 = 1 baseline, on the default noise and 80 steps
    BENCH_GRID = [pst_couplings(4, j0) for j0 in (0.4, 2.2, 4.0, 1.0)]

    def test_stops_once_every_first_peak_is_settled(self, monkeypatch):
        """The bench grid observes 42 steps, not 81: its no-peak member settles
        when the window closes, at step 41. Candidates peaking on step 4
        observe 6, settling when the peak has dropped by the prominence."""
        observed = []  # the size of each block evolve_recorded hands to observe
        real = experiments.evolve_recorded
        monkeypatch.setattr(experiments, "evolve_recorded", lambda circuit, observe, settled: real(
            circuit, lambda block: observed.append(len(block)) or observe(block), settled))
        base = ExperimentConfig(noise=NoiseParams())
        scores = objectives(self.BENCH_GRID, base)
        assert observed == [4] * 42
        assert scores[0][0] == 0.0 and math.isnan(scores[0][1])
        observed.clear()
        peaks = [pst_couplings(4, j0) for j0 in (3.9, 4.0)]
        assert [t_star for _, t_star in objectives(peaks, base)] == [4 * math.pi / 40] * 2
        assert observed == [2] * 6

    def test_builds_no_series_and_hashes_no_config(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("objectives built a series record")

        monkeypatch.setattr(experiments, "digest", refuse)
        monkeypatch.setattr(SPTimeSeries, "__post_init__", refuse)
        objectives(self.BENCH_GRID, ExperimentConfig(noise=NoiseParams()))
        with pytest.raises(AssertionError):
            objective(self.BENCH_GRID[0], FAST)  # the full run still builds one

    def test_builds_one_config_for_the_batch(self, monkeypatch):
        """The candidates run as profiles of base's one exact config: no
        ExperimentConfig is built per candidate."""
        base, built = replace(FAST, shots=64), []
        post_init = ExperimentConfig.__post_init__
        monkeypatch.setattr(ExperimentConfig, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        objectives(self.BENCH_GRID, base)
        assert [config.shots for config in built] == [None]

    def test_bench_grid_and_random_profiles_score_their_own_objective(self):
        base = ExperimentConfig(noise=NoiseParams())
        rng = np.random.default_rng(3)
        cands = self.BENCH_GRID + [CouplingProfile(4, tuple(rng.uniform(0.2, 8.0, 3)))
                                   for _ in range(8)]
        got = objectives(cands, base)
        assert all(map(same_score, got, [objective(c, base) for c in cands]))


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

    @pytest.mark.parametrize("lo,hi,step,want", [
        (0.4, 4.0, 1.4, [0.4, 1.8, 3.2]),  # the next point, 4.6, is past hi
        (0.4, 4.0, 1.8, [0.4, 2.2, 4.0]),
        (0.1, 4.0, 0.1, [round(0.1 * i, 10) for i in range(1, 41)]),
    ])
    def test_grid_ends_at_or_below_hi(self, monkeypatch, lo, hi, step, want):
        monkeypatch.setattr(optimizer, "objectives", lambda cands, base: [(0.5, 1.0)] * len(cands))
        records = grid_search_j0(FAST, lo=lo, hi=hi, step=step)
        assert [r.candidate.j0 for r in records] == want

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            grid_search_j0(FAST, lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            grid_search_j0(FAST, step=0.0)

    def test_off_grid_extra_joins_the_grid_batch(self, monkeypatch):
        """The j0 = 1 profile off the grid runs in the grid's one batch, and
        its record scores exactly its own objective."""
        batches = []
        real = optimizer.run_first_peaks
        monkeypatch.setattr(optimizer, "run_first_peaks", lambda cfg, profiles:
                            batches.append(len(profiles)) or real(cfg, profiles))
        uniform = pst_couplings(4, 1.0)
        *records, extra = grid_search_j0(FAST, lo=2.8, hi=3.0, step=0.1, extra=[uniform])
        assert batches == [4] and [r.kind for r in records] == ["grid"] * 3
        assert extra.kind == "extra" and extra.candidate == uniform
        assert (extra.objective, extra.t_star) == objective(uniform, FAST)

    def test_on_grid_extra_reuses_its_grid_row(self, monkeypatch):
        batches = []
        real = optimizer.run_first_peaks
        monkeypatch.setattr(optimizer, "run_first_peaks", lambda cfg, profiles:
                            batches.append(len(profiles)) or real(cfg, profiles))
        uniform = pst_couplings(4, 1.0)
        *records, extra = grid_search_j0(FAST, lo=0.8, hi=1.0, step=0.2, extra=[uniform])
        assert batches == [2]
        (row,) = [r for r in records if r.candidate.j0 == 1.0]
        assert (extra.kind, extra.objective, extra.t_star) == ("extra", row.objective, row.t_star)

    def test_oracle_ranking_degenerate_without_noise(self):
        """The exact oracle peaks at 1 for every scale (time rescaling), so a
        noiseless ranking carries no information."""
        for j0 in (0.5, 1.0, 2.0, 4.0):
            prof = pst_couplings(4, j0)
            assert exact_sp_oracle(prof, (math.pi / 2) / j0) == pytest.approx(1.0, abs=1e-9)


class TestSensitivityDelta:
    def test_flat_direction_opens_range(self):
        """sensitivity 0 -> delta clamps at the 0.15 ceiling."""
        sens, delta = sensitivity_and_delta(0.5, 0.5)
        assert sens == 0.0
        assert delta == 0.15

    def test_steep_direction_narrows_range(self):
        """sensitivity 10 -> delta clamps at the 0.05 floor."""
        sens, delta = sensitivity_and_delta(0.5, 0.6)
        assert sens == pytest.approx(10.0)
        assert delta == 0.05

    def test_unit_sensitivity_mid_range(self):
        sens, delta = sensitivity_and_delta(0.5, 0.51)
        assert sens == pytest.approx(1.0)
        assert delta == pytest.approx(0.1, abs=1e-5)


class TestGaussianProcess:
    def test_posterior_mean_interpolates_observations(self):
        """Mean at a training point matches its value within the noise scale."""
        rng = np.random.default_rng(0)
        x = rng.uniform(2.0, 3.0, size=(12, 3))
        y = np.sin(x).sum(axis=1) * 0.1 + 0.7
        gp = GaussianProcess().fit(x, y)
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
        ei = expected_improvement(np.array([0.9, 0.5]), np.array([0.05, 0.05]), best=0.6)
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

        got_mean, got_std = GaussianProcess().fit(x, y).predict(xs)
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_std, std, rtol=0, atol=1e-12)

    def test_expected_improvement_matches_norm(self):
        rng = np.random.default_rng(0)
        mean = rng.uniform(0.0, 1.0, 500)
        std = 10.0 ** rng.uniform(-9, 0, 500)  # z from about -1e9 to 1e9
        gain = mean - 0.6 - 0.01
        want = gain * norm.cdf(gain / std) + std * norm.pdf(gain / std)
        np.testing.assert_allclose(expected_improvement(mean, std, 0.6), want,
                                   rtol=0, atol=1e-12)


STARTS = [pst_couplings(4, j0) for j0 in (2.9, 3.0)]


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
        assert all(satisfies_constraint(r.candidate) for r in ledger if r.kind == "bo")

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
        gp = GaussianProcess().fit(x, y)
        mean, _ = gp.predict(x)
        kept, idx = np.unique(np.round(np.asarray(x), 12), axis=0, return_index=True)
        np.testing.assert_allclose(mean[idx], np.asarray(y)[idx], atol=1e-4)

    def test_grid_record_start_reuses_its_value(self):
        """A start given as its grid record yields the ledger of a start given
        as a bare candidate, without re-running it."""
        records = grid_search_j0(replace(FAST, seed=6), lo=2.9, hi=3.0, step=0.1)
        by_candidate = self.optimize(6, [r.candidate for r in records])
        assert self.optimize(6, records)[1] == by_candidate[1]

    def test_each_start_recorded_once_in_order(self, monkeypatch):
        """One start given twice, as its grid record and as its profile, in a
        list mixing records and profiles: each start is recorded once, in the
        order given, a record keeps its value, and only the profile start not
        yet recorded reaches the engine."""
        base = replace(FAST, seed=6)
        records = grid_search_j0(base, lo=2.9, hi=3.0, step=0.1)
        other = CouplingProfile(4, (2.0, 2.5, 2.1))
        starts = [records[0], other, records[0].candidate, records[1]]
        batches = []
        real = optimizer.run_first_peaks
        monkeypatch.setattr(optimizer, "run_first_peaks", lambda cfg, profiles: batches.append(
            [p.couplings for p in profiles]) or real(cfg, profiles))
        _, ledger = bayes_optimize(base, starts, iterations_per_start=0)
        assert [(r.kind, r.candidate) for r in ledger] == [
            ("start", records[0].candidate), ("start", other), ("start", records[1].candidate)]
        for rec, got in zip(records, (ledger[0], ledger[2]), strict=True):
            assert (got.objective, got.t_star, got.seed) == (rec.objective, rec.t_star, rec.seed)
        assert batches == [[other.couplings]]
        assert (ledger[1].objective, ledger[1].t_star) == objective(other, base)

    def test_ledger_equals_one_objective_per_candidate(self, monkeypatch):
        """Batched grid, probes and picks leave the ledger (kinds, couplings,
        objectives and order) of one objective call per new candidate."""
        base = replace(FAST, seed=9)
        starts = grid_search_j0(base, lo=2.8, hi=3.0, step=0.1)[:2]

        def ledger():
            _, records = bayes_optimize(base, starts, iterations_per_start=3, batch_size=16)
            return records

        batched = ledger()
        monkeypatch.setattr(optimizer, "objectives",
                            lambda cands, base: [objective(c, base) for c in cands])
        one_by_one = ledger()
        assert [(r.kind, r.candidate.couplings, r.objective) for r in batched] == [
            (r.kind, r.candidate.couplings, r.objective) for r in one_by_one]
        assert all(same_score((a.objective, a.t_star), (b.objective, b.t_star))
                   for a, b in zip(batched, one_by_one, strict=True))
        assert [r.kind for r in batched].count("probe") >= 6

    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError, match="starting"):
            bayes_optimize(FAST, [])


def sample_batch_loop(incumbent, deltas, weights, batch_size, rng) -> list:
    """_sample_batch as one draw per candidate: the oracle of the batched draw."""
    base = np.array(incumbent.couplings)
    out = []
    for _ in range(batch_size):
        active = rng.random(len(base)) < weights
        if not active.any():
            active[int(np.argmax(weights))] = True
        cps = base + rng.uniform(-deltas, deltas) * active
        if np.any(cps <= 0):
            continue
        cand = CouplingProfile(len(base) + 1, tuple(cps))
        if satisfies_constraint(cand):
            out.append(cand)
    return out


class TestSampleBatch:
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_one_draw_per_candidate(self, seed):
        """Same candidates and the same next draw of the generator; the cases
        include all-inactive rows, non-positive couplings and rejections."""
        self.check_draw(seed, 3 + seed % 3)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_equals_one_draw_per_candidate_on_short_chains(self, seed, ndim):
        """N = 2 and N = 3 have no interior bond: only non-positive
        couplings are rejected."""
        self.check_draw(seed, ndim)

    @staticmethod
    def check_draw(seed: int, ndim: int) -> None:
        setup = np.random.default_rng(100 + seed)
        shape = np.sqrt([i * (ndim + 1 - i) for i in range(1, ndim + 1)])
        scale = 0.05 if seed % 3 == 0 else setup.uniform(0.3, 1.5)  # 0.05: offsets cross 0
        cps = shape * scale + setup.normal(0.0, 0.05, ndim)
        incumbent = CouplingProfile(ndim + 1, tuple(np.maximum(cps, 0.01)))
        deltas = setup.uniform(0.05, 0.3, ndim)
        weights = setup.uniform(0.0, 1.0, ndim) * (setup.random(ndim) < 0.7)
        if seed % 2:  # no weight reaches 1: some rows draw no active dimension
            weights *= 0.3
        else:
            weights[int(setup.integers(ndim))] = 1.0
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = optimizer._sample_batch(incumbent, deltas, weights, 64, got_rng)
        want = sample_batch_loop(incumbent, deltas, weights, 64, want_rng)
        assert [tuple(r) for r in got.tolist()] == [cand.couplings for cand in want]
        assert got_rng.random() == want_rng.random()

    # (couplings, whether the middle-bond rule keeps them)
    ROWS = [
        ((2.0,), True),  # N = 2: no interior bond
        ((1.0, 3.0), True),  # N = 3: none either, in any order
        ((3.0, 1.0), True),
        ((1.0, 2.0, 1.0), True),
        ((3.0, 2.9, 3.0), False),
        ((1.0, 1.0, 0.5), False),  # a middle bond tied with the first edge bond
        ((0.5, 1.0, 1.0), False),  # ... with the last
        ((1.0, 1.0, 1.0), False),
        ((1.0, 2.0, 2.0, 1.0), True),
        ((1.0, 2.0, 1.0, 0.5), False),  # one of two middle bonds tied with an edge
    ]

    def test_row_rule_equals_satisfies_constraint(self):
        """_sample_batch's row filter keeps a row exactly when
        satisfies_constraint accepts its profile; rows of one length are
        filtered together."""
        for cps, want in self.ROWS:
            assert satisfies_constraint(CouplingProfile(len(cps) + 1, cps)) is want, cps
        for ndim in {len(cps) for cps, _ in self.ROWS}:
            rows = [(cps, want) for cps, want in self.ROWS if len(cps) == ndim]
            kept = optimizer._middle_dominant(np.array([cps for cps, _ in rows]))
            assert kept.tolist() == [want for _, want in rows], ndim
