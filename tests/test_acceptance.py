"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Every criterion runs on the program defaults (`ExperimentConfig`,
`NoiseParams()`). The convention checks (1, 2, 3, 4, 6, 8, 9a, 10b, 13c,
14) pin the program's own conventions, such as the ideal hitting time
(pi/2)/j0. The paper-reference checks (5a, 5b, 7, 9b, 9c, 10a, 11a-d, 12,
13a, 13b) compare with numbers reported for the paper's chain.

Two of them, 5b and 13b, compare absolute times, and the paper's time unit
is not the program's. The paper puts its noisy N = 4 peak at t ~ pi/4; the
program's noisy peak sits on the same grid point as its ideal one, near
(pi/2)/j0. So the paper's time is read as program time / `PAPER_SCALE`,
with `PAPER_SCALE = 2`. This is an inference: PAPER.md states neither the
paper's ideal hitting time nor its Hamiltonian normalization. It fits a
paper Hamiltonian sum_i J_i (XX + YY), without the factor 1/2 that the
program's RXX(J_i dt) RYY(J_i dt) step carries (see `pstlab.chains`).
Relabelling the time axis changes no circuit, so peak heights,
fidelities, couplings and the per-step decay rate of 9b read the same in
either unit. 5b is the check the factor is read from; 13b is an
independent one.

A red entry asserts its stated window and fails honestly: it is a
documented model-level deviation, not a regression. The README ("Tests and
acceptance suite") holds the measured values and the diagnosis of the reds
(9b, 10a and 11d).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pstlab.chains import (
    CouplingProfile,
    GateOp,
    pst_couplings,
)
from pstlab.experiments import (
    ExperimentConfig,
    SPTimeSeries,
    assemble_circuit,
    detect_first_peak,
    evolve_recorded,
    run_arbitrary_transfer,
    run_sp_series,
    tomography_reconstruct,
)
from pstlab.mitigation import RescaleParams, apply_rescaling, fit_rescaling
from pstlab.noise import (
    NoiseParams,
    depolarizing_channel,
    pauli_channel,
    thermal_relaxation_channel,
    two_qubit_tensor_channel,
    zz_dephasing_channel,
)
from pstlab.optimizer import bayes_optimize, grid_search_j0, objective, satisfies_constraint

from oracle import (
    as_assembled,
    bloch_vector,
    choi_matrix,
    exact_sp_oracle,
    forward_decay,
    from_graded,
    partial_trace_to_qubit,
    qubit_p1,
    recorded_vectors,
    reference_circuit,
    to_density_matrix,
)

HALF_PI = math.pi / 2
PLUS = (1 / math.sqrt(2), 1 / math.sqrt(2))  # the amplitudes of |+>

# Program time per paper time (inferred; see the module docstring).
PAPER_SCALE = 2

# The headline run the optimizer scores couplings on: N = 4, T = 2pi, 80 steps,
# the comprehensive noise model.
HEADLINE = ExperimentConfig(n_sites=4, noise=NoiseParams())


def note(criterion: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def ideal_n4():
    return run_sp_series(ExperimentConfig(n_sites=4))


@pytest.fixture(scope="module")
def comprehensive_n4():
    return run_sp_series(ExperimentConfig(n_sites=4, noise=NoiseParams()))


@pytest.fixture(scope="module")
def comprehensive_peak(comprehensive_n4):
    return detect_first_peak(comprehensive_n4)


@pytest.fixture(scope="module")
def paper_scale():
    """`PAPER_SCALE`, once the program's ideal chain, read in paper time, arrives at pi/4."""
    worst = max(abs(exact_sp_oracle(pst_couplings(n, 1.0), PAPER_SCALE * math.pi / 4) - 1.0)
                for n in (2, 3, 4, 6))
    assert worst < 1e-9, f"ideal SP at paper time pi/4 is off 1 by {worst:.2e}"
    return PAPER_SCALE


@pytest.fixture(scope="module")
def grid_records():
    return grid_search_j0(HEADLINE)


@pytest.fixture(scope="module")
def bo_result(grid_records):
    return bayes_optimize(HEADLINE, grid_records[:3])


def single_source_series(params: NoiseParams) -> SPTimeSeries:
    return run_sp_series(ExperimentConfig(n_sites=4, noise=params))


def matched_channel_peak(channel_1q) -> float:
    """Peak SP with the given 1q channel tensored after every XY gate: the
    ideal reference circuit's gates with that channel, fused for the engine."""
    circuit = reference_circuit(ExperimentConfig(n_sites=4))
    pair = two_qubit_tensor_channel(channel_1q, channel_1q)
    step = [GateOp(op.gate, [(pair, op.gate.targets)] if op.gate.kind in ("rxx", "ryy") else [])
            for op in circuit.step]
    noisy = as_assembled(replace(circuit, step=step))
    values = evolve_recorded(noisy, lambda block: [qubit_p1(from_graded(block[0]), 3)])[0]
    series = SPTimeSeries(times=noisy.plan.times(), values={4: values})
    return detect_first_peak(series)[1]


# ---------------------------------------------------------------- criteria

def test_criterion_01_exact_pst_oracle():
    """Oracle transfers perfectly at pi/2 for N in {2, 3, 4, 6}."""
    worst = 0.0
    for n in (2, 3, 4, 6):
        prof = pst_couplings(n, 1.0)
        worst = max(worst, abs(exact_sp_oracle(prof, HALF_PI) - 1.0))
        worst = max(worst, abs(exact_sp_oracle(prof, 0.0)))
    ok = worst < 1e-9
    assert ok, note("1", ok, f"oracle SP(pi/2)=1 and SP(0)=0, worst dev {worst:.2e}")
    note("1", ok, f"oracle exact for N in {{2,3,4,6}}, worst deviation {worst:.2e}")


def test_criterion_02_trotter_fidelity(ideal_n4):
    prof = pst_couplings(4, 1.0)
    t_star, peak = detect_first_peak(ideal_n4)
    dt = ideal_n4.times[1]
    nearest = ideal_n4.times[int(np.argmin(np.abs(ideal_n4.times - HALF_PI)))]
    value_at_nearest = ideal_n4.series()[int(np.argmin(np.abs(ideal_n4.times - HALF_PI)))]
    devs = []
    for n in (20, 40, 80, 160):
        series = run_sp_series(ExperimentConfig(n_sites=4, n_steps=n))
        devs.append(float(np.max(np.abs(series.series() - exact_sp_oracle(prof, series.times)))))
    converges = all(a > b for a, b in zip(devs, devs[1:]))
    ok = peak >= 0.98 and value_at_nearest >= 0.98 and abs(t_star - nearest) <= dt + 1e-12 and converges
    detail = (f"peak {peak:.4f} at {t_star:.4f} (grid point nearest pi/2: {nearest:.4f}, "
              f"value there {value_at_nearest:.4f}); oracle deviation {['%.3f' % d for d in devs]} decreasing={converges}")
    assert ok, note("2", ok, detail)
    note("2", ok, detail)


def test_criterion_03_cptp_and_trace_drift():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(0, 1)
        w = rng.dirichlet(np.ones(3)) * p
        t1 = rng.uniform(20e-6, 500e-6)
        t2 = rng.uniform(0.1, 2.0) * t1
        dur = rng.uniform(0, 2e-6)
        channels = [
            pauli_channel(*w),
            depolarizing_channel(rng.uniform(0, 4 / 3)),
            thermal_relaxation_channel(t1, t2, dur),
            zz_dephasing_channel(rng.uniform(0, 1)),
        ]
        channels.append(two_qubit_tensor_channel(channels[0], channels[1]))
        for ch in channels:
            worst = max(worst, ch.cptp_deviation())
    circuit = assemble_circuit(ExperimentConfig(n_sites=4, noise=NoiseParams()))
    drifts = [abs(np.trace(to_density_matrix(vec).matrix) - 1.0)
              for vec in recorded_vectors(circuit)[0]]
    drift = max(drifts)
    ok = worst <= 1e-10 and drift < 1e-8
    detail = f"1000 draws worst CPTP deviation {worst:.2e}; 80-step trace drift {drift:.2e}"
    assert ok, note("3", ok, detail)
    note("3", ok, detail)


def test_criterion_04_pauli_depolarizing_choi_identity():
    worst = 0.0
    for p in (0.0, 1e-3, 1.875e-3, 0.1):
        a = choi_matrix(pauli_channel(p / 3, p / 3, p / 3))
        b = choi_matrix(depolarizing_channel(4 * p / 3))
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst < 1e-12
    detail = f"pauli(p/3 each) == depol(4p/3) as Choi matrices, worst dev {worst:.2e}"
    assert ok, note("4", ok, detail)
    note("4", ok, detail)


def test_criterion_05a_headline_peak_value(comprehensive_peak):
    _, peak = comprehensive_peak
    ok = abs(peak - 0.761) <= 0.05
    detail = f"comprehensive N=4 first-period peak {peak:.4f} (target 0.761 +/- 0.05)"
    assert ok, note("5a", ok, detail)
    note("5a", ok, detail)


def test_criterion_05b_headline_hitting_time_or_qualitative(comprehensive_n4, comprehensive_peak,
                                                           ideal_n4, paper_scale):
    t_star, peak = comprehensive_peak
    t_ideal, _ = detect_first_peak(ideal_n4)
    ratio = t_star / paper_scale / HALF_PI
    in_window = 0.35 <= ratio <= 0.65
    v, t = comprehensive_n4.series(), comprehensive_n4.times
    post = v[t > 2 * t_ideal]
    second_peak = float(post.max())
    post_mean = float(post.mean())
    qual_early = t_star < t_ideal
    qual_second = second_peak < peak
    qual_floor = 0.35 <= post_mean <= 0.65
    ok = in_window or (qual_early and qual_second and qual_floor)
    detail = (f"t* = {ratio:.3f} x pi/2 in paper time (window [0.35, 0.65]); fallback: "
              f"earlier than ideal {t_ideal / paper_scale / HALF_PI:.3f} x pi/2 {qual_early}, "
              f"second peak {second_peak:.3f} < first {qual_second}, "
              f"mean after twice the ideal time {post_mean:.3f} around 0.5 {qual_floor}")
    assert ok, note("5b", ok, detail)
    note("5b", ok, detail)


def test_criterion_06_single_source_ordering():
    p = 1.875e-3
    deg_x = 1.0 - matched_channel_peak(pauli_channel(p, 0, 0))
    deg_y = 1.0 - matched_channel_peak(pauli_channel(0, p, 0))
    deg_z = 1.0 - matched_channel_peak(pauli_channel(0, 0, p))
    deg_d = 1.0 - matched_channel_peak(depolarizing_channel(4 * p / 3))
    ok = (deg_z > deg_d > max(deg_x, deg_y)) and abs(deg_x - deg_y) <= 0.02
    detail = (f"degradation at matched p={p}: Z {deg_z:.4f} > depol {deg_d:.4f} > "
              f"X {deg_x:.4f} ~ Y {deg_y:.4f} (|X-Y| = {abs(deg_x - deg_y):.4f})")
    assert ok, note("6", ok, detail)
    note("6", ok, detail)


def test_criterion_07_thermal_only_budget():
    params = NoiseParams(pauli_on=False, depol_on=False, zz_on=False)
    _, peak = detect_first_peak(single_source_series(params))
    ok = 0.80 <= peak <= 0.90
    detail = f"thermal-only peak {peak:.4f} (target [0.80, 0.90], ~15% budget)"
    assert ok, note("7", ok, detail)
    note("7", ok, detail)


def test_criterion_08_zz_only_minimal_impact(ideal_n4):
    t_ideal, peak_ideal = detect_first_peak(ideal_n4)
    ok = True
    parts = []
    for zeta in (0.05, 0.1, 0.2):
        params = NoiseParams(pauli_on=False, depol_on=False, thermal_on=False, zeta=zeta)
        t_star, peak = detect_first_peak(single_source_series(params))
        reduction = peak_ideal - peak
        ok = ok and reduction <= 0.03 and t_star <= t_ideal + 1e-12
        parts.append(f"zeta={zeta}: -{reduction:.4f} @ {t_star:.3f}")
    detail = "; ".join(parts) + f" (ideal {peak_ideal:.4f} @ {t_ideal:.3f})"
    assert ok, note("8", ok, detail)
    note("8", ok, detail)


def test_criterion_09a_rescaling_exact_inversion(ideal_n4):
    alpha, beta = 0.463, 0.054
    noisy = SPTimeSeries(times=ideal_n4.times,
                         values={4: forward_decay(ideal_n4.series(), alpha, beta)})
    corrected = apply_rescaling(noisy, RescaleParams(alpha, beta, 1.0))
    dev = float(np.max(np.abs(corrected.series() - ideal_n4.series())))
    ok = dev < 1e-9
    detail = f"forward-model then correct reproduces ideal, max dev {dev:.2e}"
    assert ok, note("9a", ok, detail)
    note("9a", ok, detail)


@pytest.fixture(scope="module")
def fitted_rescaling(comprehensive_n4, ideal_n4):
    params = fit_rescaling(comprehensive_n4, ideal_n4)
    corrected = apply_rescaling(comprehensive_n4, params)
    return params, corrected


def test_criterion_09b_fitted_parameters(fitted_rescaling):
    params, _ = fitted_rescaling
    alpha_ok = 0.5 * 0.463 <= params.alpha <= 1.5 * 0.463
    beta_ok = 0.5 * 0.054 <= params.beta <= 1.5 * 0.054
    ok = alpha_ok and beta_ok
    detail = (f"fitted alpha {params.alpha:.4f} (ref 0.463 +/- 50% -> in-range {alpha_ok}), "
              f"beta {params.beta:.4f} (ref 0.054 +/- 50% -> in-range {beta_ok}), s {params.s:.3f}")
    assert ok, note("9b", ok, detail)
    note("9b", ok, detail)


def test_criterion_09c_corrected_peak(fitted_rescaling):
    _, corrected = fitted_rescaling
    _, peak = detect_first_peak(corrected)
    ok = peak >= 0.95
    detail = f"corrected first-period peak {peak:.4f} (target >= 0.95)"
    assert ok, note("9c", ok, detail)
    note("9c", ok, detail)


def test_criterion_10a_grid_search_top3(grid_records):
    top3 = [r.candidate.j0 for r in grid_records[:3]]
    ok = all(2.5 <= j0 <= 3.5 for j0 in top3)
    detail = f"top-3 uniform scales {top3} (target within [2.5, 3.5], reference {{2.8, 2.9, 3.0}})"
    assert ok, note("10a", ok, detail)
    note("10a", ok, detail)


def test_criterion_10b_oracle_hitting_time_rescaling():
    grid_step = 2 * math.pi / 80
    dense = np.linspace(1e-4, 2 * math.pi, 4001)
    ok = True
    parts = []
    for j0 in (0.5, 1.0, 2.0, 2.9, 4.0):
        sp = exact_sp_oracle(pst_couplings(4, j0), dense)
        t_star = float(dense[int(np.argmax(sp >= 0.9999))]) if np.any(sp >= 0.9999) else float("nan")
        expected = HALF_PI / j0
        ok = ok and abs(t_star - expected) <= grid_step
        parts.append(f"j0={j0}: t*={t_star:.3f} vs pi/2/j0={expected:.3f}")
    detail = "; ".join(parts)
    assert ok, note("10b", ok, detail)
    note("10b", ok, detail)


def test_criterion_11a_bo_deterministic(grid_records, bo_result):
    best, ledger = bo_result
    best2, ledger2 = bayes_optimize(HEADLINE, grid_records[:3])
    ok = (best.candidate.couplings == best2.candidate.couplings
          and len(ledger) == len(ledger2)
          and all(a.candidate.couplings == b.candidate.couplings and a.objective == b.objective
                  for a, b in zip(ledger, ledger2)))
    detail = f"identical ledger across two seeded runs ({len(ledger)} evaluations)"
    assert ok, note("11a", ok, detail)
    note("11a", ok, detail)


def test_criterion_11b_bo_constraint(bo_result):
    _, ledger = bo_result
    accepted = [r for r in ledger if r.kind == "bo"]
    ok = all(satisfies_constraint(r.candidate) for r in accepted)
    detail = f"middle-bond constraint holds for all {len(accepted)} accepted candidates"
    assert ok, note("11b", ok, detail)
    note("11b", ok, detail)


def test_criterion_11c_bo_never_regresses(grid_records, bo_result):
    best, _ = bo_result
    grid_best = grid_records[0].objective
    ok = best.objective >= grid_best - 1e-6
    detail = f"final objective {best.objective:.4f} >= grid best {grid_best:.4f} - 1e-6"
    assert ok, note("11c", ok, detail)
    note("11c", ok, detail)


def test_criterion_11d_reported_optimum_vs_uniform():
    reported = CouplingProfile(4, (2.9788, 3.0182, 2.8212))
    rep_obj, _ = objective(reported, HEADLINE)
    uniform = pst_couplings(4, 2.9)
    uni_obj, _ = objective(uniform, HEADLINE)
    # same triple read as per-bond scale factors on the engineered profile
    weights = [math.sqrt(i * (4 - i)) for i in range(1, 4)]
    factor_read = CouplingProfile(4, tuple(f * w for f, w in zip((2.9788, 3.0182, 2.8212), weights)))
    fac_obj, _ = objective(factor_read, HEADLINE)
    ok = rep_obj >= uni_obj
    detail = (f"reported optimum as raw bonds: {rep_obj:.4f}; as scale factors: {fac_obj:.4f}; "
              f"uniform-2.9 profile: {uni_obj:.4f} (need reported >= uniform)")
    assert ok, note("11d", ok, detail)
    note("11d", ok, detail)


def test_criterion_12_n3_scaling(comprehensive_peak):
    _, peak_n4 = comprehensive_peak
    series = run_sp_series(ExperimentConfig(n_sites=3, noise=NoiseParams()))
    _, peak_n3 = detect_first_peak(series)
    ok = abs(peak_n3 - 0.801) <= 0.05 and peak_n3 > peak_n4
    detail = f"N=3 comprehensive peak {peak_n3:.4f} (target 0.801 +/- 0.05) > N=4 peak {peak_n4:.4f}"
    assert ok, note("12", ok, detail)
    note("12", ok, detail)


@pytest.fixture(scope="module")
def plus_transfer():
    return run_arbitrary_transfer(ExperimentConfig(n_sites=4, n_steps=40, noise=NoiseParams()),
                                  PLUS)


def test_criterion_13a_plus_transfer_peak_fidelity(plus_transfer):
    best = int(np.argmax(plus_transfer.fidelity))
    peak = float(plus_transfer.fidelity[best])
    ok = abs(peak - 0.674) <= 0.08
    detail = f"comprehensive |+> transfer peak fidelity {peak:.4f} (target 0.674 +/- 0.08)"
    assert ok, note("13a", ok, detail)
    note("13a", ok, detail)


def test_criterion_13b_plus_transfer_peak_time(plus_transfer, paper_scale):
    best = int(np.argmax(plus_transfer.fidelity))
    ratio = float(plus_transfer.times[best]) / paper_scale / HALF_PI
    ok = 1.2 <= ratio <= 1.6
    detail = f"peak fidelity at t* = {ratio:.3f} x pi/2 in paper time (target [1.2, 1.6])"
    assert ok, note("13b", ok, detail)
    note("13b", ok, detail)


def test_criterion_13c_tomography_round_trip():
    cfg = ExperimentConfig(n_sites=4, n_steps=40)
    record = run_arbitrary_transfer(cfg, PLUS)
    circuit = assemble_circuit(cfg, amplitudes=PLUS)
    reduced = [partial_trace_to_qubit(to_density_matrix(vec), 3).matrix
               for vec in recorded_vectors(circuit)[0]]
    worst = 0.0
    for rec, red in zip(tomography_reconstruct(record.x, record.y, record.z).T, reduced,
                        strict=True):
        worst = max(worst, 0.5 * float(np.linalg.norm(rec - bloch_vector(red))))
    ok = worst < 1e-9
    detail = f"exact-mode tomography round-trip worst trace distance {worst:.2e}"
    assert ok, note("13c", ok, detail)
    note("13c", ok, detail)


def test_criterion_14_simulation_track_only():
    """Hardware-only reference numbers are out of scope: the artifact exposes
    simulation experiments only, no device submission surface."""
    from pstlab.cli import EXPERIMENTS

    ok = set(EXPERIMENTS) == {
        "sp_series", "site_resolved", "arbitrary_transfer",
        "rescale", "grid_search", "bayes_opt",
    }
    detail = "simulation experiments only; device peaks (0.725/0.596/0.781) not claimed"
    assert ok, note("14", ok, detail)
    note("14", ok, detail)
