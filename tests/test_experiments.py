"""Experiment drivers: series runs, tomography, and peak detection."""

import itertools
import json
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from pstlab.chains import (
    XY_GENERATORS,
    CouplingProfile,
    GateOp,
    TrotterPlan,
    build_trotter_circuit,
    gate_matrix,
    half_angles,
    pst_couplings,
    xy_gate,
)
from pstlab import experiments, noise, sim_core
from pstlab.cli import load_config, resolve_config
from pstlab.experiments import (
    FAMILY_CACHE_SIZE,
    PEAK_PROMINENCE,
    ExperimentConfig,
    NoPeakError,
    SPTimeSeries,
    TomographyRecord,
    _maxima,
    _settled_peak,
    assemble_circuit,
    detect_first_peak,
    evolve_recorded,
    json_text,
    readout_p1,
    run_arbitrary_transfer,
    run_first_peaks,
    run_site_resolved,
    run_sp_series,
    series_to_csv,
    series_to_json,
    tomography_reconstruct,
    tomography_to_csv,
)
from pstlab.noise import NoiseParams, with_noise
from pstlab.sim_core import (
    MERGE_WIDTH,
    DensityMatrix,
    UnitaryGate,
    fused_superoperators,
    merge_superoperators,
)

from oracle import (
    apply_in_order,
    as_assembled,
    apply_superoperator,
    bloch_density,
    bloch_vector,
    compiled_ops,
    exact_sp_oracle,
    exact_transfer_amplitude,
    from_density_matrix,
    graded_position,
    kraus_loop,
    partial_trace_to_qubit,
    qubit_p1,
    random_density,
    recorded_vectors,
    reference_circuit,
    series_csv,
    sweep_then_crosstalk,
    to_density_matrix,
    tomography_csv,
)

HALF_PI = math.pi / 2
PLUS = (1 / math.sqrt(2), 1 / math.sqrt(2))  # the amplitudes of |+>, the CLI's default
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ideal_series():
    return run_sp_series(ExperimentConfig(n_sites=4))


@pytest.fixture(scope="module")
def comprehensive_series():
    return run_sp_series(ExperimentConfig(n_sites=4, noise=NoiseParams()))


class TestConfigValidation:
    def test_tiny_chain_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_sites=1)

    def test_fields_are_what_every_run_reads(self):
        """The config holds the chain, the plan, the noise, shots and seed;
        the experiment picks the prep state and the sites it reads."""
        assert [f.name for f in fields(ExperimentConfig)] == [
            "n_sites", "j0", "couplings", "total_time", "n_steps", "noise", "shots", "seed"]
        assert sorted(ExperimentConfig().to_dict()) == [
            "couplings", "n_sites", "n_steps", "noise", "seed", "shots", "total_time"]

    def test_to_dict_records_the_couplings_not_j0(self):
        """A j0 and the couplings it makes hash alike; a j0 beside explicit
        couplings, which it does not make, changes nothing."""
        scaled = ExperimentConfig(n_sites=4, j0=2.9)
        bonds = ExperimentConfig(n_sites=4, couplings=pst_couplings(4, 2.9).couplings)
        assert scaled.to_dict()["couplings"] == list(pst_couplings(4, 2.9).couplings)
        assert scaled.config_hash() == bonds.config_hash() == replace(bonds, j0=5.0).config_hash()
        assert scaled.config_hash() != ExperimentConfig(n_sites=4, j0=3.0).config_hash()

    def test_bad_shots(self):
        with pytest.raises(ValueError, match="shots"):
            ExperimentConfig(shots=0)

    @pytest.mark.parametrize("field,value", [
        ("shots", 2.5), ("shots", True), ("shots", "8"), ("seed", 1.5), ("seed", False),
        ("seed", "3"), ("seed", None), ("n_steps", 2.5), ("n_steps", True), ("n_sites", 3.5),
    ], ids=repr)
    def test_counts_must_be_whole_numbers(self, field, value):
        """What the CLI refuses as a config's shots, seed, chain length or
        step count: a fraction, a boolean or anything but a number."""
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ExperimentConfig(seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("shots", 8.0), ("shots", np.int64(8)), ("seed", 3.0), ("seed", np.int64(3)),
        ("n_steps", 4.0), ("n_sites", np.int64(3)),
    ], ids=repr)
    def test_whole_numbers_are_kept_as_ints(self, field, value):
        """8.0 is taken as 8, as the CLI takes it, and recorded as the int
        in to_dict, the config hash and a run's meta."""
        config = ExperimentConfig(**{"n_sites": 3, "n_steps": 4, field: value})
        want = ExperimentConfig(**{"n_sites": 3, "n_steps": 4, field: int(value)})
        assert type(getattr(config, field)) is int and getattr(config, field) == value
        assert config == want and config.config_hash() == want.config_hash()
        assert json.dumps(config.to_dict()) == json.dumps(want.to_dict())
        assert run_sp_series(config).meta[field] == int(value)

    def test_config_hash_stable(self):
        a = ExperimentConfig(n_sites=4, seed=3)
        b = ExperimentConfig(n_sites=4, seed=3)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != ExperimentConfig(n_sites=4, seed=4).config_hash()

    @pytest.mark.parametrize("extra,want", [
        ({}, pst_couplings(4, 1.0)),
        ({"j0": 2.9}, pst_couplings(4, 2.9)),
        ({"couplings": (1.0, 1.5, 1.0)}, CouplingProfile(4, (1.0, 1.5, 1.0))),
    ], ids=["default", "j0", "couplings"])
    def test_profile_is_the_one_built_on_construction(self, extra, want):
        config = ExperimentConfig(n_sites=4, **extra)
        assert config.profile() is config.profile()
        assert config.profile() == want

    def test_profile_is_no_field(self):
        """The kept profile takes no part in fields, equality or hashing:
        configs built apart compare and hash alike."""
        a, b = ExperimentConfig(n_sites=4, j0=2.9), ExperimentConfig(n_sites=4, j0=2.9)
        assert a.profile() is not b.profile()
        assert a == b and hash(a) == hash(b)
        assert a.to_dict() == b.to_dict()
        assert "_profile" not in {f.name for f in fields(ExperimentConfig)}
        assert replace(a, j0=1.0).profile() == pst_couplings(4, 1.0)

    def test_batch_builds_no_profile(self, monkeypatch):
        """A run_first_peaks batch runs the profiles it is given and
        constructs none of its own."""
        config = ExperimentConfig(n_sites=4, n_steps=20, noise=NoiseParams())
        profiles = [pst_couplings(4, j0) for j0 in (2.5, 2.9, 3.3)]
        profiles.append(CouplingProfile(4, (2.0, 2.5, 2.0)))
        built = []
        post_init = CouplingProfile.__post_init__
        monkeypatch.setattr(CouplingProfile, "__post_init__",
                            lambda self: (built.append(self), post_init(self)))
        assert len(run_first_peaks(config, profiles)) == len(profiles)
        assert built == []


class TestIdealRuns:
    def test_peak_near_half_pi(self, ideal_series):
        t_star, peak = detect_first_peak(ideal_series)
        assert peak >= 0.98
        assert abs(t_star - HALF_PI) <= ideal_series.times[1] + 1e-12

    def test_grid_has_81_points(self, ideal_series):
        assert len(ideal_series.times) == 81
        assert ideal_series.times[-1] == pytest.approx(2 * math.pi)

    def test_second_peak_near_three_half_pi(self, ideal_series):
        v, t = ideal_series.series(), ideal_series.times
        late = v[t > math.pi]
        assert late.max() >= 0.98

    def test_site_resolved_occupations(self):
        series = run_site_resolved(ExperimentConfig(n_sites=4))
        assert series.sites() == [1, 2, 3, 4]
        assert series.values[1][0] == pytest.approx(1.0, abs=1e-12)
        k_star = int(np.argmin(np.abs(series.times - HALF_PI)))
        assert series.values[4][k_star] >= 0.98
        assert series.values[1][k_star] <= 0.02

    def test_single_excitation_number_conserved(self):
        """Ideal dynamics keeps sum_i P_i = 1 up to measured Trotter leakage."""
        series = run_site_resolved(ExperimentConfig(n_sites=4, n_steps=80))
        total = sum(series.values[s] for s in series.sites())
        assert np.max(np.abs(total - 1.0)) < 5e-3

    def test_twenty_step_plan_supported(self):
        series = run_site_resolved(ExperimentConfig(n_sites=4, n_steps=20))
        assert len(series.times) == 21

    @pytest.mark.parametrize("n", [3, 4])
    def test_ideal_series_matches_kraus_loop(self, n):
        """A channel-free 80-step series runs on the fused Pauli engine, and
        every recorded state matches bare gates on a density matrix."""
        config = ExperimentConfig(n_sites=n)
        circuit = assemble_circuit(config)
        assert not circuit.has_channels()
        got = [to_density_matrix(vec).matrix
               for vec in recorded_vectors(circuit)[0]]
        want = kraus_loop_series(reference_circuit(config))
        assert len(got) == len(want) == 81
        for k, (rho, oracle) in enumerate(zip(got, want)):
            assert np.max(np.abs(rho - oracle.matrix)) <= 1e-12, k

    def test_ideal_tomography_matches_kraus_loop(self):
        """The X, Y and Z records of an ideal arbitrary transfer are the last
        qubit's Bloch components of the Kraus-loop state at every step."""
        config, amps = ExperimentConfig(n_sites=4), (0.6, 0.48 + 0.64j)
        record = run_arbitrary_transfer(config, amps)
        for k, rho in enumerate(kraus_loop_series(reference_circuit(config, amplitudes=amps))):
            m = partial_trace_to_qubit(rho, 3).matrix
            want = (2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real)
            got = (record.x[k], record.y[k], record.z[k])
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, k
        # b has a real and an imaginary part, so neither X nor Y stays flat
        assert min(np.ptp(record.x), np.ptp(record.y), np.ptp(record.z)) > 0.5


def kraus_loop_series(circuit) -> list:
    """The oracle's density matrix at k = 0..n_steps of a gate-level circuit
    (oracle.reference_circuit): the Kraus loop over the prep layer, then
    over the stored step n_steps times."""
    rho = DensityMatrix.zero(circuit.n_qubits)
    for op in circuit.prep:
        rho = kraus_loop(rho, op.gate, op.channels)
    out = [rho]
    for _ in range(circuit.plan.n_steps):
        for op in circuit.step:
            rho = kraus_loop(rho, op.gate, op.channels)
        out.append(rho)
    return out


BASIS_GATE_KINDS = (("h",), ("sdg", "h"), ())  # the X, Y and Z tomography rotations


def basis_ops(kinds, qubit: int, params) -> list:
    """The GateOps of one basis rotation of `qubit`, each gate followed by
    its with_noise channels unless params is None."""
    ops = [GateOp(UnitaryGate(gate_matrix(kind.upper()), (qubit,), kind=kind)) for kind in kinds]
    return ops if params is None else with_noise(ops, params)


# Strong noise, so that every channel moves rho well above the 1e-12 bound.
STRONG = dict(p_pauli=0.03, q_depol=0.04, t1=20e-6, t2=15e-6, dur_1q=0.2e-6, dur_2q=1e-6,
              zeta=0.3, p_zz=0.05)
ZZ_SETTINGS = {"zz_off": dict(zz_on=False), "hamiltonian": dict(zz_mode="hamiltonian"),
               "dephasing_channel": dict(zz_mode="dephasing_channel")}
# T2 = 2*T1 is the relaxation-only branch: no pure dephasing, two Kraus ops instead of four.
THERMAL_SETTINGS = {"thermal_off": dict(thermal_on=False), "combined": dict(thermal_on=True),
                    "relaxation_only": dict(thermal_on=True, t2=2 * STRONG["t1"])}


class TestFusedMatchesKrausLoop:
    """The engine's fused superoperators reproduce the Kraus loop op by op."""

    @pytest.mark.parametrize("thermal", sorted(THERMAL_SETTINGS))
    @pytest.mark.parametrize("zz", sorted(ZZ_SETTINGS))
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_op_of_prep_step_and_tomography(self, n, zz, thermal):
        """The assembled circuit's fused ops, then the tomography gates fused
        by fused_superoperators, against the Kraus loop over the reference
        circuit's gates and those tomography gates."""
        for pauli_on, depol_on in itertools.product((False, True), repeat=2):
            params = NoiseParams(**{**STRONG, **ZZ_SETTINGS[zz], **THERMAL_SETTINGS[thermal]},
                                 pauli_on=pauli_on, depol_on=depol_on)
            config = ExperimentConfig(n_sites=n, n_steps=8, noise=params)
            circuit = assemble_circuit(config, amplitudes=(0.6, 0.8j))
            reference = reference_circuit(config, amplitudes=(0.6, 0.8j))
            one_qubit = with_noise([GateOp(UnitaryGate(gate_matrix("X"), (1,), kind="x"))] + [
                GateOp(UnitaryGate(gate_matrix(kind.upper()), (n - 1,), kind=kind))
                for kind in ("sdg", "h")], params)
            ops = reference.prep + reference.step + one_qubit
            compiled = [op.fused for op in circuit.prep + circuit.step] + fused_superoperators(
                [(op.gate, op.channels) for op in one_qubit], n)
            oracle = random_density(n, seed=n)
            fused = from_density_matrix(oracle)
            for op, sop in zip(ops, compiled, strict=True):
                fused = apply_superoperator(fused, sop)
                oracle = kraus_loop(oracle, op.gate, op.channels)
                err = np.max(np.abs(to_density_matrix(fused).matrix - oracle.matrix))
                assert err <= 1e-12, (params, op.gate.kind, op.gate.targets, err)

    def test_noisy_step_ops_carry_channels(self):
        """The matrix above exercises channels, not bare gates."""
        params = NoiseParams(**STRONG, zz_mode="dephasing_channel")
        circuit = assemble_circuit(ExperimentConfig(n_sites=3, n_steps=2, noise=params))
        assert all(len(op.channels) == 3 for op in circuit.step)

    def test_recorded_series_matches_kraus_loop(self):
        """evolve_recorded (prep once, the compiled step n_steps times) against the
        Kraus loop over every op of the reference circuit."""
        config = ExperimentConfig(n_sites=4, n_steps=12, noise=NoiseParams())
        fused = [to_density_matrix(vec).matrix
                 for vec in recorded_vectors(assemble_circuit(config, amplitudes=PLUS))[0]]
        oracle = kraus_loop_series(reference_circuit(config, amplitudes=PLUS))
        assert len(fused) == 13
        for got, want in zip(fused, oracle):
            np.testing.assert_allclose(got, want.matrix, rtol=0, atol=1e-12)


class TestMergedMatchesKrausLoop:
    """The merged prep, step and basis-rotation lists, as evolve_recorded and
    run_arbitrary_transfer compile them, reproduce the Kraus loop."""

    @staticmethod
    def op_lists(n: int, params: NoiseParams) -> list:
        """(the engine's fused ops, the reference GateOps) of the prep, the
        step and the X and Y basis rotations."""
        config = ExperimentConfig(n_sites=n, n_steps=8, noise=params)
        circuit = assemble_circuit(config, amplitudes=(0.6, 0.8j))
        reference = reference_circuit(config, amplitudes=(0.6, 0.8j))
        rotations = [basis_ops(kinds, n - 1, params) for kinds in BASIS_GATE_KINDS[:2]]
        return [([op.fused for op in circuit.prep], reference.prep),
                ([op.fused for op in circuit.step], reference.step),
                *((fused_superoperators([(op.gate, op.channels) for op in ops], n), ops)
                  for ops in rotations)]

    @staticmethod
    def max_error(n: int, ops, merged) -> float:
        rho = random_density(n, seed=n)
        oracle = rho
        for op in ops:
            oracle = kraus_loop(oracle, op.gate, op.channels)
        got = apply_in_order(from_density_matrix(rho), merged)
        return float(np.max(np.abs(to_density_matrix(got).matrix - oracle.matrix)))

    @pytest.mark.parametrize("thermal", sorted(THERMAL_SETTINGS))
    @pytest.mark.parametrize("zz", sorted(ZZ_SETTINGS))
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_merged_prep_step_and_rotations(self, n, zz, thermal):
        for pauli_on, depol_on in itertools.product((False, True), repeat=2):
            params = NoiseParams(**{**STRONG, **ZZ_SETTINGS[zz], **THERMAL_SETTINGS[thermal]},
                                 pauli_on=pauli_on, depol_on=depol_on)
            for fused, ops in self.op_lists(n, params):
                merged = merge_superoperators(fused)
                assert all(len(sop.targets) <= MERGE_WIDTH for sop in merged)
                err = self.max_error(n, ops, merged)
                assert err <= 1e-12, (params, [op.gate.kind for op in ops], err)

    @pytest.mark.parametrize("config,per_step,per_run", [
        (ExperimentConfig(n_sites=4, noise=NoiseParams()), 2, 161),
        (ExperimentConfig(n_sites=6, noise=NoiseParams()), 4, 321),
        (ExperimentConfig(n_sites=7, n_steps=10, total_time=math.pi / 4,
                          noise=NoiseParams(zz_mode="dephasing_channel", p_zz=0.01)), 3, 31),
    ], ids=["headline", "n6_sites", "n7_zz_dephasing"])
    def test_ops_per_step(self, config, per_step, per_run):
        """9, 15 and 12 fused ops per step merge into 2, 4 and 3; with the
        one prep op, the headline applies 161 ops per run instead of 721."""
        circuit = assemble_circuit(config)
        step = merge_superoperators([op.fused for op in circuit.step])
        prep = merge_superoperators([op.fused for op in circuit.prep])
        assert len(step) == per_step
        assert len(prep) + config.n_steps * len(step) == per_run

    def test_reversed_group_breaks_the_match(self):
        """The oracle sees the order inside a group: the step's first group
        (RXX and RYY on bonds (0, 1) and (1, 2), then RZZ on (0, 1)) merged
        in reverse fails it."""
        config = ExperimentConfig(n_sites=4, n_steps=8, noise=NoiseParams(**STRONG))
        ops = reference_circuit(config).step
        compiled = [op.fused for op in assemble_circuit(config).step]
        merged = merge_superoperators(compiled)
        assert merged[0].targets == (0, 1, 2) and len(merge_superoperators(compiled[:5])) == 1
        assert self.max_error(4, ops, merged) <= 1e-12
        reversed_group = merge_superoperators(compiled[4::-1])
        assert self.max_error(4, ops, reversed_group + merged[1:]) > 1e-12


class TestStepOrder:
    """chains.step_order puts each RZZ gate right after the last XY gate it
    shares a qubit with: the map of the XY sweep followed by the RZZ layer,
    in fewer merged ops."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_coherent_step_merges_into_n_minus_2_ops(self, n):
        """Every merge group of the step holds an XY gate, so none is made
        of a family's shared ops alone, and the step is max(1, N - 2) ops."""
        config = ExperimentConfig(n_sites=n, n_steps=4, noise=NoiseParams())
        circuit, reference = assemble_circuit(config), reference_circuit(config)
        assert [op.gate.kind for op in reference.step].count("rzz") == n - 1
        assert len(merge_superoperators([op.fused for op in circuit.step])) == max(1, n - 2)
        assert all(holds_xy(circuit.step, reference.step))

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_records_equal_the_kraus_loop_over_the_old_order(self, n, members):
        """evolve_recorded's records, of a single run and of each member of
        a batch, against the Kraus loop over the sweep-then-RZZ order, under
        noise strong enough that moving an RZZ gate past a gate on one of
        its qubits would show."""
        configs = [ExperimentConfig(n_sites=n, n_steps=3, j0=j0, noise=NoiseParams(**STRONG))
                   for j0 in (1.0, 0.5, 2.9)[:members]]
        circuit = assemble_circuit(configs[0], [config.profile() for config in configs])
        records = recorded_vectors(circuit)
        for config, got in zip(configs, records, strict=True):
            want = kraus_loop_series(sweep_then_crosstalk(config))
            for k, (vec, rho) in enumerate(zip(got, want, strict=True)):
                err = np.max(np.abs(to_density_matrix(vec).matrix - rho.matrix))
                assert err <= 1e-12, (config.j0, k, err)


class TestTomographyMatchesKrausLoop:
    """run_arbitrary_transfer's exact x, y and z, read from the last qubit's
    four Pauli coefficients, against the Kraus loop: rho evolved op by op,
    qubit N - 1 rotated by each basis's gates and their with_noise channels
    on the whole density matrix, then <sigma> = 1 - 2 qubit_p1."""

    @pytest.mark.parametrize("amps", [(0.6, 0.8j), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0, 1)],
                             ids=["general", "plus", "one"])
    @pytest.mark.parametrize("noise", ["ideal", "hamiltonian", "dephasing_channel"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bloch_components(self, n, noise, amps):
        params = None if noise == "ideal" else NoiseParams(**{**STRONG, "zz_mode": noise})
        config = ExperimentConfig(n_sites=n, n_steps=8, noise=params)
        record = run_arbitrary_transfer(config, amps)
        rotations = [basis_ops(kinds, n - 1, params) for kinds in BASIS_GATE_KINDS]
        for k, rho in enumerate(kraus_loop_series(reference_circuit(config, amplitudes=amps))):
            for got, ops in zip((record.x, record.y, record.z), rotations, strict=True):
                rotated = rho
                for op in ops:
                    rotated = kraus_loop(rotated, op.gate, op.channels)
                err = abs(got[k] - (1.0 - 2.0 * qubit_p1(rotated, n - 1)))
                assert err <= 1e-12, (k, [op.gate.kind for op in ops], err)
        # the transfer moves z, and x or y (the other stays flat on a real or
        # imaginary transfer phase unless coherent ZZ mixes them); from |1>,
        # one sector, the last qubit's r_X and r_Y stay 0, so x and y are flat
        assert np.ptp(record.z) > 0.5
        if amps == (0, 1):
            assert max(np.ptp(record.x), np.ptp(record.y)) <= 1e-12
        else:
            assert max(np.ptp(record.x), np.ptp(record.y)) > 0.1


class TestInPlacePath:
    @staticmethod
    def configs() -> list:
        """The shipped configs, and noisy N = 6 and 7 chains in both ZZ modes."""
        shipped = [resolve_config(load_config(path))[1]
                   for path in sorted((REPO / "configs").glob("*.json"))]
        zz_modes = (NoiseParams(), NoiseParams(zz_mode="dephasing_channel", p_zz=0.01))
        return shipped + [ExperimentConfig(n_sites=n, n_steps=4, noise=params)
                          for n in (6, 7) for params in zz_modes]

    def test_no_compiled_op_permutes(self):
        """Every gate and channel of the prep and the step, in the
        gate-level reference circuit of each config, is on consecutive
        ascending qubits, so fused_superoperators takes each one (it refuses
        any other) and no op needs its qubits reordered; every merged op of
        the assembled circuit fits the register, so the kernel contracts it
        in place. The tomography rotations never touch the state: they act
        on the last qubit's four recorded coefficients."""
        for config in self.configs():
            n = config.n_sites
            for amplitudes in ((0, 1), PLUS):
                circuit = assemble_circuit(config, amplitudes=amplitudes)
                reference = reference_circuit(config, amplitudes=amplitudes)
                for layer, gates in ((circuit.prep, reference.prep),
                                     (circuit.step, reference.step)):
                    compiled_ops(gates, n)
                    merged = merge_superoperators([op.fused for op in layer])
                    assert all(sop.targets[-1] < n for sop in merged), config

    def test_every_step_keeps_the_parity(self):
        """Every merged step op of each config, and of a 4-member N = 4
        batch, has exactly 0.0 between Pauli strings of odd and even X/Y
        weight, so the graded layout holds every run that starts in one
        sector in that sector (oracle.graded_position gives each string's
        parity)."""
        batch = assemble_circuit(ExperimentConfig(n_sites=4, noise=NoiseParams()),
                                 [pst_couplings(4, j0) for j0 in (0.5, 1.0, 2.9, 4.0)])
        circuits = [assemble_circuit(config) for config in self.configs()] + [batch]
        for circuit in circuits:
            for sop in merge_superoperators([op.fused for op in circuit.step]):
                k = len(sop.targets)
                parity = np.array([graded_position(p, k)[0] for p in range(4**k)])
                cross = sop.matrix[..., parity[:, None] != parity[None, :]]
                assert cross.size and np.all(cross == 0.0), sop.targets
        assert batch.step[0].fused.matrix.shape[0] == 4


class TestParityGrading:
    """Each run stores only the sectors of the graded layout that its prep
    reaches, and the graded engine refuses what would leave them."""

    def test_a_parity_breaking_step_op_is_refused(self):
        """A hand-built step of an H gate on qubit 1 (X to Z) is refused by
        the graded compile, naming its qubits, before any step runs; the
        circuit's own step runs."""
        config = ExperimentConfig(n_sites=3, n_steps=2)
        circuit = reference_circuit(config)
        steps = []
        hadamard = GateOp(UnitaryGate(gate_matrix("H"), (1,), kind="h"))
        broken = as_assembled(replace(circuit, step=[hadamard]))
        message = (r"op on qubits \(1,\) mixes Pauli strings of odd and even X/Y weight, "
                   "which the graded state does not hold")
        with pytest.raises(ValueError, match=message):
            evolve_recorded(broken, lambda block: steps.append(block) or block[:, :1, 0])
        assert steps == []
        assert evolve_recorded(as_assembled(circuit), lambda block: block[:, :1, 0]).shape == (
            1, 3, 1)

    def test_a_prep_beyond_qubit_0_is_refused(self):
        """The start state is built from qubit 0's prep alone."""
        circuit = reference_circuit(ExperimentConfig(n_sites=3, n_steps=2))
        prep = [GateOp(UnitaryGate(gate_matrix("X"), (1,), kind="x"))]
        with pytest.raises(ValueError, match=r"prep op on qubits \(1,\)"):
            evolve_recorded(as_assembled(replace(circuit, prep=prep)), lambda block: block)


class TestGradedRunsMatchKrausLoop:
    """Every output of a graded run, against the Kraus loop over the
    reference circuit's gates on a density matrix, within 1e-12, under
    noise strong enough that every channel shows."""

    @pytest.mark.parametrize("zz", ["hamiltonian", "dephasing_channel"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_site_series(self, n, zz):
        config = ExperimentConfig(n_sites=n, n_steps=4, noise=NoiseParams(**STRONG, zz_mode=zz))
        sites = run_site_resolved(config)
        end = run_sp_series(config)
        for k, rho in enumerate(kraus_loop_series(reference_circuit(config))):
            for site in range(1, n + 1):
                assert abs(sites.values[site][k] - qubit_p1(rho, site - 1)) <= 1e-12, (k, site)
            assert abs(end.series()[k] - qubit_p1(rho, n - 1)) <= 1e-12, k


def assert_same_series(got: SPTimeSeries, want: SPTimeSeries) -> None:
    """Same times, sites, values (bit for bit) and meta."""
    assert np.array_equal(got.times, want.times)
    assert got.sites() == want.sites()
    for site in want.sites():
        assert np.array_equal(got.values[site], want.values[site]), site
    assert got.meta == want.meta


def chunk_circuits(config: ExperimentConfig, profiles) -> list:
    """The circuits of config's lock-step batch over the profiles, one per
    chunk of max(1, MAX_BATCH_COEFFS // (2 * 4^(n-1))) profiles, as run_first_peaks
    assembles them."""
    size = max(1, experiments.MAX_BATCH_COEFFS // (2 * 4 ** (config.n_sites - 1)))
    return [assemble_circuit(config, profiles[lo:lo + size]) for lo in range(0, len(profiles), size)]


def own_states(config: ExperimentConfig) -> np.ndarray:
    """Every recorded state of config's own run."""
    return recorded_vectors(assemble_circuit(config))[0]


class TestLockStep:
    """A lock-step batch, assemble_circuit(config, profiles) in chunks of at
    most MAX_BATCH_COEFFS Pauli coefficients, evolves its members together;
    each member's records are its own run's, bit for bit."""

    J0S = (0.01, 0.5, 1.0, 2.9, 4.0)  # 0.01 transfers nothing inside the window

    @staticmethod
    def configs(n: int, **extra) -> list:
        return [ExperimentConfig(n_sites=n, n_steps=20, j0=j0, noise=NoiseParams(), **extra)
                for j0 in TestLockStep.J0S]

    @pytest.mark.parametrize("chunk,sizes", [(None, [5]), (2, [2, 2, 1]), (4, [4, 1])],
                             ids=["whole", "chunks_of_2", "chunks_of_4"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_members_equal_their_own_runs(self, n, chunk, sizes, monkeypatch):
        configs = self.configs(n)
        configs[2] = replace(configs[2], couplings=(1.3, 0.9, 1.1, 0.8)[:n - 1])
        if chunk is not None:
            monkeypatch.setattr(experiments, "MAX_BATCH_COEFFS", chunk * 2 * 4 ** (n - 1) + 1)
        circuits = chunk_circuits(configs[0], [config.profile() for config in configs])
        assert [len(circuit.profiles) for circuit in circuits] == sizes
        records = np.concatenate([recorded_vectors(c) for c in circuits])
        for config, rows in zip(configs, records, strict=True):
            assert rows.tobytes() == own_states(config).tobytes()

    def test_batch_refuses_profiles_of_another_chain_length(self, monkeypatch):
        """assemble_circuit refuses them, and run_first_peaks assembles
        every chunk before it runs any."""
        config = ExperimentConfig(n_sites=4, n_steps=20)
        with pytest.raises(ValueError, match="share their chain length"):
            assemble_circuit(config, [config.profile(), pst_couplings(3, 1.0)])
        ran = []
        monkeypatch.setattr(experiments, "evolve_recorded", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="share their chain length"):
            run_first_peaks(config, [config.profile()] * 40 + [pst_couplings(3, 1.0)])
        assert ran == []

    def test_evolve_recorded_refuses_rows_of_another_size(self):
        """observe must give one row per member of the circuit."""
        config = ExperimentConfig(n_sites=4, n_steps=20)
        circuit = assemble_circuit(config, [config.profile()] * 3)
        with pytest.raises(ValueError, match="observe gave 2 rows for a circuit of 3 members"):
            evolve_recorded(circuit, lambda block: block[:2])

    def test_chunks_give_the_records_of_one_batch(self, monkeypatch):
        """A cap of two N = 3 states splits five members into chunks of 2, 2
        and 1, each compiled once, with the records of the unchunked batch.
        Each chunk's 4 XY ops hold a stack of its members' fused ops, and no
        chunk builds an XY gate."""
        configs = self.configs(3)
        profiles = [config.profile() for config in configs]
        whole = evolve_recorded(assemble_circuit(configs[0], profiles), lambda block: block)
        chunks, built = [], []
        real = experiments.merge_superoperators

        def merge_spy(sops):
            # the members of the merged ops: their fused ops' largest stack
            chunks.append(max(len(sop.matrix) if sop.matrix.ndim > 2 else 1 for sop in sops))
            return real(sops)

        monkeypatch.setattr(experiments, "merge_superoperators", merge_spy)
        build = UnitaryGate.__init__
        monkeypatch.setattr(UnitaryGate, "__init__", lambda gate, matrix, targets, kind="":
                            built.append(kind) or build(gate, matrix, targets, kind))
        monkeypatch.setattr(experiments, "MAX_BATCH_COEFFS", 2 * 2 * 4**2 + 1)
        got = [evolve_recorded(c, lambda block: block) for c in chunk_circuits(configs[0], profiles)]
        assert np.concatenate(got).tobytes() == whole.tobytes()
        assert chunks == [2, 2, 1]  # the step of each chunk
        assert built == []

    def test_empty_batch(self):
        assert run_first_peaks(ExperimentConfig(n_sites=3), []) == []
        with pytest.raises(ValueError, match="at least one coupling profile"):
            assemble_circuit(ExperimentConfig(n_sites=3), [])


class TestBatchedCompile:
    """One compile of a batch circuit gives, member by member, the ops of the
    member's own compile, bit for bit. An op is a stack of its members' PTMs
    exactly when it holds an XY gate of a chunk of more than one member; the
    others stay 2-D, one op for every member."""

    NOISE = {"ideal": None, "hamiltonian": NoiseParams(),
             "dephasing": NoiseParams(zz_mode="dephasing_channel", p_zz=0.01)}
    J0S = (0.5, 1.0, 2.9, 4.0, 0.01)

    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_op_equals_the_members_own(self, n, noise, monkeypatch):
        """The merged step ops that evolve_recorded compiles for a chunk, and
        its prep, which builds the start state and every member shares."""
        configs = [ExperimentConfig(n_sites=n, n_steps=8, j0=j0, noise=self.NOISE[noise])
                   for j0 in self.J0S]
        reference = reference_circuit(configs[0])
        assert ("rzz" in {op.gate.kind for op in reference.step}) == (noise == "hamiltonian")
        own = [assemble_circuit(config) for config in configs]
        compiled = []
        real = experiments.graded_superoperators
        monkeypatch.setattr(experiments, "graded_superoperators",
                            lambda sops, *args: compiled.append(sops) or real(sops, *args))
        # the whole batch, a chunk inside it, and a chunk of one at its end
        for lo, hi in [(0, 5), (1, 3), (4, 5)]:
            chunk = assemble_circuit(configs[0], [config.profile() for config in configs[lo:hi]])
            compiled.clear()
            evolve_recorded(chunk, lambda block: block[:, :1, 0])
            [got] = compiled
            stacked = [hi - lo > 1 and xy for xy in holds_xy(chunk.step, reference.step)]
            assert [sop.matrix.ndim for sop in got] == [3 if s else 2 for s in stacked]
            for b in range(lo, hi):
                want = merge_superoperators([op.fused for op in own[b].step])
                assert [sop.targets for sop in got] == [sop.targets for sop in want]
                for g, w, s in zip(got, want, stacked, strict=True):
                    member = g.matrix[b - lo] if s else g.matrix
                    assert np.array_equal(member, w.matrix), (lo, hi, b)
                assert [op.fused.matrix.tobytes() for op in chunk.prep] == [
                    op.fused.matrix.tobytes() for op in own[b].prep]
            assert all(op.fused.matrix.ndim == 2 for op in chunk.prep)
            if n == 4 and noise == "hamiltonian" and hi - lo > 1:
                # each of the two ops holds XY ops and RZZ ops
                assert [sop.matrix.ndim for sop in got] == [3, 3]

    def test_a_single_run_applies_2d_ops(self, monkeypatch):
        applied = []
        real = experiments.bind_superoperators

        def spy(graded, first, second):
            # each bound call logs its stack when the run calls it
            return [lambda call=call, stack=stack: applied.append(stack) or call()
                    for call, (stack, _) in zip(real(graded, first, second), graded, strict=True)]

        monkeypatch.setattr(experiments, "bind_superoperators", spy)
        config = ExperimentConfig(n_sites=4, n_steps=3, noise=NoiseParams())
        run_sp_series(config)
        assert len(applied) == 3 * 2
        # the op on qubits 0..2 (no control bit), then the one on the last
        # qubit, one sector
        assert [stack.shape for stack in applied[:2]] == [(1, 64, 64), (2, 32, 32)]
        circuit = assemble_circuit(config)
        assert all(op.fused.matrix.ndim == 2 for op in circuit.prep + circuit.step)


def holds_xy(ops, reference) -> list:
    """For each op that merge_superoperators makes of the fused ops of a
    layer of assembled ops, whether its merge group holds an XY op; the
    reference circuit's layer, op for op, names each op's gate."""
    xy = iter([op.gate.kind in ("rxx", "ryy") for op in reference])
    groups = sim_core.merge_groups([op.fused for op in ops])
    assert sum(len(group) for _, group in groups) == len(reference)
    return [any([next(xy) for _ in group]) for _, group in groups]


def compiled_layers(config: ExperimentConfig, amplitudes=(0, 1), plain: bool = False) -> list:
    """The merged prep and step of config's own circuit of the prep
    amplitudes; with `plain`, of its reference circuit
    (oracle.reference_circuit), each gate fused from its matrix, so that no
    op comes from its family."""
    if plain:
        reference = reference_circuit(config, amplitudes=amplitudes)
        return [compiled_ops(layer, config.n_sites) for layer in (reference.prep, reference.step)]
    circuit = assemble_circuit(config, amplitudes=amplitudes)
    return [merge_superoperators([op.fused for op in layer])
            for layer in (circuit.prep, circuit.step)]


def assert_same_layers(got: list, want: list, tol: float = 0.0) -> None:
    """Two lists of compiled layers equal op by op: bit for bit, or, with
    `tol`, within tol in every entry."""
    assert len(got) == len(want)
    for layer_got, layer_want in zip(got, want):
        assert [sop.targets for sop in layer_got] == [sop.targets for sop in layer_want]
        for g, w in zip(layer_got, layer_want):
            if tol:
                assert np.abs(g.matrix - w.matrix).max() <= tol
            else:
                assert np.array_equal(g.matrix, w.matrix)
                assert g.matrix.tobytes() == w.matrix.tobytes()


def assert_matches_plain(config: ExperimentConfig, amplitudes=(0, 1)) -> None:
    """config's compiled layers against those of its reference circuit,
    each gate fused from its matrix: the prep, and each shared RZZ op of its
    family, bit for bit; the step, whose XY ops come from the family's
    angle basis, within 1e-14."""
    got = compiled_layers(config, amplitudes)
    plain = compiled_layers(config, amplitudes, plain=True)
    assert_same_layers(got[:1], plain[:1])
    assert_same_layers(got[1:], plain[1:], tol=1e-14)
    rzz = [op for op in reference_circuit(config).step if op.gate.kind == "rzz"]
    fused = fused_superoperators([(op.gate, op.channels) for op in rzz], config.n_sites)
    crosstalk = experiments._family(config, amplitudes).crosstalk
    assert len(crosstalk) == len(fused)
    for op, want in zip(crosstalk, fused):
        assert op.fused.matrix.tobytes() == want.matrix.tobytes()


class TestFamilies:
    """What a run's circuit shares with every run that differs from it only
    in couplings (its family) is built and compiled once; each compiled op
    equals that of a freshly built family, bit for bit."""

    BASE = ExperimentConfig(n_sites=4, n_steps=20, noise=NoiseParams())
    AMPS = (0.6, 0.8)  # BASE's prep amplitudes

    @pytest.mark.parametrize("change", [
        {"n_sites": 5},
        {"n_steps": 21},
        {"total_time": math.pi},
        {"noise": None},
        {"noise": NoiseParams(p_pauli=0.01)},
        {"noise": NoiseParams(zz_mode="dephasing_channel", p_zz=0.01)},
        {"amplitudes": (0, 1)},
        {"amplitudes": (0.8, 0.6)},
        {"amplitudes": (0.6, 0.8j)},
    ], ids=repr)
    def test_a_changed_field_compiles_as_fresh(self, change):
        amps = change.get("amplitudes", self.AMPS)
        variant = replace(self.BASE, **{k: v for k, v in change.items() if k != "amplitudes"})
        compiled_layers(self.BASE, self.AMPS)
        cached = compiled_layers(variant, amps)
        assert experiments._family(variant, amps) is not experiments._family(self.BASE, self.AMPS)
        experiments._families.cache_clear()
        assert_same_layers(compiled_layers(variant, amps), cached)
        assert_matches_plain(variant, amps)
        assert_matches_plain(self.BASE, self.AMPS)

    def test_seed_shots_and_couplings_share_a_family(self):
        family = experiments._family(self.BASE, self.AMPS)
        circuit = assemble_circuit(self.BASE, amplitudes=self.AMPS)
        for change in ({"seed": 3}, {"shots": 64}, {"couplings": (1.0, 2.0, 1.0)}, {"j0": 2.5}):
            config = replace(self.BASE, **change)
            assert experiments._family(config, self.AMPS) is family, change
            other = assemble_circuit(config, amplitudes=self.AMPS)
            rzz = (4, 7, 8)  # the RZZ ops' places in the step
            assert all(a is b for a, b in zip(other.prep + [other.step[i] for i in rzz],
                                              circuit.prep + [circuit.step[i] for i in rzz],
                                              strict=True))

    def test_sp_series_and_a_single_excitation_transfer_share_a_family(self):
        """An sp_series run and an arbitrary transfer of amplitudes (0, 1),
        as the CLI passes them, prepare the one X gate: one family, built on
        one _families miss."""
        experiments._families.cache_clear()
        run_sp_series(self.BASE)
        run_arbitrary_transfer(self.BASE, (0j, 1 + 0j))
        info = experiments._families.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_cached_parts_refuse_writes(self):
        """Every op of an assembled circuit is a frozen AssembledOp: its
        channels a tuple, its fused op's matrix read-only."""
        family = experiments._family(self.BASE, self.AMPS)
        assert len(family.prep) == 1 and len(family.crosstalk) == 3
        shared = {id(op) for op in family.crosstalk}
        xy = [op for op in assemble_circuit(self.BASE, [self.BASE.profile()] * 2,
                                            self.AMPS).step
              if id(op) not in shared]
        assert len(xy) == 6
        for op in family.prep + family.crosstalk + tuple(xy):
            assert type(op) is experiments.AssembledOp
            with pytest.raises(ValueError, match="read-only"):
                op.fused.matrix[...] = 0
            assert isinstance(op.channels, tuple)
            for name in ("channels", "fused"):
                with pytest.raises(FrozenInstanceError):
                    setattr(op, name, None)
        for array in (experiments._basis_rotation_ptms(self.BASE.noise), family.xy_basis):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(FrozenInstanceError):
            family.prep = ()

    def test_every_cache_hands_out_read_only_arrays(self):
        """Each array a cache hands out is read-only, as every run and family
        shares it: the Pauli bases, the kernel's index tables, the start
        state's entries, each channel's PTM (shared through noise._channels),
        the family's fused ops and angle basis, and the basis rotations."""
        family = experiments._family(self.BASE, self.AMPS)
        channels = [channel for side in noise._channels(self.BASE.noise) for channel in side]
        arrays = [*(sim_core._pauli_basis(k) for k in range(1, MERGE_WIDTH + 1)),
                  *(index for k in range(1, MERGE_WIDTH + 1) for half in (False, True)
                    for control in (1, 2) for index in sim_core._graded_take(k, half, control)),
                  *(index for n in range(1, 6) for index in sim_core._start_entries(n)),
                  *(channel.pauli_transfer_matrix() for channel in channels * 2),
                  *(op.fused.matrix for op in family.prep + family.crosstalk), family.xy_basis,
                  experiments._basis_rotation_ptms(self.BASE.noise)]
        assert len(channels) == 4
        assert [i for i, array in enumerate(arrays) if array.flags.writeable] == []

    def test_more_families_than_the_bound(self):
        """20 families in a row, more than the cache holds: the first ones
        are dropped and built again, with the same ops."""
        configs = [ExperimentConfig(n_sites=3, n_steps=steps, noise=NoiseParams())
                   for steps in range(1, FAMILY_CACHE_SIZE + 5)]
        assert len(configs) == 20
        experiments._families.cache_clear()
        first = [compiled_layers(config) for config in configs]
        assert experiments._families.cache_info().currsize == FAMILY_CACHE_SIZE
        for config, want in zip(configs, first):
            assert_same_layers(compiled_layers(config), want)
            assert_matches_plain(config)

    @staticmethod
    def spy_gates(monkeypatch) -> list:
        """The kind of every UnitaryGate built from now on."""
        kinds = []
        real = UnitaryGate.__init__
        monkeypatch.setattr(UnitaryGate, "__init__", lambda gate, matrix, targets, kind="":
                            kinds.append(kind) or real(gate, matrix, targets, kind))
        return kinds

    def test_a_cold_run_builds_each_gate_once(self, monkeypatch):
        """A cold run builds its family's gates once each: the prep, the RZZ
        gates, and the XY gates at angle 0, to which noise.with_noise
        attaches the XY ops' channels; it builds no gate of its own."""
        experiments._families.cache_clear()
        kinds = self.spy_gates(monkeypatch)
        run_sp_series(ExperimentConfig(n_sites=4, n_steps=20, noise=NoiseParams()))
        assert Counter(kinds) == {"x": 1, "rxx": 3, "ryy": 3, "rzz": 3}

    def test_a_second_batch_builds_and_fuses_no_gate(self, monkeypatch):
        """A second noisy N = 4 batch of one family builds no gate, takes no
        Pauli transfer matrix, attaches no channel (its XY ops come from the
        family's angle basis and channels) and composes only its two merge
        groups, each holding a stacked part, an XY op's."""
        config = ExperimentConfig(n_sites=4, n_steps=20, noise=NoiseParams())
        j0s = (0.5, 1.0, 2.9, 4.0)
        run_first_peaks(config, [pst_couplings(4, j0) for j0 in j0s])
        calls, composed = [], []
        for target in ("pstlab.sim_core._pauli_transfer_matrix", "pstlab.noise.with_noise",
                       "pstlab.experiments.with_noise"):
            monkeypatch.setattr(target, lambda *args, target=target: calls.append(target))
        compose = sim_core._compose
        monkeypatch.setattr(sim_core, "_compose", lambda support, parts: composed.append(
            [ptm.ndim for ptm, _ in parts]) or compose(support, parts))
        kinds = self.spy_gates(monkeypatch)
        run_first_peaks(config, [pst_couplings(4, 1.1 * j0) for j0 in j0s])
        assert calls == [] and kinds == []
        assert len(composed) == 2  # the two XY merge groups
        assert all(3 in ndims for ndims in composed), composed

    def test_a_second_transfer_builds_no_gate_and_no_rotation(self, monkeypatch):
        """A second arbitrary transfer of one family, with other couplings
        and seed, builds no gate, takes no Pauli transfer matrix and
        attaches no channel: its basis rotations too come from a cache."""
        run_arbitrary_transfer(self.BASE, self.AMPS)
        calls = []
        for target in ("pstlab.sim_core._pauli_transfer_matrix", "pstlab.noise.with_noise",
                       "pstlab.experiments.with_noise"):
            monkeypatch.setattr(target, lambda *args, target=target: calls.append(target))
        kinds = self.spy_gates(monkeypatch)
        run_arbitrary_transfer(replace(self.BASE, couplings=(1.0, 2.0, 1.0), seed=3), self.AMPS)
        assert calls == [] and kinds == []

    def test_new_amplitudes_rebuild_no_rotation(self, monkeypatch):
        """The basis rotations read only the noise model: a transfer of new
        amplitudes, with every family dropped, builds its family's gates and
        no H or S^dag."""
        run_arbitrary_transfer(self.BASE, self.AMPS)
        experiments._families.cache_clear()
        kinds = self.spy_gates(monkeypatch)
        run_arbitrary_transfer(self.BASE, (0.8, 0.6))
        assert Counter(kinds) == {"u": 1, "rxx": 3, "ryy": 3, "rzz": 3}


class TestAngleBasis:
    """An XY op's fused op is c^2 B0 + cs B1 + s^2 B2 of its family's angle
    basis (sim_core.rotation_basis), c = cos(theta/2) and s = sin(theta/2):
    within 1e-14 of fused_superoperators of its own UnitaryGate."""

    NOISE = {"ideal": None, "hamiltonian": NoiseParams(**STRONG),
             "dephasing_channel": NoiseParams(**STRONG, zz_mode="dephasing_channel"),
             **{f"no_{layer}": NoiseParams(**STRONG, **{f"{layer}_on": False})
                for layer in ("pauli", "depol", "thermal", "zz")}}
    # 0, +-pi, 7 pi and 46 more angles in (-8 pi, 8 pi)
    ANGLES = (0.0, math.pi, -math.pi, 7 * math.pi,
              *np.random.default_rng(7).uniform(-8 * math.pi, 8 * math.pi, 46).tolist())

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_each_kinds_basis_at_50_angles(self, noise):
        family = experiments._family(ExperimentConfig(n_sites=3, noise=self.NOISE[noise]))
        assert len(self.ANGLES) == 50 and len(family.xy) == 4
        for i, (pair, channels) in enumerate(family.xy):  # each bond's kinds in order
            kind = list(XY_GENERATORS)[i % len(XY_GENERATORS)]
            b0, b1, b2 = family.xy_basis[:, i % len(XY_GENERATORS), 0]
            for theta in self.ANGLES:
                [(c, s)] = half_angles(kind.upper(), [theta])
                want = fused_superoperators([(xy_gate(kind, pair, theta), channels)], 3)[0]
                assert want.targets == pair
                err = np.abs(c * c * b0 + c * s * b1 + s * s * b2 - want.matrix).max()
                assert err <= 1e-14, (kind, pair, theta, err)

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_assembled_ops_equal_their_fused_gates(self, noise):
        """Every XY op of a 50-member N = 3 batch, whose angles J dt reach
        7 pi, and of each member's own circuit, against fused_superoperators
        of the gate in its place in each member's reference circuit; each
        member's op bit for bit its own."""
        config = ExperimentConfig(n_sites=3, total_time=1.0, n_steps=1, noise=self.NOISE[noise])
        angles = [abs(theta) or 1e-3 for theta in self.ANGLES]
        profiles = [CouplingProfile(3, (theta, angles[-1 - i])) for i, theta in enumerate(angles)]
        batch = assemble_circuit(config, profiles)
        own = [assemble_circuit(config, [profile]) for profile in profiles[:3]]
        references = [reference_circuit(config, profile).step for profile in profiles]
        for i, op in enumerate(batch.step):
            if references[0][i].gate.kind == "rzz":
                continue
            want = fused_superoperators([(step[i].gate, step[i].channels)
                                         for step in references], 3)
            assert op.fused.targets == want[0].targets == references[0][i].gate.targets
            assert op.fused.matrix.shape == (50, 16, 16)
            assert np.abs(op.fused.matrix - [sop.matrix for sop in want]).max() <= 1e-14, i
            for b, circuit in enumerate(own):
                assert op.fused.matrix[b].tobytes() == circuit.step[i].fused.matrix.tobytes()


class TestSchedule:
    """assemble_circuit's ops are the fused ops of the gates that
    chains.build_trotter_circuit makes, with the channels that
    noise.with_noise attaches, so the Kraus-loop oracle and the bench's gate
    and Kraus counts see the same circuit."""

    def test_headline_schedule(self):
        config = resolve_config(load_config(REPO / "configs" / "headline.json"))[1]
        circuit = assemble_circuit(config)
        ops = list(circuit.gate_ops())
        assert len(ops) == 721
        assert sum(len(channel.kraus_ops) for op in ops for channel, _ in op.channels) == 15368

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("noise", ["ideal", "hamiltonian", "dephasing_channel"])
    def test_xy_ops_are_the_trotter_gates_with_noise_channels(self, noise, members):
        params = None if noise == "ideal" else NoiseParams(zz_mode=noise, p_zz=0.01)
        configs = [ExperimentConfig(n_sites=4, n_steps=8, j0=j0, noise=params)
                   for j0 in (1.0, 2.9, 0.5)[:members]]
        profiles = [config.profile() for config in configs]
        step = assemble_circuit(configs[0], profiles).step
        for b, profile in enumerate(profiles):  # each member against its own gates
            want = build_trotter_circuit(profile, configs[0].plan(),
                                         params.circuit_zeta() if params is not None else 0.0).step
            if params is not None:
                want = with_noise(want, params)
            assert len(step) == len(want)
            xy = [(got, ref) for got, ref in zip(step, want) if ref.gate.kind != "rzz"]
            assert len(xy) == 6
            for got, ref in xy:
                fused = fused_superoperators([(ref.gate, ref.channels)], 4)[0]
                assert got.fused.targets == ref.gate.targets
                member = got.fused.matrix[b] if members > 1 else got.fused.matrix
                assert np.abs(member - fused.matrix).max() <= 1e-14
                assert len(got.channels) == len(ref.channels) == {
                    "ideal": 0, "hamiltonian": 2, "dephasing_channel": 3}[noise]
                for (channel, targets), (ref_channel, ref_targets) in zip(got.channels,
                                                                          ref.channels):
                    assert channel is ref_channel and targets == ref_targets

    def test_a_non_finite_angle_is_refused_before_anything_runs(self, monkeypatch):
        """A finite coupling whose angle J dt overflows is refused when the
        circuit is assembled, before any op is bound."""
        bound = []
        monkeypatch.setattr(experiments, "bind_superoperators", lambda *args: bound.append(args))
        config = ExperimentConfig(n_sites=2, couplings=(1e308,), total_time=10.0, n_steps=1)
        with pytest.raises(ValueError, match="RXX needs a finite rotation angle"):
            run_sp_series(config)
        assert bound == []


class TestFixedBuffers:
    """evolve_recorded steps each circuit in two fixed state buffers."""

    CONFIGS = [ExperimentConfig(n_sites=4, j0=j0, noise=NoiseParams()) for j0 in (0.5, 1.0, 2.9)]

    @classmethod
    def circuit(cls, n_steps: int = 80):
        configs = [replace(config, n_steps=n_steps) for config in cls.CONFIGS]
        return assemble_circuit(configs[0], [config.profile() for config in configs])

    def test_blocks_come_from_two_buffers_per_chunk(self, monkeypatch):
        """Over an 80-step noisy N = 4 batch of 3 members, as one chunk and
        as chunks of 2 and 1 (chunk_circuits), every block observe sees is
        one of its chunk circuit's two buffers, and the chunks' records
        equal the whole batch's."""
        whole = evolve_recorded(self.circuit(), lambda block: block)
        for sizes in ([3], [2, 1]):
            monkeypatch.setattr(experiments, "MAX_BATCH_COEFFS", sizes[0] * 2 * 4**3)
            circuits = chunk_circuits(self.CONFIGS[0], [c.profile() for c in self.CONFIGS])
            assert [len(circuit.profiles) for circuit in circuits] == sizes
            got = []
            for circuit in circuits:
                seen = []
                got.append(evolve_recorded(circuit, lambda block: seen.append(block) or block))
                assert [len(block) for block in seen] == [len(circuit.profiles)] * 81
                assert len({block.ctypes.data for block in seen}) <= 2, sizes
            assert np.array_equal(np.concatenate(got), whole)

    def test_a_step_allocates_no_state(self):
        """Between two observe calls no allocation as large as the block
        is live at once: a 3-member batch of one sector."""
        self.assert_no_state_allocated(self.circuit(n_steps=20), 3 * 2 * 4**3)

    def test_a_two_sector_step_allocates_no_state(self):
        """The same for an H-prep run, whose block holds two sectors."""
        circuit = assemble_circuit(replace(self.CONFIGS[0], n_steps=20), amplitudes=PLUS)
        self.assert_no_state_allocated(circuit, 2 * 2 * 4**3)

    @staticmethod
    def assert_no_state_allocated(circuit, size: int) -> None:
        """Between two observe calls of the circuit's run, whose block holds
        `size` coefficients, no allocation that large is live at once."""
        peaks = []

        def observe(block):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - current)
            tracemalloc.reset_peak()
            assert block.size == size
            return block[:, :1, 0]

        tracemalloc.start()
        try:
            evolve_recorded(circuit, observe)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 21
        assert max(peaks[1:]) < size * 8

    @staticmethod
    def block_shapes(monkeypatch) -> list:
        """The shape of every block that evolve_recorded hands to observe."""
        shapes = []
        real = experiments.evolve_recorded

        def spy(circuit, observe, settled=None):
            return real(circuit, lambda block: shapes.append(block.shape) or observe(block),
                        settled)

        monkeypatch.setattr(experiments, "evolve_recorded", spy)
        return shapes

    @pytest.mark.parametrize("n", [2, 4, 5])
    @pytest.mark.parametrize("run,members,sectors", [
        ("sp_series", 1, 1), ("site_resolved", 1, 1), ("first_peaks", 3, 1),
        ("one", 1, 1), ("plus", 1, 2), ("general", 1, 2)])
    def test_buffers_hold_the_reachable_sectors(self, monkeypatch, n, run, members, sectors):
        """An X prep (the single excitation) keeps every string of odd X/Y
        weight at 0, so its runs hold one sector of 2 * 4^(n-1)
        coefficients per member, half the 4^n vector; an H or general prep
        of arbitrary_transfer holds two."""
        shapes = self.block_shapes(monkeypatch)
        config = ExperimentConfig(n_sites=n, n_steps=6, noise=NoiseParams())
        amplitudes = {"one": (0, 1), "plus": PLUS, "general": (0.6, 0.8j)}
        if run == "sp_series":
            run_sp_series(config)
        elif run == "site_resolved":
            run_site_resolved(config)
        elif run == "first_peaks":
            run_first_peaks(config, [pst_couplings(n, j0) for j0 in (0.5, 1.0, 2.9)])
        else:
            run_arbitrary_transfer(config, amplitudes[run])
        assert shapes and set(shapes) == {(members, 2 * 4 ** (n - 1), sectors)}

    def test_a_stopped_step_allocates_no_state(self, monkeypatch):
        """run_first_peaks' stop test, run between two observe calls, keeps
        the step below a block's size too."""
        peaks = []
        real = experiments.evolve_recorded

        def measured(circuit, observe, settled):
            def wrapped(block):
                current, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - current)
                tracemalloc.reset_peak()
                return observe(block)
            return real(circuit, wrapped, settled)

        monkeypatch.setattr(experiments, "evolve_recorded", measured)
        profiles = [pst_couplings(4, j0) for j0 in (0.5, 1.0, 2.9)]
        tracemalloc.start()
        try:
            run_first_peaks(ExperimentConfig(n_sites=4, noise=NoiseParams()), profiles)
        finally:
            tracemalloc.stop()
        assert len(peaks) < 81  # stopped early
        assert max(peaks[1:]) < 3 * 2 * 4**3 * 8


class TestReadout:
    """Readout reads a run's populations from its recorded states and draws
    its shots as a scalar loop over steps, then sites (or bases), from one
    generator seeded with the run's seed, value for value."""

    NOISE = NoiseParams(readout_error=0.03)

    @staticmethod
    def flip(p1, readout_error):
        p1 = (1.0 - readout_error) * p1 + readout_error * (1.0 - p1)
        return min(1.0, max(0.0, p1))

    @classmethod
    def draw(cls, p1, shots, rng, readout_error):
        return int(rng.binomial(shots, cls.flip(p1, readout_error))) / shots

    @pytest.mark.parametrize("j0", [0.5, 1.0, 2.9])
    def test_site_resolved_shots_equal_a_scalar_loop(self, j0):
        config = ExperimentConfig(n_sites=4, n_steps=40, j0=j0, noise=self.NOISE, shots=1024,
                                  seed=7)
        series = run_site_resolved(config)
        states = own_states(config)
        rng = np.random.default_rng(config.seed)
        want = {site: [] for site in (1, 2, 3, 4)}
        for vec in states:  # step by step, then site by site
            for site in want:
                p1 = qubit_p1(vec, site - 1)
                want[site].append(self.draw(p1, 1024, rng, 0.03))
        for site in want:
            assert np.array_equal(series.values[site], want[site]), site

    def test_arbitrary_transfer_shots_equal_a_scalar_loop(self):
        config = ExperimentConfig(n_sites=4, n_steps=30, noise=self.NOISE, shots=256, seed=3)
        record = run_arbitrary_transfer(config, (0.6, 0.8j))
        circuit = assemble_circuit(config, amplitudes=(0.6, 0.8j))
        # each rotation compiled for all 4 qubits and applied to the whole state
        rotations = [compiled_ops(basis_ops(kinds, 3, self.NOISE), 4)
                     for kinds in BASIS_GATE_KINDS]
        rng = np.random.default_rng(config.seed)
        want = []
        for vec in recorded_vectors(circuit)[0]:  # step, then basis
            want.append([1.0 - 2.0 * self.draw(qubit_p1(apply_in_order(vec, ops), 3),
                                               256, rng, 0.03)
                         for ops in rotations])
        want = np.array(want)
        for axis, got in enumerate((record.x, record.y, record.z)):
            assert np.array_equal(got, want[:, axis]), axis

    @pytest.mark.parametrize("j0", [0.5, 2.0])
    def test_exact_series_equals_qubit_p1(self, j0):
        config = ExperimentConfig(n_sites=3, n_steps=10, j0=j0, noise=self.NOISE)
        series = run_site_resolved(config)
        states = own_states(config)
        for site in (1, 2, 3):
            want = [self.flip(qubit_p1(vec, site - 1), 0.03)
                    for vec in states]
            assert np.array_equal(series.values[site], want), site


class TestShotMode:
    def test_seeded_runs_identical(self):
        cfg = ExperimentConfig(n_sites=3, n_steps=20, shots=256, seed=11)
        a = run_sp_series(cfg)
        b = run_sp_series(cfg)
        np.testing.assert_array_equal(a.series(), b.series())

    def test_error_shrinks_with_shots(self):
        """Shot-mode deviation from exact mode scales down as shots grow."""
        exact = run_sp_series(ExperimentConfig(n_sites=3, n_steps=20)).series()

        def mean_err(shots):
            errs = []
            for seed in range(8):
                s = run_sp_series(
                    ExperimentConfig(n_sites=3, n_steps=20, shots=shots, seed=seed)
                ).series()
                errs.append(np.mean(np.abs(s - exact)))
            return np.mean(errs)

        coarse, fine = mean_err(64), mean_err(6400)
        assert fine < coarse / 3  # ~1/sqrt(100) = 1/10 expected

    def test_values_stay_clamped(self):
        series = run_sp_series(ExperimentConfig(n_sites=3, n_steps=30, shots=16, seed=5))
        v = series.series()
        assert np.all((v >= 0) & (v <= 1))


BASIC_RECONSTRUCTIONS = [
    ((0, 0, 1), [[1, 0], [0, 0]]),
    ((1, 0, 0), [[0.5, 0.5], [0.5, 0.5]]),
    ((0, 0, 0), [[0.5, 0], [0, 0.5]]),
]


class TestTomographyReconstruct:
    @pytest.mark.parametrize("xyz,expected", BASIC_RECONSTRUCTIONS)
    def test_basic_reconstructions(self, xyz, expected):
        """Each case reconstructs as one column of the Bloch arrays of all three."""
        cases = [case for case, _ in BASIC_RECONSTRUCTIONS]
        bloch = tomography_reconstruct(*np.array(cases, dtype=float).T)
        assert bloch.shape == (3, 3)
        np.testing.assert_allclose(bloch_density(*bloch[:, cases.index(xyz)]), expected,
                                   atol=1e-15)

    def test_slightly_long_bloch_vector_rescaled(self):
        bloch = tomography_reconstruct(np.array([1.05]), np.zeros(1), np.zeros(1))
        evals = np.linalg.eigvalsh(bloch_density(*bloch[:, 0]))
        assert evals.min() >= -1e-12
        np.testing.assert_allclose(bloch[:, 0], [1, 0, 0], atol=1e-12)

    def test_only_long_members_rescaled(self):
        """Only the vectors with norm in (1, 1 + eps] are scaled back to the
        sphere; the others keep their Bloch components."""
        x = np.array([1.05, 0.6, 0.0, 0.8])
        y = np.array([0.0, 0.0, 1.1, 0.6])
        z = np.array([0.0, 0.8, 0.0, 0.0])
        bloch = tomography_reconstruct(x, y, z).T
        np.testing.assert_allclose(bloch, [[1, 0, 0], [0.6, 0, 0.8], [0, 1, 0], [0.8, 0.6, 0]],
                                   atol=1e-15)
        assert np.array_equal(bloch[[1, 3]], np.stack([x, y, z], axis=1)[[1, 3]])

    def test_far_out_rejected(self):
        with pytest.raises(ValueError, match="Bloch"):
            tomography_reconstruct(np.array([1.5]), np.zeros(1), np.zeros(1))

    def test_one_far_member_fails_the_stack(self):
        x = np.array([0.0, 0.5, 1.2, 1.05])
        with pytest.raises(ValueError, match="Bloch"):
            tomography_reconstruct(x, np.zeros(4), np.array([1.0, 0.5, 0.0, 0.0]))


class TestArbitraryTransfer:
    def test_basis_state_reduces_to_sp(self):
        """A=0, B=1 sends |1>: fidelity to |1><1| equals the end-site SP."""
        cfg = ExperimentConfig(n_sites=4, n_steps=40)
        record = run_arbitrary_transfer(cfg, (0.0, 1.0))
        sp = run_sp_series(ExperimentConfig(n_sites=4, n_steps=40)).series()
        np.testing.assert_allclose(record.fidelity, sp, atol=1e-9)
        np.testing.assert_allclose(record.sp, sp, atol=1e-9)

    def test_ideal_plus_fidelity_matches_transfer_phase_oracle(self):
        """Raw |+> fidelity tracks 1/2 + Re(conj(a_vac) c_N)/2 from the exact
        single-excitation amplitude; with transfer phase i sin^3(t) the ideal
        curve is flat at 0.5."""
        cfg = ExperimentConfig(n_sites=4, n_steps=40)
        record = run_arbitrary_transfer(cfg, PLUS)
        amp = exact_transfer_amplitude(pst_couplings(4, 1.0), record.times)
        oracle = 0.5 + 0.5 * np.real(np.conj(1.0) * amp)
        np.testing.assert_allclose(oracle, 0.5, atol=1e-12)  # phase is purely imaginary
        np.testing.assert_allclose(record.fidelity, oracle, atol=0.02)  # Trotter error

    def test_exact_tomography_round_trip(self):
        """Exact-mode reconstruction equals the reduced state to 1e-9."""
        cfg = ExperimentConfig(n_sites=3, n_steps=15)
        record = run_arbitrary_transfer(cfg, PLUS)
        circuit = assemble_circuit(cfg, amplitudes=PLUS)
        reduced = [partial_trace_to_qubit(to_density_matrix(vec), 2).matrix
                   for vec in recorded_vectors(circuit)[0]]
        rec = tomography_reconstruct(record.x, record.y, record.z).T
        for rec_r, red in zip(rec, reduced, strict=True):
            dist = 0.5 * np.linalg.norm(rec_r - bloch_vector(red))
            assert dist < 1e-9

    def test_phase_corrected_at_least_raw(self):
        record = run_arbitrary_transfer(ExperimentConfig(n_sites=4, n_steps=40), PLUS)
        assert np.all(record.fidelity_phase_corrected >= record.fidelity - 1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="must be 1"):
            run_arbitrary_transfer(ExperimentConfig(), (1.0, 1.0))

    @pytest.mark.parametrize("a,b,runs", [
        (0.6, 0.8000000003, False),  # |A|^2 + |B|^2 - 1 = 4.8e-10
        (0.6, 0.8 + 2e-12, False),  # 3.2e-12, above the gate's 1e-12
        (0.6, 0.8 + 4e-13, True),  # 6.4e-13
        (1 / math.sqrt(2) + 9e-13, 1 / math.sqrt(2) + 9e-13, False),  # near H, 2.5e-12
        (5e-13, 1.0 + 9e-13, False),  # near X, 1.8e-12
        (1 / math.sqrt(2) + 3e-13, 1 / math.sqrt(2) + 3e-13, "h"),  # 8.5e-13
        (5e-13, 1.0 + 4e-13, "x"),  # 8.0e-13
    ])
    def test_amplitudes_are_held_to_the_gate_tolerance(self, a, b, runs):
        """One tolerance for every pair of amplitudes: the amplitude rule
        refuses, with its own message, exactly what the prep gate's
        unitarity check would, near H's and X's amplitudes too; amplitudes
        it accepts within 1e-12 of H's or X's take that gate."""
        config = ExperimentConfig(n_sites=2, n_steps=2)
        if runs:
            (got,) = assemble_circuit(config, amplitudes=(a, b)).prep
            (prep,) = reference_circuit(config, amplitudes=(a, b)).prep
            assert prep.gate.kind == ("u" if runs is True else runs)
            want = fused_superoperators([(prep.gate, prep.channels)], 2)[0]
            assert got.fused.matrix.tobytes() == want.matrix.tobytes()
        else:
            with pytest.raises(ValueError, match=r"\|A\|\^2 \+ \|B\|\^2 = .*, must be 1"):
                assemble_circuit(config, amplitudes=(a, b))

    def test_shot_mode_reproducible(self):
        cfg = ExperimentConfig(n_sites=3, n_steps=10, shots=128, seed=9, noise=NoiseParams())
        a = run_arbitrary_transfer(cfg, PLUS)
        b = run_arbitrary_transfer(cfg, PLUS)
        np.testing.assert_array_equal(a.fidelity, b.fidelity)


def per_step_tomography(config: ExperimentConfig, amplitudes) -> dict:
    """run_arbitrary_transfer with the scalar per-step tomography it used to
    run: each step's Bloch vector rescaled with math.sqrt, the fidelity
    tr(rho sigma) of one 2 x 2 state at a time against the pure target
    sigma, and the phase-maximized fidelity with Python abs on the complex
    off-diagonal entry."""
    a, b = (complex(amplitude) for amplitude in amplitudes)
    circuit = assemble_circuit(config, amplitudes=(a, b))
    readout = config.noise.readout_error if config.noise is not None else 0.0
    target = np.outer([a, b], np.conj([a, b]))
    r4 = recorded_vectors(circuit)[0][:, :4]  # r_I, r_X, r_Y, r_Z of the last qubit
    rotated = r4 @ experiments._basis_rotation_ptms(config.noise).swapaxes(1, 2)
    p1 = readout_p1(((rotated[..., 0] - rotated[..., 3]) / 2).T, config.shots,
                    np.random.default_rng(config.seed), readout)
    xs, ys, zs = (1.0 - 2.0 * p1).T.copy()
    fids, fids_pc = [], []
    for x, y, z in zip(xs, ys, zs):
        r = math.sqrt(x * x + y * y + z * z)
        assert r <= 1.15
        if r > 1.0:
            x, y, z = x / r, y / r, z / r
        rho = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)
        fid = float(np.real(np.trace(rho @ target)))
        val = (abs(a) ** 2 * np.real(rho[0, 0]) + abs(b) ** 2 * np.real(rho[1, 1])
               + 2.0 * abs(a) * abs(b) * abs(rho[0, 1]))
        fids.append(min(1.0, max(0.0, fid)))
        fids_pc.append(float(min(1.0, max(0.0, val))))
    return dict(x=xs, y=ys, z=zs, sp=(1.0 - zs) / 2.0, fidelity=np.array(fids),
                fidelity_phase_corrected=np.array(fids_pc))


class TestTomographyOnArrays:
    """The array tomography reproduces the per-step scalar one: the Bloch
    components and SP bit for bit, the fidelities to 1e-12."""

    @pytest.mark.parametrize("shots", [None, 256], ids=["exact", "shots"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    @pytest.mark.parametrize("amps", [
        (1 / math.sqrt(2), 1 / math.sqrt(2)),
        (0.6, 0.8j),
        (math.cos(0.3), complex(np.exp(0.7j)) * math.sin(0.3)),
        (0.0, 1.0),
    ], ids=["plus", "imag", "phase", "one"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_step_loop(self, n, amps, noisy, shots):
        config = ExperimentConfig(n_sites=n, n_steps=40, noise=NoiseParams() if noisy else None,
                                  shots=shots, seed=n)
        record = run_arbitrary_transfer(config, amps)
        want = per_step_tomography(config, amps)
        for name in ("x", "y", "z", "sp"):
            assert np.array_equal(getattr(record, name), want[name]), name
        for name in ("fidelity", "fidelity_phase_corrected"):
            np.testing.assert_allclose(getattr(record, name), want[name], rtol=0, atol=1e-12,
                                       err_msg=name)


class TestPureTargetFidelity:
    """Both fidelities score the state rho = (I + x X + y Y + z Z) / 2 of the
    rescaled Bloch components against the pure target psi = (a, b):
    fidelity is <psi|rho|psi>, with no term from the target's determinant,
    which is rounding noise, and the phase-corrected one is
    |a|^2 rho00 + |b|^2 rho11 + 2 |a| |b| |rho01|, clipped."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    @pytest.mark.parametrize("amps", [
        (0.6, 0.8),
        (0.8, 0.6j),
        (0.6, 0.8 * complex(np.exp(0.7j))),
        (math.cos(0.3), complex(np.exp(0.7j)) * math.sin(0.3)),
        (0.0, 1.0),
        (1 / math.sqrt(2), 1 / math.sqrt(2)),
    ], ids=["real", "imag", "phase", "angle", "one", "plus"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_fidelities_score_the_reconstructed_state(self, n, amps, noisy):
        config = ExperimentConfig(n_sites=n, n_steps=40, noise=NoiseParams() if noisy else None)
        record = run_arbitrary_transfer(config, amps)
        a, b = (complex(amplitude) for amplitude in amps)
        psi = np.array([a, b])
        rhos = [bloch_density(*r) for r in tomography_reconstruct(record.x, record.y, record.z).T]
        overlap = [np.vdot(psi, rho @ psi).real for rho in rhos]
        phase_max = [min(1.0, max(0.0, abs(a) ** 2 * rho[0, 0].real + abs(b) ** 2 * rho[1, 1].real
                                   + 2.0 * abs(a) * abs(b) * abs(rho[0, 1]))) for rho in rhos]
        np.testing.assert_allclose(record.fidelity, overlap, rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.fidelity_phase_corrected, phase_max, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("amps", [PLUS, (0.6, 0.8j)], ids=["plus", "imag"])
    def test_shots_fidelities_recompute_from_the_measured_columns(self, amps):
        """In shots mode the record's x, y, z are the measured components,
        some of norm above 1; both fidelity columns recompute from them
        after tomography_reconstruct, and at those steps not from them as
        written."""
        config = ExperimentConfig(n_sites=3, n_steps=40, shots=64, seed=1, noise=NoiseParams())
        record = run_arbitrary_transfer(config, amps)
        a, b = (complex(amplitude) for amplitude in amps)
        ab, a2, b2 = a.conjugate() * b, abs(a) ** 2, abs(b) ** 2
        n = np.array([2.0 * ab.real, 2.0 * ab.imag, a2 - b2])
        measured = np.array([record.x, record.y, record.z])
        over = np.linalg.norm(measured, axis=0) > 1.0
        assert over.any()
        x, y, z = tomography_reconstruct(*measured)
        fidelity = np.clip((1.0 + n @ np.array([x, y, z])) / 2.0, 0.0, 1.0)
        phase_max = np.clip((a2 * (1.0 + z) + b2 * (1.0 - z)) / 2.0
                            + abs(a) * abs(b) * np.hypot(x, y), 0.0, 1.0)
        np.testing.assert_allclose(record.fidelity, fidelity, rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.fidelity_phase_corrected, phase_max, rtol=0, atol=1e-12)
        as_written = np.clip((1.0 + n @ measured) / 2.0, 0.0, 1.0)
        assert np.abs(record.fidelity - as_written)[over].max() > 1e-6


class TestSeriesChecks:
    """SPTimeSeries refuses what no run makes and its readers cannot use."""

    def test_empty_grid_refused(self):
        with pytest.raises(ValueError, match="at least one grid time"):
            SPTimeSeries(times=[], values={1: []})

    @pytest.mark.parametrize("index,bad", [(2, math.nan), (4, math.inf), (0, -math.inf)])
    def test_non_finite_times_refused(self, index, bad):
        times = np.linspace(0.0, 1.0, 5)
        times[index] = bad
        with pytest.raises(ValueError, match="finite"):
            SPTimeSeries(times=times, values={1: np.zeros(5)})

    def test_empty_values_refused(self):
        with pytest.raises(ValueError, match="at least one site"):
            SPTimeSeries(times=[0.0, 1.0], values={})

    @pytest.mark.parametrize("index,bad", [(2, math.nan), (4, math.inf), (0, -math.inf)])
    def test_non_finite_values_refused(self, index, bad):
        """np.clip keeps a NaN, so the clamp alone would let it through."""
        vals = np.full(5, 0.5)
        vals[index] = bad
        with pytest.raises(ValueError, match="site 3: values must be finite"):
            SPTimeSeries(times=np.linspace(0.0, 1.0, 5), values={1: np.zeros(5), 3: vals})


class TestDetectFirstPeak:
    def test_ideal_peak(self, ideal_series):
        t_star, sp_star = detect_first_peak(ideal_series)
        assert sp_star == pytest.approx(1.0, abs=0.02)
        assert t_star == pytest.approx(HALF_PI, abs=0.1)

    def test_comprehensive_peak_is_first_period(self, comprehensive_series):
        t_star, sp_star = detect_first_peak(comprehensive_series)
        assert 0 < t_star <= math.pi
        assert 0.5 < sp_star < 1.0

    def test_monotone_ramp_raises(self):
        times = np.linspace(0, 1, 20)
        series = SPTimeSeries(times=times, values={1: np.linspace(0, 0.9, 20)})
        with pytest.raises(NoPeakError):
            detect_first_peak(series)

    def test_low_prominence_bump_ignored(self):
        times = np.linspace(0, 1, 100)
        vals = 0.2 + 0.01 * np.exp(-((times - 0.3) ** 2) / 1e-4)
        with pytest.raises(NoPeakError):
            detect_first_peak(SPTimeSeries(times=times, values={1: vals}))

    def test_peak_outside_half_window_ignored(self):
        times = np.linspace(0, 2, 100)
        vals = np.where(times > 1.5, np.exp(-((times - 1.7) ** 2) / 1e-3), 0.0)
        with pytest.raises(NoPeakError):
            detect_first_peak(SPTimeSeries(times=times, values={1: vals}))

    def test_argmax_invariant_under_uniform_rescaling(self, comprehensive_series):
        t1, _ = detect_first_peak(comprehensive_series)
        shrunk = SPTimeSeries(
            times=comprehensive_series.times,
            values={4: 0.5 * comprehensive_series.series()},
        )
        t2, _ = detect_first_peak(shrunk)
        assert t1 == t2

    def test_equals_scipy_oracle(self, ideal_series, comprehensive_series):
        """detect_first_peak against first_peak_score, scipy's find_peaks in
        the window (0, T/2], on seeded random series and on simulated exact
        and 256-shot series."""
        rng = np.random.default_rng(22)
        cases = [rng.integers(0, 21, int(rng.integers(2, 82))) / 20 if i % 2
                 else rng.random(int(rng.integers(2, 82))) for i in range(400)]
        shots = run_sp_series(ExperimentConfig(n_sites=4, noise=NoiseParams(), shots=256))
        cases += [series.series() for series in (ideal_series, comprehensive_series, shots)]
        for x in cases:
            times = TrotterPlan(2.0 * math.pi, len(x) - 1).times()
            try:
                t_star, peak = detect_first_peak(SPTimeSeries(times=times, values={1: x}))
                got = (peak, t_star)
            except NoPeakError:
                got = (0.0, math.nan)
            assert same_score(got, first_peak_score(x, times)), x.tolist()


class TestFindPeaksMatchesScipy:
    """The package's maxima (_maxima) filtered by prominence against their
    oracle, scipy.signal.find_peaks, on series with plateaus, ties and
    monotone stretches."""

    @pytest.mark.parametrize("prominence", [0.0, 0.05, 0.3, 1.0])
    def test_seeded_random_series(self, prominence):
        rng = np.random.default_rng(int(100 * prominence))
        for i in range(1000):
            n = int(rng.integers(1, 60))
            # integer values make plateaus and equal peaks common
            x = rng.integers(0, 4, n).astype(float) if i % 2 else rng.random(n)
            assert_peaks_match(x, prominence)

    @pytest.mark.parametrize("x", [
        [0, 1, 1, 1, 0],            # odd plateau: its middle sample
        [0, 1, 1, 0],               # even plateau: (left + right) // 2
        [0, 2, 2, 1, 2, 2, 0],      # two plateaus of one height
        [0, 1, 1, 2, 2, 0],         # a step below the top is no peak
        [0, 3, 1, 2, 1, 0.5, 0],    # a lower peak's base stops at the higher one
    ])
    def test_plateaus(self, x):
        for prominence in (0.0, 0.5, 1.0, 2.0):
            assert_peaks_match(x, prominence)

    @pytest.mark.parametrize("x", [
        [1, 1, 0, 1, 1],            # plateaus on both edges are not peaks
        [0, 1, 1],                  # a plateau running to the last sample
        [2, 1, 2, 1],               # edges higher than the peak
        [0, 1, 0.5, 1, 0],          # equal peaks: each base runs past the other
        [1, 0, 1, 0, 1],
        [0.5, 1, 0, 1, 0.5],        # prominence exactly at the threshold
    ])
    def test_tied_edges(self, x):
        for prominence in (0.0, 0.5, 1.0):
            assert_peaks_match(x, prominence)

    @pytest.mark.parametrize("x", [[0.0], [0, 1], [3, 3, 3], list(range(9)),
                                   list(range(9, 0, -1)), [0, 1, 1, 2, 3, 3]])
    def test_monotone_and_short(self, x):
        assert_peaks_match(x, 0.0)

    def test_simulated_series(self, ideal_series, comprehensive_series):
        shots = run_sp_series(ExperimentConfig(n_sites=4, noise=NoiseParams(), shots=256))
        for series in (ideal_series, comprehensive_series, shots):
            for prominence in (0.0, 0.05, 0.3):
                assert_peaks_match(series.series(), prominence)


def assert_peaks_match(x, prominence):
    x = np.asarray(x, dtype=float)
    want = find_peaks(x, prominence=prominence)[0]
    got = [index for index, value, left, right, _ in _maxima(x)
           if value - max(left, right) >= prominence]
    np.testing.assert_array_equal(np.array(got, dtype=int), want,
                                  err_msg=f"x = {x.tolist()}, prominence = {prominence}")


def first_peak_score(x, times) -> tuple:
    """The first peak by its oracle, scipy.signal.find_peaks at
    PEAK_PROMINENCE in the window (0, T/2], as (peak, t*), (0.0, nan) where
    there is none."""
    x = np.asarray(x, dtype=float)
    peaks = [p for p in find_peaks(x, prominence=PEAK_PROMINENCE)[0]
             if 0.0 < times[p] <= times[-1] / 2.0 + 1e-12]
    if not peaks:
        return 0.0, math.nan
    return float(x[peaks[0]]), float(times[peaks[0]])


def same_score(a: tuple, b: tuple) -> bool:
    return a[0] == b[0] and (a[1] == b[1] or math.isnan(a[1]) and math.isnan(b[1]))


def window_last(times) -> int:
    return int(np.flatnonzero(times <= times[-1] / 2.0 + 1e-12)[-1])


def watched(batch, chunk: int | None = None) -> tuple:
    """Each series' (peak, t*) as run_first_peaks reads it, one watch per
    chunk, fed the chunk one recorded step at a time, as evolve_recorded
    feeds it; and the steps observed per chunk."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    m, n_steps = len(batch), batch.shape[1] - 1
    times = TrotterPlan(2.0 * math.pi, n_steps).times()
    scores, observed = [], []
    for lo in range(0, m, chunk or m):
        rows = batch[lo:lo + (chunk or m)]
        watch = experiments._FirstPeakWatch(len(rows), window_last(times), n_steps)
        for k in range(n_steps + 1):
            if watch(rows[:, :k + 1]):
                break
        observed.append(k + 1)
        scores += [(0.0, math.nan) if i < 0 else (x[i], times[i])
                   for x, i in zip(rows, watch.found)]
    return scores, observed


def assert_settles_exactly(x):
    """Every prefix on which _settled_peak tells gives the oracle's first
    peak of the whole series (first_peak_score), the whole series tells, and
    the watch reads the same."""
    x = np.asarray(x, dtype=float)
    times = TrotterPlan(2.0 * math.pi, len(x) - 1).times()
    want = first_peak_score(x, times)
    for k in range(len(x)):
        index = _settled_peak(x[:k + 1], window_last(times), k == len(x) - 1)
        if index is not None:
            got = (0.0, math.nan) if index < 0 else (x[index], times[index])
            assert same_score(got, want), (x.tolist(), k)
    assert index is not None
    assert same_score(watched(x)[0][0], want), x.tolist()


# values on a coarse grid: plateaus, equal maxima and prominences at the
# threshold (0.1 - 0.05 == 0.05, but 0.3 - 0.25 < 0.05) are common
coarse = st.lists(st.integers(0, 20), min_size=2, max_size=60).map(lambda v: np.array(v) / 20)
# runs of equal samples: every sample repeated one to four times
plateaus = st.lists(st.tuples(st.integers(0, 20), st.integers(1, 4)), min_size=2, max_size=25).map(
    lambda runs: np.repeat([v / 20 for v, _ in runs], [r for _, r in runs]))


class TestSettledPeak:
    """The optimizer's stopped first peak (_settled_peak, fed by
    run_first_peaks' watch) equals scipy's first peak of the whole series
    (first_peak_score), on every prefix where it tells."""

    @given(x=st.one_of(coarse, plateaus))
    @settings(max_examples=400, deadline=None)
    def test_coarse_series_with_plateaus(self, x):
        assert_settles_exactly(x)

    @given(x=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_random_series(self, x):
        assert_settles_exactly(x)

    def test_seeded_random_series(self):
        rng = np.random.default_rng(22)
        for i in range(400):
            n = int(rng.integers(2, 82))
            x = rng.integers(0, 21, n) / 20 if i % 2 else rng.random(n)
            assert_settles_exactly(x)

    @pytest.mark.parametrize("x,want,settles", [
        # a plateau straddling T/2 (index 5): its middle, 5, is in the window
        ([0, .2, .4, .6, .8, .8, .8, .8, .3, .1, 0], 5, 8),
        # ... and its middle, 6, is not; the window closes with the plateau
        ([0, .2, .4, .6, .6, .8, .8, .8, .8, .3, 0], -1, 9),
        # a window maximum that qualifies only through a drop after T/2
        ([0, .2, .4, .5, .48, .47, .46, .3, .1, 0, 0], 3, 7),
        # an earlier, higher maximum overtaken only after T/2: no peak ...
        ([0, .5, .47, .48, .46, .47, .46, .47, .9, .1, 0], -1, 8),
        # ... or, dropping instead, the first peak
        ([0, .5, .47, .48, .46, .47, .46, .47, .3, .1, 0], 1, 8),
        # a dead maximum (0.5 - 0.45 < 0.05) overtaken by the first peak
        ([.45, .5, .3, .6, .2, .2, .2, .2, .2, .2, .2], 3, 4),
        # exactly PEAK_PROMINENCE above its left base: a peak once it drops ...
        ([0, .05, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1, 2),
        # ... not dead while its right base is higher, so it holds the stop
        ([0, .05, .02, .03, .02, .03, .02, .01, 0, 0, 0], 1, 8),
        # 0.3 - 0.25 is just below 0.05; the plateau holding T/2 never closes
        ([.25, .3, .25, .25, .25, .25, .25, .25, .25, .25, .25], -1, 10),
        # no maximum at all, falling from the first sample
        ([.5, .4, .3, .2, .1, .05, 0, 0, 0, 0, 0], -1, 6),
    ])
    def test_adversarial(self, x, want, settles):
        """Each settles at the step given, with the oracle's answer."""
        assert_settles_exactly(x)
        answers = [_settled_peak(np.array(x[:k + 1], dtype=float), 5, k == 10) for k in range(11)]
        assert answers.index(want) == settles
        assert set(answers[settles:]) == {want}
        assert watched(x)[1] == [settles + 1]

    def test_simulated_series(self):
        """Exact noisy series over the grid's 40 scales and random profiles
        at N = 4, and 1024-shot series of the same runs; the watch reads
        them in chunks too."""
        rng = np.random.default_rng(5)
        profiles = [pst_couplings(4, 0.1 * i) for i in range(1, 41)]
        profiles += [CouplingProfile(4, tuple(rng.uniform(0.2, 6.0, 3))) for _ in range(20)]
        for shots in (None, 1024):
            configs = [ExperimentConfig(couplings=p.couplings, noise=NoiseParams(), shots=shots)
                       for p in profiles]
            batch = np.array([run_sp_series(config).series() for config in configs])
            for x in batch:
                assert_settles_exactly(x)
            want = [first_peak_score(x, configs[0].plan().times()) for x in batch]
            for chunk in (None, 7):
                assert all(map(same_score, watched(batch, chunk)[0], want))


class TestRunFirstPeaks:
    """run_first_peaks gives detect_first_peak of each member's full
    run_sp_series, whole or in chunks (its stop is counted in
    test_optimizer.py)."""

    @pytest.mark.parametrize("base", [
        ExperimentConfig(noise=NoiseParams()),
        ExperimentConfig(n_sites=3, n_steps=20, noise=NoiseParams(readout_error=0.03), seed=2),
        ExperimentConfig(n_sites=5, n_steps=40, noise=NoiseParams()),
        ExperimentConfig(n_sites=4),
    ])
    def test_equals_detect_first_peak(self, base, monkeypatch):
        rng = np.random.default_rng(base.n_sites)
        profiles = [pst_couplings(base.n_sites, j0) for j0 in (0.1, 0.4, 1.0, 2.2, 4.0)]
        profiles += [CouplingProfile(base.n_sites, tuple(rng.uniform(0.2, 6.0, base.n_sites - 1)))
                     for _ in range(6)]
        want = []
        for profile in profiles:
            try:
                want.append(detect_first_peak(run_sp_series(replace(base,
                                                                    couplings=profile.couplings))))
            except NoPeakError:
                want.append(None)
        assert run_first_peaks(base, profiles) == want
        chunks = []
        real = experiments.assemble_circuit
        monkeypatch.setattr(experiments, "assemble_circuit", lambda config, chunk: chunks.append(
            list(chunk)) or real(config, chunk))
        monkeypatch.setattr(experiments, "MAX_BATCH_COEFFS",
                            3 * 2 * 4 ** (base.n_sites - 1))  # chunks of 3
        assert run_first_peaks(base, profiles) == want
        assert chunks == [profiles[lo:lo + 3] for lo in range(0, 11, 3)]

    def test_refuses_shots(self):
        with pytest.raises(ValueError, match="shots must be None"):
            run_first_peaks(ExperimentConfig(shots=64), [pst_couplings(4, 1.0)])


# Floats whose JSON text has a special form: -0.0, the least subnormal, a
# value repr writes with an exponent either way, NaN and +-inf.
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, math.nan, math.inf, -math.inf]
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats().map(np.float64))
JSON_PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), JSON_FLOATS, st.text()),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner), st.lists(JSON_FLOATS, min_size=1)),
    max_leaves=40)


def json_dumps_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Cells around the switches of .12g: -0.0, exponent form below 1e-4 and from
# 1e12, twelve significant digits rounding up to the next power of ten.
CSV_SPECIALS = [-0.0, 1e-5, 9.99999999999e-5, 9.999999999995e-5, 1e-4, 0.000123456789012345,
                999999999999.5, 1e12, 1234567890123.4, 0.9999999999996]


def random_cells(rng, size: int) -> np.ndarray:
    """size floats spread over 20 decades, both signs, with CSV_SPECIALS among them."""
    cells = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-9, 14, size)
    cells[rng.choice(size, len(CSV_SPECIALS), replace=False)] = CSV_SPECIALS
    return cells


class TestSerialization:
    @settings(max_examples=100, deadline=None)
    @given(JSON_PAYLOADS)
    def test_json_text_equals_json_dumps(self, payload):
        assert json_text(payload) == json_dumps_text(payload)

    @pytest.mark.parametrize("payload", [
        {}, [], (), "", {"é": {"ключ": [], "": {}}, "\u2603": ()}, {"a": "\ud800"},
        SPECIAL_FLOATS, [*SPECIAL_FLOATS, 1, True, None], [np.float64(0.1), 2.0**-1074],
        {2: 1.0, 1: [0.5]}, {"a": {None: 1}}, 10**40, -0.0,
    ], ids=repr)
    def test_json_text_equals_json_dumps_on_edge_payloads(self, payload):
        assert json_text(payload) == json_dumps_text(payload)

    # explicit ids: repr(object()) holds a memory address, which would make
    # the test's id change from one collection to the next
    @pytest.mark.parametrize("payload", [
        np.bool_(True), object(), {"a": [1.0, np.int64(2)]}, [np.float32(0.5)], {(1, 2): 0.5},
        {"a": 1, 2: 3},
    ], ids=["np.True_", "object()", "{'a': [1.0, np.int64(2)]}", "[np.float32(0.5)]",
            "{(1, 2): 0.5}", "{'a': 1, 2: 3}"])
    def test_json_text_raises_where_json_dumps_does(self, payload):
        with pytest.raises(TypeError) as want:
            json_dumps_text(payload)
        with pytest.raises(TypeError, match=re.escape(str(want.value))):
            json_text(payload)

    def test_json_text_refuses_a_circular_payload(self):
        payload = {"a": []}
        payload["a"].append(payload)
        with pytest.raises(ValueError, match="Circular reference detected"):
            json_text(payload)

    @pytest.mark.parametrize("seed", range(4))
    def test_csv_writers_equal_per_element_formatting(self, seed):
        """Both CSV writers, formatting columns of Python floats, write what
        formatting each numpy scalar of each row writes."""
        rng = np.random.default_rng(seed)
        times = np.unique(np.abs(random_cells(rng, 60)))
        values = {site: np.clip(np.abs(random_cells(rng, len(times))) ** rng.uniform(0.1, 1), 0, 1)
                  for site in (1, 3, 4)}
        values[3][0] = -0.0
        series = SPTimeSeries(times=np.concatenate([[-0.0], times[1:]]), values=values)
        assert series_to_csv(series) == series_csv(series)
        m = 50
        record = TomographyRecord(times=random_cells(rng, m), x=random_cells(rng, m),
                                  y=random_cells(rng, m), z=random_cells(rng, m),
                                  fidelity=random_cells(rng, m),
                                  fidelity_phase_corrected=random_cells(rng, m),
                                  sp=random_cells(rng, m), amp_a=0.6, amp_b=0.8)
        assert tomography_to_csv(record, 4) == tomography_csv(record, 4)

    def test_csv_row_count_and_header(self, ideal_series):
        text = series_to_csv(ideal_series)
        lines = text.strip().split("\n")
        assert lines[0] == "t,site,sp"
        assert len(lines) == 1 + 81

    def test_csv_deterministic(self):
        cfg = ExperimentConfig(n_sites=3, n_steps=12, shots=64, seed=2)
        a = series_to_csv(run_sp_series(cfg))
        b = series_to_csv(run_sp_series(cfg))
        assert a == b

    def test_json_round_trip(self, ideal_series):
        payload = json.loads(series_to_json(ideal_series))
        assert payload["values"]["4"][0] == pytest.approx(0.0, abs=1e-12)
        assert len(payload["times"]) == 81

    def test_oracle_against_series_meta(self, ideal_series):
        assert ideal_series.meta["n_steps"] == 80
        assert ideal_series.meta["noisy"] is False
        oracle_peak = exact_sp_oracle(pst_couplings(4, 1.0), HALF_PI)
        assert oracle_peak == pytest.approx(1.0, abs=1e-10)
