"""Experiment drivers: series runs, tomography, and peak detection."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from pstlab.chains import (
    CouplingProfile,
    GateOp,
    TrotterPlan,
    exact_sp_oracle,
    exact_transfer_amplitude,
    gate_matrix,
    pst_couplings,
)
from pstlab import experiments
from pstlab.cli import load_config, resolve_config
from pstlab.experiments import (
    ExperimentConfig,
    NoPeakError,
    SPTimeSeries,
    _compile_merged,
    _compile_ops,
    _find_peaks,
    _settled_peak,
    assemble_circuit,
    detect_first_peak,
    evolve_recorded,
    readout_p1,
    run_arbitrary_transfer,
    run_first_peaks,
    run_site_resolved,
    run_sp_batch,
    run_sp_series,
    series_to_csv,
    series_to_json,
    tomography_reconstruct,
)
from pstlab.noise import NoiseParams, with_noise
from pstlab.sim_core import (
    MERGE_WIDTH,
    DensityMatrix,
    PauliState,
    UnitaryGate,
    apply_channel,
    apply_superoperator,
    apply_unitary,
    merge_superoperators,
    partial_trace_to_qubit,
    qubit_p1,
)

HALF_PI = math.pi / 2
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

    def test_bad_measured_site(self):
        with pytest.raises(ValueError, match="sites"):
            ExperimentConfig(n_sites=3, measured_sites=(4,))

    def test_bad_shots(self):
        with pytest.raises(ValueError, match="shots"):
            ExperimentConfig(shots=0)

    def test_config_hash_stable(self):
        a = ExperimentConfig(n_sites=4, seed=3)
        b = ExperimentConfig(n_sites=4, seed=3)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != ExperimentConfig(n_sites=4, seed=4).config_hash()

    def test_sp_series_requires_single_excitation(self):
        with pytest.raises(ValueError, match="single-excitation"):
            run_sp_series(ExperimentConfig(initial="arbitrary"))


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
        circuit = assemble_circuit(ExperimentConfig(n_sites=n))
        assert not circuit.has_channels()
        got = [PauliState(n, vec).to_density_matrix().matrix
               for vec in evolve_recorded(circuit, lambda block: block)[0]]
        want = kraus_loop_series(circuit)
        assert len(got) == len(want) == 81
        for k, (rho, oracle) in enumerate(zip(got, want)):
            assert np.max(np.abs(rho - oracle.matrix)) <= 1e-12, k

    def test_ideal_tomography_matches_kraus_loop(self):
        """The X, Y and Z records of an ideal arbitrary transfer are the last
        qubit's Bloch components of the Kraus-loop state at every step."""
        config = ExperimentConfig(n_sites=4, initial="arbitrary", amp_a=0.6, amp_b=0.48 + 0.64j)
        record = run_arbitrary_transfer(config)
        for k, rho in enumerate(kraus_loop_series(assemble_circuit(config))):
            m = partial_trace_to_qubit(rho, 3).matrix
            want = (2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real)
            got = (record.x[k], record.y[k], record.z[k])
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, k
        # b has a real and an imaginary part, so neither X nor Y stays flat
        assert min(np.ptp(record.x), np.ptp(record.y), np.ptp(record.z)) > 0.5


def kraus_loop(rho, op):
    """The test oracle: the op's gate, then each of its channels as a Kraus sum."""
    rho = apply_unitary(rho, op.gate)
    for channel, targets in op.channels:
        rho = apply_channel(rho, channel, targets)
    return rho


def kraus_loop_series(circuit) -> list:
    """The oracle's density matrix at k = 0..n_steps: the Kraus loop over the
    prep layer, then over the stored step n_steps times."""
    rho = DensityMatrix.zero(circuit.n_qubits)
    for op in circuit.prep:
        rho = kraus_loop(rho, op)
    out = [rho]
    for _ in range(circuit.plan.n_steps):
        for op in circuit.step:
            rho = kraus_loop(rho, op)
        out.append(rho)
    return out


def apply_in_order(state: PauliState, sops) -> PauliState:
    """apply_superoperator of each op in turn."""
    for sop in sops:
        state = apply_superoperator(state, sop)
    return state


BASIS_GATE_KINDS = (("h",), ("sdg", "h"), ())  # the X, Y and Z tomography rotations


def basis_ops(kinds, qubit: int, params) -> list:
    """The GateOps of one basis rotation of `qubit`, each gate followed by
    its with_noise channels unless params is None."""
    ops = [GateOp(UnitaryGate(gate_matrix(kind.upper()), (qubit,), kind=kind)) for kind in kinds]
    return ops if params is None else with_noise(ops, params)


def mixed_state(n: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return DensityMatrix(n, rho / np.trace(rho))


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
        for pauli_on, depol_on in itertools.product((False, True), repeat=2):
            params = NoiseParams(**{**STRONG, **ZZ_SETTINGS[zz], **THERMAL_SETTINGS[thermal]},
                                 pauli_on=pauli_on, depol_on=depol_on)
            circuit = assemble_circuit(ExperimentConfig(
                n_sites=n, n_steps=8, noise=params, initial="arbitrary", amp_a=0.6, amp_b=0.8j))
            one_qubit = [GateOp(UnitaryGate(gate_matrix("X"), (1,), kind="x"))] + [
                GateOp(UnitaryGate(gate_matrix(kind.upper()), (n - 1,), kind=kind))
                for kind in ("sdg", "h")]
            ops = circuit.prep + circuit.step + with_noise(one_qubit, params)
            oracle = mixed_state(n, seed=n)
            fused = PauliState.from_density_matrix(oracle)
            for op, sop in zip(ops, _compile_ops(ops, n)):
                fused = apply_superoperator(fused, sop)
                oracle = kraus_loop(oracle, op)
                err = np.max(np.abs(fused.to_density_matrix().matrix - oracle.matrix))
                assert err <= 1e-12, (params, op.gate.kind, op.gate.targets, err)

    def test_noisy_step_ops_carry_channels(self):
        """The matrix above exercises channels, not bare gates."""
        params = NoiseParams(**STRONG, zz_mode="dephasing_channel")
        circuit = assemble_circuit(ExperimentConfig(n_sites=3, n_steps=2, noise=params))
        assert all(len(op.channels) == 3 for op in circuit.step)

    def test_recorded_series_matches_kraus_loop(self):
        """evolve_recorded (prep once, the compiled step n_steps times) against the
        Kraus loop over every op of the circuit."""
        circuit = assemble_circuit(ExperimentConfig(n_sites=4, n_steps=12, noise=NoiseParams(),
                                                    initial="arbitrary"))
        fused = [PauliState(4, vec).to_density_matrix().matrix
                 for vec in evolve_recorded(circuit, lambda block: block)[0]]
        oracle = kraus_loop_series(circuit)
        assert len(fused) == 13
        for got, want in zip(fused, oracle):
            np.testing.assert_allclose(got, want.matrix, rtol=0, atol=1e-12)


class TestMergedMatchesKrausLoop:
    """The merged prep, step and basis-rotation lists, as evolve_recorded and
    run_arbitrary_transfer compile them, reproduce the Kraus loop."""

    @staticmethod
    def op_lists(n: int, params: NoiseParams) -> list:
        circuit = assemble_circuit(ExperimentConfig(
            n_sites=n, n_steps=8, noise=params, initial="arbitrary", amp_a=0.6, amp_b=0.8j))
        rotations = [basis_ops(kinds, n - 1, params) for kinds in BASIS_GATE_KINDS[:2]]
        return [circuit.prep, circuit.step, *rotations]

    @staticmethod
    def max_error(n: int, ops, merged) -> float:
        rho = mixed_state(n, seed=n)
        oracle = rho
        for op in ops:
            oracle = kraus_loop(oracle, op)
        got = apply_in_order(PauliState.from_density_matrix(rho), merged)
        return float(np.max(np.abs(got.to_density_matrix().matrix - oracle.matrix)))

    @pytest.mark.parametrize("thermal", sorted(THERMAL_SETTINGS))
    @pytest.mark.parametrize("zz", sorted(ZZ_SETTINGS))
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_merged_prep_step_and_rotations(self, n, zz, thermal):
        for pauli_on, depol_on in itertools.product((False, True), repeat=2):
            params = NoiseParams(**{**STRONG, **ZZ_SETTINGS[zz], **THERMAL_SETTINGS[thermal]},
                                 pauli_on=pauli_on, depol_on=depol_on)
            for ops in self.op_lists(n, params):
                merged = _compile_merged(ops, n)
                assert all(len(sop.targets) <= MERGE_WIDTH for sop in merged)
                err = self.max_error(n, ops, merged)
                assert err <= 1e-12, (params, [op.gate.kind for op in ops], err)

    @pytest.mark.parametrize("config,per_step,per_run", [
        (ExperimentConfig(n_sites=4, noise=NoiseParams()), 4, 321),
        (ExperimentConfig(n_sites=6, noise=NoiseParams()), 6, 481),
        (ExperimentConfig(n_sites=7, n_steps=10, total_time=math.pi / 4,
                          noise=NoiseParams(zz_mode="dephasing_channel", p_zz=0.01)), 3, 31),
    ], ids=["headline", "n6_sites", "n7_zz_dephasing"])
    def test_ops_per_step(self, config, per_step, per_run):
        """9, 15 and 12 fused ops per step merge into 4, 6 and 3; with the
        one prep op, the headline applies 321 ops per run instead of 721."""
        circuit = assemble_circuit(config)
        step = _compile_merged(circuit.step, config.n_sites)
        prep = _compile_merged(circuit.prep, config.n_sites)
        assert len(step) == per_step
        assert len(prep) + config.n_steps * len(step) == per_run

    def test_reversed_group_breaks_the_match(self):
        """The oracle sees the order inside a group: the step's first group
        (RXX and RYY on bonds (0, 1) and (1, 2)) merged in reverse fails it."""
        params = NoiseParams(**STRONG)
        ops = assemble_circuit(ExperimentConfig(n_sites=4, n_steps=8, noise=params)).step
        compiled = _compile_ops(ops, 4)
        merged = merge_superoperators(compiled)
        assert merged[0].targets == (0, 1, 2) and len(merge_superoperators(compiled[:4])) == 1
        assert self.max_error(4, ops, merged) <= 1e-12
        reversed_group = merge_superoperators(compiled[3::-1])
        assert self.max_error(4, ops, reversed_group + merged[1:]) > 1e-12


class TestTomographyMatchesKrausLoop:
    """run_arbitrary_transfer's exact x, y and z, read from the last qubit's
    four Pauli coefficients, against the Kraus loop: rho evolved op by op,
    qubit N - 1 rotated by each basis's gates and their with_noise channels
    on the whole density matrix, then <sigma> = 1 - 2 qubit_p1."""

    @pytest.mark.parametrize("amps", [(0.6, 0.8j), (1 / math.sqrt(2), 1 / math.sqrt(2))],
                             ids=["general", "plus"])
    @pytest.mark.parametrize("noise", ["ideal", "hamiltonian", "dephasing_channel"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bloch_components(self, n, noise, amps):
        params = None if noise == "ideal" else NoiseParams(**{**STRONG, "zz_mode": noise})
        config = ExperimentConfig(n_sites=n, n_steps=8, noise=params, initial="arbitrary",
                                  amp_a=amps[0], amp_b=amps[1])
        record = run_arbitrary_transfer(config)
        rotations = [basis_ops(kinds, n - 1, params) for kinds in BASIS_GATE_KINDS]
        for k, rho in enumerate(kraus_loop_series(assemble_circuit(config))):
            for got, ops in zip((record.x, record.y, record.z), rotations, strict=True):
                rotated = rho
                for op in ops:
                    rotated = kraus_loop(rotated, op)
                err = abs(got[k] - (1.0 - 2.0 * qubit_p1(rotated, n - 1)))
                assert err <= 1e-12, (k, [op.gate.kind for op in ops], err)
        # the transfer moves z, and x or y (the other stays flat on a real or
        # imaginary transfer phase unless coherent ZZ mixes them)
        assert np.ptp(record.z) > 0.5 and max(np.ptp(record.x), np.ptp(record.y)) > 0.1


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
        """Every op compiled for the prep and the step acts on consecutive
        qubits in order, so it compiles and the kernel contracts it in
        place. The tomography rotations never touch the state:
        they act on the last qubit's four recorded coefficients."""
        for config in self.configs():
            n = config.n_sites
            ops = []
            for initial in ("single_excitation", "arbitrary"):
                circuit = assemble_circuit(replace(config, initial=initial))
                ops += _compile_merged(circuit.prep, n) + _compile_merged(circuit.step, n)
            assert [sop.targets for sop in ops if sop.targets != tuple(
                range(sop.targets[0], sop.targets[0] + len(sop.targets)))] == [], config


def assert_same_series(got: SPTimeSeries, want: SPTimeSeries) -> None:
    """Same times, sites, values (bit for bit) and meta."""
    assert np.array_equal(got.times, want.times)
    assert got.sites() == want.sites()
    for site in want.sites():
        assert np.array_equal(got.values[site], want.values[site]), site
    assert got.meta == want.meta


class TestLockStep:
    """run_sp_batch evolves its members together; each member's series is its
    own run_sp_series, bit for bit."""

    J0S = (0.01, 0.5, 1.0, 2.9, 4.0)  # 0.01 transfers nothing inside the window

    @staticmethod
    def configs(n: int, **extra) -> list:
        return [ExperimentConfig(n_sites=n, n_steps=20, j0=j0, noise=NoiseParams(), **extra)
                for j0 in TestLockStep.J0S]

    @pytest.mark.parametrize("n", [3, 4])
    def test_members_equal_their_own_runs(self, n):
        configs = self.configs(n)
        configs[2] = replace(configs[2], couplings=(1.3, 0.9, 1.1)[:n - 1])
        for config, series in zip(configs, run_sp_batch(configs)):
            assert_same_series(series, run_sp_series(config))

    def test_each_member_samples_its_own_shots(self):
        configs = self.configs(3, shots=64, seed=5, measured_sites=(1, 2, 3))
        for config, series in zip(configs, run_sp_batch(configs)):
            assert_same_series(series, run_sp_series(config))

    @pytest.mark.parametrize("change", [
        {"n_sites": 3},
        {"n_steps": 21},
        {"total_time": math.pi},
        {"noise": None},
        {"noise": NoiseParams(p_pauli=0.002)},
        {"seed": 1},
    ], ids=repr)
    def test_members_differing_beyond_couplings_refused_before_any_run(self, monkeypatch,
                                                                       change):
        built = []
        monkeypatch.setattr(experiments, "assemble_circuit", lambda cfg: built.append(cfg))
        configs = self.configs(4)
        configs[-1] = replace(configs[-1], **change)
        with pytest.raises(ValueError, match="differ only in couplings"):
            run_sp_batch(configs)
        assert built == []

    def test_batch_refuses_profiles_of_another_chain_length(self):
        config = ExperimentConfig(n_sites=4, n_steps=20)
        with pytest.raises(ValueError, match="share their chain length"):
            assemble_circuit(config, [config.profile(), pst_couplings(3, 1.0)])

    def test_evolve_recorded_refuses_rows_of_another_size(self):
        """observe must give one row per member of the chunk."""
        config = ExperimentConfig(n_sites=4, n_steps=20)
        circuit = assemble_circuit(config, [config.profile()] * 3)
        with pytest.raises(ValueError, match="observe gave 2 rows for a chunk of 3 members"):
            evolve_recorded(circuit, lambda block: block[:2])

    def test_chunks_give_the_records_of_one_batch(self, monkeypatch):
        """A cap of two N = 3 states splits five members into chunks of 2, 2
        and 1, each compiled once, with the series of the unchunked batch."""
        configs = self.configs(3)
        whole = run_sp_batch(configs)
        chunks = []
        real = experiments._compile_merged
        monkeypatch.setattr(experiments, "_compile_merged",
                            lambda ops, n, members=1: chunks.append(members)
                            or real(ops, n, members))
        monkeypatch.setattr(experiments, "MAX_BATCH_COEFFS", 2 * 4**3 + 1)
        for got, want in zip(run_sp_batch(configs), whole, strict=True):
            assert_same_series(got, want)
        assert chunks == [2, 2, 2, 2, 1, 1]  # prep and step of each chunk

    def test_empty_batch(self):
        assert run_sp_batch([]) == []
        with pytest.raises(ValueError, match="at least one coupling profile"):
            assemble_circuit(ExperimentConfig(n_sites=3), [])


class TestBatchedCompile:
    """One compile of a batch circuit gives, member by member, the ops of the
    member's own compile, bit for bit."""

    NOISE = {"ideal": None, "hamiltonian": NoiseParams(),
             "dephasing": NoiseParams(zz_mode="dephasing_channel", p_zz=0.01)}
    J0S = (0.5, 1.0, 2.9, 4.0, 0.01)

    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_op_equals_the_members_own(self, n, noise):
        configs = [ExperimentConfig(n_sites=n, n_steps=8, j0=j0, noise=self.NOISE[noise])
                   for j0 in self.J0S]
        circuit = assemble_circuit(configs[0], [config.profile() for config in configs])
        kinds = {op.gate.kind for op in circuit.step}
        assert ("rzz" in kinds) == (noise == "hamiltonian")
        own = [assemble_circuit(config) for config in configs]
        # the whole batch, a chunk inside it, and a chunk of one at its end
        for lo, hi in [(0, 5), (1, 3), (4, 5)]:
            for layer in ("prep", "step"):
                ops = experiments._member_ops(getattr(circuit, layer), lo, hi)
                got = _compile_merged(ops, n, hi - lo)
                for b in range(lo, hi):
                    want = _compile_merged(getattr(own[b], layer), n)
                    assert [sop.targets for sop in got] == [sop.targets for sop in want]
                    for g, w in zip(got, want):
                        assert g.matrix.ndim == (2 if hi - lo == 1 else 3)
                        member = g.matrix if hi - lo == 1 else g.matrix[b - lo]
                        assert np.array_equal(member, w.matrix), (layer, lo, hi, b)

    def test_a_single_run_applies_2d_ops(self, monkeypatch):
        applied = []
        real = experiments.bind_superoperators

        def spy(sops, first, second):
            # each bound call logs its op when the run calls it
            return [lambda call=call, sop=sop: applied.append(sop) or call()
                    for call, sop in zip(real(sops, first, second), sops, strict=True)]

        monkeypatch.setattr(experiments, "bind_superoperators", spy)
        config = ExperimentConfig(n_sites=4, n_steps=3, noise=NoiseParams())
        run_sp_series(config)
        assert len(applied) == 1 + 3 * 4
        assert all(sop.matrix.ndim == 2 for sop in applied)
        circuit = assemble_circuit(config)
        assert all(op.gate.matrix.ndim == 2 for op in circuit.prep + circuit.step)


class TestFixedBuffers:
    """evolve_recorded steps each chunk in two fixed state buffers."""

    @staticmethod
    def circuit(n_steps: int = 80):
        configs = [ExperimentConfig(n_sites=4, n_steps=n_steps, j0=j0, noise=NoiseParams())
                   for j0 in (0.5, 1.0, 2.9)]
        return assemble_circuit(configs[0], [config.profile() for config in configs])

    def test_blocks_come_from_two_buffers_per_chunk(self, monkeypatch):
        """Over an 80-step noisy N = 4 batch of 3 members, as one chunk and
        as chunks of 2 and 1, every block observe sees is one of its chunk's
        two buffers, and the chunked records equal the whole batch's."""
        circuit = self.circuit()
        whole = evolve_recorded(circuit, lambda block: block)
        for sizes in ([3], [2, 1]):
            monkeypatch.setattr(experiments, "MAX_BATCH_COEFFS", sizes[0] * 4**4)
            seen = []
            got = evolve_recorded(circuit, lambda block: seen.append(block) or block)
            assert np.array_equal(got, whole)
            assert [len(block) for block in seen] == [m for m in sizes for _ in range(81)]
            for chunk in range(len(sizes)):
                blocks = seen[81 * chunk:81 * (chunk + 1)]
                assert len({block.ctypes.data for block in blocks}) <= 2, sizes

    def test_a_step_allocates_no_state(self):
        """Between two observe calls no allocation as large as the block
        is live at once."""
        circuit = self.circuit(n_steps=20)
        peaks = []

        def observe(block):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - current)
            tracemalloc.reset_peak()
            return block[:, :1]

        tracemalloc.start()
        try:
            evolve_recorded(circuit, observe)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 21
        assert max(peaks[1:]) < 3 * 4**4 * 8

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
        configs = [ExperimentConfig(n_sites=4, j0=j0, noise=NoiseParams()) for j0 in (0.5, 1.0, 2.9)]
        tracemalloc.start()
        try:
            run_first_peaks(configs)
        finally:
            tracemalloc.stop()
        assert len(peaks) < 81  # stopped early
        assert max(peaks[1:]) < 3 * 4**4 * 8


class TestReadout:
    """Readout reads every member's populations from the state block and
    draws its shots as a scalar loop over steps, then sites (or bases), from
    the member's own generator, value for value."""

    NOISE = NoiseParams(readout_error=0.03)

    @staticmethod
    def flip(p1, readout_error):
        p1 = (1.0 - readout_error) * p1 + readout_error * (1.0 - p1)
        return min(1.0, max(0.0, p1))

    @classmethod
    def draw(cls, p1, shots, rng, readout_error):
        return int(rng.binomial(shots, cls.flip(p1, readout_error))) / shots

    def test_sp_batch_shots_equal_a_scalar_loop(self):
        configs = [ExperimentConfig(n_sites=4, n_steps=40, j0=j0, noise=self.NOISE, shots=1024,
                                    seed=7, measured_sites=(2, 4)) for j0 in (0.5, 1.0, 2.9)]
        for config, series in zip(configs, run_sp_batch(configs), strict=True):
            states = evolve_recorded(assemble_circuit(config), lambda block: block)[0]
            rng = np.random.default_rng(config.seed)
            want = {2: [], 4: []}
            for vec in states:  # step by step, then site by site
                for site in (2, 4):
                    p1 = qubit_p1(PauliState(4, vec), site - 1)
                    want[site].append(self.draw(p1, 1024, rng, 0.03))
            for site in (2, 4):
                assert np.array_equal(series.values[site], want[site]), site

    def test_arbitrary_transfer_shots_equal_a_scalar_loop(self):
        config = ExperimentConfig(n_sites=4, n_steps=30, noise=self.NOISE, shots=256, seed=3,
                                  amp_a=0.6, amp_b=0.8j)
        record = run_arbitrary_transfer(config)
        circuit = assemble_circuit(replace(config, initial="arbitrary"))
        # each rotation compiled for all 4 qubits and applied to the whole state
        rotations = [_compile_merged(basis_ops(kinds, 3, self.NOISE), 4)
                     for kinds in BASIS_GATE_KINDS]
        rng = np.random.default_rng(config.seed)
        want = []
        for vec in evolve_recorded(circuit, lambda block: block)[0]:  # step, then basis
            state = PauliState(4, vec)
            want.append([1.0 - 2.0 * self.draw(qubit_p1(apply_in_order(state, ops), 3),
                                               256, rng, 0.03)
                         for ops in rotations])
        want = np.array(want)
        for axis, got in enumerate((record.x, record.y, record.z)):
            assert np.array_equal(got, want[:, axis]), axis

    def test_exact_batch_equals_qubit_p1(self):
        configs = [ExperimentConfig(n_sites=3, n_steps=10, j0=j0, noise=self.NOISE,
                                    measured_sites=(1, 2, 3)) for j0 in (0.5, 2.0)]
        for config, series in zip(configs, run_sp_batch(configs), strict=True):
            states = evolve_recorded(assemble_circuit(config), lambda block: block)[0]
            for site in (1, 2, 3):
                want = [self.flip(qubit_p1(PauliState(3, vec), site - 1), 0.03)
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
        """Each case reconstructs as one member of the stack of all three."""
        cases = [case for case, _ in BASIC_RECONSTRUCTIONS]
        rhos = tomography_reconstruct(*np.array(cases, dtype=float).T)
        assert rhos.shape == (3, 2, 2)
        np.testing.assert_allclose(rhos[cases.index(xyz)], expected, atol=1e-15)

    def test_slightly_long_bloch_vector_rescaled(self):
        rhos = tomography_reconstruct(np.array([1.05]), np.zeros(1), np.zeros(1))
        evals = np.linalg.eigvalsh(rhos)
        assert evals.min() >= -1e-12
        np.testing.assert_allclose(rhos[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_only_long_members_rescaled(self):
        """In a mixed stack only the members with norm in (1, 1 + eps] are
        scaled back to the sphere; the others keep their Bloch vectors."""
        x = np.array([1.05, 0.6, 0.0, 0.8])
        y = np.array([0.0, 0.0, 1.1, 0.6])
        z = np.array([0.0, 0.8, 0.0, 0.0])
        rhos = tomography_reconstruct(x, y, z)
        bloch = np.stack([2 * rhos[:, 0, 1].real, -2 * rhos[:, 0, 1].imag,
                          (rhos[:, 0, 0] - rhos[:, 1, 1]).real], axis=1)
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
        cfg = ExperimentConfig(n_sites=4, n_steps=40, amp_a=0.0, amp_b=1.0)
        record = run_arbitrary_transfer(cfg)
        sp = run_sp_series(ExperimentConfig(n_sites=4, n_steps=40)).series()
        np.testing.assert_allclose(record.fidelity, sp, atol=1e-9)
        np.testing.assert_allclose(record.sp, sp, atol=1e-9)

    def test_ideal_plus_fidelity_matches_transfer_phase_oracle(self):
        """Raw |+> fidelity tracks 1/2 + Re(conj(a_vac) c_N)/2 from the exact
        single-excitation amplitude; with transfer phase i sin^3(t) the ideal
        curve is flat at 0.5."""
        cfg = ExperimentConfig(n_sites=4, n_steps=40)
        record = run_arbitrary_transfer(cfg)
        amp = exact_transfer_amplitude(pst_couplings(4, 1.0), record.times)
        oracle = 0.5 + 0.5 * np.real(np.conj(1.0) * amp)
        np.testing.assert_allclose(oracle, 0.5, atol=1e-12)  # phase is purely imaginary
        np.testing.assert_allclose(record.fidelity, oracle, atol=0.02)  # Trotter error

    def test_exact_tomography_round_trip(self):
        """Exact-mode reconstruction equals the reduced state to 1e-9."""
        cfg = ExperimentConfig(n_sites=3, n_steps=15)
        record = run_arbitrary_transfer(cfg)
        circuit = assemble_circuit(
            ExperimentConfig(n_sites=3, n_steps=15, initial="arbitrary")
        )
        reduced = [partial_trace_to_qubit(PauliState(3, vec).to_density_matrix(), 2).matrix
                   for vec in evolve_recorded(circuit, lambda block: block)[0]]
        for rec_rho, red in zip(record.rhos, reduced):
            dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rec_rho - red)))
            assert dist < 1e-9

    def test_phase_corrected_at_least_raw(self):
        record = run_arbitrary_transfer(ExperimentConfig(n_sites=4, n_steps=40))
        assert np.all(record.fidelity_phase_corrected >= record.fidelity - 1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="must be 1"):
            run_arbitrary_transfer(ExperimentConfig(amp_a=1.0, amp_b=1.0))

    def test_shot_mode_reproducible(self):
        cfg = ExperimentConfig(n_sites=3, n_steps=10, shots=128, seed=9, noise=NoiseParams())
        a = run_arbitrary_transfer(cfg)
        b = run_arbitrary_transfer(cfg)
        np.testing.assert_array_equal(a.fidelity, b.fidelity)


def per_step_tomography(config: ExperimentConfig) -> dict:
    """run_arbitrary_transfer with the scalar per-step tomography it used to
    run: each step's Bloch vector rescaled with math.sqrt, the fidelity from
    one 2 x 2 state at a time, and the phase-maximized fidelity with Python
    abs on the complex off-diagonal entry."""
    a, b = complex(config.amp_a), complex(config.amp_b)
    config = replace(config, initial="arbitrary", amp_a=a, amp_b=b)
    circuit = assemble_circuit(config)
    readout = config.noise.readout_error if config.noise is not None else 0.0
    target = np.outer([a, b], np.conj([a, b]))
    r4 = evolve_recorded(circuit, lambda block: block[:, :4])[0]
    rotated = r4 @ experiments._basis_rotation_ptms(config).swapaxes(1, 2)
    p1 = readout_p1(((rotated[..., 0] - rotated[..., 3]) / 2).T, config.shots,
                    np.random.default_rng(config.seed), readout)
    xs, ys, zs = (1.0 - 2.0 * p1).T.copy()
    rhos, fids, fids_pc = [], [], []
    for x, y, z in zip(xs, ys, zs):
        r = math.sqrt(x * x + y * y + z * z)
        assert r <= 1.15
        if r > 1.0:
            x, y, z = x / r, y / r, z / r
        rho = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)
        overlap = float(np.real(np.trace(rho @ target)))
        det_r = max(0.0, float(np.real(np.linalg.det(rho))))
        det_s = max(0.0, float(np.real(np.linalg.det(target))))
        fid = overlap + 2.0 * np.sqrt(det_r * det_s)
        val = (abs(a) ** 2 * np.real(rho[0, 0]) + abs(b) ** 2 * np.real(rho[1, 1])
               + 2.0 * abs(a) * abs(b) * abs(rho[0, 1]))
        rhos.append(rho)
        fids.append(min(1.0, max(0.0, fid)))
        fids_pc.append(float(min(1.0, max(0.0, val))))
    return dict(x=xs, y=ys, z=zs, rhos=np.array(rhos), fidelity=np.array(fids),
                fidelity_phase_corrected=np.array(fids_pc), sp=(1.0 - zs) / 2.0)


class TestTomographyOnArrays:
    """The array tomography reproduces the per-step scalar one bit for bit."""

    @pytest.mark.parametrize("shots", [None, 256], ids=["exact", "shots"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    @pytest.mark.parametrize("amps", [
        (1 / math.sqrt(2), 1 / math.sqrt(2)),
        (0.6, 0.8j),
        (math.cos(0.3), complex(np.exp(0.7j)) * math.sin(0.3)),
        (0.0, 1.0),
    ], ids=["plus", "imag", "phase", "one"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bit_identical_to_per_step_loop(self, n, amps, noisy, shots):
        config = ExperimentConfig(n_sites=n, n_steps=40, amp_a=amps[0], amp_b=amps[1],
                                  noise=NoiseParams() if noisy else None,
                                  shots=shots, seed=n)
        record = run_arbitrary_transfer(config)
        for name, want in per_step_tomography(config).items():
            assert np.array_equal(getattr(record, name), want), name


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


class TestFindPeaksMatchesScipy:
    """The package's peak finder against its oracle, scipy.signal.find_peaks,
    on series with plateaus, ties and monotone stretches."""

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
    np.testing.assert_array_equal(_find_peaks(x, prominence), want,
                                  err_msg=f"x = {x.tolist()}, prominence = {prominence}")


def first_peak_score(x, times) -> tuple:
    """detect_first_peak on the whole series as (peak, t*), (0.0, nan) where
    it raises NoPeakError."""
    try:
        t_star, peak = detect_first_peak(SPTimeSeries(times=times, values={1: x}))
    except NoPeakError:
        return 0.0, math.nan
    return peak, t_star


def same_score(a: tuple, b: tuple) -> bool:
    return a[0] == b[0] and (a[1] == b[1] or math.isnan(a[1]) and math.isnan(b[1]))


def window_last(times) -> int:
    return int(np.flatnonzero(times <= times[-1] / 2.0 + 1e-12)[-1])


def watched(batch, chunk: int | None = None) -> tuple:
    """Each series' (peak, t*) as run_first_peaks reads it, the watch fed
    the batch one recorded step at a time, chunk by chunk, as
    evolve_recorded feeds it; and the steps observed per chunk."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    m, n_steps = len(batch), batch.shape[1] - 1
    times = TrotterPlan(2.0 * math.pi, n_steps).times()
    watch = experiments._FirstPeakWatch(m, window_last(times), n_steps)
    observed = []
    for lo in range(0, m, chunk or m):
        hi = min(m, lo + (chunk or m))
        for k in range(n_steps + 1):
            if watch(lo, batch[lo:hi, :k + 1]):
                break
        observed.append(k + 1)
    scores = [(0.0, math.nan) if i < 0 else (batch[j, i], times[i])
              for j, i in enumerate(watch.found)]
    return scores, observed


def assert_settles_exactly(x):
    """Every prefix on which _settled_peak tells gives detect_first_peak's
    answer on the whole series, the whole series tells, and the watch reads
    the same."""
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
    run_first_peaks' watch) equals detect_first_peak on the whole series, on
    every prefix where it tells."""

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
        """Each settles at the step given, with detect_first_peak's answer."""
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
            batch = np.array([series.series() for series in run_sp_batch(configs)])
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
        ExperimentConfig(n_sites=5, n_steps=40, noise=NoiseParams(), measured_sites=(2, 5, 1)),
        ExperimentConfig(n_sites=4),
    ])
    def test_equals_detect_first_peak(self, base, monkeypatch):
        rng = np.random.default_rng(base.n_sites)
        configs = [replace(base, j0=j0) for j0 in (0.1, 0.4, 1.0, 2.2, 4.0)]
        configs += [replace(base, couplings=tuple(rng.uniform(0.2, 6.0, base.n_sites - 1)))
                    for _ in range(6)]
        want = []
        for config in configs:
            try:
                want.append(detect_first_peak(run_sp_series(config)))
            except NoPeakError:
                want.append(None)
        assert run_first_peaks(configs) == want
        monkeypatch.setattr(experiments, "MAX_BATCH_COEFFS", 3 * 4**base.n_sites)  # chunks of 3
        assert run_first_peaks(configs) == want

    def test_refuses_shots_and_other_differences(self):
        with pytest.raises(ValueError, match="shots"):
            run_first_peaks([ExperimentConfig(shots=64)])
        with pytest.raises(ValueError, match="seed"):
            run_first_peaks([ExperimentConfig(), ExperimentConfig(seed=1)])
        assert run_first_peaks([]) == []


class TestSerialization:
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
        import json

        payload = json.loads(series_to_json(ideal_series))
        assert payload["values"]["4"][0] == pytest.approx(0.0, abs=1e-12)
        assert len(payload["times"]) == 81

    def test_oracle_against_series_meta(self, ideal_series):
        assert ideal_series.meta["n_steps"] == 80
        assert ideal_series.meta["noisy"] is False
        oracle_peak = exact_sp_oracle(pst_couplings(4, 1.0), HALF_PI)
        assert oracle_peak == pytest.approx(1.0, abs=1e-10)
