"""Channel constructors and the layered comprehensive model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstlab.chains import GateOp, TrotterPlan, build_trotter_circuit, gate_matrix, pst_couplings
from pstlab.experiments import ExperimentConfig, _basis_rotation_ptms, assemble_circuit
from pstlab.noise import (
    NoiseParams,
    attach_comprehensive,
    depolarizing_channel,
    pauli_channel,
    thermal_relaxation_channel,
    two_qubit_tensor_channel,
    with_noise,
    zz_dephasing_channel,
)
from pstlab.sim_core import (
    DensityMatrix,
    UnitaryGate,
    apply_channel,
    _CPTP_TOL,
)

from oracle import choi_matrix, compiled_ops, ket_density, reference_circuit

T1 = 266.74e-6
T2 = 199.97e-6


def bloch(rho: np.ndarray):
    x = float(np.real(rho[0, 1] + rho[1, 0]))
    y = float(np.imag(rho[1, 0] - rho[0, 1]))
    z = float(np.real(rho[0, 0] - rho[1, 1]))
    return x, y, z


def plus_state() -> DensityMatrix:
    return ket_density(np.array([1, 1]) / math.sqrt(2))


def bare_op(kind: str, qubit: int) -> GateOp:
    """A channel-free single-qubit gate op."""
    return GateOp(UnitaryGate(gate_matrix(kind.upper()), (qubit,), kind=kind))


def assert_same_kraus(got, want):
    assert len(got.kraus_ops) == len(want.kraus_ops)
    for a, b in zip(got.kraus_ops, want.kraus_ops):
        np.testing.assert_array_equal(a, b)


class TestNoiseParams:
    def test_defaults_split_pauli_evenly(self):
        params = NoiseParams()
        assert params.p_pauli == 1.875e-3
        assert params.q_depol == 2.5e-3
        assert params.zeta == 0.1
        (op,) = with_noise([bare_op("x", 0)], NoiseParams(depol_on=False, thermal_on=False))
        ((pauli, targets),) = op.channels
        assert targets == (0,)
        third = params.p_pauli / 3
        want = pauli_channel(third, third, third)
        assert len(want.kraus_ops) == 4
        assert_same_kraus(pauli, want)

    def test_unphysical_t2_rejected(self):
        with pytest.raises(ValueError, match="2\\*T1"):
            NoiseParams(t1=100e-6, t2=250e-6)

    def test_round_trip_dict(self):
        params = NoiseParams(zeta=0.2, q_depol=1e-3, p_pauli=7.5e-4)
        again = NoiseParams.from_dict(params.to_dict())
        assert again == params

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            NoiseParams.from_dict({"gamma": 0.1})

    def test_circuit_zeta_follows_mode(self):
        assert NoiseParams().circuit_zeta() == 0.1
        assert NoiseParams(zz_on=False).circuit_zeta() == 0.0
        assert NoiseParams(zz_mode="dephasing_channel", p_zz=0.01).circuit_zeta() == 0.0


class TestPauliChannel:
    def test_zero_probabilities_identity(self):
        rho = plus_state()
        out = apply_channel(rho, pauli_channel(0, 0, 0), (0,))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1e-3, 1.875e-3, 0.1])
    def test_even_split_choi_equals_depolarizing(self, p):
        """pauli(p/3, p/3, p/3) == depolarizing(4p/3) as maps (q = 4p/3)."""
        a = choi_matrix(pauli_channel(p / 3, p / 3, p / 3))
        b = choi_matrix(depolarizing_channel(4 * p / 3))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_z_component_shrinks_bloch_x(self):
        """(0, 0, pz) on |+><+|: x -> (1 - 2 pz), from the map algebra."""
        pz = 0.05
        out = apply_channel(plus_state(), pauli_channel(0, 0, pz), (0,))
        x, y, z = bloch(out.matrix)
        assert x == pytest.approx(1 - 2 * pz, abs=1e-12)
        assert y == pytest.approx(0, abs=1e-12)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            pauli_channel(-0.1, 0, 0)
        with pytest.raises(ValueError):
            pauli_channel(0.5, 0.4, 0.2)


class TestDepolarizingChannel:
    def test_zero_identity(self):
        rho = plus_state()
        out = apply_channel(rho, depolarizing_channel(0.0), (0,))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_q_one_fully_mixes(self):
        out = apply_channel(plus_state(), depolarizing_channel(1.0), (0,))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_population_leak_on_excited(self):
        """<Z> after depol(q) on |1><1| is -(1-q): direct algebra on the map."""
        q = 2.5e-3
        rho = ket_density([0, 1])
        out = apply_channel(rho, depolarizing_channel(q), (0,))
        _, _, z = bloch(out.matrix)
        assert z == pytest.approx(-(1 - q), abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            depolarizing_channel(-0.1)
        with pytest.raises(ValueError):
            depolarizing_channel(1.4)


class TestTensorChannel:
    def test_identity_tensor_identity(self):
        ident = pauli_channel(0, 0, 0)
        rho = DensityMatrix(2, np.eye(4) / 4)
        out = apply_channel(rho, two_qubit_tensor_channel(ident, ident), (0, 1))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_acts_locally_on_product_state(self):
        depol = depolarizing_channel(0.3)
        ident = pauli_channel(0, 0, 0)
        rho_a = plus_state().matrix
        rho_b = ket_density([0, 1]).matrix
        prod = DensityMatrix(2, np.kron(rho_a, rho_b))
        out = apply_channel(prod, two_qubit_tensor_channel(depol, ident), (0, 1))
        expected = np.kron(apply_channel(DensityMatrix(1, rho_a), depol, (0,)).matrix, rho_b)
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_equals_sequential_single_qubit_application(self):
        """Tensor channel == applying the two 1q channels one after the other."""
        rng = np.random.default_rng(3)
        e1 = pauli_channel(0.02, 0.01, 0.03)
        e2 = depolarizing_channel(0.05)
        for seed in range(4):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho = DensityMatrix(2, rho / np.trace(rho))
            joint = apply_channel(rho, two_qubit_tensor_channel(e1, e2), (0, 1))
            seq = apply_channel(apply_channel(rho, e1, (0,)), e2, (1,))
            np.testing.assert_allclose(joint.matrix, seq.matrix, atol=1e-10)

    def test_choi_is_kron_up_to_reshuffle(self):
        """Choi(e1 x e2) equals kron of Chois after the interleave permutation."""
        e1 = pauli_channel(0.1, 0.0, 0.05)
        e2 = depolarizing_channel(0.2)
        joint = choi_matrix(two_qubit_tensor_channel(e1, e2))
        kron = np.kron(choi_matrix(e1), choi_matrix(e2))
        # indices: joint is (i1 i2 a1 a2); kron is (i1 a1 i2 a2)
        kron = kron.reshape(2, 2, 2, 2, 2, 2, 2, 2)
        kron = np.moveaxis(kron, (0, 2, 1, 3, 4, 6, 5, 7), (0, 1, 2, 3, 4, 5, 6, 7))
        np.testing.assert_allclose(joint, kron.reshape(16, 16), atol=1e-12)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            two_qubit_tensor_channel(zz_dephasing_channel(0.1), pauli_channel(0, 0, 0))


class TestThermalRelaxation:
    def test_zero_duration_identity(self):
        rho = plus_state()
        out = apply_channel(rho, thermal_relaxation_channel(T1, T2, 0.0), (0,))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_relaxation_factor_of_two_qubit_gate(self):
        """gamma1 for the 533 ns gate: 1 - exp(-533e-9/266.74e-6) ~ 1.996e-3."""
        dur = 533e-9
        gamma1 = 1 - math.exp(-dur / T1)
        # series cross-check: gamma1 ~ d/T1 - (d/T1)^2/2
        ratio = dur / T1
        assert gamma1 == pytest.approx(ratio - ratio**2 / 2, rel=1e-5)
        assert gamma1 == pytest.approx(1.9981e-3, abs=2e-6)
        rho = ket_density([0, 1])
        ch = thermal_relaxation_channel(T1, T2, dur)
        out = apply_channel(rho, ch, (0,))
        assert np.real(out.matrix[1, 1]) == pytest.approx(math.exp(-dur / T1), abs=1e-12)

    def test_combined_coherence_decay(self):
        """Off-diagonal decays by sqrt(1-gamma1) e^{-d/T_phi'} with the T2 split."""
        dur = 1e-6
        ch = thermal_relaxation_channel(T1, T2, dur)
        out = apply_channel(plus_state(), ch, (0,))
        gamma1 = 1 - math.exp(-dur / T1)
        rate_phi = 1 / T2 - 1 / (2 * T1)
        p_phi = 0.5 * (1 - math.exp(-dur * rate_phi))
        expected = 0.5 * math.sqrt(1 - gamma1) * (1 - 2 * p_phi)
        assert np.real(out.matrix[0, 1]) == pytest.approx(expected, abs=1e-12)

    def test_no_pure_dephasing_at_t2_equals_2t1(self):
        dur = 2e-6
        ch = thermal_relaxation_channel(1e-4, 2e-4, dur)
        out = apply_channel(plus_state(), ch, (0,))
        gamma1 = 1 - math.exp(-dur / 1e-4)
        assert np.real(out.matrix[0, 1]) == pytest.approx(0.5 * math.sqrt(1 - gamma1), abs=1e-14)

    def test_amplitude_damping_map_at_t2_equals_2t1(self):
        """With no pure dephasing left the channel is plain amplitude damping:
        two Kraus ops, rho00 + g rho11, sqrt(1-g) rho01, (1-g) rho11."""
        dur = 5e-6
        g = 1 - math.exp(-dur / 1e-4)
        ch = thermal_relaxation_channel(1e-4, 2e-4, dur)
        assert len(ch.kraus_ops) == 2
        rho = ket_density([0.6, 0.8j])
        out = apply_channel(rho, ch, (0,))
        m = rho.matrix
        expected = np.array([[m[0, 0] + g * m[1, 1], math.sqrt(1 - g) * m[0, 1]],
                             [math.sqrt(1 - g) * m[1, 0], (1 - g) * m[1, 1]]])
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_pure_dephasing_limit_of_long_t1(self):
        """T1 >> d: populations stay put and coherence decays as e^{-d/T2}."""
        dur = 5e-6
        rho = plus_state()
        out = apply_channel(rho, thermal_relaxation_channel(1e6, T2, dur), (0,))
        np.testing.assert_allclose(np.diag(out.matrix).real, [0.5, 0.5], atol=1e-12)
        assert np.real(out.matrix[0, 1]) == pytest.approx(0.5 * math.exp(-dur / T2), abs=1e-12)

    def test_combined_rejects_unphysical_t2(self):
        with pytest.raises(ValueError, match="unphysical"):
            thermal_relaxation_channel(1e-4, 3e-4, 1e-6)


def zz_crosstalk(zeta: float, t: float) -> np.ndarray:
    """Coherent crosstalk propagator over time t: RZZ(2 zeta t)."""
    return gate_matrix("RZZ", 2 * zeta * t)


class TestZZCrosstalk:
    def test_zeta_zero_identity(self):
        np.testing.assert_allclose(zz_crosstalk(0.0, 1.0), np.eye(4), atol=1e-15)

    def test_quarter_period_phases(self):
        np.testing.assert_allclose(zz_crosstalk(1.0, math.pi / 2),
                                   np.diag([-1j, 1j, 1j, -1j]), atol=1e-15)

    def test_commutes_with_zz(self):
        zz = np.kron(np.diag([1, -1]), np.diag([1, -1]))
        u = zz_crosstalk(0.3, 1.1)
        assert np.max(np.abs(u @ zz - zz @ u)) < 1e-14

    def test_semigroup(self):
        zeta = 0.17
        a = zz_crosstalk(zeta, 0.8) @ zz_crosstalk(zeta, 1.3)
        np.testing.assert_allclose(a, zz_crosstalk(zeta, 2.1), atol=1e-12)


class TestZZDephasing:
    def test_p_zero_identity(self):
        rho = DensityMatrix(2, np.full((4, 4), 0.25))
        out = apply_channel(rho, zz_dephasing_channel(0.0), (0, 1))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_diagonal_states_unchanged(self):
        rho = DensityMatrix(2, np.diag([0.4, 0.3, 0.2, 0.1]))
        out = apply_channel(rho, zz_dephasing_channel(0.35), (0, 1))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_half_probability_kills_opposite_parity_coherence(self):
        """p = 0.5 zeroes coherences between opposite Z(x)Z parities.

        Sign bookkeeping: |00> has parity +1 while |01> has -1, so the
        conjugated <00|rho|01> term flips sign and the p = 0.5 mixture
        cancels it. |01> and |10> share parity -1, so <01|rho|10> is
        invariant for every p (the channel cannot damp hopping coherence
        on an isolated bond).
        """
        rho = ket_density(np.array([1, 1, 1, 1]) / 2.0)
        out = apply_channel(rho, zz_dephasing_channel(0.5), (0, 1))
        assert abs(out.matrix[0, 1]) < 1e-15  # <00|rho|01>
        assert abs(out.matrix[0, 2]) < 1e-15  # <00|rho|10>
        assert out.matrix[1, 2] == pytest.approx(rho.matrix[1, 2], abs=1e-15)
        np.testing.assert_allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-15)

    def test_range(self):
        with pytest.raises(ValueError):
            zz_dephasing_channel(1.1)


class TestComprehensiveAssembly:
    def make_circuit(self, zeta=0.0):
        return build_trotter_circuit(pst_couplings(4, 1.0), TrotterPlan(2 * math.pi, 80), zeta)

    def test_all_toggles_off_is_identity(self):
        params = NoiseParams(pauli_on=False, depol_on=False, thermal_on=False, zz_on=False)
        circ = self.make_circuit()
        out = attach_comprehensive(circ, params)
        assert not out.has_channels()
        assert [op.gate.kind for op in out.gate_ops()] == [op.gate.kind for op in circ.gate_ops()]

    def test_default_attachment_counts(self):
        """Six depolarizing + six thermal two-qubit attachments per step, each
        on its gate's pair: 16 + 16 Kraus operators after every XY gate."""
        params = NoiseParams()
        circ = self.make_circuit(zeta=params.circuit_zeta())
        out = attach_comprehensive(circ, params)
        step = out.step
        two_q = [op for op in step if op.gate.kind in ("rxx", "ryy")]
        assert len(two_q) == 6
        assert all(len(op.channels) == 2 for op in two_q)  # depol + thermal
        assert all(ch.arity == 2 for op in two_q for ch, _ in op.channels)
        assert all(targets == op.gate.targets for op in two_q for _, targets in op.channels)
        assert [len(ch.kraus_ops) for ch, _ in two_q[0].channels] == [16, 16]
        rzz = [op for op in step if op.gate.kind == "rzz"]
        assert len(rzz) == 3
        assert all(not op.channels for op in rzz)  # crosstalk gates carry no channels
        assert len(step) == len(circ.step) and not circ.has_channels()  # input left as it was

    @pytest.mark.parametrize("params", [
        NoiseParams(), NoiseParams(zz_mode="dephasing_channel", p_zz=0.02)],
        ids=["defaults", "dephasing"])
    def test_schedule_order_per_gate_kind(self, params):
        """The exact channel sequence and targets after every gate kind the
        experiments build: the XY and RZZ step gates, the X, H and u prep
        gates, and the S^dag/H tomography rotations. Each assembled op's
        channels are checked against the kind and targets of the gate in its
        place in the reference circuit."""
        depol = depolarizing_channel(params.q_depol)
        th2 = thermal_relaxation_channel(params.t1, params.t2, params.dur_2q)
        third = params.p_pauli / 3
        after_xy = [two_qubit_tensor_channel(depol, depol), two_qubit_tensor_channel(th2, th2)]
        if params.zz_mode == "dephasing_channel":
            after_xy.append(zz_dephasing_channel(params.p_zz))
        after_1q = [thermal_relaxation_channel(params.t1, params.t2, params.dur_1q),
                    pauli_channel(third, third, third)]
        want = {"rxx": after_xy, "ryy": after_xy, "rzz": [],
                "x": after_1q, "h": after_1q, "u": after_1q}

        seen = set()
        config = ExperimentConfig(n_sites=4, n_steps=2, noise=params)
        for amps in ((0, 1), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8)):
            circuit = assemble_circuit(config, amplitudes=amps)
            reference = reference_circuit(config, amplitudes=amps)
            for op, ref in zip(circuit.prep + circuit.step, reference.prep + reference.step,
                               strict=True):
                seen.add(ref.gate.kind)
                channels = want[ref.gate.kind]
                assert [t for _, t in op.channels] == [ref.gate.targets] * len(channels)
                for (got, _), ch in zip(op.channels, channels):
                    assert_same_kraus(got, ch)
        coherent = {"rzz"} if params.zz_mode == "hamiltonian" else set()
        assert seen == {"rxx", "ryy", "x", "h", "u"} | coherent

        # The rotations are compiled into one (3, 4, 4) stack of one-qubit
        # PTMs; each equals the same gates followed by after_1q, compiled and
        # merged on one qubit, bit for bit, and the Z basis's is the identity.
        got = _basis_rotation_ptms(params)
        assert got.shape == (3, 4, 4)
        for kinds, ptm in zip((("h",), ("sdg", "h"), ()), got, strict=True):
            ops = [GateOp(op.gate, [(ch, (0,)) for ch in after_1q])
                   for op in (bare_op(kind, 0) for kind in kinds)]
            expected = compiled_ops(ops, 1)
            assert len(expected) == len(kinds[:1])
            np.testing.assert_array_equal(ptm, expected[0].matrix if expected else np.eye(4))

    def test_prep_gate_gets_pauli_and_thermal(self):
        config = ExperimentConfig(n_sites=4, noise=NoiseParams())
        (prep,) = assemble_circuit(config).prep
        assert [op.gate.kind for op in reference_circuit(config).prep] == ["x"]
        assert len(prep.channels) == 2  # thermal(dur_1q) + pauli
        assert all(ch.arity == 1 for ch, _ in prep.channels)

    def test_general_amplitude_prep_gets_the_same_noise(self):
        """The "u" prep gate built for arbitrary amplitudes carries the same
        single-qubit channels as the |+> prep, the CLI's default."""
        config = ExperimentConfig(n_sites=4, noise=NoiseParams())
        amplitudes = ((1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8))
        default, general = (assemble_circuit(config, amplitudes=amps).prep[0]
                            for amps in amplitudes)
        assert [reference_circuit(config, amplitudes=amps).prep[0].gate.kind
                for amps in amplitudes] == ["h", "u"]
        assert len(general.channels) == len(default.channels) == 2
        for (ch_a, targets_a), (ch_b, targets_b) in zip(default.channels, general.channels):
            assert targets_a == targets_b
            np.testing.assert_array_equal(ch_a.kraus_ops, ch_b.kraus_ops)

    def test_zz_mode_conflicts_rejected(self):
        params = NoiseParams(zz_mode="dephasing_channel", p_zz=0.01)
        with pytest.raises(ValueError, match="dephasing_channel"):
            attach_comprehensive(self.make_circuit(zeta=0.1), params)
        with pytest.raises(ValueError, match="without RZZ"):
            attach_comprehensive(self.make_circuit(zeta=0.0), NoiseParams())
        with pytest.raises(ValueError, match="toggled off"):
            attach_comprehensive(self.make_circuit(zeta=0.1), NoiseParams(zz_on=False))

    def test_dephasing_mode_attaches_to_xy_gates(self):
        params = NoiseParams(zz_mode="dephasing_channel", p_zz=0.02,
                             pauli_on=False, depol_on=False, thermal_on=False)
        out = attach_comprehensive(self.make_circuit(), params)
        step = out.step
        assert all(len(op.channels) == 1 for op in step)
        assert all(ch.arity == 2 for op in step for ch, _ in op.channels)

    def test_already_noisy_circuit_rejected(self):
        params = NoiseParams(zz_on=False)
        circ = attach_comprehensive(self.make_circuit(), params)
        with pytest.raises(ValueError, match="already"):
            attach_comprehensive(circ, params)

    def test_equal_params_share_channels(self):
        """Channels are built once per distinct noise setting, so their cached
        Pauli transfer matrices carry over from one run to the next."""
        ops = self.make_circuit().step[:1] + [bare_op("h", 0)]
        first = with_noise(ops, NoiseParams())
        second = with_noise(ops, NoiseParams())
        assert first is not second and first[0] is not second[0]
        assert [len(op.channels) for op in first] == [len(op.channels) for op in second] == [2, 2]
        assert all(a is b for op_a, op_b in zip(first, second)
                   for (a, _), (b, _) in zip(op_a.channels, op_b.channels))
        first[0].channels.clear()  # a caller's list is its own
        assert [len(op.channels) for op in with_noise(ops, NoiseParams())] == [2, 2]
        assert all(not op.channels for op in ops)  # the input ops are left as they were
        other = with_noise(ops, NoiseParams(q_depol=0.01))
        depol, other_depol = second[0].channels[0][0], other[0].channels[0][0]
        assert other_depol is not depol
        assert not np.allclose(other_depol.pauli_transfer_matrix(), depol.pauli_transfer_matrix())

    def test_every_default_channel_passes_cptp(self):
        ops = with_noise(self.make_circuit().step + [bare_op("h", 0)],
                         NoiseParams(zz_mode="dephasing_channel", p_zz=0.05))
        channels = {id(ch): ch for op in ops for ch, _ in op.channels}
        assert len(channels) == 5  # depol, 2q thermal, ZZ dephasing, 1q thermal, Pauli
        for channel in channels.values():
            assert channel.cptp_deviation() <= _CPTP_TOL


class TestRandomDrawCPTP:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_constructors_always_cptp(self, data):
        draw = data.draw
        p = draw(st.floats(0, 1))
        split = draw(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
        total = sum(split)
        if total > 0:
            px, py, pz = (s * p / total for s in split)
        else:
            px = py = pz = 0.0
        constructors = [
            pauli_channel(px, py, pz),
            depolarizing_channel(draw(st.floats(0, 4 / 3))),
            thermal_relaxation_channel(draw(st.floats(1e-6, 1e-3)), 1e-6,
                                       draw(st.floats(0, 1e-4))),
            zz_dephasing_channel(draw(st.floats(0, 1))),
        ]
        for ch in constructors:
            assert ch.cptp_deviation() <= _CPTP_TOL
