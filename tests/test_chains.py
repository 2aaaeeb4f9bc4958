"""Coupling profiles, gate matrices, circuit structure, and the exact oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pstlab.chains import (
    CouplingProfile,
    TrotterPlan,
    build_trotter_circuit,
    gate_matrix,
    pst_couplings,
)
from pstlab.experiments import ExperimentConfig, assemble_circuit, run_sp_series
from pstlab.sim_core import PAULI_X, PAULI_Y, PAULI_Z

from oracle import (
    exact_sp_oracle,
    exact_transfer_amplitude,
    recorded_vectors,
    reference_circuit,
    single_excitation_hamiltonian,
    to_density_matrix,
)


class TestCouplings:
    def test_n4_profile(self):
        prof = pst_couplings(4, 1.0)
        np.testing.assert_allclose(prof.couplings, [math.sqrt(3), 2.0, math.sqrt(3)])

    def test_n3_profile(self):
        np.testing.assert_allclose(pst_couplings(3, 1.0).couplings,
                                   [math.sqrt(2), math.sqrt(2)])

    def test_scaled_profile(self):
        prof = pst_couplings(4, 2.9)
        np.testing.assert_allclose(prof.couplings,
                                   [2.9 * math.sqrt(3), 5.8, 2.9 * math.sqrt(3)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9])
    def test_mirror_symmetry_exact(self, n):
        prof = pst_couplings(n, 1.7)
        assert prof.couplings == prof.couplings[::-1]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pst_couplings(1, 1.0)
        with pytest.raises(ValueError):
            pst_couplings(4, 0.0)
        with pytest.raises(ValueError):
            CouplingProfile(4, (1.0, -2.0, 1.0))
        with pytest.raises(ValueError):
            CouplingProfile(4, (1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_couplings_refused(self, bad):
        """A chain refuses a non-finite coupling or scale when it is built,
        and so does a config built from one, before any gate is made."""
        with pytest.raises(ValueError, match="couplings must be finite and positive"):
            CouplingProfile(4, (1.0, bad, 1.0))
        with pytest.raises(ValueError, match="j0 must be finite and positive"):
            pst_couplings(4, bad)
        with pytest.raises(ValueError, match="finite and positive"):
            ExperimentConfig(n_sites=4, couplings=(1.0, bad, 1.0))
        with pytest.raises(ValueError, match="finite and positive"):
            ExperimentConfig(n_sites=4, j0=bad)

    def test_largest_finite_coupling_accepted(self):
        assert CouplingProfile(2, (1e308,)).couplings == (1e308,)
        assert pst_couplings(2, 1e308).couplings == (1e308,)


class TestTrotterPlan:
    def test_grid_endpoint_exact(self):
        plan = TrotterPlan(2 * math.pi, 80)
        times = plan.times()
        assert len(times) == 81
        assert times[0] == 0.0
        assert times[-1] == 2 * math.pi

    def test_invalid(self):
        with pytest.raises(ValueError):
            TrotterPlan(0.0, 10)
        with pytest.raises(ValueError):
            TrotterPlan(1.0, 0)


class TestGateMatrices:
    def test_rxx_zero_is_identity(self):
        np.testing.assert_allclose(gate_matrix("RXX", 0.0), np.eye(4), atol=1e-15)

    def test_rzz_pi(self):
        np.testing.assert_allclose(gate_matrix("RZZ", math.pi),
                                   np.diag([-1j, 1j, 1j, -1j]), atol=1e-15)

    def test_ryy_pi_on_00(self):
        """RYY(pi)|00> = i|11> straight off the printed anti-diagonal."""
        out = gate_matrix("RYY", math.pi) @ np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(out, [0, 0, 0, 1j], atol=1e-15)

    @pytest.mark.parametrize("kind,pauli", [("RXX", PAULI_X), ("RYY", PAULI_Y), ("RZZ", PAULI_Z)])
    def test_rotations_match_exponential(self, kind, pauli):
        """Each printed matrix equals expm(-i theta/2 sigma(x)sigma)."""
        for theta in (0.3, -1.2, math.pi / 2, 2.0):
            expected = expm(-0.5j * theta * np.kron(pauli, pauli))
            np.testing.assert_allclose(gate_matrix(kind, theta), expected, atol=1e-12)

    @given(theta=st.floats(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_rotations_unitary(self, theta):
        for kind in ("RXX", "RYY", "RZZ"):
            m = gate_matrix(kind, theta)
            np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)

    def test_fixed_gates(self):
        np.testing.assert_allclose(gate_matrix("H") @ [1, 0],
                                   np.array([1, 1]) / math.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(gate_matrix("SDG"), np.diag([1, -1j]), atol=1e-15)
        np.testing.assert_allclose(gate_matrix("X"), [[0, 1], [1, 0]], atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            gate_matrix("CNOT")
        with pytest.raises(ValueError, match="angle"):
            gate_matrix("RXX", float("nan"))


class TestCircuitStructure:
    def test_n4_gate_counts(self):
        """80 steps x 3 bonds x (RXX + RYY) = 480 two-qubit XY gates, one step stored."""
        circ = build_trotter_circuit(pst_couplings(4, 1.0), TrotterPlan(2 * math.pi, 80))
        assert len(circ.step) == 6
        kinds = [op.gate.kind for op in circ.gate_ops()]
        assert kinds.count("rxx") == 240
        assert kinds.count("ryy") == 240
        assert kinds.count("rzz") == 0

    def test_rzz_present_when_crosstalk_on(self):
        circ = build_trotter_circuit(pst_couplings(4, 1.0), TrotterPlan(2 * math.pi, 80),
                                     zeta=0.1)
        kinds = [op.gate.kind for op in circ.gate_ops()]
        assert kinds.count("rzz") == 240  # N-1 bonds per step
        dt = 2 * math.pi / 80
        rzz = next(op.gate for op in circ.step if op.gate.kind == "rzz")
        np.testing.assert_allclose(rzz.matrix, gate_matrix("RZZ", 2 * 0.1 * dt), atol=1e-15)

    def test_single_step_n2(self):
        circ = build_trotter_circuit(pst_couplings(2, 1.0), TrotterPlan(1.0, 1))
        step = circ.step
        assert list(circ.gate_ops()) == step
        assert [op.gate.kind for op in step] == ["rxx", "ryy"]
        assert all(op.gate.targets == (0, 1) for op in step)
        np.testing.assert_allclose(step[0].gate.matrix, gate_matrix("RXX", 1.0), atol=1e-15)

    def test_per_bond_order_within_step(self):
        circ = build_trotter_circuit(pst_couplings(4, 1.0), TrotterPlan(1.0, 1))
        ops = circ.step
        assert [(op.gate.kind, op.gate.targets) for op in ops] == [
            ("rxx", (0, 1)), ("ryy", (0, 1)),
            ("rxx", (1, 2)), ("ryy", (1, 2)),
            ("rxx", (2, 3)), ("ryy", (2, 3)),
        ]

    def test_angle_is_coupling_times_dt(self):
        prof = pst_couplings(4, 2.9)
        plan = TrotterPlan(2 * math.pi, 40)
        circ = build_trotter_circuit(prof, plan)
        first = circ.step[0].gate.matrix
        np.testing.assert_allclose(first, gate_matrix("RXX", prof.couplings[0] * plan.dt),
                                   atol=1e-15)


class TestInitialStates:
    """The k = 0 state of an ideal run: the prep layer applied to |0..0>."""

    @staticmethod
    def prepared(n, amplitudes=(0, 1)):
        """The k = 0 density matrix, and the gate kinds of the reference
        circuit's prep layer."""
        config = ExperimentConfig(n_sites=n, n_steps=1)
        vec = recorded_vectors(assemble_circuit(config, amplitudes=amplitudes))[0][0]
        rho = to_density_matrix(vec).matrix
        return rho, [op.gate.kind for op in reference_circuit(config, amplitudes=amplitudes).prep]

    def test_single_excitation_site1(self):
        rho, kinds = self.prepared(4)
        expected = np.zeros(16)
        expected[8] = 1.0  # |1000> big-endian
        np.testing.assert_allclose(rho, np.outer(expected, expected), atol=1e-15)
        assert kinds == ["x"]

    def test_single_excitation_n3(self):
        rho, _ = self.prepared(3)
        expected = np.zeros(8)
        expected[4] = 1.0  # |100>
        np.testing.assert_allclose(rho, np.outer(expected, expected), atol=1e-15)

    def test_arbitrary_default_is_plus_on_first(self):
        """The CLI's default amplitudes prepare |+> on the first site with H."""
        rho, kinds = self.prepared(4, (1 / math.sqrt(2), 1 / math.sqrt(2)))
        expected = np.zeros(16)
        expected[0] = expected[8] = 1 / math.sqrt(2)
        np.testing.assert_allclose(rho, np.outer(expected, expected), atol=1e-15)
        assert kinds == ["h"]


class TestExactOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_pst_at_half_pi(self, n):
        prof = pst_couplings(n, 1.0)
        assert exact_sp_oracle(prof, math.pi / 2) == pytest.approx(1.0, abs=1e-10)
        assert exact_sp_oracle(prof, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_n2_is_sine_squared(self):
        """N=2 hopping reduces to a 2x2 exponential: SP(t) = sin^2(J t)."""
        prof = pst_couplings(2, 1.0)
        for t in (0.0, math.pi / 4, 1.0, 2.5):
            assert exact_sp_oracle(prof, t) == pytest.approx(math.sin(t) ** 2, abs=1e-12)
        assert exact_sp_oracle(prof, math.pi / 4) == pytest.approx(0.5, abs=1e-12)

    def test_time_rescaling(self):
        """Scaling couplings by c equals evaluating the unscaled oracle at c t."""
        base = pst_couplings(4, 1.0)
        scaled = pst_couplings(4, 2.9)
        for t in (0.1, 0.5, 1.0, 1.4):
            assert exact_sp_oracle(scaled, t) == pytest.approx(
                exact_sp_oracle(base, 2.9 * t), abs=1e-10)

    def test_mirror_transfer_symmetry(self):
        prof = pst_couplings(5, 1.3)
        ts = np.linspace(0, 3, 50)
        fwd = np.abs(exact_transfer_amplitude(prof, ts, source=1, target=5)) ** 2
        bwd = np.abs(exact_transfer_amplitude(prof, ts, source=5, target=1)) ** 2
        np.testing.assert_allclose(fwd, bwd, atol=1e-12)

    def test_hopping_matrix_layout(self):
        a = single_excitation_hamiltonian(pst_couplings(4, 1.0))
        np.testing.assert_allclose(np.diag(a, 1), [math.sqrt(3), 2.0, math.sqrt(3)])
        np.testing.assert_allclose(a, a.T)
        assert np.all(np.diag(a) == 0)

    def test_amplitude_phase_for_n4(self):
        """Transfer amplitude (-i sin t)^(N-1): i sin^3(t) for the 4-site chain."""
        prof = pst_couplings(4, 1.0)
        for t in (0.4, 1.0, 1.5):
            amp = exact_transfer_amplitude(prof, t)
            assert amp == pytest.approx(1j * math.sin(t) ** 3, abs=1e-10)


class TestTrotterConvergence:
    def test_first_order_convergence_to_oracle(self):
        """Max grid deviation from the oracle halves as the step count doubles."""
        prof = pst_couplings(4, 1.0)
        devs = []
        for n in (20, 40, 80, 160):
            series = run_sp_series(ExperimentConfig(n_sites=4, n_steps=n))
            oracle = exact_sp_oracle(prof, series.times)
            devs.append(float(np.max(np.abs(series.series() - oracle))))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        # roughly first order: each doubling gains close to a factor two
        for a, b in zip(devs, devs[1:]):
            assert a / b > 1.5
