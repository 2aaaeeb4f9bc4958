"""Core engine tests: gate/channel application against brute-force oracles."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

from pstlab.experiments import (
    ExperimentConfig,
    assemble_circuit,
    readout_p1,
    run_arbitrary_transfer,
)
from pstlab.noise import NoiseParams
from pstlab.sim_core import (
    HADAMARD,
    MERGE_WIDTH,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    S_DAG,
    _CPTP_TOL,
    DensityMatrix,
    KrausChannel,
    Superoperator,
    UnitaryGate,
    _compose,
    apply_channel,
    apply_unitary,
    fused_superoperators,
    graded_start_state,
    graded_superoperators,
    merge_superoperators,
    rotation_basis,
)

from oracle import (
    apply_graded,
    apply_in_order,
    apply_superoperator,
    bloch_density,
    choi_matrix,
    from_density_matrix,
    from_graded,
    graded_position,
    ket_density,
    kraus_loop,
    kraus_ptm,
    partial_trace_to_qubit,
    qubit_p1,
    random_density,
    reference_circuit,
    to_density_matrix,
    to_graded,
)


def fused_superoperator(gate: UnitaryGate, channels, n_qubits: int) -> Superoperator:
    """fused_superoperators of the one pair (gate, channels)."""
    return fused_superoperators([(gate, channels)], n_qubits)[0]


def embed_gate_oracle(mat: np.ndarray, targets, n: int, base: int = 2) -> np.ndarray:
    """Brute-force base^n x base^n embedding: explicit digit bookkeeping per
    basis pair, `base` entries per qubit (2 amplitudes, 4 Pauli coefficients).

    Independent of the tensor-reshape path under test: matrix elements are
    assembled index by index, with qubit q mapped to digit (n-1-q).
    """
    k = len(targets)
    dim = base**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        digits = [col // base ** (n - 1 - q) % base for q in range(n)]
        sub_col = 0
        for t in targets:
            sub_col = sub_col * base + digits[t]
        for sub_row in range(base**k):
            amp = mat[sub_row, sub_col]
            if amp == 0:
                continue
            new_digits = list(digits)
            for j, t in enumerate(targets):
                new_digits[t] = sub_row // base ** (k - 1 - j) % base
            row = 0
            for q in range(n):
                row = row * base + new_digits[q]
            full[row, col] += amp
    return full


def random_state(n: int, seed: int) -> np.ndarray:
    """A random normalized ket: 2^n complex amplitudes."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


class TestStates:
    def test_zero_state(self):
        rho = DensityMatrix.zero(3).matrix
        assert rho[0, 0] == 1.0
        assert np.count_nonzero(rho) == 1

    def test_norm_validation(self):
        """An unnormalized ket's projector has trace norm^2 != 1."""
        with pytest.raises(ValueError, match="trace"):
            ket_density([1.0, 1.0])

    def test_density_validation(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.diag([0.7, 0.7]))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    def test_promotion_commutes_with_unitary(self):
        """U|psi> then promote == promote then conjugate (both orderings agree)."""
        psi = random_state(3, seed=11)
        mat = unitary_group.rvs(4, random_state=5)
        a = ket_density(embed_gate_oracle(mat, (0, 2), 3) @ psi)
        b = apply_unitary(ket_density(psi), UnitaryGate(mat, (0, 2)))
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


class TestUnitaryApplication:
    def test_x_flips_zero(self):
        rho = apply_unitary(DensityMatrix.zero(1), UnitaryGate(PAULI_X, (0,)))
        np.testing.assert_allclose(rho.matrix, [[0, 0], [0, 1]], atol=1e-15)

    def test_rxx_zero_angle_is_identity(self):
        rho = ket_density(random_state(2, seed=3))
        gate = UnitaryGate(np.eye(4), (0, 1))
        out = apply_unitary(rho, gate)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    @pytest.mark.parametrize("targets", [(0, 2), (2, 0), (1, 3), (3, 1), (0, 3)])
    def test_two_qubit_embedding_matches_oracle(self, targets):
        """Gate on a qubit subset == explicit kron-with-permutation embedding,
        U rho U^dag with U the full 2^N matrix."""
        mat = unitary_group.rvs(4, random_state=42)
        rho = ket_density(random_state(4, seed=7))
        fast = apply_unitary(rho, UnitaryGate(mat, targets))
        full = embed_gate_oracle(mat, targets, 4)
        np.testing.assert_allclose(fast.matrix, full @ rho.matrix @ full.conj().T, atol=1e-12)

    def test_density_conjugation_matches_oracle(self):
        mat = unitary_group.rvs(4, random_state=1)
        rho = random_density(3, seed=9)
        fast = apply_unitary(rho, UnitaryGate(mat, (2, 0)))
        full = embed_gate_oracle(mat, (2, 0), 3)
        np.testing.assert_allclose(fast.matrix, full @ rho.matrix @ full.conj().T, atol=1e-12)

    def test_target_errors(self):
        gate = UnitaryGate(PAULI_X, (3,))
        with pytest.raises(ValueError, match="out of range"):
            apply_unitary(DensityMatrix.zero(2), gate)
        with pytest.raises(ValueError, match="duplicate"):
            UnitaryGate(np.eye(4), (1, 1))
        with pytest.raises(ValueError, match="unitary"):
            UnitaryGate(np.array([[1, 0], [0, 0.5]]), (0,))

    def test_norm_preserved_over_long_sequence(self):
        """tr rho = <psi|psi> stays 1, and rho stays pure: tr rho^2 = 1."""
        rho = DensityMatrix.zero(3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = int(rng.integers(0, 2))
            rho = apply_unitary(rho, UnitaryGate(unitary_group.rvs(4, random_state=rng), (q, q + 1)))
        assert abs(rho.trace() - 1.0) < 1e-12
        assert abs(np.trace(rho.matrix @ rho.matrix) - 1.0) < 1e-12


class TestChannels:
    def test_identity_channel(self):
        rho = random_density(2, seed=0)
        out = apply_channel(rho, KrausChannel([np.eye(2)]), (1,))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_full_depolarizing_reaches_maximally_mixed(self):
        """q = 1 Kraus set {sqrt(1/4) I, sqrt(1/4) X, ...} sends any state to I/2."""
        ops = [0.5 * m for m in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)]
        rho = random_density(1, seed=5)
        out = apply_channel(rho, KrausChannel(ops), (0,))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_pauli_channel_fixed_point(self):
        p = 0.3
        ops = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 3) * PAULI_X,
               np.sqrt(p / 3) * PAULI_Y, np.sqrt(p / 3) * PAULI_Z]
        mixed = DensityMatrix(1, np.eye(2) / 2)
        out = apply_channel(mixed, KrausChannel(ops), (0,))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-15)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            apply_channel(random_density(2, seed=1), KrausChannel([np.eye(2)]), (0, 1))

    def test_non_cptp_rejected(self):
        bad = KrausChannel([np.sqrt(0.5) * np.eye(2)])
        with pytest.raises(ValueError, match="non-CPTP"):
            apply_channel(random_density(1, seed=2), bad, (0,))

    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_trace_preserved_by_random_pauli_channels(self, p, seed):
        ops = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 3) * PAULI_X,
               np.sqrt(p / 3) * PAULI_Y, np.sqrt(p / 3) * PAULI_Z]
        rho = random_density(2, seed=seed)
        out = apply_channel(rho, KrausChannel(ops), (seed % 2,))
        assert abs(out.trace() - 1.0) < 1e-12


def apply_to_density(rho: DensityMatrix, sop: Superoperator) -> DensityMatrix:
    """apply_superoperator on rho's Pauli vector, read back as a density matrix."""
    return to_density_matrix(apply_superoperator(from_density_matrix(rho), sop))


def assert_same_error(oracle, fused):
    """The fused builder refuses with the Kraus loop's ValueError and message."""
    with pytest.raises(ValueError) as want:
        oracle()
    with pytest.raises(ValueError) as got:
        fused()
    assert str(got.value) == str(want.value)


AMP_DAMP = KrausChannel([np.array([[1, 0], [0, np.sqrt(0.8)]]), np.array([[0, np.sqrt(0.2)], [0, 0]])])
PAULI_MIX = KrausChannel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.1) * PAULI_X,
                          np.sqrt(0.1) * PAULI_Y, np.sqrt(0.1) * PAULI_Z])
PAIR = KrausChannel([np.kron(a, b) for a in AMP_DAMP.kraus_ops for b in PAULI_MIX.kraus_ops])


class TestFusedSuperoperator:
    def test_gate_alone_is_conjugation(self):
        rho = random_density(3, seed=3)
        gate = UnitaryGate(unitary_group.rvs(4, random_state=4), (1, 2))
        out = apply_to_density(rho, fused_superoperator(gate, [], 3))
        np.testing.assert_allclose(out.matrix, apply_unitary(rho, gate).matrix, atol=1e-12)

    def test_channels_on_part_of_and_outside_the_gate_support(self):
        """1q channels on one target of a 2q gate, and on a qubit the gate misses."""
        rho = random_density(3, seed=6)
        gate = UnitaryGate(unitary_group.rvs(4, random_state=7), (1, 2))
        channels = [(AMP_DAMP, (2,)), (PAULI_MIX, (0,)), (AMP_DAMP, (1,)), (PAULI_MIX, (2,))]
        sop = fused_superoperator(gate, channels, 3)
        assert sop.targets == (0, 1, 2)
        assert sop.matrix.shape == (64, 64)
        out = apply_to_density(rho, sop)
        np.testing.assert_allclose(out.matrix, kraus_loop(rho, gate, channels).matrix,
                                   rtol=0, atol=1e-12)

    def test_two_qubit_channel_beside_the_gate(self):
        rho = random_density(4, seed=8)
        gate = UnitaryGate(unitary_group.rvs(4, random_state=9), (2, 3))
        channels = [(PAIR, (1, 2))]
        out = apply_to_density(rho, fused_superoperator(gate, channels, 4))
        np.testing.assert_allclose(out.matrix, kraus_loop(rho, gate, channels).matrix,
                                   rtol=0, atol=1e-12)

    def test_non_cptp_rejected(self):
        rho = random_density(1, seed=2)
        gate = UnitaryGate(PAULI_X, (0,))
        bad = [(KrausChannel([np.sqrt(0.5) * np.eye(2)]), (0,))]
        assert_same_error(lambda: kraus_loop(rho, gate, bad),
                          lambda: fused_superoperator(gate, bad, 1))

    def test_out_of_range_targets(self):
        rho = random_density(3, seed=1)
        gate = UnitaryGate(PAULI_X, (1,))
        far = UnitaryGate(PAULI_X, (3,))
        channels = [(AMP_DAMP, (3,))]
        assert_same_error(lambda: kraus_loop(rho, gate, channels),
                          lambda: fused_superoperator(gate, channels, 3))
        assert_same_error(lambda: kraus_loop(rho, far, []),
                          lambda: fused_superoperator(far, [], 3))
        wide = fused_superoperator(far, [], 4)
        with pytest.raises(ValueError, match=r"qubits \(3,\) does not fit a 3-qubit state"):
            apply_to_density(rho, wide)

    def test_arity_mismatch(self):
        rho = random_density(2, seed=1)
        gate = UnitaryGate(PAULI_X, (0,))
        channels = [(KrausChannel([np.eye(2)]), (0, 1))]
        assert_same_error(lambda: kraus_loop(rho, gate, channels),
                          lambda: fused_superoperator(gate, channels, 2))


class TestConsecutiveTargets:
    """An op is its PTM and its first qubit, on the consecutive qubits that
    its width gives; the fused engine takes gates and channels only on such
    qubits, and the Kraus loop applies any."""

    def test_targets_come_from_first_and_width(self):
        assert Superoperator(np.eye(16), 1).targets == (1, 2)
        assert Superoperator(np.stack([np.eye(64)] * 2), 0).targets == (0, 1, 2)
        assert Superoperator(np.eye(4), 5).targets == (5,)

    def test_fused_refuses_a_support_wider_than_merge_width(self):
        """A gate on (0, 3) of 4 qubits spans 4: the fused engine refuses it,
        naming the targets, and the Kraus loop still applies it."""
        gate = UnitaryGate(unitary_group.rvs(4, random_state=3), (0, 3))
        with pytest.raises(ValueError, match=r"gate on \(0, 3\) .* spans 4 qubits"):
            fused_superoperator(gate, [], 4)
        rho = random_density(4, seed=3)
        want = embed_gate_oracle(gate.matrix, gate.targets, 4)
        np.testing.assert_allclose(apply_unitary(rho, gate).matrix,
                                   want @ rho.matrix @ want.conj().T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("targets", [(1, 0), (0, 2)], ids=["reversed", "gapped"])
    @pytest.mark.parametrize("what", ["gate", "channel"])
    def test_fused_refuses_other_qubits(self, what, targets):
        """A gate or a two-qubit channel on (1, 0) or (0, 2) is refused by
        fused_superoperators and rotation_basis, naming its targets; the
        Kraus loop applies it, and matches the brute-force embedding."""
        mat = unitary_group.rvs(4, random_state=11)
        gate, channels = ((UnitaryGate(mat, targets), []) if what == "gate" else
                          (UnitaryGate(mat, (0, 1)), [(PAIR, targets)]))
        message = re.escape(f"{what} on {targets} is not on consecutive ascending qubits")
        with pytest.raises(ValueError, match=message):
            fused_superoperator(gate, channels, 3)
        with pytest.raises(ValueError, match=message):
            rotation_basis(np.kron(PAULI_X, PAULI_X), gate.targets, channels, 3)
        rho = random_density(3, seed=4)
        full = embed_gate_oracle(gate.matrix, gate.targets, 3)
        want = full @ rho.matrix @ full.conj().T
        for channel, on in channels:
            want = sum(embed_gate_oracle(k, on, 3) @ want @ embed_gate_oracle(k, on, 3).conj().T
                       for k in channel.kraus_ops)
        np.testing.assert_allclose(kraus_loop(rho, gate, channels).matrix, want,
                                   rtol=0, atol=1e-12)


def assert_close_ops(got, want, tol: float = 1e-12):
    """Two lists of superoperators equal op by op in targets, and within tol
    in every entry."""
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.targets == w.targets, i
        assert g.matrix.shape == w.matrix.shape, i
        assert np.abs(g.matrix - w.matrix).max() <= tol, i


@pytest.fixture(scope="module")
def kraus_ptms() -> dict:
    """kraus_ptm by local shape: the gate's matrix, and its and its
    channels' targets relative to the lowest of them; ops that differ only
    by a shift of all their targets share one PTM."""
    return {}


def shifted_kraus_ptm(gate: UnitaryGate, channels, cache: dict) -> Superoperator:
    """kraus_ptm, computed once per local shape in `cache` and shifted to
    the op's support."""
    a = min((*gate.targets, *(t for _, on in channels for t in on)))
    key = (gate.matrix.tobytes(), tuple(t - a for t in gate.targets),
           tuple((channel, tuple(t - a for t in on)) for channel, on in channels))
    if key not in cache:
        cache[key] = kraus_ptm(gate, channels)
    return Superoperator(cache[key].matrix, a)


class TestFusedOps:
    """fused_superoperators fuses each pair alone, and every fused op, the
    engine's and an assembled circuit's, is within 1e-12 of the Kraus
    route (oracle.kraus_ptm), which fuses nothing."""

    NOISE = {"ideal": None, "hamiltonian": NoiseParams(),
             "dephasing": NoiseParams(zz_mode="dephasing_channel", p_zz=0.01)}

    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_circuit_equals_op_by_op(self, n, members, noise, kraus_ptms):
        """Each member's reference circuit, fused by fused_superoperators,
        and the member's ops of the assembled batch circuit, against the
        Kraus route of the reference gates."""
        configs = [ExperimentConfig(n_sites=n, n_steps=4, j0=j0, noise=self.NOISE[noise])
                   for j0 in (0.5, 1.0, 2.9)[:members]]
        circuit = assemble_circuit(configs[0], [config.profile() for config in configs])
        for b, config in enumerate(configs):
            reference = reference_circuit(config)
            for ops, ref_ops in ((circuit.prep, reference.prep), (circuit.step, reference.step)):
                pairs = [(op.gate, op.channels) for op in ref_ops]
                want = [shifted_kraus_ptm(gate, channels, kraus_ptms)
                        for gate, channels in pairs]
                assert_close_ops(fused_superoperators(pairs, n), want)
                assert_close_ops([Superoperator(op.fused.matrix[b] if op.fused.matrix.ndim > 2
                                                else op.fused.matrix, op.fused.first)
                                  for op in ops], want)

    def test_hand_built_shapes_equal_op_by_op(self):
        """Channels beside and across the gate, one shape at two supports,
        a two-qubit channel overlapping the gate, one layout with two
        channel objects."""
        pairs = [
            (UnitaryGate(unitary_group.rvs(4, random_state=7), (0, 1)),
             [(AMP_DAMP, (1,)), (PAULI_MIX, (2,)), (AMP_DAMP, (0,)), (PAULI_MIX, (1,))]),
            (UnitaryGate(unitary_group.rvs(4, random_state=9), (2, 3)), [(PAIR, (1, 2))]),
            (UnitaryGate(unitary_group.rvs(4, random_state=8), (1, 2)),
             [(AMP_DAMP, (2,)), (PAULI_MIX, (3,)), (AMP_DAMP, (1,)), (PAULI_MIX, (2,))]),
            (UnitaryGate(PAULI_X, (0,)), [(AMP_DAMP, (1,))]),
            (UnitaryGate(PAULI_X, (1,)), [(PAULI_MIX, (2,))]),  # another channel object
            (UnitaryGate(HADAMARD, (2,)), []),
            (UnitaryGate(unitary_group.rvs(4, random_state=10), (0, 1)), [(PAIR, (1, 2))]),
        ]
        want = [kraus_ptm(gate, channels) for gate, channels in pairs]
        assert_close_ops(fused_superoperators(pairs, 4), want)
        assert [sop.targets for sop in want] == [(0, 1, 2), (1, 2, 3), (1, 2, 3), (0, 1), (1, 2),
                                                 (2,), (0, 1, 2)]

    def test_span_refusal_and_check_order(self):
        """Pairs are checked in order: the first bad pair's message is
        raised, whatever follows it."""
        ok = (UnitaryGate(PAULI_X, (0,)), [(AMP_DAMP, (0,))])
        wide = (UnitaryGate(unitary_group.rvs(4, random_state=3), (0, 3)), [])
        far = (UnitaryGate(PAULI_X, (1,)), [(AMP_DAMP, (4,))])
        with pytest.raises(ValueError, match=r"gate on \(0, 3\) .* spans 4 qubits, more than "
                                             r"MERGE_WIDTH = 3"):
            fused_superoperators([ok, wide, far], 4)
        with pytest.raises(ValueError, match="target 4 out of range for 4 qubits"):
            fused_superoperators([ok, far, wide], 4)
        assert fused_superoperators([], 4) == []


class TestRotationBasis:
    """rotation_basis of exp(-i theta/2 G) with channels: c^2 B0 + cs B1 +
    s^2 B2 against fused_superoperators of the gate at that angle, and the
    same refusals."""

    @pytest.mark.parametrize("generator,targets,channels", [
        (np.kron(PAULI_X, PAULI_X), (0, 1), []),
        (np.kron(PAULI_Y, PAULI_Y), (1, 2), [(AMP_DAMP, (1,)), (PAULI_MIX, (2,))]),
        (np.kron(PAULI_Z, PAULI_Z), (1, 2), [(PAULI_MIX, (2,))]),
        (np.kron(PAULI_X, PAULI_Z), (1, 2), [(AMP_DAMP, (0,)), (PAULI_MIX, (2,))]),
        (PAULI_Y, (3,), [(AMP_DAMP, (2,))]),
    ], ids=["xx", "yy_noisy", "zz", "xz_across", "y_beside"])
    def test_basis_equals_the_fused_gate(self, generator, targets, channels):
        basis = rotation_basis(generator, targets, channels, 4)
        for theta in np.random.default_rng(3).uniform(-8 * math.pi, 8 * math.pi, 20):
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            gate = UnitaryGate(c * np.eye(len(generator)) - 1j * s * generator, targets)
            want = fused_superoperator(gate, channels, 4)
            assert basis.shape == (3, *want.matrix.shape)
            err = np.abs(c * c * basis[0] + c * s * basis[1] + s * s * basis[2] - want.matrix)
            assert err.max() <= 1e-14, theta

    @pytest.mark.parametrize("targets,channels", [
        ((0, 1), [(KrausChannel([np.sqrt(0.5) * np.eye(2)]), (0,))]),
        ((0, 1), [(AMP_DAMP, (4,))]),
        ((0, 3), []),
        ((1, 0), []),
        ((0, 1), [(PAIR, (1, 0))]),
    ], ids=["non_cptp", "out_of_range", "too_wide", "reversed_gate", "reversed_channel"])
    def test_refuses_what_fused_superoperators_refuses(self, targets, channels):
        gate = UnitaryGate(np.eye(4), targets)
        assert_same_error(lambda: fused_superoperator(gate, channels, 4),
                          lambda: rotation_basis(np.kron(PAULI_X, PAULI_X), targets, channels, 4))


def tensordot_vector(vec: np.ndarray, sop: Superoperator) -> np.ndarray:
    """The superoperator contracted by tensordot + moveaxis into the targets'
    Pauli axes of a (4^n,) Pauli vector: a GEMM behind numpy's axis
    bookkeeping, in the standard layout."""
    n, k = (vec.size.bit_length() - 1) // 2, len(sop.targets)
    axes = list(sop.targets)
    gate = sop.matrix.reshape((4,) * (2 * k))
    out = np.tensordot(gate, vec.reshape((4,) * n), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, range(k), axes).ravel()


def tensordot_reference(vec: np.ndarray, sop: Superoperator) -> np.ndarray:
    """tensordot_vector read back as a density matrix."""
    return to_density_matrix(tensordot_vector(vec, sop)).matrix


def parity_preserving(rng, k: int, lead: tuple = ()) -> np.ndarray:
    """A random real 4^k x 4^k matrix, or a stack of them, with 0 between
    Pauli strings of odd and even X/Y weight, the graded kernel's ops."""
    parity = np.array([graded_position(p, k)[0] for p in range(4**k)])
    return rng.normal(size=(*lead, 4**k, 4**k)) * (parity[:, None] == parity[None, :])


def parity_unitary(k: int, seed: int) -> np.ndarray:
    """A random k-qubit unitary exp(-i H), H a random real combination of the
    Pauli strings of even X/Y weight: it commutes with Z (x) ... (x) Z, so
    its PTM keeps the X/Y parity of every string."""
    rng = np.random.default_rng(seed)
    paulis = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
    h = np.zeros((2**k, 2**k), dtype=complex)
    for string in itertools.product(range(4), repeat=k):
        if sum(p in (1, 2) for p in string) % 2 == 0:
            term = np.ones((1, 1))
            for p in string:
                term = np.kron(term, paulis[p])
            h += rng.normal() * term
    return expm(-1j * h)


def graded_block(states, sectors: int = 2) -> np.ndarray:
    """The (members, 2 * 4^(n-1), sectors) block of (4^n,) Pauli vectors."""
    return np.stack([to_graded(vec, sectors) for vec in states])


def random_vectors(rng, n: int, members: int, sectors: int) -> list:
    """Random (4^n,) vectors, 0 on strings of odd X/Y weight for one sector."""
    return [from_graded(rng.normal(size=(2 * 4 ** (n - 1), sectors))) for _ in range(members)]


class TestKernel:
    """The engine's one kernel, graded ops bound to two buffers
    (oracle.apply_graded), against the standard layout: the oracle's
    (4^a, 4^k, rest) matmul (apply_superoperator) and tensordot."""

    @pytest.mark.parametrize("targets", [(2,), (1, 2, 3), (4,), (0,), (0, 1, 2), (3, 4),
                                         (0, 1, 2, 3, 4)])
    def test_batch_equals_column_by_column(self, targets):
        """An op in the middle, at the front and at the end, and on every
        qubit, on six vectors of one sector and of two: each member
        bit-identical to its own block of one, and within 1e-12 of the
        standard layout."""
        rng = np.random.default_rng(len(targets) + 10 * targets[0])
        n = 5
        sop = Superoperator(parity_preserving(rng, len(targets)), targets[0])
        for sectors in (1, 2):
            vecs = random_vectors(rng, n, 6, sectors)
            block = graded_block(vecs, sectors)
            got = apply_graded(block, [sop])
            assert got.shape == (6, 2 * 4 ** (n - 1), sectors)
            for j, vec in enumerate(vecs):
                assert np.array_equal(got[j], apply_graded(block[j:j + 1], [sop])[0]), j
                want = apply_superoperator(vec, sop)
                err = np.max(np.abs(from_graded(got[j]) - want))
                assert err <= 1e-12 * np.max(np.abs(want)), (sectors, j)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_superoperator_bitwise_equals_tensordot(self, n):
        """A parity-keeping gate on (1, 2) with channels on qubits 0 and 1,
        and one on (0, 1) with a channel on its last target: the oracle's
        standard-layout matmul (apply_superoperator) bit for bit equal to
        tensordot_reference, and the graded kernel, which sums in another
        order, within 1e-15 of it, relative to its largest entry."""
        state = from_density_matrix(random_density(n, seed=n))
        wide = fused_superoperator(UnitaryGate(parity_unitary(2, n), (1, 2)),
                                   [(AMP_DAMP, (0,)), (PAULI_MIX, (1,))], n)
        narrow = fused_superoperator(UnitaryGate(parity_unitary(2, n + 10), (0, 1)),
                                     [(AMP_DAMP, (1,))], n)
        assert wide.targets == (0, 1, 2) and narrow.targets == (0, 1)
        for sop in (wide, narrow):
            want = tensordot_reference(state, sop)
            assert np.array_equal(to_density_matrix(apply_superoperator(state, sop)).matrix, want)
            got = from_graded(apply_graded(graded_block([state]), [sop])[0])
            err = np.max(np.abs(to_density_matrix(got).matrix - want))
            assert err <= 1e-15 * np.max(np.abs(want)), (sop.targets, err)

    @pytest.mark.parametrize("batch", [False, True], ids=["vector", "batch"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_consecutive_blocks_match_tensordot(self, n, batch):
        """Targets a..a+k-1 in order: a block at the front, one in the
        middle and two at the end (one GEMM against the transposed stack),
        each within 1e-15 of tensordot_reference, relative to its largest
        entry."""
        rng = np.random.default_rng(n)
        states = [from_density_matrix(random_density(n, seed=n + j))
                  for j in range(3 if batch else 1)]
        for targets in [(0, 1), tuple(range(1, min(n - 1, 4))), (n - 2, n - 1), (n - 1,)]:
            sop = Superoperator(parity_preserving(rng, len(targets)), targets[0])
            got = apply_graded(graded_block(states), [sop])
            for j, state in enumerate(states):
                want = tensordot_reference(state, sop)
                err = np.max(np.abs(to_density_matrix(from_graded(got[j])).matrix - want))
                assert err <= 1e-15 * np.max(np.abs(want)), (targets, err)

    def test_merged_noisy_step_matches_tensordot(self):
        """One merged comprehensive-noise step at N = 8 on a state of both
        sectors, against the same ops contracted one by one by tensordot."""
        n = 8
        config = ExperimentConfig(n_sites=n, n_steps=8, noise=NoiseParams())
        step = merge_superoperators([op.fused for op in assemble_circuit(config).step])
        state = from_density_matrix(random_density(n, seed=8))
        got = from_graded(apply_graded(graded_block([state]), step)[0])
        want = state
        for sop in step:
            want = tensordot_vector(want, sop)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_applies_on_any_register_that_holds_it(self, n):
        """An op fused on a 3-qubit register applies on a register of n
        qubits, a block of two graded states, within 1e-12 of the Kraus
        loop there."""
        gate = UnitaryGate(parity_unitary(2, n), (1, 2))
        channels = [(AMP_DAMP, (0,)), (PAULI_MIX, (2,))]
        sop = fused_superoperator(gate, channels, 3)
        rhos = [random_density(n, seed=n + j) for j in range(2)]
        got = apply_graded(graded_block([from_density_matrix(rho) for rho in rhos]), [sop])
        for rho, state in zip(rhos, got, strict=True):
            want = kraus_loop(rho, gate, channels).matrix
            assert np.max(np.abs(apply_to_density(rho, sop).matrix - want)) <= 1e-12
            assert np.max(np.abs(to_density_matrix(from_graded(state)).matrix - want)) <= 1e-12

    @pytest.mark.parametrize("members", [1, 2], ids=["vector", "block"])
    def test_bind_refuses_an_op_that_does_not_fit(self, members):
        """The graded compile that binding takes (graded_superoperators)
        refuses, before it returns any op, an op on qubits beyond the
        register, naming them, as apply_superoperator does, for one sector
        and two; nothing is written."""
        fits = fused_superoperator(UnitaryGate(PAULI_X, (0,)), [], 2)
        beyond = fused_superoperator(UnitaryGate(PAULI_X, (1,)), [(AMP_DAMP, (2,))], 3)
        message = r"op on qubits \(1, 2\) does not fit a 2-qubit state"
        with pytest.raises(ValueError, match=message):
            apply_to_density(random_density(2, seed=2), beyond)
        for sectors in (1, 2):
            block = np.ones((members, 8, sectors))
            with pytest.raises(ValueError, match=message):
                apply_graded(block, [fits, beyond])
            with pytest.raises(ValueError, match=message):
                graded_superoperators([fits, beyond], 2, sectors)
            assert np.all(block == 1.0)

    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stack"])
    def test_compile_refuses_a_parity_breaking_op(self, stacked):
        """An H gate on qubit 1 takes X to Z: graded_superoperators refuses
        it, naming its qubits, before it returns any op, also when only one
        member of a stack breaks the parity."""
        keep = fused_superoperator(UnitaryGate(parity_unitary(2, 1), (0, 1)), [], 3)
        breaks = fused_superoperator(UnitaryGate(HADAMARD, (1,)), [(AMP_DAMP, (1,))], 3)
        if stacked:
            eye = fused_superoperator(UnitaryGate(np.eye(2), (1,)), [], 3).matrix
            breaks = Superoperator(np.stack([eye, breaks.matrix, eye]), 1)
        message = (r"op on qubits \(1,\) mixes Pauli strings of odd and even X/Y weight, "
                   "which the graded state does not hold")
        for sectors in (1, 2):
            with pytest.raises(ValueError, match=message):
                graded_superoperators([keep, breaks], 3, sectors)


class TestStackedOps:
    """A stack of m matrices, or one matrix that every member shares, applied
    to a block of m graded states: each member bit-identical to its own
    matrix on its own state."""

    @pytest.mark.parametrize("stacked", [True, False], ids=["stack", "shared"])
    @pytest.mark.parametrize("targets", [(0, 1), (1, 2, 3), (3, 4), (4,)])
    @pytest.mark.parametrize("members", [1, 3])
    def test_stack_equals_member_by_member(self, targets, members, stacked):
        n = 5
        rng = np.random.default_rng(len(targets) + members)
        mats = parity_preserving(rng, len(targets), (members,))
        if not stacked:
            mats = mats[0]
        block = rng.normal(size=(members, 2 * 4 ** (n - 1), 2))
        got = apply_graded(block, [Superoperator(mats, targets[0])])
        for b in range(members):
            own = Superoperator(mats[b] if stacked else mats, targets[0])
            assert np.array_equal(got[b], apply_graded(block[b:b + 1], [own])[0]), b

    def test_stacked_ops_apply_each_members_list(self):
        """A batch circuit's step, compiled once into stacked ops and bound to
        a 3-member buffer pair (as evolve_recorded runs it), against each
        member's own compiled step bound to its own buffers, on a merged
        noisy N = 4 step. Both ops hold XY ops and the RZZ ops that every
        member shares, and are 3-member stacks."""
        n = 4
        block = graded_block([from_density_matrix(random_density(n, seed=s)) for s in range(3)])
        configs = [ExperimentConfig(n_sites=n, n_steps=4, j0=j0, noise=NoiseParams())
                   for j0 in (0.5, 1.0, 2.0)]
        batch = assemble_circuit(configs[0], [c.profile() for c in configs])
        stacked = merge_superoperators([op.fused for op in batch.step])
        steps = [merge_superoperators([op.fused for op in assemble_circuit(config).step])
                 for config in configs]
        assert [sop.matrix.shape[:-2] for sop in stacked] == [(3,), (3,)]
        assert len(steps[0]) == len(stacked)
        got = apply_graded(block, stacked)
        for b, ops in enumerate(steps):
            assert np.array_equal(got[b], apply_graded(block[b:b + 1], ops)[0]), b

    def test_one_member_is_kept_as_it_is(self):
        """A batch of one profile is a single run: 2-D ops."""
        config = ExperimentConfig(n_sites=3, n_steps=4, noise=NoiseParams())
        circuit = assemble_circuit(config, [config.profile()])
        assert all(op.fused.matrix.ndim == 2 for op in circuit.prep + circuit.step)
        own = assemble_circuit(config)
        for got, want in zip(merge_superoperators([op.fused for op in circuit.step]),
                             merge_superoperators([op.fused for op in own.step]), strict=True):
            assert got.matrix.ndim == 2 and np.array_equal(got.matrix, want.matrix)

    def test_refuses_stacks_of_another_size(self):
        """Ops merged into one group must stack the same number of members."""
        two = Superoperator(np.stack([np.eye(16)] * 2), 0)
        three = Superoperator(np.stack([np.eye(16)] * 3), 1)
        with pytest.raises(ValueError):
            merge_superoperators([two, three])

    def test_stack_composes_to_each_members_ptm(self):
        """A stack of PTMs on (1, 2), followed by a channel on qubit 0,
        against each member's own composition, bit for bit."""
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 16, 16))
        channel = (AMP_DAMP.pauli_transfer_matrix(), 0)
        got = _compose(range(3), [(stack, 1), channel])
        assert got.shape == (3, 64, 64)
        for b, ptm in enumerate(stack):
            assert np.array_equal(got[b], _compose(range(3), [(ptm, 1), channel])), b

    def test_a_gate_is_one_matrix(self):
        """A UnitaryGate holds one unitary: a stack is refused by shape."""
        with pytest.raises(ValueError, match=r"gate matrix shape \(2, 4, 4\) does not match"):
            UnitaryGate(np.stack([np.eye(4)] * 2), (0, 1))


class TestMergeSuperoperators:
    @staticmethod
    def random_ops(n: int, supports, seed: int) -> list:
        """A noisy random gate on each support, a channel outside the gate on
        every other one, so the supports grow inside a group."""
        ops = []
        for i, targets in enumerate(supports):
            gate = UnitaryGate(unitary_group.rvs(2 ** len(targets), random_state=seed + i), targets)
            spare = [q for q in range(n) if q not in targets][:i % 2]
            ops.append(fused_superoperator(gate, [(AMP_DAMP, (q,)) for q in spare], n))
        return ops

    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_the_ops_one_by_one(self, n):
        """Supports spanning at most MERGE_WIDTH qubits; at n = 5 some
        groups sit on qubits 3 and 4."""
        supports = {3: [(1, 2), (0,), (1, 2), (0, 1), (1, 2), (1, 2)],
                    5: [(1, 2), (0,), (2, 3), (1, 2), (3, 4), (0, 1)]}[n]
        ops = self.random_ops(n, supports, seed=n)
        merged = merge_superoperators(ops)
        assert len(merged) < len(ops)
        assert all(len(sop.targets) <= MERGE_WIDTH for sop in merged)
        rho = from_density_matrix(random_density(n, seed=n))
        np.testing.assert_allclose(to_density_matrix(apply_in_order(rho, merged)).matrix,
                                   to_density_matrix(apply_in_order(rho, ops)).matrix,
                                   rtol=0, atol=1e-13)

    def test_groups_grow_greedily_and_keep_lone_ops(self):
        def ops(*supports):
            return [fused_superoperator(UnitaryGate(np.eye(2 ** len(t)), t), [], 5)
                    for t in supports]

        merged = merge_superoperators(ops((0, 1), (1, 2), (2, 3), (4,), (3, 4)))
        assert [sop.targets for sop in merged] == [(0, 1, 2), (2, 3, 4)]
        lone = ops((0, 1), (2, 3))
        assert merge_superoperators(lone) == lone
        assert merge_superoperators([]) == []

    def test_ops_fused_on_other_registers_merge(self):
        """An op holds no register, so ops fused for 3 and 4 qubits merge,
        and the merged op applies them in order on either register."""
        a = fused_superoperator(UnitaryGate(HADAMARD, (0,)), [(AMP_DAMP, (1,))], 3)
        b = fused_superoperator(UnitaryGate(PAULI_X, (1,)), [(PAULI_MIX, (2,))], 4)
        [merged] = merge_superoperators([a, b])
        assert merged.targets == (0, 1, 2)
        for n in (3, 4):
            rho = from_density_matrix(random_density(n, seed=n))
            assert np.max(np.abs(apply_superoperator(rho, merged)
                                 - apply_in_order(rho, [a, b]))) <= 1e-14


PAULIS = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)


class TestPauliVector:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_zero_state(self, n):
        """|0...0> in the graded layout: one sector, bit for bit the oracle's
        Pauli vector of the zero density matrix."""
        zero = from_density_matrix(DensityMatrix.zero(n))
        assert np.array_equal(graded_start_state(np.array([1.0, 0.0, 0.0, 1.0]), n),
                              to_graded(zero, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip(self, n):
        """rho -> Pauli vector -> rho, on random mixed states."""
        for seed in range(3):
            rho = random_density(n, seed=10 * n + seed)
            back = to_density_matrix(from_density_matrix(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-15

    def test_coefficients_are_pauli_expectations(self):
        """Entry P is tr(P rho), with qubit 0 on the first (slowest) axis."""
        rho = random_density(2, seed=4)
        vec = from_density_matrix(rho)
        for (a, pa), (b, pb) in itertools.product(enumerate(PAULIS), repeat=2):
            want = np.trace(np.kron(pa, pb) @ rho.matrix)
            assert vec[4 * a + b] == pytest.approx(want.real, abs=1e-15)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match=r"shape \(8,\), not \(4\^n,\)"):
            to_density_matrix(np.zeros(8))

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_qubit_p1_equals_density_matrix(self, n):
        rho = random_density(n, seed=n)
        state = from_density_matrix(rho)
        for q in range(n):
            assert qubit_p1(state, q) == pytest.approx(qubit_p1(rho, q), abs=1e-15)

    def test_channel_ptm_is_its_definition(self):
        """R[P, Q] = tr(P E(Q)) / 2^k, with E(Q) = sum_K K Q K^dag; cached.
        PAULI_MIX has complex Kraus operators (Y)."""
        for channel in (AMP_DAMP, PAULI_MIX, PAIR):
            k = channel.arity
            basis = PAULIS
            for _ in range(k - 1):
                basis = [np.kron(p, q) for p in basis for q in PAULIS]
            want = np.array([[np.trace(p @ sum(kk @ q @ kk.conj().T for kk in channel.kraus_ops))
                              for q in basis] for p in basis]) / 2**k
            ptm = channel.pauli_transfer_matrix()
            assert ptm.dtype == float and channel.pauli_transfer_matrix() is ptm
            np.testing.assert_allclose(ptm, want.real, rtol=0, atol=1e-15)
            assert np.max(np.abs(want.imag)) <= 1e-15

    @pytest.mark.parametrize("config", [
        ExperimentConfig(n_sites=4, noise=NoiseParams()),
        ExperimentConfig(n_sites=6, noise=NoiseParams()),
        ExperimentConfig(n_sites=7, n_steps=10, total_time=math.pi / 4,
                         noise=NoiseParams(zz_mode="dephasing_channel", p_zz=0.01)),
    ], ids=["headline", "n6_sites", "n7_zz_dephasing"])
    def test_compiled_step_is_trace_preserving(self, config):
        """tr E(Q) = tr Q: the first row of every fused and merged PTM is e_0."""
        circuit = assemble_circuit(config)
        fused = [op.fused for op in circuit.prep + circuit.step]
        for sop in fused + merge_superoperators([op.fused for op in circuit.step]):
            e0 = np.eye(len(sop.matrix))[0]
            assert np.max(np.abs(sop.matrix[0] - e0)) <= 1e-14, sop.targets


class TestGradedLayout:
    """The oracle's change between the standard and the graded layout, and
    the engine's start state in the graded one."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_round_trip_is_exact(self, n):
        """Standard to graded and back moves each coefficient unchanged, for
        both sectors, and for one sector of a vector with no odd X/Y
        weight."""
        rng = np.random.default_rng(n)
        vec = rng.normal(size=4**n)
        assert np.array_equal(from_graded(to_graded(vec)), vec)
        state = rng.normal(size=(2 * 4 ** (n - 1), 1))
        assert np.array_equal(to_graded(from_graded(state), 1), state)
        assert np.array_equal(to_graded(from_graded(state)), np.hstack([state, 0 * state]))
        with pytest.raises(ValueError, match="outside the graded state's 1 sector"):
            to_graded(vec, 1)

    def test_positions_by_hand(self):
        """XZ Y on three qubits: s = 1, 1, 0, slots 2 * 0 + 1, 2 * 1 + 1 and
        u = 1 on the last; I everywhere is index 0 of sector 0."""
        x_z_y = (1 * 4 + 3) * 4 + 2
        assert graded_position(x_z_y, 3) == (0, (1 * 4 + 3) * 2 + 1)
        assert graded_position(0, 3) == (0, 0)
        assert graded_position(1, 1) == (1, 0)  # X on one qubit: u = 0, sector 1

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("bloch,sectors", [((0, 0, 1), 1), ((0, 0, -0.9), 1),
                                               ((1, 0, 0), 2), ((0.36, 0.48, 0.6), 2)],
                             ids=["zero", "z", "plus", "general"])
    def test_start_state(self, n, bloch, sectors):
        """Qubit 0 in the state of the Bloch vector, every other in |0>: the
        graded state of its density matrix, within 1e-15, in one sector
        when the vector has no X or Y weight."""
        rho = bloch_density(*bloch)
        for _ in range(n - 1):
            rho = np.kron(rho, np.diag([1.0, 0.0]))
        want = from_density_matrix(DensityMatrix(n, rho, validate=False))
        got = graded_start_state(np.array([1.0, *bloch]), n)
        assert got.shape == (2 * 4 ** (n - 1), sectors)
        np.testing.assert_allclose(got, to_graded(want, sectors), rtol=0, atol=1e-15)


class TestValidateCPTP:
    def test_pauli_set_ok(self):
        p = 1.875e-3
        ch = KrausChannel([np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 3) * PAULI_X,
                           np.sqrt(p / 3) * PAULI_Y, np.sqrt(p / 3) * PAULI_Z])
        assert ch.cptp_deviation() < 1e-12

    def test_reset_channel_ok(self):
        """{sqrt(1-g) I, sqrt(g) |0><0|, sqrt(g) |0><1|} is algebraically complete."""
        g = 0.37
        k0 = np.sqrt(1 - g) * np.eye(2)
        k1 = np.sqrt(g) * np.array([[1, 0], [0, 0]], dtype=complex)
        k2 = np.sqrt(g) * np.array([[0, 1], [0, 0]], dtype=complex)
        assert KrausChannel([k0, k1, k2]).cptp_deviation() <= _CPTP_TOL

    def test_half_identity_violation(self):
        dev = KrausChannel([np.sqrt(0.5) * np.eye(2)]).cptp_deviation()
        assert dev > _CPTP_TOL
        assert abs(dev - 0.5) < 1e-12


def z_state(z: float) -> DensityMatrix:
    """Diagonal single-qubit state with <Z> = z (z may leave [-1, 1] slightly)."""
    return DensityMatrix(1, np.diag([(1.0 + z) / 2.0, (1.0 - z) / 2.0]), validate=False)


class TestObservables:
    """qubit_p1 is the population P(1) = (1 - <Z>)/2; readout_p1 reads it out."""

    @pytest.mark.parametrize("amps,expected", [([1, 0], 1.0), ([0, 1], -1.0)])
    def test_z_on_basis_states(self, amps, expected):
        rho = ket_density(amps)
        assert qubit_p1(rho, 0) == pytest.approx((1.0 - expected) / 2.0, abs=1e-14)

    def test_z_on_plus(self):
        plus = ket_density(np.array([1, 1]) / np.sqrt(2))
        assert qubit_p1(plus, 0) == pytest.approx(0.5, abs=1e-14)

    def test_big_endian_qubit_order(self):
        """|10>: qubit 0 carries the excitation (Z = -1), qubit 1 does not."""
        rho = ket_density([0, 0, 1, 0])  # index 2 = |10>
        assert qubit_p1(rho, 0) == pytest.approx(1.0)
        assert qubit_p1(rho, 1) == pytest.approx(0.0)
        assert qubit_p1(from_density_matrix(rho), 0) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            qubit_p1(DensityMatrix.zero(2), 2)

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_equals_bit_mask_sum(self, n):
        """The strided half-selection sums the same entries in the same order as
        a mask over basis-index bits, so the value is bit-identical."""
        rho = random_density(n, seed=n)
        probs = np.real(np.diagonal(rho.matrix))
        bits = np.arange(2**n)
        for q in range(n):
            mask = ((bits >> (n - 1 - q)) & 1).astype(bool)
            assert qubit_p1(rho, q) == float(np.sum(probs[mask]))

    @pytest.mark.parametrize("z,sp", [(1.0, 0.0), (-1.0, 1.0), (0.0, 0.5)])
    def test_sp_from_z(self, z, sp):
        assert readout_p1(qubit_p1(z_state(z), 0), None, None, 0.0) == sp

    def test_sp_from_z_clamps(self):
        assert readout_p1(qubit_p1(z_state(1.0 + 1e-10), 0), None, None, 0.0) == 0.0
        assert readout_p1(qubit_p1(z_state(-1.0 - 1e-10), 0), None, None, 0.0) == 1.0

    def test_readout_flip(self):
        for z, want in ((-1.0, 0.9), (1.0, 0.1)):
            got = readout_p1(qubit_p1(z_state(z), 0), None, None, 0.1)
            assert got == pytest.approx(want, abs=1e-15)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_z_always_in_unit_interval(self, seed):
        rho = random_density(3, seed=seed)
        for q in range(3):
            assert -1e-9 <= qubit_p1(rho, q) <= 1.0 + 1e-9


class TestPartialTrace:
    def test_product_state(self):
        red = partial_trace_to_qubit(ket_density([0, 0, 1, 0]), 0)  # |10>
        np.testing.assert_allclose(red.matrix, [[0, 0], [0, 1]], atol=1e-15)

    def test_bell_state_is_maximally_mixed(self):
        bell = ket_density(np.array([1, 0, 0, 1]) / np.sqrt(2))
        for q in (0, 1):
            red = partial_trace_to_qubit(bell, q)
            np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-15)

    def test_excitation_elsewhere_leaves_ground(self):
        red = partial_trace_to_qubit(ket_density(np.eye(16)[8]), 3)  # |1000>
        np.testing.assert_allclose(red.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_reduction_matches_brute_force(self):
        rho = random_density(3, seed=21)
        red = partial_trace_to_qubit(rho, 1)
        brute = np.zeros((2, 2), dtype=complex)
        for i in range(8):
            for j in range(8):
                bi = [(i >> (2 - q)) & 1 for q in range(3)]
                bj = [(j >> (2 - q)) & 1 for q in range(3)]
                if bi[0] == bj[0] and bi[2] == bj[2]:
                    brute[bi[1], bj[1]] += rho.matrix[i, j]
        np.testing.assert_allclose(red.matrix, brute, atol=1e-14)


def transferred_tomography(b: complex):
    """Ideal two-site tomography record on the grid 0, pi/2, pi.

    A single bond's RXX and RYY commute, so the Trotter step is exact, and
    a|0> + b|1> on site 1 arrives at pi/2 as a|0> - i b|1> on site 2.
    """
    config = ExperimentConfig(n_sites=2, total_time=math.pi, n_steps=2)
    return run_arbitrary_transfer(config, (1.0 / math.sqrt(2.0), b))


class TestSampling:
    def test_z_on_ground_state(self):
        rho = DensityMatrix.zero(1)
        p1 = readout_p1(qubit_p1(rho, 0), 100, np.random.default_rng(0), 0.0)
        assert p1 == 0.0

    def test_x_basis_exact_on_plus(self):
        record = transferred_tomography(1j / math.sqrt(2.0))  # arrives as |+>
        assert record.x[1] == pytest.approx(1.0, abs=1e-12)

    def test_y_basis_exact_on_plus_i(self):
        record = transferred_tomography(-1.0 / math.sqrt(2.0))  # arrives as |+i>
        assert record.y[1] == pytest.approx(1.0, abs=1e-12)

    def test_basis_rotations_are_the_tomography_gates(self):
        # X uses H; Y uses S^dag then H
        np.testing.assert_allclose(HADAMARD @ HADAMARD, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(S_DAG, np.diag([1, -1j]), atol=1e-15)

    def test_binomial_concentration(self):
        """<Z> estimate on |+> with 2048 shots: within 3 sigma for >= 99% of seeds.

        Oracle: est = 1 - 2 p1_hat with p1_hat ~ Bin(2048, 1/2)/2048, so
        sigma = 1/sqrt(2048) and the 3-sigma band holds with prob ~99.7%.
        """
        plus = ket_density(np.array([1, 1]) / np.sqrt(2))
        bound = 3.0 / np.sqrt(2048)
        hits = 0
        n_seeds = 400
        for seed in range(n_seeds):
            est = 1.0 - 2.0 * readout_p1(qubit_p1(plus, 0), 2048, np.random.default_rng(seed), 0.0)
            hits += abs(est) <= bound
        assert hits / n_seeds >= 0.99

    def test_seeded_sampling_is_reproducible(self):
        rho = ket_density(np.array([np.sqrt(0.3), np.sqrt(0.7)]))
        a = readout_p1(qubit_p1(rho, 0), 512, np.random.default_rng(42), 0.0)
        b = readout_p1(qubit_p1(rho, 0), 512, np.random.default_rng(42), 0.0)
        assert a == b


class TestChoi:
    def test_identity_channel_choi(self):
        choi = choi_matrix(KrausChannel([np.eye(2)]))
        omega = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                omega[2 * i + i, 2 * j + j] = 1.0
        np.testing.assert_allclose(choi, omega, atol=1e-15)

    def test_choi_reproduces_channel_action(self):
        """Applying the channel agrees with contraction against its Choi matrix."""
        p = 0.2
        ops = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * PAULI_Z]
        ch = KrausChannel(ops)
        choi = choi_matrix(ch)
        rho = random_density(1, seed=13)
        out = apply_channel(rho, ch, (0,))
        # E(rho)_{ab} = sum_ij rho_{ij} Choi[(i,a),(j,b)]
        recon = np.einsum("ij,iajb->ab", rho.matrix, choi.reshape(2, 2, 2, 2))
        np.testing.assert_allclose(out.matrix, recon, atol=1e-12)
