"""Core engine tests: gate/channel application against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm
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
    PauliState,
    Superoperator,
    UnitaryGate,
    _compose,
    _embed,
    _matmul_operands,
    apply_channel,
    apply_unitary,
    bind_superoperators,
    fused_superoperators,
    merge_superoperators,
    qubit_state_fidelity,
    rotation_basis,
)

from oracle import (
    apply_in_order,
    apply_superoperator,
    choi_matrix,
    from_density_matrix,
    ket_density,
    kraus_loop,
    kraus_ptm,
    partial_trace_to_qubit,
    qubit_p1,
    random_density,
    reference_circuit,
    to_density_matrix,
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


class TestFusedSuperoperator:
    def test_gate_alone_is_conjugation(self):
        rho = random_density(3, seed=3)
        gate = UnitaryGate(unitary_group.rvs(4, random_state=4), (2, 0))
        out = apply_to_density(rho, fused_superoperator(gate, [], 3))
        np.testing.assert_allclose(out.matrix, apply_unitary(rho, gate).matrix, atol=1e-12)

    def test_channels_on_part_of_and_outside_the_gate_support(self):
        """1q channels on one target of a 2q gate, and on a qubit the gate misses."""
        rho = random_density(3, seed=6)
        gate = UnitaryGate(unitary_group.rvs(4, random_state=7), (2, 0))
        channels = [(AMP_DAMP, (0,)), (PAULI_MIX, (2,)), (AMP_DAMP, (1,)), (PAULI_MIX, (0,))]
        sop = fused_superoperator(gate, channels, 3)
        assert sop.targets == (0, 1, 2)
        assert sop.matrix.shape == (64, 64)
        out = apply_to_density(rho, sop)
        np.testing.assert_allclose(out.matrix, kraus_loop(rho, gate, channels).matrix,
                                   rtol=0, atol=1e-12)

    def test_two_qubit_channel_in_reversed_target_order(self):
        rho = random_density(4, seed=8)
        gate = UnitaryGate(unitary_group.rvs(4, random_state=9), (1, 3))
        pair = KrausChannel([np.kron(a, b) for a in AMP_DAMP.kraus_ops for b in PAULI_MIX.kraus_ops])
        channels = [(pair, (3, 1))]
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
        assert_same_error(lambda: kraus_loop(rho, far, []),
                          lambda: apply_to_density(rho, wide))

    def test_arity_mismatch(self):
        rho = random_density(2, seed=1)
        gate = UnitaryGate(PAULI_X, (0,))
        channels = [(KrausChannel([np.eye(2)]), (0, 1))]
        assert_same_error(lambda: kraus_loop(rho, gate, channels),
                          lambda: fused_superoperator(gate, channels, 2))


class TestConsecutiveTargets:
    """Every op acts on consecutive qubits in order; the ordering of a gate's
    and its channels' qubits is done at compile time."""

    @pytest.mark.parametrize("targets", [(1, 0), (0, 2)])
    def test_superoperator_refuses_other_targets(self, targets):
        with pytest.raises(ValueError, match="not consecutive ascending"):
            Superoperator(np.eye(16), targets, 3)

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

    def test_embed_moves_entries(self):
        """_embed of a PTM on positions (2, 0) of 3 is the brute-force
        embedding, bit for bit."""
        ptm = np.random.default_rng(5).normal(size=(16, 16))
        assert np.array_equal(_embed(ptm, (2, 0), 3), embed_gate_oracle(ptm, (2, 0), 3, base=4))


def assert_close_ops(got, want, tol: float = 1e-12):
    """Two lists of superoperators equal op by op in targets and register
    size, and within tol in every entry."""
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.targets == w.targets and g.n_qubits == w.n_qubits, i
        assert g.matrix.shape == w.matrix.shape, i
        assert np.abs(g.matrix - w.matrix).max() <= tol, i


@pytest.fixture(scope="module")
def kraus_ptms() -> dict:
    """kraus_ptm by local shape: the gate's matrix, and its and its
    channels' targets relative to the lowest of them; ops that differ only
    by a shift of all their targets share one PTM."""
    return {}


def shifted_kraus_ptm(gate: UnitaryGate, channels, n_qubits: int, cache: dict) -> Superoperator:
    """kraus_ptm, computed once per local shape in `cache` and shifted to
    the op's support."""
    a = min((*gate.targets, *(t for _, on in channels for t in on)))
    key = (gate.matrix.tobytes(), tuple(t - a for t in gate.targets),
           tuple((channel, tuple(t - a for t in on)) for channel, on in channels))
    if key not in cache:
        cache[key] = kraus_ptm(gate, channels, n_qubits)
    local = cache[key]
    shift = a - local.targets[0]
    return Superoperator(local.matrix, [t + shift for t in local.targets], n_qubits)


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
                want = [shifted_kraus_ptm(gate, channels, n, kraus_ptms)
                        for gate, channels in pairs]
                assert_close_ops(fused_superoperators(pairs, n), want)
                assert_close_ops([Superoperator(op.fused.matrix[b] if op.fused.matrix.ndim > 2
                                                else op.fused.matrix, op.fused.targets, n)
                                  for op in ops], want)

    def test_hand_built_shapes_equal_op_by_op(self):
        """Channels beside and across the gate, scrambled and reversed
        targets, one shape at two supports, one layout with two channel
        objects."""
        pair = KrausChannel([np.kron(a, b) for a in AMP_DAMP.kraus_ops for b in PAULI_MIX.kraus_ops])
        across = [(AMP_DAMP, (0,)), (PAULI_MIX, (2,)), (AMP_DAMP, (1,)), (PAULI_MIX, (0,))]
        pairs = [
            (UnitaryGate(unitary_group.rvs(4, random_state=7), (2, 0)), across),
            (UnitaryGate(unitary_group.rvs(4, random_state=9), (1, 3)), [(pair, (3, 1))]),
            (UnitaryGate(unitary_group.rvs(4, random_state=8), (3, 1)),
             [(AMP_DAMP, (1,)), (PAULI_MIX, (3,)), (AMP_DAMP, (2,)), (PAULI_MIX, (1,))]),
            (UnitaryGate(PAULI_X, (0,)), [(AMP_DAMP, (1,))]),
            (UnitaryGate(PAULI_X, (1,)), [(PAULI_MIX, (2,))]),  # another channel object
            (UnitaryGate(HADAMARD, (2,)), []),
            (UnitaryGate(unitary_group.rvs(4, random_state=10), (0, 2)), [(pair, (2, 0))]),
        ]
        want = [kraus_ptm(gate, channels, 4) for gate, channels in pairs]
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
        (np.kron(PAULI_X, PAULI_Z), (2, 0), [(AMP_DAMP, (1,)), (PAULI_MIX, (0,))]),
        (PAULI_Y, (3,), [(AMP_DAMP, (2,))]),
    ], ids=["xx", "yy_noisy", "zz", "xz_scrambled", "y_beside"])
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
    ], ids=["non_cptp", "out_of_range", "too_wide"])
    def test_refuses_what_fused_superoperators_refuses(self, targets, channels):
        gate = UnitaryGate(np.eye(4), targets)
        assert_same_error(lambda: fused_superoperator(gate, channels, 4),
                          lambda: rotation_basis(np.kron(PAULI_X, PAULI_X), targets, channels, 4))


def tensordot_vector(state: PauliState, sop: Superoperator) -> np.ndarray:
    """The superoperator contracted by tensordot + moveaxis into the targets'
    Pauli axes: the kernel's GEMM behind numpy's axis bookkeeping."""
    n, k = state.n_qubits, len(sop.targets)
    axes = list(sop.targets)
    gate = sop.matrix.reshape((4,) * (2 * k))
    out = np.tensordot(gate, state.vector.reshape((4,) * n), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, range(k), axes).ravel()


def tensordot_reference(state: PauliState, sop: Superoperator) -> np.ndarray:
    """tensordot_vector read back as a density matrix."""
    return to_density_matrix(PauliState(state.n_qubits, tensordot_vector(state, sop))).matrix


def contract_new(src: np.ndarray, mat: np.ndarray, targets, members: tuple = ()) -> np.ndarray:
    """The kernel on a Pauli vector or batch, on the consecutive targets, into
    a new array; with `members`, on that many vectors stored one after
    another in src."""
    dst = np.empty(src.shape)
    np.matmul(*_matmul_operands(src, mat, (*members, 4 ** targets[0]), dst))
    return dst


class TestKernel:
    @pytest.mark.parametrize("targets", [(2,), (1, 2, 3), (4,)])
    def test_batch_equals_column_by_column(self, targets):
        rng = np.random.default_rng(len(targets))
        n, dim = 5, 4 ** len(targets)
        mat = rng.normal(size=(dim, dim))
        batch = rng.normal(size=(4**n, 6))
        out = contract_new(batch, mat, targets)
        columns = np.stack([contract_new(batch[:, j], mat, targets)
                            for j in range(batch.shape[1])], axis=1)
        np.testing.assert_allclose(out, columns, rtol=0, atol=1e-13)
        np.testing.assert_allclose(out, (embed_gate_oracle(mat, targets, n, base=4) @ batch).real,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_superoperator_bitwise_equals_tensordot(self, n):
        """Scrambled supports, ordered at compile time: a gate on (2, 0) with
        channels on qubits 1 and 0, and a gate on (1, 0) with a channel on
        its first target."""
        state = from_density_matrix(random_density(n, seed=n))
        wide = fused_superoperator(UnitaryGate(unitary_group.rvs(4, random_state=n), (2, 0)),
                                   [(AMP_DAMP, (1,)), (PAULI_MIX, (0,))], n)
        narrow = fused_superoperator(UnitaryGate(unitary_group.rvs(4, random_state=n + 10),
                                                 (1, 0)), [(AMP_DAMP, (1,))], n)
        assert wide.targets == (0, 1, 2) and narrow.targets == (0, 1)
        for sop in (wide, narrow):
            assert np.array_equal(to_density_matrix(apply_superoperator(state, sop)).matrix,
                                  tensordot_reference(state, sop))

    @pytest.mark.parametrize("batch", [False, True], ids=["vector", "batch"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_consecutive_blocks_match_tensordot(self, n, batch):
        """Targets a..a+k-1 in order contract in place: a block at the front,
        one in the middle and two at the end (one GEMM against mat.T unless a
        batch axis follows), each within 1e-15 of tensordot_reference,
        relative to its largest entry."""
        rng = np.random.default_rng(n)
        states = [from_density_matrix(random_density(n, seed=n + j))
                  for j in range(3 if batch else 1)]
        src = np.stack([s.vector for s in states], axis=1) if batch else states[0].vector
        for targets in [(0, 1), tuple(range(1, min(n - 1, 4))), (n - 2, n - 1), (n - 1,)]:
            sop = Superoperator(rng.normal(size=(4 ** len(targets),) * 2), targets, n)
            got = contract_new(src, sop.matrix, sop.targets).reshape(4**n, -1)
            for j, state in enumerate(states):
                want = tensordot_reference(state, sop)
                err = np.max(np.abs(to_density_matrix(PauliState(n, got[:, j])).matrix - want))
                assert err <= 1e-15 * np.max(np.abs(want)), (targets, err)

    def test_merged_noisy_step_matches_tensordot(self):
        """One merged comprehensive-noise step at N = 8, in place against the
        same ops contracted one by one by tensordot."""
        n = 8
        config = ExperimentConfig(n_sites=n, n_steps=8, noise=NoiseParams())
        step = merge_superoperators([op.fused for op in assemble_circuit(config).step])
        state = from_density_matrix(random_density(n, seed=8))
        got = apply_in_order(state, step).vector
        want = state
        for sop in step:
            want = PauliState(n, tensordot_vector(want, sop))
        assert np.max(np.abs(got - want.vector)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_refuses_another_register_size(self, n):
        sop = fused_superoperator(UnitaryGate(PAULI_X, (0,)), [(AMP_DAMP, (1,))], 3)
        with pytest.raises(ValueError, match="compiled for 3 qubits, state has"):
            apply_to_density(random_density(n, seed=n), sop)

    @pytest.mark.parametrize("lead", [(), (1,)], ids=["vector", "block"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_bind_refuses_another_register_size(self, n, lead):
        """bind_superoperators refuses, when binding, the op that
        apply_superoperator refuses, with its message, and writes nothing."""
        sop = fused_superoperator(UnitaryGate(PAULI_X, (0,)), [(AMP_DAMP, (1,))], 3)
        with pytest.raises(ValueError) as applied:
            apply_to_density(random_density(n, seed=n), sop)
        first, second = np.ones(lead + (4**n,)), np.zeros(lead + (4**n,))
        with pytest.raises(ValueError) as bound:
            bind_superoperators([sop], first, second)
        assert str(bound.value) == str(applied.value)
        assert np.all(first == 1.0) and np.all(second == 0.0)


class TestStackedOps:
    """A stack of m matrices, or one matrix that every member shares, applied
    to m vectors stored one after another: each member bit-identical to its
    own matrix on its own vector."""

    @pytest.mark.parametrize("stacked", [True, False], ids=["stack", "shared"])
    @pytest.mark.parametrize("targets", [(0, 1), (1, 2, 3), (3, 4), (4,)])
    @pytest.mark.parametrize("members", [1, 3])
    def test_stack_equals_member_by_member(self, targets, members, stacked):
        n = 5
        rng = np.random.default_rng(len(targets) + members)
        mats = rng.normal(size=(members, 4 ** len(targets), 4 ** len(targets)))
        if not stacked:
            mats = mats[0]
        vecs = rng.normal(size=(members, 4**n))
        got = contract_new(vecs, mats, targets, (members,))
        for b in range(members):
            own = mats[b] if stacked else mats
            assert np.array_equal(got[b], contract_new(vecs[b], own, targets)), b

    def test_stacked_ops_apply_each_members_list(self):
        """A batch circuit's step, compiled once into stacked ops and bound to
        a (3, 4^N) buffer pair (bind_superoperators, as evolve_recorded runs
        it), against each member's own compiled step through
        apply_superoperator, on a merged noisy N = 4 step. Both ops hold XY
        ops and the RZZ ops that every member shares, and are 3-member
        stacks."""
        n = 4
        states = [from_density_matrix(random_density(n, seed=s)) for s in range(3)]
        configs = [ExperimentConfig(n_sites=n, n_steps=4, j0=j0, noise=NoiseParams())
                   for j0 in (0.5, 1.0, 2.0)]
        batch = assemble_circuit(configs[0], [c.profile() for c in configs])
        stacked = merge_superoperators([op.fused for op in batch.step])
        steps = [merge_superoperators([op.fused for op in assemble_circuit(config).step])
                 for config in configs]
        assert [sop.matrix.shape[:-2] for sop in stacked] == [(3,), (3,)]
        assert len(steps[0]) == len(stacked)
        bufs = (np.stack([s.vector for s in states]), np.empty((3, 4**n)))
        for call in bind_superoperators(stacked, *bufs):
            call()
        got = bufs[len(stacked) % 2]
        for b, (state, ops) in enumerate(zip(states, steps)):
            assert np.array_equal(got[b], apply_in_order(state, ops).vector), b

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
        two = Superoperator(np.stack([np.eye(16)] * 2), (0, 1), 3)
        three = Superoperator(np.stack([np.eye(16)] * 3), (1, 2), 3)
        with pytest.raises(ValueError):
            merge_superoperators([two, three])

    def test_scrambled_stack_composes_to_each_members_ptm(self):
        """A stack of PTMs on (2, 0), ordered at compile time and followed
        by a channel on qubit 1, against each member's own composition,
        bit for bit."""
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 16, 16))
        channel = (AMP_DAMP.pauli_transfer_matrix(), (1,))
        got = _compose(range(3), [(stack, (2, 0)), channel])
        assert got.shape == (3, 64, 64)
        for b, ptm in enumerate(stack):
            assert np.array_equal(got[b], _compose(range(3), [(ptm, (2, 0)), channel])), b

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
        """Supports spanning at most MERGE_WIDTH qubits, some in reversed
        order; at n = 5 some groups sit on qubits 3 and 4."""
        supports = {3: [(2, 0), (0,), (1, 2), (2, 1), (1, 2), (0, 2)],
                    5: [(2, 0), (0,), (1, 3), (2, 1), (4, 3), (1, 0)]}[n]
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

    def test_other_register_sizes_stay_apart(self):
        """Ops compiled for another register size are not merged, so
        apply_superoperator still refuses them."""
        a = fused_superoperator(UnitaryGate(PAULI_X, (0,)), [], 3)
        b = fused_superoperator(UnitaryGate(PAULI_X, (0,)), [], 4)
        assert merge_superoperators([a, b]) == [a, b]


PAULIS = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)


class TestPauliState:
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
        vec = from_density_matrix(rho).vector
        for (a, pa), (b, pb) in itertools.product(enumerate(PAULIS), repeat=2):
            want = np.trace(np.kron(pa, pb) @ rho.matrix)
            assert vec[4 * a + b] == pytest.approx(want.real, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_zero_state(self, n):
        zero = from_density_matrix(DensityMatrix.zero(n)).vector
        assert np.array_equal(PauliState.zero(n).vector, zero)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="expected \\(16,\\)"):
            PauliState(2, np.zeros(4))

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_qubit_p1_equals_density_matrix(self, n):
        rho = random_density(n, seed=n)
        state = from_density_matrix(rho)
        for q in range(n):
            assert qubit_p1(state, q) == pytest.approx(qubit_p1(rho, q), abs=1e-15)

    def test_channel_ptm_is_its_definition(self):
        """R[P, Q] = tr(P E(Q)) / 2^k, with E(Q) = sum_K K Q K^dag; cached.
        PAULI_MIX has complex Kraus operators (Y)."""
        pair = KrausChannel([np.kron(a, b) for a in AMP_DAMP.kraus_ops for b in PAULI_MIX.kraus_ops])
        for channel in (AMP_DAMP, PAULI_MIX, pair):
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


class TestFidelity:
    """Each case is one member of a stack scored against one target."""

    @staticmethod
    def stack() -> np.ndarray:
        """|0>, |1>, the maximally mixed state and |+>."""
        kets = ([1, 0], [0, 1], None, np.array([1, 1]) / np.sqrt(2))
        return np.array([np.eye(2) / 2 if k is None else ket_density(k).matrix for k in kets])

    def test_identical_pure_states(self):
        stack = self.stack()
        assert qubit_state_fidelity(stack, stack[0])[0] == pytest.approx(1.0, abs=1e-12)
        assert qubit_state_fidelity(stack, stack[3])[3] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        stack = self.stack()
        assert qubit_state_fidelity(stack, stack[0])[1] == pytest.approx(0.0, abs=1e-12)

    def test_mixed_vs_plus(self):
        stack = self.stack()
        fid = qubit_state_fidelity(stack, stack[3])
        assert fid.shape == (4,)
        assert fid[2] == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_matches_uhlmann(self):
        """tr(rho sigma) + 2 sqrt(det det) == (tr sqrt(sqrt(r) s sqrt(r)))^2 on
        qubits, for every member of a stack against every target."""
        rhos = np.array([random_density(1, seed=seed).matrix for seed in range(6)])
        for seed in range(6):
            sig = random_density(1, seed=seed + 100).matrix
            fid = qubit_state_fidelity(rhos, sig)
            for rho, got in zip(rhos, fid, strict=True):
                root = sqrtm(rho)
                uhlmann = float(np.real(np.trace(sqrtm(root @ sig @ root)))) ** 2
                assert got == pytest.approx(uhlmann, abs=1e-9)

    def test_nested_stack_keeps_its_shape(self):
        rhos = np.array([random_density(1, seed=seed).matrix for seed in range(6)])
        sig = random_density(1, seed=100).matrix
        fid = qubit_state_fidelity(rhos.reshape(2, 3, 2, 2), sig)
        np.testing.assert_array_equal(fid, qubit_state_fidelity(rhos, sig).reshape(2, 3))

    def test_non_psd_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        good = np.eye(2) / 2
        with pytest.raises(ValueError, match="rho is not positive"):
            qubit_state_fidelity(bad[None], good)
        with pytest.raises(ValueError, match="sigma is not positive"):
            qubit_state_fidelity(good[None], bad)

    def test_one_non_psd_member_fails_the_stack(self):
        stack = self.stack()
        stack[2] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="positive"):
            qubit_state_fidelity(stack, np.eye(2) / 2)


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
