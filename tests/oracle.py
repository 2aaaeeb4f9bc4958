"""Test oracles: reference computations the package's production path does
not use, each checked against the engine by the tests that import it.

- The density-matrix side: the change between rho's entries and its
  (4^n,) array of Pauli coefficients, one op applied into a new array, the
  Kraus loop (sim_core.apply_unitary and apply_channel) over a gate and its
  channels, the PTM of a gate and its channels taken column by column
  through that loop, single-qubit populations, the partial trace and the
  Choi matrix.
- The gate-level reference circuit of a config, which an assembled
  circuit runs without building any of its gates, and the same circuit
  in the step order before RZZ gates were moved next to their XY gates:
  the XY sweep, then the RZZ layer.
- For gate-level test circuits, the engine's own route: a layer fused and
  merged, and a circuit of the AssembledOps that evolve_recorded runs.
- The exact single-excitation transfer amplitude and its success
  probability, e^{-iAt} of the chain's hopping matrix.
- The rescaling's forward decay model.
- Random and pure test states.
- The CSV text of a series and of a tomography record, each cell
  formatted from its numpy scalar, row by row.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from pstlab.chains import (
    CouplingProfile,
    GateOp,
    NoisyCircuit,
    build_trotter_circuit,
)
from pstlab.experiments import AssembledOp, _prep_gate_for_amplitudes
from pstlab.noise import with_noise
from pstlab.sim_core import (
    _TO_PAULI,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    KrausChannel,
    Superoperator,
    UnitaryGate,
    _paired_axes,
    apply_channel,
    apply_unitary,
    bind_superoperators,
    fused_superoperators,
    merge_superoperators,
)

# The inverse of _TO_PAULI: its rows are orthogonal with norm^2 2.
_FROM_PAULI = _TO_PAULI.conj().T / 2


def _per_axis(mat: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """`mat` contracted into every axis of `tensor`."""
    for axis in range(tensor.ndim):
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=(1, axis)), 0, axis)
    return tensor


def _n_qubits(vec: np.ndarray) -> int:
    """n of a (4^n,) Pauli vector, which must have that shape."""
    n = (vec.size.bit_length() - 1) // 2
    if n < 1 or vec.shape != (4**n,):
        raise ValueError(f"Pauli vector has shape {vec.shape}, not (4^n,) for some n >= 1")
    return n


def from_density_matrix(rho: DensityMatrix) -> np.ndarray:
    """rho's 4^n real Pauli coefficients r_P = tr(P rho), qubit q on axis q
    of the (4,) * n view."""
    n = rho.n_qubits
    tensor = rho.matrix.reshape((2,) * 2 * n).transpose(_paired_axes(n))
    return _per_axis(_TO_PAULI, tensor.reshape((4,) * n)).real.ravel()


def to_density_matrix(vec: np.ndarray) -> DensityMatrix:
    """rho = sum_P r_P P / 2^n of a (4^n,) Pauli vector, not validated."""
    n = _n_qubits(vec)
    tensor = _per_axis(_FROM_PAULI, vec.reshape((4,) * n)).reshape((2,) * 2 * n)
    rho = tensor.transpose(np.argsort(_paired_axes(n))).reshape(2**n, 2**n)
    return DensityMatrix(n, rho, validate=False)


def apply_superoperator(vec: np.ndarray, sop: Superoperator) -> np.ndarray:
    """E(vec): the engine's one bound matmul (sim_core.bind_superoperators,
    which refuses an op that does not fit the vector) into a new Pauli
    vector."""
    dst = np.empty(vec.size)
    bind_superoperators([sop], vec, dst)[0]()
    return dst


def apply_in_order(vec: np.ndarray, sops) -> np.ndarray:
    """apply_superoperator of each op in turn."""
    for sop in sops:
        vec = apply_superoperator(vec, sop)
    return vec


def kraus_loop(rho: DensityMatrix, gate: UnitaryGate, channels) -> DensityMatrix:
    """The gate, then each (channel, targets) in turn, as a Kraus sum."""
    rho = apply_unitary(rho, gate)
    for channel, targets in channels:
        rho = apply_channel(rho, channel, targets)
    return rho


def kraus_ptm(gate: UnitaryGate, channels) -> Superoperator:
    """The fused op of the gate and its (channel, targets) pairs, by the
    Kraus route: on their support, the qubits a..a+k-1 from the lowest to
    the highest of their targets, column Q of the PTM is the Pauli vector
    (from_density_matrix) of kraus_loop applied to the Pauli basis state Q,
    rho = Q / 2^k (to_density_matrix), on the support's k qubits."""
    qubits = [*gate.targets, *(t for _, on in channels for t in on)]
    a, k = min(qubits), max(qubits) - min(qubits) + 1
    local = UnitaryGate(gate.matrix, [t - a for t in gate.targets])
    moved = [(channel, [t - a for t in on]) for channel, on in channels]
    columns = [from_density_matrix(kraus_loop(to_density_matrix(basis), local, moved))
               for basis in np.eye(4**k)]
    return Superoperator(np.array(columns).T, a)


def reference_circuit(config, profile: CouplingProfile | None = None,
                      amplitudes=(0, 1)) -> NoisyCircuit:
    """The gate-level circuit of an experiments.ExperimentConfig that
    prepares a|0> + b|1> on the first site, (a, b) = amplitudes, the single
    excitation by default, with `profile` in place of its own couplings if
    given, in the engine's step order: chains.build_trotter_circuit's step,
    the prep gate of the amplitudes (X for the single excitation), and
    noise.with_noise's channels after every gate. assemble_circuit runs the
    same map, op for op, and builds none of these gates."""
    zeta = config.noise.circuit_zeta() if config.noise is not None else 0.0
    circuit = build_trotter_circuit(profile or config.profile(), config.plan(), zeta)
    circuit.prep = [GateOp(_prep_gate_for_amplitudes(*amplitudes))]
    if config.noise is not None:
        circuit.prep = with_noise(circuit.prep, config.noise)
        circuit.step = with_noise(circuit.step, config.noise)
    return circuit


def sweep_then_crosstalk(config) -> NoisyCircuit:
    """reference_circuit of a single-excitation config, its step in the
    order that chains.step_order replaced: the XY sweep, bond by bond, then
    the RZZ layer."""
    circuit = reference_circuit(config)
    circuit.step = sorted(circuit.step, key=lambda op: op.gate.kind == "rzz")
    return circuit


def compiled_ops(ops, n_qubits: int) -> list:
    """A layer of GateOps as the engine applies it: each gate fused with its
    channels (sim_core.fused_superoperators), the fused ops then merged."""
    return merge_superoperators(fused_superoperators([(op.gate, op.channels) for op in ops],
                                                     n_qubits))


def as_assembled(circuit: NoisyCircuit) -> NoisyCircuit:
    """A gate-level circuit as experiments.evolve_recorded runs it: each
    GateOp replaced by the AssembledOp of its gate fused with its channels."""
    def layer(ops):
        fused = fused_superoperators([(op.gate, op.channels) for op in ops], circuit.n_qubits)
        return [AssembledOp(sop, tuple(op.channels)) for op, sop in zip(ops, fused, strict=True)]

    return replace(circuit, prep=layer(circuit.prep), step=layer(circuit.step))


def qubit_p1(state, qubit: int) -> float:
    """Probability that `qubit` reads 1, for a DensityMatrix or a (4^n,)
    Pauli vector."""
    if not isinstance(state, (DensityMatrix, np.ndarray)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    n = state.n_qubits if isinstance(state, DensityMatrix) else _n_qubits(state)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    if isinstance(state, np.ndarray):
        # P(1) = tr((I - Z_q) rho) / 2; Z_q is Z on axis q, I on the others
        return float((state[0] - state[3 * 4 ** (n - 1 - qubit)]) / 2.0)
    probs = np.real(np.diagonal(state.matrix))
    # big-endian: qubit q is axis q of the 2^q x 2 x 2^(n-1-q) view; ravel
    # keeps the qubit = 1 entries in index order, so the sum order is fixed
    return float(np.sum(probs.reshape(2**qubit, 2, -1)[:, 1, :].ravel()))


def partial_trace_to_qubit(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Trace out all qubits except `keep`, returning the 2x2 reduced state."""
    n = rho.n_qubits
    if not 0 <= keep < n:
        raise ValueError(f"qubit {keep} out of range for {n} qubits")
    tensor = rho.matrix.reshape((2,) * (2 * n))
    # move kept row/col axes to the front, then trace the rest pairwise
    tensor = np.moveaxis(tensor, (keep, n + keep), (0, 1))
    rest = 2 ** (n - 1)
    tensor = tensor.reshape(2, 2, rest, rest)
    reduced = np.einsum("ijkk->ij", tensor)
    return DensityMatrix(1, reduced, validate=False)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(tr(X rho), tr(Y rho), tr(Z rho)) of a 2 x 2 state."""
    return np.real([np.trace(pauli @ rho) for pauli in (PAULI_X, PAULI_Y, PAULI_Z)])


def bloch_density(x: float, y: float, z: float) -> np.ndarray:
    """The complex 2 x 2 matrix (I + x X + y Y + z Z) / 2."""
    return (np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|), used for channel equality checks."""
    d = 2**channel.arity
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in channel.kraus_ops:
        vec = k.T.reshape(-1)  # column-stacked |i> (x) K|i>
        choi += np.outer(vec, vec.conj())
    return choi


def ket_density(amps) -> DensityMatrix:
    """|psi><psi| for the amplitudes of a ket, validated as a density matrix."""
    amps = np.asarray(amps, dtype=complex)
    return DensityMatrix(int(np.log2(len(amps))), np.outer(amps, amps.conj()))


def random_density(n: int, seed: int) -> DensityMatrix:
    """A random full-rank n-qubit density matrix, A A^dag normalized."""
    rng = np.random.default_rng(seed)
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    return DensityMatrix(n, rho)


def single_excitation_hamiltonian(couplings: CouplingProfile) -> np.ndarray:
    """N x N hopping matrix A with A[i, i+1] = A[i+1, i] = J_{i+1}.

    This is the effective Hamiltonian the theta = J dt circuit approximates
    in the one-excitation sector.
    """
    n = couplings.n_sites
    a = np.zeros((n, n))
    for i, j_i in enumerate(couplings.couplings):
        a[i, i + 1] = a[i + 1, i] = j_i
    return a


def exact_transfer_amplitude(couplings: CouplingProfile, t, source: int = 1,
                             target: int | None = None) -> np.ndarray | complex:
    """<target| e^{-iAt} |source> in the single-excitation sector (sites 1-based).

    Accepts scalar or array t; vectorized over the grid via one
    eigendecomposition.
    """
    n = couplings.n_sites
    if target is None:
        target = n
    if not (1 <= source <= n and 1 <= target <= n):
        raise ValueError("source/target site out of range")
    a = single_excitation_hamiltonian(couplings)
    evals, evecs = np.linalg.eigh(a)
    ts = np.asarray(t, dtype=float)
    phases = np.exp(-1j * np.outer(ts.reshape(-1), evals))
    amps = phases @ (evecs[target - 1, :] * evecs[source - 1, :].conj())
    if ts.ndim == 0:
        return complex(amps[0])
    return amps


def exact_sp_oracle(couplings: CouplingProfile, t) -> np.ndarray | float:
    """Exact end-to-end success probability |<N| e^{-iAt} |1>|^2."""
    amp = exact_transfer_amplitude(couplings, t)
    sp = np.abs(amp) ** 2
    if np.ndim(sp) == 0:
        return float(sp)
    return sp


def forward_decay(values, alpha: float, beta: float) -> np.ndarray:
    """Forward model: n_hat_k = e^{-beta k} n_k + alpha (1 - e^{-beta k})."""
    values = np.asarray(values, dtype=float)
    k = np.arange(len(values))
    env = np.exp(-beta * k)
    return env * values + alpha * (1.0 - env)


def series_csv(series) -> str:
    """experiments.series_to_csv's text, one t,site,sp row per (time, site)."""
    lines = ["t,site,sp"]
    for k, t in enumerate(series.times):
        for s in series.sites():
            lines.append(f"{t:.12g},{s},{series.values[s][k]:.12g}")
    return "\n".join(lines) + "\n"


def tomography_csv(record, site: int) -> str:
    """experiments.tomography_to_csv's text, one row per time."""
    lines = ["t,site,sp,x,y,z,fidelity,fidelity_phase_corrected"]
    for k, t in enumerate(record.times):
        lines.append(
            f"{t:.12g},{site},{record.sp[k]:.12g},{record.x[k]:.12g},{record.y[k]:.12g},"
            f"{record.z[k]:.12g},{record.fidelity[k]:.12g},{record.fidelity_phase_corrected[k]:.12g}"
        )
    return "\n".join(lines) + "\n"
