"""Dense density-matrix and Pauli-vector simulation engine.

States are stored big-endian by site: the basis index of |q0 q1 ... q_{n-1}>
is sum_i q_i * 2^(n-1-i), so qubit 0 is the leftmost ket label and chain
site 1. |1000> therefore means "excitation on the first of four sites".

Unitaries and Kraus channels act on arbitrary qubit subsets through tensor
reshaping; nothing here assumes a chain topology. The evolution engine holds
every state, pure or mixed, as its 4^n real Pauli coefficients (PauliState).
It fuses each gate with its channels, if any, into one real Pauli transfer
matrix (PTM) on the consecutive qubits from the lowest to the highest of
their targets, then merges adjacent fused ops into PTMs of at most
MERGE_WIDTH qubits. Every op (Superoperator) so acts on consecutive qubits
a..a+k-1 in order: any ordering of a gate's or a channel's qubits is done
at compile time, on matrices of at most 64 x 64 (_embed), and every op
reaches a state as one real (stacked) matmul on a reshaped view, straight
from one buffer into the other (_matmul_operands). A run's prep and Trotter
step are bound once to two fixed state buffers (bind_superoperators), each
then one call on views fixed when it was bound, and allocate nothing;
apply_superoperator applies one op into a new state. States of circuits
that differ only in their gates' matrices evolve together as one batch: a
gate may hold an (m, d, d) stack of its members' unitaries, compiling it
gives an op with the stack of their PTMs (2-D parts, such as the shared
channels, broadcast over the member axis), and the kernel applies the stack
with one broadcast matmul over a leading member axis. Each channel's PTM is
built once per channel object. The per-qubit change between rho's entries
and Pauli coefficients lives here alone. apply_unitary and apply_channel
(the Kraus loop on DensityMatrix) are the engine's reference, and apply ops
on any qubits.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
S_DAG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
# One qubit's rho entries (00, 01, 10, 11) to its Pauli coefficients (I, X, Y,
# Z): r_P = tr(P rho) = sum_ij P[j, i] rho[i, j]. Its rows are orthogonal
# with norm^2 2, so the inverse is the conjugate transpose over 2.
_TO_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_FROM_PAULI = _TO_PAULI.conj().T / 2

_TRACE_TOL = 1e-9
_PSD_FLOOR = -1e-9
_CPTP_TOL = 1e-10
# Widest support, in qubits, of a superoperator merged from adjacent ones.
# Each merge saves one pass over the state and costs a wider matmul. One
# comprehensive-noise step, one BLAS thread, widths 2 / 3 / 4: N = 4 26 / 20 /
# 17 us, N = 6 105 / 104 / 220 us, N = 8 1.54 / 1.87 / 5.1 ms, N = 10 37 / 40 /
# 84 ms (medians of 15 interleaved rounds). Width 2 wins only from N = 8 up and
# width 4 only at N = 4; 3 is kept, as the N = 4 optimize workload needs it.
MERGE_WIDTH = 3


class DensityMatrix:
    """2^n x 2^n density operator: trace one, Hermitian, positive."""

    __slots__ = ("n_qubits", "matrix")

    def __init__(self, n_qubits: int, matrix, validate: bool = True):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        mat = np.asarray(matrix, dtype=complex)
        dim = 2**n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        if validate:
            tr = complex(np.trace(mat))
            if abs(tr - 1.0) > _TRACE_TOL:
                raise ValueError(f"trace = {tr}, not 1 within {_TRACE_TOL}")
            if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
                raise ValueError("matrix is not Hermitian within tolerance")
            evals = np.linalg.eigvalsh(mat)
            if evals.min() < _PSD_FLOOR:
                raise ValueError(f"matrix has eigenvalue {evals.min()} below {_PSD_FLOOR}")
        self.n_qubits = n_qubits
        self.matrix = mat

    @classmethod
    def zero(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(n_qubits, rho, validate=False)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def _paired_axes(n: int) -> list:
    """The axis order of a (2,) * 2n view of a 2^n x 2^n matrix that puts
    each qubit's row axis next to its column axis: [0, n, 1, n + 1, ...]."""
    return [a for q in range(n) for a in (q, n + q)]


def _per_axis(mat: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """`mat` contracted into every axis of `tensor`."""
    for axis in range(tensor.ndim):
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=(1, axis)), 0, axis)
    return tensor


class PauliState:
    """An n-qubit mixed state as its 4^n real Pauli coefficients.

    Entry P of `vector` is r_P = tr(P rho), P a tensor product of I, X, Y, Z
    with qubit q on axis q of the (4,) * n view, so rho = sum_P r_P P / 2^n
    and r_{I...I} is the trace. Every CPTP map keeps the coefficients real.
    """

    __slots__ = ("n_qubits", "vector")

    def __init__(self, n_qubits: int, vector):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (4**n_qubits,):
            raise ValueError(f"Pauli vector has shape {vec.shape}, expected ({4**n_qubits},)")
        self.n_qubits = n_qubits
        self.vector = vec

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliState":
        """|0...0>: r_P = 1 where every factor of P is I or Z, else 0."""
        vec = np.ones(1)
        for _ in range(n_qubits):
            vec = np.outer(vec, [1.0, 0.0, 0.0, 1.0]).ravel()
        return cls(n_qubits, vec)

    @classmethod
    def from_density_matrix(cls, rho: DensityMatrix) -> "PauliState":
        n = rho.n_qubits
        tensor = rho.matrix.reshape((2,) * 2 * n).transpose(_paired_axes(n))
        return cls(n, _per_axis(_TO_PAULI, tensor.reshape((4,) * n)).real.ravel())

    def to_density_matrix(self) -> DensityMatrix:
        n = self.n_qubits
        tensor = _per_axis(_FROM_PAULI, self.vector.reshape((4,) * n)).reshape((2,) * 2 * n)
        rho = tensor.transpose(np.argsort(_paired_axes(n))).reshape(2**n, 2**n)
        return DensityMatrix(n, rho, validate=False)


class UnitaryGate:
    """A 1- or 2-qubit unitary bound to an ordered tuple of target qubits.

    The matrix may also be an (m, d, d) stack, one unitary per member of a
    lock-step batch; each member is checked.
    """

    __slots__ = ("matrix", "targets", "arity", "kind")

    def __init__(self, matrix, targets, kind: str = ""):
        mat = np.asarray(matrix, dtype=complex)
        targets = tuple(int(t) for t in targets)
        arity = len(targets)
        if arity not in (1, 2):
            raise ValueError(f"gate arity must be 1 or 2, got {arity}")
        dim = 2**arity
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (dim, dim):
            raise ValueError(f"gate matrix shape {mat.shape} does not match arity {arity}")
        if len(set(targets)) != arity:
            raise ValueError(f"duplicate targets {targets}")
        dev = np.max(np.abs(mat.conj().swapaxes(-1, -2) @ mat - np.eye(dim)))
        if dev > 1e-12:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        self.matrix = mat
        self.targets = targets
        self.arity = arity
        self.kind = kind


class KrausChannel:
    """CPTP map as a finite set of Kraus operators on k qubits.

    Construction only checks shapes, so that deliberately broken sets can
    still be reported on: cptp_deviation measures completeness, and
    apply_channel refuses a set whose deviation exceeds 1e-10.
    """

    __slots__ = ("kraus_ops", "arity", "_cptp_deviation", "_ptm")

    def __init__(self, kraus_ops):
        ops = tuple(np.asarray(k, dtype=complex) for k in kraus_ops)
        if not ops:
            raise ValueError("Kraus set must be nonempty")
        dim = ops[0].shape[0]
        arity = int(round(np.log2(dim)))
        if 2**arity != dim:
            raise ValueError(f"Kraus operator dimension {dim} is not a power of 2")
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError("all Kraus operators must share one square shape")
        self.kraus_ops, self.arity = ops, arity
        self._cptp_deviation = self._ptm = None

    def cptp_deviation(self) -> float:
        """Max-abs deviation of sum K^dag K from the identity (cached)."""
        if self._cptp_deviation is None:
            acc = sum(k.conj().T @ k for k in self.kraus_ops)
            self._cptp_deviation = float(np.max(np.abs(acc - np.eye(2**self.arity))))
        return self._cptp_deviation

    def pauli_transfer_matrix(self) -> np.ndarray:
        """The channel's real 4^k x 4^k Pauli transfer matrix, from its
        superoperator sum_K K (x) conj(K) (cached)."""
        if self._ptm is None:
            superop = sum(_kron(k, k.conj()) for k in self.kraus_ops)
            self._ptm = _pauli_transfer_matrix(superop, self.arity)
        return self._ptm


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its per-call axis bookkeeping; over
    a leading member axis of either, a 2-D one broadcast."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], prod.shape[-4] * prod.shape[-3], -1)


def _check_targets(targets, n_qubits: int) -> None:
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ValueError(f"target {t} out of range for {n_qubits} qubits")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {targets}")


def _matmul_operands(src: np.ndarray, mat: np.ndarray, lead: int, dst: np.ndarray) -> tuple:
    """(x, y, out): the views such that np.matmul(x, y, out) contracts the
    4^k x 4^k mat into the consecutive Pauli axes a..a+k-1 of src, lead =
    4^a, writing dst. The one place that lays them out, for every op.

    `src` is a Pauli vector or a batch of them on a trailing axis, viewed as
    4^a x 4^k x rest; `dst` is a contiguous array of its size and must not
    be `src`, as a matmul never writes over its own input. When nothing
    follows the block, the matmul is one GEMM against mat.T. `mat` may also
    be an m x 4^k x 4^k stack applied to m vectors stored one after another
    in src, member b taking mat[b]: the same matmul over a leading member
    axis of the view, each member's result bit-identical to its own.
    """
    width = mat.shape[-1]
    view = (lead, width) if mat.ndim == 2 else (len(mat), lead, width)
    if src.size * width == lead * mat.size:  # one vector per matrix
        return src.reshape(view), mat.swapaxes(-1, -2), dst.reshape(view)
    view += (-1,)
    return mat if mat.ndim == 2 else mat[:, None], src.reshape(view), dst.reshape(view)


def _apply_matrix_to_density(rho: np.ndarray, mat: np.ndarray, targets, n: int) -> np.ndarray:
    """rho -> M rho M^dag on the embedded subsystem (M need not be unitary)."""
    k = len(targets)
    tensor = rho.reshape((2,) * (2 * n))
    gate = mat.reshape((2,) * (2 * k))
    row = list(targets)
    col = [n + t for t in targets]
    tensor = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), row))
    tensor = np.moveaxis(tensor, range(k), row)
    tensor = np.tensordot(gate.conj(), tensor, axes=(list(range(k, 2 * k)), col))
    tensor = np.moveaxis(tensor, range(k), col)
    return tensor.reshape(2**n, 2**n)


def apply_unitary(rho: DensityMatrix, gate: UnitaryGate) -> DensityMatrix:
    """rho -> U rho U^dag, with U the full 2^N embedding of the gate (identity
    on non-target qubits, with target-order permutation)."""
    n = rho.n_qubits
    _check_targets(gate.targets, n)
    return DensityMatrix(n, _apply_matrix_to_density(rho.matrix, gate.matrix, gate.targets, n),
                         validate=False)


def _check_channel(channel: KrausChannel, targets, n_qubits: int) -> tuple:
    """The channel's targets as ints, after the arity, range and CPTP checks."""
    targets = tuple(int(t) for t in targets)
    if len(targets) != channel.arity:
        raise ValueError(
            f"channel arity {channel.arity} does not match {len(targets)} targets"
        )
    _check_targets(targets, n_qubits)
    dev = channel.cptp_deviation()
    if dev > _CPTP_TOL:
        raise ValueError(f"refusing to apply non-CPTP channel: "
                         f"|sum K^dag K - I|_max = {dev:.3e} (tol {_CPTP_TOL:.1e})")
    return targets


def apply_channel(rho: DensityMatrix, channel: KrausChannel, targets) -> DensityMatrix:
    """rho -> sum_K K rho K^dag on the embedded subsystem."""
    n = rho.n_qubits
    targets = _check_channel(channel, targets, n)
    out = np.zeros_like(rho.matrix)
    for k in channel.kraus_ops:
        out += _apply_matrix_to_density(rho.matrix, k, targets, n)
    return DensityMatrix(n, out, validate=False)


@lru_cache(maxsize=None)
def _pauli_basis(k: int) -> np.ndarray:
    """C, taking a k-qubit rho's entries (row index first) to its Pauli
    coefficients: _TO_PAULI on each qubit's (row, column) pair of entries.
    Its rows are orthogonal with norm^2 2^k, so C^-1 = C^dag / 2^k."""
    to_pauli = np.ones((1, 1))
    for _ in range(k):
        to_pauli = _kron(to_pauli, _TO_PAULI)
    basis = np.empty_like(to_pauli)
    basis[:, np.arange(4**k).reshape((2,) * 2 * k).transpose(_paired_axes(k)).ravel()] = to_pauli
    basis.setflags(write=False)  # shared by every caller
    return basis


def _pauli_transfer_matrix(superop: np.ndarray, k: int) -> np.ndarray:
    """A k-qubit superoperator S in the kron(M, conj M) layout as its real
    Pauli transfer matrix C S C^-1; over a leading member axis of S, if any."""
    basis = _pauli_basis(k)
    return np.ascontiguousarray((basis @ superop @ basis.conj().T).real / 2**k)


class Superoperator:
    """A map E on the consecutive qubits a..a+k-1, in order, as its real
    4^k x 4^k Pauli transfer matrix (PTM): entry [P, Q] = tr(P E(Q)) / 2^k,
    for P and Q tensor products of I, X, Y, Z over the targets in order. It
    carries a PauliState's coefficients on the targets to their new values,
    as one matmul on the state's 4^a x 4^k x rest view. A stacked op,
    compiled from stacked gates, holds an m x 4^k x 4^k stack of PTMs, one
    per member of a batch of m states. Targets that are not such a range are
    refused: fused_superoperator orders a gate's and its channels' qubits.
    """

    __slots__ = ("matrix", "targets", "n_qubits")

    def __init__(self, matrix, targets, n_qubits: int):
        targets = tuple(targets)
        if targets != tuple(range(targets[0], targets[0] + len(targets))):
            raise ValueError(f"targets {targets} are not consecutive ascending qubits")
        self.matrix, self.targets, self.n_qubits = matrix, targets, n_qubits


def _embed(ptm: np.ndarray, positions, k: int) -> np.ndarray:
    """The PTM on `positions` of k qubits, in that order, as a 4^k x 4^k PTM
    on all k in axis order: the axes of ptm (x) I reordered, so entries move
    and none is computed. Over a leading member axis of ptm, if any."""
    lead = ptm.shape[:-2]
    order = [*positions, *(q for q in range(k) if q not in positions)]
    axes = [order.index(q) for q in range(k)]
    full = _kron(ptm, np.eye(4 ** (k - len(positions)))).reshape(lead + (4,) * 2 * k)
    perm = [*range(len(lead)), *(len(lead) + a for a in axes), *(len(lead) + k + a for a in axes)]
    return full.transpose(perm).reshape(lead + (4**k, 4**k))


def _compose(support: range, parts) -> np.ndarray:
    """The PTM on the consecutive qubits `support` of (PTM, targets) parts
    applied in order: each contracted into its targets' axes, starting from
    the identity, with the result alternating between two buffers. A part
    on other than consecutive ascending qubits is first embedded in the
    whole support (_embed), so every part takes the kernel's one matmul.

    When a part is an m-member stack, so is the result: the identity and
    every 2-D part are broadcast over the member axis (the parts' stacks
    must share their size).
    """
    k = len(support)
    lead = next((ptm.shape[:1] for ptm, _ in parts if ptm.ndim > 2), ())
    matrix = np.eye(4**k)
    if lead:
        matrix = np.broadcast_to(matrix, lead + matrix.shape)
    bufs = (np.empty(matrix.shape), np.empty(matrix.shape))
    for i, (ptm, targets) in enumerate(parts):
        first = targets[0] - support[0]
        if targets != tuple(range(targets[0], targets[0] + len(targets))):
            ptm, first = _embed(ptm, [t - support[0] for t in targets], k), 0
        if ptm.ndim < matrix.ndim:
            ptm = np.broadcast_to(ptm, lead + ptm.shape)
        np.matmul(*_matmul_operands(matrix, ptm, 4**first, bufs[i % 2]))
        matrix = bufs[i % 2]
    return matrix


def fused_superoperator(gate: UnitaryGate, channels, n_qubits: int) -> Superoperator:
    """The gate followed by its channels in order, as one superoperator.

    R = R_m ... R_1 R_U, with R_U the PTM of U (x) conj U and R_c =
    channel.pauli_transfer_matrix(), each embedded in the support: the
    qubits from the lowest to the highest of the gate's and the channels'
    targets. A stacked gate gives a stacked op, each member's PTM that of
    its own gate with the shared channels. Refuses what apply_unitary and
    apply_channel refuse, with their messages, and then a support wider than
    MERGE_WIDTH qubits, which the Kraus loop still applies.
    """
    _check_targets(gate.targets, n_qubits)
    parts = [(_pauli_transfer_matrix(_kron(gate.matrix, gate.matrix.conj()), gate.arity),
              gate.targets)]
    for channel, targets in channels:
        parts.append((channel.pauli_transfer_matrix(), _check_channel(channel, targets, n_qubits)))
    qubits = [t for _, targets in parts for t in targets]
    support = range(min(qubits), max(qubits) + 1)
    if len(support) > MERGE_WIDTH:
        raise ValueError(f"gate on {gate.targets} with channels on {[t for _, t in parts[1:]]} "
                         f"spans {len(support)} qubits, more than MERGE_WIDTH = {MERGE_WIDTH}")
    return Superoperator(_compose(support, parts), support, n_qubits)


def merge_superoperators(sops) -> list:
    """Adjacent superoperators merged into ops of at most MERGE_WIDTH qubits.

    A group grows while its support, the qubits from the lowest to the
    highest of its members' targets, stays within MERGE_WIDTH qubits. Its
    matrix is the members' product in their order, each contracted into its
    own consecutive axes of the support; a group of one is kept as it is. A
    group holding a stacked op is a stacked op (see _compose). Ops are never
    reordered, so the list applies the same map.
    """
    groups = []
    for sop in sops:
        support, members = groups[-1] if groups else (range(0), [])
        wider = range(min(support.start, sop.targets[0]), max(support.stop, sop.targets[-1] + 1))
        if members and len(wider) <= MERGE_WIDTH and sop.n_qubits == members[0].n_qubits:
            groups[-1] = (wider, members + [sop])
        else:
            groups.append((range(sop.targets[0], sop.targets[-1] + 1), [sop]))
    return [members[0] if len(members) == 1 else
            Superoperator(_compose(support, [(sop.matrix, sop.targets) for sop in members]),
                          support, members[0].n_qubits)
            for support, members in groups]


def _check_register(sop: Superoperator, n: int) -> None:
    """Refuse an op compiled for another register size than n qubits."""
    if sop.n_qubits != n:
        _check_targets(sop.targets, n)
        raise ValueError(f"superoperator compiled for {sop.n_qubits} qubits, state has {n}")


def apply_superoperator(state: PauliState, sop: Superoperator) -> PauliState:
    """E(state): one real matmul on the Pauli axes of the targets, into a new
    Pauli vector."""
    n, vec = state.n_qubits, state.vector
    _check_register(sop, n)
    dst = np.empty(vec.size)
    np.matmul(*_matmul_operands(vec, sop.matrix, 4 ** sop.targets[0], dst))
    return PauliState(n, dst)


def bind_superoperators(sops, first: np.ndarray, second: np.ndarray) -> list:
    """The superoperators in order, each bound once to two fixed buffers: a
    list of calls without arguments, the first reading `first` and writing
    `second`, the next the other way, and so on. After all of them the
    result is in `second` for an odd number of ops, else in `first`.

    The buffers are contiguous arrays of one shape: one Pauli vector
    (4^n,), or m of them, (m, 4^n), for stacked ops of m members. An op
    compiled for another register size than n is refused. Each call is one
    np.matmul on views fixed here (_matmul_operands), writes what
    apply_superoperator writes, bit for bit, and allocates no state.
    """
    n = (first.shape[-1].bit_length() - 1) // 2
    calls, src, dst = [], first, second
    for sop in sops:
        _check_register(sop, n)
        calls.append(partial(np.matmul, *_matmul_operands(src, sop.matrix, 4**sop.targets[0], dst)))
        src, dst = dst, src
    return calls


def qubit_p1(state, qubit: int) -> float:
    """Probability that `qubit` reads 1, for a DensityMatrix or a PauliState."""
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    if isinstance(state, PauliState):
        # P(1) = tr((I - Z_q) rho) / 2; Z_q is Z on axis q, I on the others
        vec = state.vector
        return float((vec[0] - vec[3 * 4 ** (n - 1 - qubit)]) / 2.0)
    if not isinstance(state, DensityMatrix):
        raise TypeError(f"unsupported state type {type(state).__name__}")
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


def qubit_state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity of each single-qubit state of the (..., 2, 2) stack
    rho to the 2 x 2 state sigma.

    Uses the qubit closed form F = tr(rho sigma) + 2 sqrt(det rho det sigma),
    which coincides with the square of the trace norm of
    sqrt(sqrt(rho) sigma sqrt(rho)) in dimension two.
    """
    for name, s in (("rho", rho), ("sigma", sigma)):
        if s.shape[-2:] != (2, 2):
            raise ValueError(f"{name} must be a single-qubit state")
        if np.linalg.eigvalsh(s).min() < _PSD_FLOOR:
            raise ValueError(f"{name} is not positive semidefinite")
    overlap = np.real(np.trace(rho @ sigma, axis1=-2, axis2=-1))
    det_r = np.maximum(0.0, np.real(np.linalg.det(rho)))
    det_s = max(0.0, float(np.real(np.linalg.det(sigma))))
    return np.clip(overlap + 2.0 * np.sqrt(det_r * det_s), 0.0, 1.0)


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|), used for channel equality checks."""
    d = 2**channel.arity
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in channel.kraus_ops:
        vec = k.T.reshape(-1)  # column-stacked |i> (x) K|i>
        choi += np.outer(vec, vec.conj())
    return choi
