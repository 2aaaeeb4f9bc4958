"""Dense density-matrix and Pauli-vector simulation engine.

States are stored big-endian by site: the basis index of |q0 q1 ... q_{n-1}>
is sum_i q_i * 2^(n-1-i), so qubit 0 is the leftmost ket label and chain
site 1. |1000> therefore means "excitation on the first of four sites".

Unitaries and Kraus channels act on arbitrary qubit subsets through tensor
reshaping; nothing here assumes a chain topology. The evolution engine
works on the real Pauli coefficients r_P = tr(P rho) of a state. It fuses
each gate with its channels, if any, into one real Pauli transfer matrix
(PTM) on the consecutive qubits from the lowest to the highest of their
targets, then merges adjacent fused ops into PTMs of at most MERGE_WIDTH
qubits. A rotation exp(-i theta/2 G) by a Pauli string G, such as an RXX or
RYY gate, with its channels, fuses into c^2 B0 + cs B1 + s^2 B2, c =
cos(theta/2) and s = sin(theta/2), whose angle basis rotation_basis fuses
once, so a caller that holds it fuses such a gate at any angle, or a stack
of angles, with no gate matrix. An op (Superoperator) is its PTM and its
first qubit a, on the qubits a..a+k-1 of any register that holds them.
Gates and channels fuse only on consecutive ascending qubits; the Kraus
loop applies any.

A run's state is held in the parity-graded layout, (2 * 4^(n-1), sectors),
where graded_index, the one placement rule, puts each Pauli string. Qubit
q's Pauli has a type bit t (1 for X and Y) and a sub bit u (1 for Y and
Z), and s_q = t_0 ^ ... ^ t_q; qubit q takes the slot 2 u + s_q of four,
the first qubit the slowest, so the X/Y parity s_{n-1} is the fastest bit:
a string's (row, sector) is divmod(index, 2), and the last qubit's slot
holds u alone. Every op the program builds commutes with conjugation by Z
(x) ... (x) Z, so it keeps each string's parity: a state whose qubit 0
starts without X or Y weight (graded_start_state) stores one sector, half
the 4^n vector. An op on qubits a..a+k-1 then reads s_{a-1} as a control
bit and changes no other slot; graded_superoperators permutes its PTM into
the stack that the kernel multiplies and refuses an op that mixes the
parities. Each graded op is one real (stacked) matmul on reshaped views
(_matmul_operands), bound once to a run's two fixed state buffers
(bind_superoperators), so a step allocates nothing. States of circuits
that differ only in their rotation angles evolve together as one batch,
(members, 2 * 4^(n-1), sectors): an op may hold an m-member stack of PTMs,
and a 2-D op, which every member shares, is broadcast over the member
axis. A gate is one unitary, never a stack. Each channel's PTM is built
once per channel object. apply_unitary and apply_channel (the Kraus loop
on DensityMatrix) are the engine's reference; the rest of the
density-matrix side (the change between rho and its Pauli vector in the
standard layout, qubit q on axis q of the (4,) * n view, an op applied to
such a vector, the change to and from the graded layout, the partial
trace, populations) is in the tests' oracle module.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product

import numpy as np

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
S_DAG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
# One qubit's rho entries (00, 01, 10, 11) to its Pauli coefficients (I, X, Y,
# Z): r_P = tr(P rho) = sum_ij P[j, i] rho[i, j].
_TO_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])

# The identity of a 1- and a 2-qubit gate, by dimension, which
# unitarity_deviation measures against, and the largest deviation that
# UnitaryGate accepts.
_GATE_IDENTITIES = {2: np.eye(2), 4: np.eye(4)}
UNITARY_TOL = 1e-12
_TRACE_TOL = 1e-9
_PSD_FLOOR = -1e-9
_CPTP_TOL = 1e-10
# Widest support, in qubits, of a superoperator merged from adjacent ones.
# Each merge saves one pass over the state and costs a wider matmul. One
# comprehensive-noise step on the graded state (one sector), one BLAS
# thread, widths 2 / 3 / 4, medians of 15 interleaved rounds, three
# processes: N = 4 8.5-9.0 / 3.3-3.5 / 3.3-3.4 us, N = 6 38-39 / 27-28 /
# 29 us, N = 8 0.55 / 0.49-0.50 / 0.79 ms, N = 10 14-15 / 12.2-12.5 /
# 17-18 ms. Width 4 ties 3 at N = 4 only, and width 2 wins nowhere, so 3
# is kept.
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


def _qubits_of(dim: int) -> int:
    """k of a 4^k-entry Pauli axis: the qubits that a PTM or a vector spans."""
    return (dim.bit_length() - 1) // 2


class UnitaryGate:
    """A 1- or 2-qubit unitary bound to an ordered tuple of target qubits."""

    __slots__ = ("matrix", "targets", "arity", "kind")

    def __init__(self, matrix, targets, kind: str = ""):
        mat = np.asarray(matrix, dtype=complex)
        targets = tuple(int(t) for t in targets)
        arity = len(targets)
        if arity not in (1, 2):
            raise ValueError(f"gate arity must be 1 or 2, got {arity}")
        dim = 2**arity
        if mat.shape != (dim, dim):
            raise ValueError(f"gate matrix shape {mat.shape} does not match arity {arity}")
        if len(set(targets)) != arity:
            raise ValueError(f"duplicate targets {targets}")
        dev = unitarity_deviation(mat)
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        self.matrix = mat
        self.targets = targets
        self.arity = arity
        self.kind = kind


def unitarity_deviation(matrix: np.ndarray) -> float:
    """The largest entry of |U^dag U - I| of a 1- or 2-qubit complex matrix:
    what UnitaryGate refuses above UNITARY_TOL."""
    identity = _GATE_IDENTITIES[len(matrix)]
    return np.abs(matrix.conj().T @ matrix - identity).max()


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
            self._ptm = _pauli_transfer_matrix(superop)
            self._ptm.setflags(write=False)  # shared by every op built from the channel
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


def _pauli_transfer_matrix(superop: np.ndarray) -> np.ndarray:
    """A k-qubit superoperator S in the kron(M, conj M) layout as its real
    Pauli transfer matrix C S C^-1; over a leading member axis of S, if any."""
    k = _qubits_of(superop.shape[-1])
    basis = _pauli_basis(k)
    return np.ascontiguousarray((basis @ superop @ basis.conj().T).real / 2**k)


class Superoperator:
    """A map E on the qubits first..first+k-1 (its targets) as its real
    4^k x 4^k Pauli transfer matrix (PTM): entry [P, Q] = tr(P E(Q)) / 2^k,
    for P and Q tensor products of I, X, Y, Z over those qubits in order,
    or an m x 4^k x 4^k stack of PTMs, one per member of a batch of m
    states. It applies to any register of at least first + k qubits."""

    __slots__ = ("matrix", "first")

    def __init__(self, matrix, first: int):
        self.matrix, self.first = matrix, first

    @property
    def targets(self) -> tuple:
        return tuple(range(self.first, self.first + _qubits_of(self.matrix.shape[-1])))


def _compose(support: range, parts) -> np.ndarray:
    """The PTM on the consecutive qubits `support` of (PTM, first qubit)
    parts applied in order, each on the consecutive qubits from its first:
    each contracted into its own axes of the support, starting from the
    identity, with the result alternating between two buffers.

    When a part is an m-member stack, so is the result: the identity is
    copied to each member, and a 2-D part is broadcast over the members
    (the parts' stacks must share their size).
    """
    k = len(support)
    lead = next((ptm.shape[:1] for ptm, _ in parts if ptm.ndim > 2), ())
    bufs = (np.empty(lead + (4**k, 4**k)), np.empty(lead + (4**k, 4**k)))
    matrix = bufs[1]
    matrix[...] = np.eye(4**k)
    for i, (ptm, first) in enumerate(parts):
        view = (*lead, 4 ** (first - support.start), ptm.shape[-1], -1)
        np.matmul(ptm if ptm.ndim == 2 else ptm[:, None], matrix.reshape(view),
                  out=bufs[i % 2].reshape(view))
        matrix = bufs[i % 2]
    return matrix


def fused_superoperators(pairs, n_qubits: int) -> list:
    """Each (gate, channels) pair as one superoperator: the gate followed by
    its channels in order.

    R = R_m ... R_1 R_U, with R_U the PTM of U (x) conj U and R_c =
    channel.pauli_transfer_matrix(), each on its own qubits of the support,
    the qubits from the lowest to the highest of all their targets. Each
    pair is checked first, in order (_fuse): what apply_unitary and
    apply_channel refuse, with their messages, then a support wider than
    MERGE_WIDTH qubits or a gate or channel on qubits that are not
    consecutive ascending, which the Kraus loop still applies.
    """
    return [_fuse(_kron(gate.matrix, gate.matrix.conj()), gate.targets, channels, n_qubits)
            for gate, channels in pairs]


def rotation_basis(generator: np.ndarray, targets, channels, n_qubits: int) -> np.ndarray:
    """The fused op of the rotation U = exp(-i theta/2 G) = c I - i s G, for
    a Pauli string G (G^2 = I), c = cos(theta/2) and s = sin(theta/2), on
    `targets` and followed by `channels`, as a quadratic in c and s: the
    (3, 4^k, 4^k) stack (B0, B1, B2) such that fused_superoperators gives
    c^2 B0 + cs B1 + s^2 B2, on the same support, for U at every angle.

    U (x) conj U = c^2 I (x) I + cs (I (x) conj(-iG) + (-iG) (x) I) + s^2
    (-iG) (x) conj(-iG), and fusing is linear in that superoperator, so each
    B is the fused op of one term, by the helper and checks (_fuse) of
    fused_superoperators.
    """
    one, rot = np.eye(len(generator), dtype=complex), -1j * np.asarray(generator, dtype=complex)
    terms = np.array([_kron(one, one), _kron(one, rot.conj()) + _kron(rot, one),
                      _kron(rot, rot.conj())])
    return _fuse(terms, targets, channels, n_qubits).matrix


def _fuse(superops: np.ndarray, targets, channels, n_qubits: int) -> Superoperator:
    """The op on the support of a stack of superoperators (kron(M, conj M)
    layout) on `targets`, each followed by the (channel, targets) pairs in
    order, after the checks of apply_unitary and apply_channel, the
    MERGE_WIDTH bound and consecutive ascending qubits."""
    targets = tuple(targets)
    _check_targets(targets, n_qubits)
    checked = [(channel, _check_channel(channel, on, n_qubits)) for channel, on in channels]
    qubits = [*targets, *(t for _, on in checked for t in on)]
    support = range(min(qubits), max(qubits) + 1)
    if len(support) > MERGE_WIDTH:
        raise ValueError(f"gate on {targets} with channels on {[t for _, t in checked]} "
                         f"spans {len(support)} qubits, more than MERGE_WIDTH = {MERGE_WIDTH}")
    for what, on in (("gate", targets), *(("channel", on) for _, on in checked)):
        if on != tuple(range(on[0], on[0] + len(on))):
            raise ValueError(f"{what} on {on} is not on consecutive ascending qubits")
    parts = [(_pauli_transfer_matrix(superops), targets[0]),
             *((channel.pauli_transfer_matrix(), on[0]) for channel, on in checked)]
    return Superoperator(_compose(support, parts), support.start)


def merge_superoperators(sops) -> list:
    """Adjacent superoperators merged into ops of at most MERGE_WIDTH qubits.

    A group grows while its support, the qubits from the lowest to the
    highest of its members' targets, stays within MERGE_WIDTH qubits. Its
    matrix is the members' product in their order, each contracted into its
    own consecutive axes of the support; a group of one is kept as it is. A
    group holding a stacked op is a stacked op (see _compose). Ops are never
    reordered, so the list applies the same map.
    """
    return [members[0] if len(members) == 1 else
            Superoperator(_compose(support, [(sop.matrix, sop.first) for sop in members]),
                          support.start)
            for support, members in merge_groups(sops)]


def merge_groups(sops) -> list:
    """The groups that merge_superoperators merges, in order: a (support,
    members) pair per group, members a list of adjacent superoperators."""
    groups = []
    for sop in sops:
        support, members = groups[-1] if groups else (range(0), [])
        own = range(sop.first, sop.targets[-1] + 1)
        wider = range(min(support.start, own.start), max(support.stop, own.stop))
        if members and len(wider) <= MERGE_WIDTH:
            groups[-1] = (wider, members + [sop])
        else:
            groups.append((own, [sop]))
    return groups


def graded_index(codes, control=0) -> np.ndarray:
    """The graded index of each Pauli string of a (..., k) array of codes
    (I, X, Y, Z = 0..3, first qubit first) after s = control, a bit or bits
    broadcast over the strings (0 ahead of qubit 0): qubit q's slot 2 u +
    s_q, s_q = (control + t_0 + ... + t_q) % 2, the first qubit the slowest."""
    codes = np.asarray(codes)
    s = (np.asarray(control)[..., None] + np.cumsum((codes == 1) | (codes == 2), axis=-1)) % 2
    return (2 * (codes >= 2) + s) @ 4 ** np.arange(codes.shape[-1] - 1, -1, -1)


@lru_cache(maxsize=None)
def graded_entry(n_qubits: int, qubit: int, pauli: int) -> tuple:
    """(row, sector) in a graded state of the n-qubit string of code `pauli`
    on `qubit` and I on every other."""
    return divmod(int(graded_index(pauli * np.eye(n_qubits, dtype=np.intp)[qubit])), 2)


def graded_rows(n_qubits: int) -> int:
    """The rows of an n-qubit graded state: a one-sector member's coefficients."""
    return 2 * 4 ** (n_qubits - 1)


@lru_cache(maxsize=None)
def _graded_take(k: int, half: bool, control: int) -> tuple:
    """(stack, cross): the flat indices into a k-qubit PTM of the entries of
    its graded stack, in the stack's shape, and of every entry that takes a
    Pauli string of odd X/Y weight to one of even weight or back.

    Entry [c, i, j] of the (C, L, L) stack is the PTM entry between the
    Pauli strings of graded_index i and j, given s = c on the qubit before
    the op's; C = control, 1 for an op on qubit 0, else 2, and L = 4^k. With
    `half`, for an op on the last qubit of a one-sector state, only the
    strings whose s ends at 0 are kept, at their rows: L = 2 * 4^(k-1).
    """
    codes = np.array(list(product(range(4), repeat=k)))  # by standard index
    index = graded_index(codes, np.arange(control)[:, None])
    order = np.empty_like(index)
    order[np.arange(control)[:, None], index] = np.arange(4**k)  # the string at each index
    if half:
        order = order[:, ::2]
    parity = graded_index(codes) % 2
    stack = order[:, :, None] * 4**k + order[:, None, :]
    cross = np.flatnonzero(parity[:, None] != parity[None, :])
    for index in (stack, cross):
        index.setflags(write=False)
    return stack, cross


@lru_cache(maxsize=None)
def _start_entries(n_qubits: int) -> tuple:
    """(rows, sectors), each (4, 2^(n-1)): the entries of the Pauli strings
    with code p on qubit 0 in row p and I or Z on every other qubit."""
    codes = np.array(list(product(range(4), *[(0, 3)] * (n_qubits - 1))))
    entries = divmod(graded_index(codes).reshape(4, -1), 2)
    for index in entries:
        index.setflags(write=False)
    return entries


def graded_start_state(qubit0: np.ndarray, n_qubits: int) -> np.ndarray:
    """The graded state, (graded_rows(n), sectors), of qubit 0 in the state
    of the Pauli coefficients qubit0 = (r_I, r_X, r_Y, r_Z) and every other
    qubit in |0>, r_I = r_Z = 1: one sector unless r_X or r_Y is nonzero.
    Sector 0 holds r_I and r_Z of qubit 0, sector 1 r_X and r_Y."""
    sectors = 1 if qubit0[1] == qubit0[2] == 0 else 2
    rows, columns = _start_entries(n_qubits)
    state = np.zeros((graded_rows(n_qubits), sectors))
    for p in (0, 3) if sectors == 1 else range(4):
        state[rows[p], columns[p]] = qubit0[p]
    return state


def graded_superoperators(sops, n_qubits: int, sectors: int) -> list:
    """Each op as the (stack, first qubit) pair that the kernel multiplies
    on an n-qubit graded state of that many sectors: the op's PTM, or
    m-member stack, with its rows and columns permuted, no arithmetic, into
    the (..., C, L, L) stack of _graded_take.

    An op whose qubits do not fit n qubits, or whose PTM has a nonzero
    entry between Pauli strings of odd and even X/Y weight (which the
    graded state cannot hold), is refused, before any op is returned.
    """
    graded = []
    for sop in sops:
        targets = sop.targets
        if targets[-1] >= n_qubits:
            raise ValueError(f"op on qubits {targets} does not fit a {n_qubits}-qubit state")
        stack, cross = _graded_take(len(targets), sectors == 1 and targets[-1] == n_qubits - 1,
                                    2 if sop.first else 1)
        flat = sop.matrix.reshape(*sop.matrix.shape[:-2], -1)
        if flat.take(cross, axis=-1).any():
            raise ValueError(f"op on qubits {targets} mixes Pauli strings of odd and even X/Y "
                             "weight, which the graded state does not hold")
        graded.append((flat.take(stack, axis=-1), sop.first))
    return graded


def _matmul_operands(src: np.ndarray, stack: np.ndarray, first: int, dst: np.ndarray) -> tuple:
    """(x, y, out): the views such that np.matmul(x, y, out) applies the
    graded stack of an op on the qubits from `first` (graded_superoperators)
    to the graded states src, writing dst. The one place that lays them
    out, for every op and every batch.

    `src` is (members, 2 * 4^(n-1), sectors), viewed as members x before x
    C x L x rest: before the slots ahead of the control bit s on qubit
    first - 1, C that bit's values, and rest the later slots and the
    sector, so an op that leaves the last qubit alone treats both sectors
    in one GEMM. When nothing follows the block (the op holds the last
    qubit), the matmul is one GEMM per member and C against the transposed
    stack. `dst` is a contiguous array of src's shape and must not be
    `src`, as a matmul never writes over its own input. The stack is
    shared, broadcast over the members, or an m-member stack, member b
    taking stack[b]; either way the member axis stays an axis of the
    matmul, so each member's result is bit-identical to its own.
    """
    members = len(src)
    control = 2 if first else 1
    before = graded_rows(first) if first else 1
    width = stack.shape[-1]
    rest = src[0].size // (before * control * width)
    if rest == 1:
        view = (members, before, control, width)
        return (src.reshape(view).swapaxes(1, 2), stack.swapaxes(-1, -2),
                dst.reshape(view).swapaxes(1, 2))
    view = (members, before, control, width, rest)
    return stack if stack.ndim == 3 else stack[:, None], src.reshape(view), dst.reshape(view)


def bind_superoperators(graded, first: np.ndarray, second: np.ndarray) -> list:
    """The graded ops (graded_superoperators) in order, each bound once to
    two fixed buffers: a list of calls without arguments, the first
    reading `first` and writing `second`, the next the other way, and so
    on. After all of them the result is in `second` for an odd number of
    ops, else in `first`.

    The buffers are contiguous arrays of one shape, (m, 2 * 4^(n-1),
    sectors), the graded states of a batch of m members (m = 1 for a single
    run), whose ops are m-member stacks or shared ones. Each call is one
    np.matmul on views fixed here (_matmul_operands), writes bit for bit
    what the same matmul writes into a new buffer, and allocates no state.
    """
    calls, src, dst = [], first, second
    for stack, qubit in graded:
        calls.append(partial(np.matmul, *_matmul_operands(src, stack, qubit, dst)))
        src, dst = dst, src
    return calls
