"""Experiment drivers: SP time series, site-resolved occupation, and
arbitrary-state transfer with single-qubit tomography.

Every run evolves one circuit and records observables after the prep layer
(k = 0) and after each Trotter step, giving a uniform (n_steps + 1)-point
time grid. The state is the dense density matrix's real Pauli
coefficients in sim_core's parity-graded layout, with or without noise. An
assembled circuit holds no gate: each of its ops is an AssembledOp, the
fused superoperator (a real Pauli transfer matrix and its first qubit) of a
gate and its channels, with those channels, and adjacent fused ops of the
Trotter step are merged into superoperators of at most
sim_core.MERGE_WIDTH qubits. Merging never crosses a recorded step
boundary.
An ExperimentConfig holds what every run reads; the experiment picks the
sites it reads and the prep state, an amplitude pair (a, b) for a|0> + b|1>
on the first site, (0, 1) the single excitation. What does not depend on
the couplings is a circuit's family (_family): the prep op and the step's
RZZ ops, each fused once from its noise-attached gate, the channels of each
XY op and the angle basis of each XY kind. It is built and compiled once
for all runs that differ at most in couplings, seed and shots, and cached
by the value of the fields that assembly reads and the amplitudes. The
fused op of an XY gate of angle theta (its gate, then its channels) is c^2
B0 + cs B1 + s^2 B2, c = cos(theta/2) and s = sin(theta/2), with B0, B1 and
B2 its kind's angle basis (sim_core.rotation_basis), so assemble_circuit
builds and fuses no gate: it makes each XY op's fused op from its angles and
the basis, and puts each RZZ op right after the last XY op it shares a qubit
with (chains.step_order), so every merge group of the step holds an XY op.
The one lock-step batch is run_first_peaks(config, profiles), the
optimizer's scores: one exact config run with each of many coupling
profiles. It splits the profiles into chunks of at most MAX_BATCH_COEFFS
Pauli coefficients and assembles one circuit per chunk, whose XY ops hold a
stack of the chunk members' fused ops. evolve_recorded runs the one
circuit it is given, a single run's or a chunk's: its prep, on qubit 0
alone and shared by every member, gives the start state
(sim_core.graded_start_state), of one sector unless qubit 0 gets X or Y
weight (only arbitrary_transfer's H and general preps give it); it merges
the step's fused ops, grades each merged op for that many sectors and binds
it once to the circuit's two state buffers, and each recorded step hands
the (members, 2 * 4^(n-1), sectors) state block to one observe call, so
each member's records are bit-identical to its own run's. One rule,
_settled_peak on the window (0, T/2] (_window_last), decides every first
peak: detect_first_peak's on a whole series, and run_first_peaks', which
records only the end site's P(1) and stops each chunk's circuit once every
member's peak is settled on its prefix. Every readout is of single
qubits, so it reads a few coefficients of the block: P(1) = (r_I - r_Z) /
2 of each site read (_z_column, in sector 0), and for tomography the last
qubit's r_I, r_X, r_Y and r_Z (_end_qubit_paulis, r_X and r_Y 0 in a run
of one sector), which each basis rotation's one-qubit PTM turns before
that P(1) is read; every readout flips with one probability
(_readout_error). Tomography then works on real arrays, once per run: the
(n_steps + 1) Bloch vectors r, each norm in (1, 1 + BLOCH_NORM_SLACK]
rescaled to one, are scored against the pure target a|0> + b|1> as
(1 + n . r) / 2, n = (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2), with no
2 x 2 state built. This module only creates the
start state, applies compiled ops and reads those coefficients; the change
between a density matrix and its Pauli vector, and between the standard
and the graded layout, is the tests' oracle's.

A run's outputs are text: its CSV writers format whole columns of Python
floats, and json_text, every run file's one JSON writer, writes what
json.dumps(payload, indent=2, sort_keys=True) + "\n" writes, faster.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .chains import (
    XY_GENERATORS,
    CouplingProfile,
    GateOp,
    NoisyCircuit,
    TrotterPlan,
    crosstalk_gates,
    gate_matrix,
    half_angles,
    pst_couplings,
    step_order,
    xy_gate,
)
from .noise import NoiseParams, with_noise
from .sim_core import (
    UNITARY_TOL,
    Superoperator,
    UnitaryGate,
    bind_superoperators,
    fused_superoperators,
    graded_start_state,
    graded_superoperators,
    merge_superoperators,
    rotation_basis,
    unitarity_deviation,
)

# The most Pauli coefficients, over all its members, that one lock-step
# circuit holds: run_first_peaks, the one reader of this cap, assembles a
# larger batch as one circuit per chunk of max(1, MAX_BATCH_COEFFS // (2 *
# 4^(n-1))) members, a member's one graded sector (its prep is X), 32 / 8 /
# 2 at N = 4 / 5 / 6 and one from N = 7 up, so a grid at N = 8 holds one
# state at a time; evolve_recorded runs each. Batching saves per-op call
# overhead; wide batches lose it to cache misses on the members' step
# stacks. One comprehensive-noise step per member, one BLAS thread, medians
# of 9 interleaved rounds, three processes, chunks of 1 / 2 / 4 / 8 / 16 /
# 32 / 64: N = 4 3.3-3.4 / 2.2-2.3 / 1.4-1.5 / 1.4 / 1.2-1.3 / 1.1-1.2 /
# 2.0-2.1 us; N = 5 8.8-9.3 / 6.8-7.1 / 5.9-6.1 / 5.5-5.7 / 6.1-6.4 /
# 7.2-7.4 / 7.7-8.0 us; N = 6 30-31 / 27 / 26 / 26-27 / 29-30 / 28 / 30-31
# us. 2^12 gives N = 4 and N = 5 their best chunk and N = 6 one within 6 %
# of its best (4 members, which 2^13 would give at the cost of N = 4's and
# N = 5's, 60-90 % and 8-18 % slower).
MAX_BATCH_COEFFS = 2**12

# The most families (_family) whose shared parts stay built and compiled, as
# noise._channels keeps 16 channel sets: an optimizer run uses one family, a
# config file at most a few.
FAMILY_CACHE_SIZE = 16

MAX_SHOTS = 2**63 - 1  # the most readout_p1 draws: Generator.binomial takes a C int64

PEAK_PROMINENCE = 0.05  # the least prominence of detect_first_peak's peak
BLOCH_NORM_SLACK = 0.15  # tomography_reconstruct rescales a norm to 1 up to 1 + this


class NoPeakError(ValueError):
    """Raised when a series has no local maximum of sufficient prominence."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One noisy chain: chain, plan, noise, shots and seed. It builds
    profile() and plan() once, so their checks refuse a bad chain or grid;
    profile() returns the one profile built then (frozen, so safe to share;
    not a field, so no part of equality or hashing), whose couplings to_dict
    records in place of j0."""

    n_sites: int = 4
    j0: float = 1.0
    couplings: tuple | None = None
    total_time: float = 2.0 * math.pi
    n_steps: int = 80
    noise: NoiseParams | None = None
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n_sites", "n_steps", "seed", *(("shots",) if self.shots is not None else ())):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        if self.shots is not None and not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be in [1, {MAX_SHOTS}] or None for exact mode, "
                             f"got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.couplings is not None:
            object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
            profile = CouplingProfile(self.n_sites, self.couplings)
        else:
            profile = pst_couplings(self.n_sites, self.j0)
        object.__setattr__(self, "_profile", profile)
        self.plan()

    def profile(self) -> CouplingProfile:
        return self._profile

    def plan(self) -> TrotterPlan:
        return TrotterPlan(self.total_time, self.n_steps)

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "couplings": list(self.profile().couplings),
            "total_time": self.total_time,
            "n_steps": self.n_steps,
            "noise": self.noise.to_dict() if self.noise is not None else None,
            "shots": self.shots,
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def whole_number(value, name: str) -> int:
    """value as an int when it is a whole number, 8 or 8.0, for a config's
    counts, whether set in Python or read from a config file (cli); 4.7,
    "4" and True are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class SPTimeSeries:
    """Per-site finite success probabilities, clamped to [0, 1], of at least
    one site on a non-empty, finite, strictly increasing time grid."""

    times: np.ndarray
    values: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if not self.times.size:
            raise ValueError("times must hold at least one grid time")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not self.values:
            raise ValueError("values must hold at least one site")
        clean = {}
        for site, vals in self.values.items():
            arr = np.asarray(vals, dtype=float)
            if arr.shape != self.times.shape:
                raise ValueError(f"site {site}: {arr.shape} values for {self.times.shape} times")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"site {site}: values must be finite")
            clean[int(site)] = np.clip(arr, 0.0, 1.0)
        self.values = clean

    def sites(self) -> list:
        return sorted(self.values)

    def series(self) -> np.ndarray:
        """The highest site's values: the end site's in every run."""
        return self.values[max(self.values)]


@dataclass
class TomographyRecord:
    """Bloch components and fidelities of the last qubit per recorded step:
    x, y, z as measured, and both fidelities of them after
    tomography_reconstruct (of r / |r| where a measured norm exceeds 1)."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    fidelity: np.ndarray
    fidelity_phase_corrected: np.ndarray
    sp: np.ndarray
    amp_a: complex
    amp_b: complex
    meta: dict = field(default_factory=dict)


def assemble_circuit(config: ExperimentConfig, profiles=None, amplitudes=(0, 1)) -> NoisyCircuit:
    """Build the noise-attached circuit for a config that prepares a|0> +
    b|1> on the first site, (a, b) = amplitudes, the single excitation by
    default; with `profiles`, a sequence of coupling profiles of its chain
    length, the one circuit of a lock-step batch with a member per profile
    in place of config's own. All but the XY angles theta = J_i dt comes
    from the family (_family) of config and the amplitudes: the prep op,
    the RZZ ops, each placed by chains.step_order, and each XY op's kind,
    bond, channels and angle basis. Each XY op gets its fused op from that
    basis and its members' c^2, cs and s^2 (chains.half_angles, which
    refuses a non-finite angle), combined elementwise in one fixed order, so
    each member's matrix is bit-identical to its own run's; an (m, 16, 16)
    stack for m > 1 members, 2-D for one. No gate is built here: every op
    is an AssembledOp."""
    family = _family(config, amplitudes)
    profiles = (config.profile(),) if profiles is None else tuple(profiles)
    if not profiles:
        raise ValueError("need at least one coupling profile")
    if any(p.n_sites != config.n_sites for p in profiles):
        raise ValueError("batched coupling profiles must share their chain length")
    dt = family.plan.dt
    thetas = [tuple(p.couplings[i] * dt for p in profiles) for i in range(config.n_sites - 1)]
    # (3, bonds, 1, members, 1, 1): c^2, cs and s^2 of each bond's angle, member by member
    weights = np.array([[(c * c, c * s, s * s) for c, s in half_angles("RXX", bond)]
                        for bond in thetas]).transpose(2, 0, 1)[:, :, None, :, None, None]
    basis = family.xy_basis
    members = (len(profiles),) if len(profiles) > 1 else ()
    # (bonds, kinds, members, 16, 16), so one XY op after another in step order
    fused = (weights[0] * basis[0] + weights[1] * basis[1] + weights[2] * basis[2]).reshape(
        len(family.xy), *members, *basis.shape[-2:])
    fused.setflags(write=False)
    xy = [AssembledOp(Superoperator(matrix, pair[0]), channels)
          for (pair, channels), matrix in zip(family.xy, fused, strict=True)]
    return NoisyCircuit(n_qubits=config.n_sites, prep=list(family.prep),
                        step=step_order(xy, family.crosstalk), plan=family.plan,
                        profiles=profiles,
                        zeta=config.noise.circuit_zeta() if config.noise is not None else 0.0)


@dataclass(frozen=True)
class AssembledOp:
    """One op of an assembled circuit: `fused`, the fused superoperator of a
    gate and its channels, with a read-only matrix, and `channels`, the
    tuple of (KrausChannel, targets) that noise.with_noise put after that
    gate. Frozen, so no run can alter what another one applies."""

    fused: Superoperator
    channels: tuple


@dataclass(frozen=True)
class _Family:
    """What the circuits of a family share: everything that does not depend
    on the couplings, built and compiled once (_family)."""

    plan: TrotterPlan
    prep: tuple  # the noise-attached prep op, an AssembledOp
    crosstalk: tuple  # the step's RZZ ops, bond by bond, as AssembledOps
    # (pair, with_noise's channels) of each XY op of the step, in order: bond
    # by bond, each bond's kinds in XY_GENERATORS order
    xy: tuple
    # (3, kinds, 1, 16, 16): B0, B1 and B2 (sim_core.rotation_basis) of each XY kind
    # in XY_GENERATORS order, read-only
    xy_basis: np.ndarray


def _family(config: ExperimentConfig, amplitudes=(0, 1)) -> _Family:
    """The family of config and the prep amplitudes, cached by what assembly
    reads, n_sites, n_steps, total_time, noise and the amplitudes: runs that
    differ at most in couplings (or j0), seed and shots share it, a
    run_sp_series and a (0, 1) run_arbitrary_transfer among them. At most
    FAMILY_CACHE_SIZE families are kept, the least recently used dropped
    first."""
    return _families(config.n_sites, config.n_steps, config.total_time, config.noise,
                     tuple(amplitudes))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _families(n_sites, n_steps, total_time, noise, amplitudes) -> _Family:
    """_family of the fields: the prep gate of the amplitudes and the RZZ
    gates, each with the noise model's channels, fused in one
    fused_superoperators call and kept as an AssembledOp, without its gate;
    the XY ops' channels, which noise.with_noise attaches to the step's XY
    gates at angle 0, and each XY kind's angle basis, from the first bond's
    gate. Every bond's XY op of a kind has its channel objects on its own
    pair, so one basis serves them all."""
    plan = TrotterPlan(total_time, n_steps)
    prep = _prep_gate_for_amplitudes(*amplitudes)
    zeta = noise.circuit_zeta() if noise is not None else 0.0
    shared = [GateOp(gate) for gate in (prep, *crosstalk_gates(n_sites, plan, zeta))]
    xy = [GateOp(xy_gate(kind, (i, i + 1), 0.0))
          for i in range(n_sites - 1) for kind in XY_GENERATORS]
    if noise is not None:
        shared, xy = with_noise(shared, noise), with_noise(xy, noise)
    fused = fused_superoperators([(op.gate, op.channels) for op in shared], n_sites)
    for sop in fused:
        sop.matrix.setflags(write=False)
    shared = [AssembledOp(sop, tuple(op.channels)) for op, sop in zip(shared, fused, strict=True)]
    basis = np.array([rotation_basis(XY_GENERATORS[op.gate.kind], op.gate.targets, op.channels,
                                     n_sites)
                      for op in xy[:len(XY_GENERATORS)]])  # the first bond's
    basis = np.ascontiguousarray(basis.swapaxes(0, 1)[:, :, None])
    basis.setflags(write=False)
    return _Family(plan, tuple(shared[:1]), tuple(shared[1:]),
                   tuple((op.gate.targets, tuple(op.channels)) for op in xy), basis)


def _prep_gate_for_amplitudes(a: complex, b: complex) -> UnitaryGate:
    """The prep gate of A|0> + B|1>, [[A, -conj B], [B, conj A]], or H or X
    when the amplitudes are theirs within 1e-12. Any amplitudes whose
    matrix's unitarity deviation exceeds the gate's own tolerance
    (sim_core.UNITARY_TOL) are refused first, with the message that
    |A|^2 + |B|^2 must be 1, so one tolerance holds for all three."""
    mat = np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)
    if unitarity_deviation(mat) > UNITARY_TOL:
        raise ValueError(f"|A|^2 + |B|^2 = {abs(a)**2 + abs(b)**2}, must be 1")
    if abs(a - 1.0 / math.sqrt(2.0)) < 1e-12 and abs(b - 1.0 / math.sqrt(2.0)) < 1e-12:
        return UnitaryGate(gate_matrix("H"), (0,), kind="h")
    if abs(a) < 1e-12 and abs(b - 1.0) < 1e-12:
        return UnitaryGate(gate_matrix("X"), (0,), kind="x")
    return UnitaryGate(mat, (0,), kind="u")


def evolve_recorded(circuit: NoisyCircuit, observe, settled=None) -> np.ndarray:
    """Run the circuit's members in lock-step, prep then every step, and
    record observe(block) at k = 0..n_steps; returns the (m, n_steps + 1,
    ...) array of the records, member first.

    The circuit has one member per coupling profile, and it runs as given:
    run_sp_series gives it a single run's circuit, run_first_peaks one per
    chunk of at most MAX_BATCH_COEFFS Pauli coefficients. The prep's fused
    ops (AssembledOp.fused; the circuit is assemble_circuit's), 2-D and on
    qubit 0 alone, as every prep is (anything else is refused), turn qubit
    0's Pauli vector (1, 0, 0, 1) into the start state
    (sim_core.graded_start_state), one sector or two. `block` is the (m,
    2 * 4^(n-1), sectors) array of graded states, and observe must return
    one row per member; the rows are copied out, so they may be views of
    the block, which the next step overwrites. The step's fused ops are
    merged once (sim_core.merge_superoperators), graded once for the
    sectors (sim_core.graded_superoperators, which refuses an op that would
    leave them) and bound to the run's two state buffers
    (sim_core.bind_superoperators), for both parities, so a step is one
    matmul per op whatever the member count and allocates nothing, and each
    member's states are bit-identical to its own run's. A circuit of one
    member compiles and applies 2-D ops, as a single run does.

    With `settled`, the run may end early: after each recorded step k,
    settled(records) gets the records so far, out[:, :k + 1], and once it
    returns True the run takes no more steps. Its later records are left
    unset, and no caller reads them.
    """
    n, n_steps, m = circuit.n_qubits, circuit.plan.n_steps, len(circuit.profiles)
    qubit0 = np.array([1.0, 0.0, 0.0, 1.0])  # |0>: r_I = r_Z = 1
    for op in circuit.prep:
        if op.fused.targets != (0,):
            raise ValueError(f"prep op on qubits {op.fused.targets}: a run prepares qubit 0 alone")
        qubit0 = op.fused.matrix @ qubit0
    start = graded_start_state(qubit0, n)
    bufs = (np.tile(start, (m, 1, 1)), np.empty((m, *start.shape)))
    step = graded_superoperators(merge_superoperators([op.fused for op in circuit.step]), n,
                                 start.shape[1])
    bound = (bind_superoperators(step, *bufs), bind_superoperators(step, *bufs[::-1]))
    at = 0
    out = None
    for k in range(n_steps + 1):
        if k:
            for call in bound[at]:
                call()
            at ^= len(step) % 2
        rows = observe(bufs[at])
        if len(rows) != m:
            raise ValueError(f"observe gave {len(rows)} rows for a circuit of {m} members")
        if out is None:
            rows = np.asarray(rows)
            out = np.empty((m, n_steps + 1, *rows.shape[1:]), rows.dtype)
        out[:, k] = rows
        if settled is not None and settled(out[:, :k + 1]):
            break
    return out


def readout_p1(p1, shots, rng, readout_error: float) -> np.ndarray:
    """Measured P(1) of an array of exact populations: readout flip, clamp to
    [0, 1], then, with `shots`, one binomial draw of that many outcomes per
    entry, in C order, from rng (None = exact)."""
    p1 = np.asarray(p1, dtype=float)
    if readout_error > 0:
        p1 = (1.0 - readout_error) * p1 + readout_error * (1.0 - p1)
    p1 = np.clip(p1, 0.0, 1.0)
    if shots is None:
        return p1
    return rng.binomial(int(shots), p1) / int(shots)


def _readout_error(config: ExperimentConfig) -> float:
    """The readout flip probability of config's noise model, 0 without one."""
    return config.noise.readout_error if config.noise is not None else 0.0


def _z_column(n_sites: int, site: int) -> int:
    """The index of r_Z of `site` (1-based) in sector 0 of an n-site graded
    state: Z on its qubit (slot code 2, or u = 1 on the last qubit), I on
    every other, so its P(1) = (r_I - r_Z) / 2, r_I at 0."""
    return 4 ** (n_sites - site)


def run_sp_series(config: ExperimentConfig) -> SPTimeSeries:
    """The end site's success probability over the grid (_site_series)."""
    return _site_series(config, (config.n_sites,))


def run_site_resolved(config: ExperimentConfig) -> SPTimeSeries:
    """Every site's occupation probability over the grid (_site_series)."""
    return _site_series(config, tuple(range(1, config.n_sites + 1)))


def _site_series(config: ExperimentConfig, sites: tuple) -> SPTimeSeries:
    """P(1) of each of the sites (1-based) after a single excitation on site
    1: one run of assemble_circuit's circuit that records r_I and each
    site's r_Z, P(1) = (r_I - r_Z) / 2, then readout_p1, whose shots, if
    any, are drawn step by step, then site by site, from config.seed."""
    cols = np.array([0, *(_z_column(config.n_sites, s) for s in sites)])
    circuit = assemble_circuit(config)
    coeffs = evolve_recorded(circuit, lambda block: block.take(cols, 1))[0, :, :, 0]
    p1 = readout_p1((coeffs[:, :1] - coeffs[:, 1:]) / 2.0, config.shots,
                    np.random.default_rng(config.seed), _readout_error(config))
    return SPTimeSeries(times=config.plan().times(),
                        values={s: p1[:, i] for i, s in enumerate(sites)},
                        meta=_series_meta(config, circuit))


def run_first_peaks(config: ExperimentConfig, profiles) -> list:
    """detect_first_peak of run_sp_series of the exact config with each of
    the coupling profiles in place of its own, (t*, peak), or None where it
    raises NoPeakError.

    The runs evolve in lock-step: one assemble_circuit per chunk of
    max(1, MAX_BATCH_COEFFS // (2 * 4^(n-1))) profiles, all assembled before any
    runs, and each chunk's circuit stops once every member's first peak is
    settled (_settled_peak, detect_first_peak's rule, on its prefix). Each
    step records the end site's P(1) alone, through run_sp_series'
    readout flip and clamp, so a member's prefix is bit-identical to the
    start of its series. A member is tested only once its prefix could
    settle: after a drop of PEAK_PROMINENCE below its running maximum, which
    every qualifying peak needs, or once the window (0, T/2] has passed.
    """
    if config.shots is not None:
        raise ValueError("run_first_peaks runs exact series: shots must be None")
    size = max(1, MAX_BATCH_COEFFS // (2 * 4 ** (config.n_sites - 1)))
    circuits = [assemble_circuit(config, profiles[lo:lo + size])
                for lo in range(0, len(profiles), size)]
    col = _z_column(config.n_sites, config.n_sites)
    readout = _readout_error(config)
    times = config.plan().times()
    peaks = []
    for circuit in circuits:
        watch = _FirstPeakWatch(len(circuit.profiles), _window_last(times), config.n_steps)
        p1 = evolve_recorded(circuit, lambda block: readout_p1(
            (block[:, 0, 0] - block[:, col, 0]) / 2.0, None, None, readout), watch)
        peaks += [None if index < 0 else (float(times[index]), float(row[index]))
                  for row, index in zip(p1, watch.found)]
    return peaks


class _FirstPeakWatch:
    """run_first_peaks' `settled` test for evolve_recorded: after each
    recorded step of a circuit, it asks _settled_peak about each member
    whose prefix could settle, and keeps the answer in `found` once it
    tells. A member whose answer is kept is skipped."""

    def __init__(self, members: int, last: int, n_steps: int):
        self.found = [None] * members  # the first peak's index, -1 for none
        self.last, self.n_steps = last, n_steps
        self.top = [-math.inf] * members  # each member's running maximum
        self.ready = [False] * members  # fallen PEAK_PROMINENCE below it

    def __call__(self, records: np.ndarray) -> bool:
        k = records.shape[1] - 1
        found, top, ready = self.found, self.top, self.ready
        for j, x in enumerate(records[:, k].tolist()):
            if found[j] is not None:
                continue
            if x > top[j]:
                top[j] = x
            if top[j] - x >= PEAK_PROMINENCE:
                ready[j] = True
            if ready[j] or k > self.last:
                found[j] = _settled_peak(records[j], self.last, k == self.n_steps)
        return None not in found


def tomography_reconstruct(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (3, k) Bloch arrays x, y, z of the states (I + x X + y Y + z Z) / 2,
    each norm in (1, 1 + BLOCH_NORM_SLACK] rescaled to one."""
    r = np.sqrt(x * x + y * y + z * z)
    if np.any(r > 1.0 + BLOCH_NORM_SLACK):
        raise ValueError(f"Bloch norm {r.max()} exceeds 1 + {BLOCH_NORM_SLACK}")
    return np.array([x, y, z]) / np.where(r > 1.0, r, 1.0)


_BASIS_GATE_KINDS = {"X": ("h",), "Y": ("sdg", "h"), "Z": ()}


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _basis_rotation_ptms(noise: NoiseParams | None) -> np.ndarray:
    """The read-only (3, 4, 4) stack of one qubit's X, Y and Z
    basis-rotation PTMs, each gate with the comprehensive model's
    single-qubit layers when noise is on; the identity stands in for the Z
    basis, which rotates nothing. Cached by the noise model, all it reads."""
    ptms = []
    for kinds in _BASIS_GATE_KINDS.values():
        ops = [GateOp(UnitaryGate(gate_matrix(kind.upper()), (0,), kind=kind)) for kind in kinds]
        if noise is not None:
            ops = with_noise(ops, noise)
        fused = fused_superoperators([(op.gate, op.channels) for op in ops], 1)
        merged = merge_superoperators(fused)  # all on the one qubit: one op, or none
        ptms.append(merged[0].matrix if merged else np.eye(4))
    ptms = np.array(ptms)
    ptms.setflags(write=False)
    return ptms


def run_arbitrary_transfer(config: ExperimentConfig, amplitudes) -> TomographyRecord:
    """Send A|0> + B|1>, (A, B) = amplitudes, down the chain; tomograph the last qubit.

    Measurements in the X, Y, Z bases (H, S^dag+H, none) run as separate
    probes of the same evolved state; the basis-rotation gates pick up the
    single-qubit noise layers when noise is on. Every probe reads the last
    qubit alone, so each step records its four Pauli coefficients r_I, r_X,
    r_Y, r_Z (I on every other qubit; entries 0 and 1 of each sector of the
    graded state, _end_qubit_paulis), and each basis rotation acts on those
    four through its 4 x 4 PTM. The
    primary fidelity keeps the raw target (no transfer-phase correction);
    the phase-maximized variant is reported alongside. The target is pure,
    so the fidelity is <psi|rho|psi> = (1 + n . r) / 2 (Jozsa 1994) of the
    rescaled Bloch vector r, n = (2 Re(A* B), 2 Im(A* B), |A|^2 - |B|^2), and
    its maximum over phi, psi = A|0> + e^{i phi} B|1>, puts |A||B| for A* B:
    (|A|^2 (1 + z) + |B|^2 (1 - z)) / 2 + |A||B| |(x, y)|.
    """
    a, b = (complex(amplitude) for amplitude in amplitudes)
    circuit = assemble_circuit(config, amplitudes=(a, b))
    r4 = _end_qubit_paulis(evolve_recorded(circuit, lambda block: block[:, :2])[0])
    rotated = r4 @ _basis_rotation_ptms(config.noise).swapaxes(1, 2)
    # P(1) = (r_I - r_Z) / 2 per step and basis; <sigma> = p0 - p1, drawn
    # step by step, then basis by basis
    p1 = readout_p1(((rotated[..., 0] - rotated[..., 3]) / 2).T, config.shots,
                    np.random.default_rng(config.seed), _readout_error(config))
    xs, ys, zs = (1.0 - 2.0 * p1).T.copy()
    x, y, z = tomography_reconstruct(xs, ys, zs)
    ab, a2, b2 = a.conjugate() * b, abs(a) ** 2, abs(b) ** 2
    fidelity = (1.0 + 2.0 * ab.real * x + 2.0 * ab.imag * y + (a2 - b2) * z) / 2.0
    phase_max = (a2 * (1.0 + z) + b2 * (1.0 - z)) / 2.0 + abs(a) * abs(b) * np.hypot(x, y)
    return TomographyRecord(
        times=circuit.plan.times(),
        x=xs,
        y=ys,
        z=zs,
        fidelity=np.clip(fidelity, 0.0, 1.0),
        fidelity_phase_corrected=np.clip(phase_max, 0.0, 1.0),
        sp=(1.0 - zs) / 2.0,
        amp_a=a,
        amp_b=b,
        meta=_series_meta(config, circuit),
    )


def _end_qubit_paulis(records: np.ndarray) -> np.ndarray:
    """The last qubit's (r_I, r_X, r_Y, r_Z), I on every other qubit, per
    step, from entries 0 and 1 of each sector of the (steps, 2, sectors)
    records: u = 0 and 1, r_I and r_Z in sector 0, r_X and r_Y in sector
    1, which a run of one sector holds at 0."""
    pairs = np.zeros((len(records), 2, 2))
    pairs[..., :records.shape[2]] = records
    return pairs.reshape(-1, 4)[:, [0, 1, 3, 2]]


def detect_first_peak(series: SPTimeSeries):
    """First local maximum of prominence >= PEAK_PROMINENCE in t in (0, T/2]
    of series.series(): _settled_peak on the whole series.

    The window ends at _window_last; its open lower bound adds nothing, as
    index 0 is never a maximum and every grid the program makes starts at
    t = 0 (s * 0 once rescaled). Returns (grid time, value); raises
    NoPeakError on monotone or flat series.
    """
    values = series.series()
    index = _settled_peak(values, _window_last(series.times), whole=True)
    if index < 0:
        raise NoPeakError("no local maximum with sufficient prominence in (0, T/2]")
    return float(series.times[index]), float(values[index])


def _window_last(times: np.ndarray) -> int:
    """The index of the last grid time in the first-peak window (0, T/2]."""
    return int(np.flatnonzero(times <= times[-1] / 2.0 + 1e-12)[-1])


def _settled_peak(x: np.ndarray, last: int, whole: bool):
    """The index of detect_first_peak's peak in a series of which x is a
    prefix (or all, when `whole`) and whose window (0, T/2] ends at index
    `last`: -1 when the series has none, None while the prefix cannot tell.

    The maxima in the window are walked in order. One that qualifies on the
    prefix qualifies on the series, at the same index: its plateau is closed,
    its left base is fixed, and its right base can only fall as samples
    follow, so its prominence can only grow. One that does not qualify never
    will if it is final, with a strictly higher sample after it in the
    prefix (both bases fixed), or dead, less than PEAK_PROMINENCE above its
    left base (no right base raises that). While one is neither, the prefix
    cannot tell; such a maximum would qualify too if a later one did. Once
    the window has passed and the plateau holding `last` has closed, a walk
    past every maximum in the window finds no peak.
    """
    for index, value, left, right, higher in _maxima(x):
        if index > last:
            break
        if value - max(left, right) >= PEAK_PROMINENCE:
            return index
        if not (whole or higher or value - left < PEAK_PROMINENCE):
            return None
    closed = whole or len(x) > last + 1 and bool(np.any(x[last + 1:] != x[last]))
    return -1 if closed else None


def _maxima(x: np.ndarray) -> list:
    """The local maxima of x in increasing order, each as (index, value,
    left base, right base, whether a strictly higher sample follows it), by
    scipy.signal.find_peaks' rules.

    A maximum is a run of equal samples with a lower sample on each side; it
    is reported at its middle index (left + right) // 2, so the first and
    last samples are never maxima. Its prominence is its value minus the
    higher of its two bases: on each side, the minimum of x from the maximum
    out to the nearest strictly higher sample or the edge. Between turning
    points x is monotone, so the bases are taken over those alone, in one
    monotonic-stack pass per side.
    """
    ends = np.append(np.flatnonzero(x[1:] != x[:-1]), len(x) - 1)  # last sample of each run
    rising = np.diff(x[ends]) > 0
    # the first and last runs, and every run where x turns
    runs = [0, *(np.flatnonzero(rising[:-1] != rising[1:]) + 1).tolist(), len(ends) - 1]
    level, ends = x[ends[runs]].tolist(), ends.tolist()

    def bases(levels):
        # a stack of levels, strictly decreasing, each with the minimum since
        # the entry below it: popping those not above v leaves v's nearest
        # strictly higher level on top, and the popped minima make its base
        tops, lows, out, bounded = [], [], [], []
        for v in levels:
            low = v
            while tops and tops[-1] <= v:
                tops.pop()
                low = min(low, lows.pop())
            bounded.append(bool(tops))
            tops.append(v)
            lows.append(low)
            out.append(low)
        return out, bounded

    left, _ = bases(level)
    right, higher = (side[::-1] for side in bases(level[::-1]))
    return [((ends[runs[i] - 1] + 1 + ends[runs[i]]) // 2, level[i], left[i], right[i], higher[i])
            for i in range(1, len(runs) - 1)  # the maxima among the turning runs
            if level[i - 1] < level[i]]


def _series_meta(config: ExperimentConfig, circuit: NoisyCircuit) -> dict:
    return {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "n_sites": config.n_sites,
        "n_steps": config.n_steps,
        "total_time": config.total_time,
        "couplings": list(config.profile().couplings),
        "zeta": circuit.zeta,
        "noisy": circuit.has_channels(),
        "shots": config.shots,
    }


def series_to_csv(series: SPTimeSeries) -> str:
    """CSV body: t,site,sp rows in (time, site) order."""
    times = [f"{t:.12g}," for t in series.times.tolist()]
    columns = [[f"{site},{v:.12g}" for v in series.values[site].tolist()]
               for site in series.sites()]
    rows = [t + cell for t, *cells in zip(times, *columns) for cell in cells]
    return "\n".join(["t,site,sp", *rows]) + "\n"


def series_to_json(series: SPTimeSeries) -> str:
    payload = {
        "meta": series.meta,
        "times": series.times.tolist(),
        "values": {str(s): series.values[s].tolist() for s in series.sites()},
    }
    return json_text(payload)


def tomography_to_csv(record: TomographyRecord, site: int) -> str:
    """One row per step: x, y, z as measured, fidelities as TomographyRecord's."""
    columns = [[f"{v:.12g}" for v in array.tolist()]
               for array in (record.times, record.sp, record.x, record.y, record.z,
                             record.fidelity, record.fidelity_phase_corrected)]
    columns.insert(1, [str(site)] * len(columns[0]))
    rows = map(",".join, zip(*columns))
    return "\n".join(["t,site,sp,x,y,z,fidelity,fidelity_phase_corrected", *rows]) + "\n"


def tomography_to_json(record: TomographyRecord) -> str:
    """x, y, z as measured, fidelities as TomographyRecord's, and the rest."""
    payload = {
        "meta": record.meta,
        "times": record.times.tolist(),
        "x": record.x.tolist(),
        "y": record.y.tolist(),
        "z": record.z.tolist(),
        "sp": record.sp.tolist(),
        "fidelity": record.fidelity.tolist(),
        "fidelity_phase_corrected": record.fidelity_phase_corrected.tolist(),
        "amp_a": [record.amp_a.real, record.amp_a.imag],
        "amp_b": [record.amp_b.real, record.amp_b.imag],
    }
    return json_text(payload)


# The encoder that json.dumps builds for indent=2 and sort_keys=True.
_JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def json_text(payload) -> str:
    """payload as JSON text, equal to json.dumps(payload, indent=2,
    sort_keys=True) + "\n" on every input, and so a run's one JSON writer.

    json.dumps runs its pure-Python encoder when indent is set; this one lays
    out the indentation itself and writes a list of floats alone in one
    join over float.__repr__, which is what json.dumps writes for a finite
    float. It takes str-keyed dicts, lists, tuples, str, int, float (NaN
    and +-inf as json.dumps writes them), bool and None; a payload that
    holds anything else, or nests too deep, goes to json.dumps whole, which
    raises what it raises.
    """
    try:
        return _json_value(payload, "\n") + "\n"
    except (_NotPlain, RecursionError):
        return _JSON_ENCODER.encode(payload) + "\n"


class _NotPlain(Exception):
    """A value json_text leaves to json.dumps."""


def _json_value(value, newline: str) -> str:
    """value's JSON text. newline is a line break and the indent of the
    line value starts on; the text's later lines are indented from it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float
            text = None
        if text is None or "n" in text:  # or NaN or +-inf: float.__repr__ writes nan, inf
            text = ("," + inner).join([_json_value(item, inner) for item in value])
        return f"[{inner}{text}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise _NotPlain
        text = ("," + inner).join([f"{encode_basestring_ascii(key)}: {_json_value(item, inner)}"
                                   for key, item in sorted(value.items())])
        return f"{{{inner}{text}{newline}}}"
    raise _NotPlain


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)
