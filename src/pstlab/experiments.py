"""Experiment drivers: SP time series, site-resolved occupation, and
arbitrary-state transfer with single-qubit tomography.

Every run evolves one circuit and records observables after the prep layer
(k = 0) and after each Trotter step, giving a uniform (n_steps + 1)-point
time grid. Runs without any attached channel use the pure-state fast path;
otherwise the state is a dense density matrix and every stored op (a gate
with its channels) is compiled once into one fused superoperator.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chains import (
    CouplingProfile,
    GateOp,
    NoisyCircuit,
    TrotterPlan,
    build_trotter_circuit,
    gate_matrix,
    pst_couplings,
)
from .noise import NoiseParams, attach_comprehensive, attach_to_ops, comprehensive_attachments
from .sim_core import (
    DensityMatrix,
    PureState,
    UnitaryGate,
    _work_buffers,
    apply_superoperators,
    apply_unitary,
    fused_superoperator,
    qubit_p1,
    qubit_state_fidelity,
)


class NoPeakError(ValueError):
    """Raised when a series has no local maximum of sufficient prominence."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: chain, plan, noise, initial state, readout."""

    n_sites: int = 4
    j0: float = 1.0
    couplings: tuple | None = None
    total_time: float = 2.0 * math.pi
    n_steps: int = 80
    noise: NoiseParams | None = None
    initial: str = "single_excitation"  # X on qubit 0, or "arbitrary": amp_a|0> + amp_b|1>
    measured_sites: tuple | None = None
    shots: int | None = None
    seed: int = 0
    amp_a: complex = complex(1.0 / math.sqrt(2.0))
    amp_b: complex = complex(1.0 / math.sqrt(2.0))

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.shots is not None and int(self.shots) < 1:
            raise ValueError("shots must be >= 1 or None for exact mode")
        sites = self.measured_sites
        if sites is not None:
            sites = tuple(int(s) for s in sites)
            if any(not 1 <= s <= self.n_sites for s in sites):
                raise ValueError(f"measured sites {sites} outside [1, {self.n_sites}]")
            object.__setattr__(self, "measured_sites", sites)
        if self.couplings is not None:
            object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))

    def profile(self) -> CouplingProfile:
        if self.couplings is not None:
            return CouplingProfile(self.n_sites, self.couplings)
        return pst_couplings(self.n_sites, self.j0)

    def plan(self) -> TrotterPlan:
        return TrotterPlan(self.total_time, self.n_steps)

    def to_dict(self) -> dict:
        d = {
            "n_sites": self.n_sites,
            "j0": self.j0,
            "couplings": list(self.couplings) if self.couplings is not None else None,
            "total_time": self.total_time,
            "n_steps": self.n_steps,
            "noise": self.noise.to_dict() if self.noise is not None else None,
            "initial": self.initial,
            "measured_sites": list(self.measured_sites) if self.measured_sites else None,
            "shots": self.shots,
            "seed": self.seed,
            "amp_a": [self.amp_a.real, self.amp_a.imag],
            "amp_b": [self.amp_b.real, self.amp_b.imag],
        }
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class SPTimeSeries:
    """Per-site success probabilities on a strictly increasing time grid."""

    times: np.ndarray
    values: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        clean = {}
        for site, vals in self.values.items():
            arr = np.clip(np.asarray(vals, dtype=float), 0.0, 1.0)
            if arr.shape != self.times.shape:
                raise ValueError(f"site {site}: {arr.shape} values for {self.times.shape} times")
            clean[int(site)] = arr
        self.values = clean

    def sites(self) -> list:
        return sorted(self.values)

    def series(self, site: int | None = None) -> np.ndarray:
        if site is None:
            site = self.sites()[-1]
        return self.values[site]


@dataclass
class TomographyRecord:
    """Bloch components, reconstructed state, and fidelity of the last qubit."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    rhos: np.ndarray  # (len(times), 2, 2)
    fidelity: np.ndarray
    fidelity_phase_corrected: np.ndarray
    sp: np.ndarray
    amp_a: complex
    amp_b: complex
    meta: dict = field(default_factory=dict)


def assemble_circuit(config: ExperimentConfig) -> NoisyCircuit:
    """Build the prepared, noise-attached circuit for a config."""
    zeta = config.noise.circuit_zeta() if config.noise is not None else 0.0
    circuit = build_trotter_circuit(config.profile(), config.plan(), zeta)
    if config.initial == "single_excitation":
        prep = UnitaryGate(gate_matrix("X"), (0,), kind="x")
    elif config.initial == "arbitrary":
        prep = _prep_gate_for_amplitudes(config.amp_a, config.amp_b)
    else:
        raise ValueError(f"unknown initial kind {config.initial!r}")
    circuit.prep = [GateOp(prep)]
    if config.noise is not None:
        circuit = attach_comprehensive(circuit, config.noise)
    return circuit


def _prep_gate_for_amplitudes(a: complex, b: complex) -> UnitaryGate:
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise ValueError(f"|A|^2 + |B|^2 = {abs(a)**2 + abs(b)**2}, must be 1")
    if abs(a - 1.0 / math.sqrt(2.0)) < 1e-12 and abs(b - 1.0 / math.sqrt(2.0)) < 1e-12:
        return UnitaryGate(gate_matrix("H"), (0,), kind="h")
    if abs(a) < 1e-12 and abs(b - 1.0) < 1e-12:
        return UnitaryGate(gate_matrix("X"), (0,), kind="x")
    mat = np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)
    return UnitaryGate(mat, (0,), kind="u")


def _compile_ops(ops, n_qubits: int, density: bool) -> list:
    """Each GateOp as the engine applies it: its fused superoperator on a
    density matrix, its bare gate on a pure state (channel-free ops only)."""
    if density:
        return [fused_superoperator(op.gate, op.channels, n_qubits) for op in ops]
    return [op.gate for op in ops]


def _apply_compiled(state, compiled, work):
    """Apply compiled ops in order to the state kind they were compiled for.

    A density matrix runs through `work`, the kernel's two work buffers,
    into one new matrix; a pure state needs none (None).
    """
    if isinstance(state, DensityMatrix):
        return apply_superoperators(state, compiled, work)
    for op in compiled:
        state = apply_unitary(state, op)
    return state


def evolve_recorded(circuit: NoisyCircuit, record):
    """Run prep then every step, calling record(state) at k = 0..n_steps.

    Each recorded state is a new one; the kernel's work buffers are
    allocated once per call.
    """
    n, density = circuit.n_qubits, circuit.has_channels()
    state = DensityMatrix.zero(n) if density else PureState.zero(n)
    work = _work_buffers(state.matrix.size) if density else None
    step = _compile_ops(circuit.step, n, density)
    state = _apply_compiled(state, _compile_ops(circuit.prep, n, density), work)
    out = [record(state)]
    for _ in range(circuit.plan.n_steps):
        state = _apply_compiled(state, step, work)
        out.append(record(state))
    return out


def measure_p1(state, qubit: int, shots, rng, readout_error: float) -> float:
    """Measured P(qubit reads 1): readout flip, clamp to [0, 1], then an
    optional binomial draw of `shots` outcomes (None = exact)."""
    p1 = qubit_p1(state, qubit)
    if readout_error > 0:
        p1 = (1.0 - readout_error) * p1 + readout_error * (1.0 - p1)
    p1 = min(1.0, max(0.0, p1))
    if shots is None:
        return p1
    return int(rng.binomial(int(shots), p1)) / int(shots)


def run_sp_series(config: ExperimentConfig) -> SPTimeSeries:
    """End-site success probability over the Trotter grid."""
    if config.initial != "single_excitation":
        raise ValueError("run_sp_series expects a single-excitation initial state")
    sites = config.measured_sites or (config.n_sites,)
    circuit = assemble_circuit(config)
    rng = np.random.default_rng(config.seed)
    readout = config.noise.readout_error if config.noise is not None else 0.0

    def record(state):
        return [measure_p1(state, s - 1, config.shots, rng, readout) for s in sites]

    rows = np.array(evolve_recorded(circuit, record))
    values = {s: rows[:, i] for i, s in enumerate(sites)}
    meta = _series_meta(config, circuit)
    return SPTimeSeries(times=circuit.plan.times(), values=values, meta=meta)


def run_site_resolved(config: ExperimentConfig) -> SPTimeSeries:
    """Occupation probability of every site over the grid."""
    config = replace(config, measured_sites=tuple(range(1, config.n_sites + 1)))
    return run_sp_series(config)


def tomography_reconstruct(x: float, y: float, z: float, eps: float = 0.15) -> DensityMatrix:
    """rho = (I + x X + y Y + z Z) / 2, rescaling Bloch norms in (1, 1+eps]."""
    r = math.sqrt(x * x + y * y + z * z)
    if r > 1.0 + eps:
        raise ValueError(f"Bloch norm {r} exceeds 1 + {eps}")
    if r > 1.0:
        x, y, z = x / r, y / r, z / r
    rho = 0.5 * np.array(
        [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex
    )
    return DensityMatrix(1, rho, validate=False)


_BASIS_GATE_KINDS = {"X": ("h",), "Y": ("sdg", "h"), "Z": ()}


def _best_phase_fidelity(rho: np.ndarray, a: complex, b: complex) -> float:
    """max over phi of <psi(phi)|rho|psi(phi)> with psi = A|0> + e^{i phi} B|1>."""
    fa, fb = abs(a) ** 2, abs(b) ** 2
    val = fa * np.real(rho[0, 0]) + fb * np.real(rho[1, 1]) + 2.0 * abs(a) * abs(b) * abs(rho[0, 1])
    return float(min(1.0, max(0.0, val)))


def run_arbitrary_transfer(config: ExperimentConfig) -> TomographyRecord:
    """Send A|0> + B|1> down the chain and tomograph the last qubit.

    Measurements in the X, Y, Z bases (H, S^dag+H, none) run as separate
    probes of the same evolved state; the basis-rotation gates pick up the
    single-qubit noise layers when noise is on. The primary fidelity keeps
    the raw target (no transfer-phase correction); the phase-maximized
    variant is reported alongside.
    """
    a, b = complex(config.amp_a), complex(config.amp_b)
    config = replace(config, initial="arbitrary", amp_a=a, amp_b=b)
    circuit = assemble_circuit(config)
    qubit = config.n_sites - 1
    attachments = comprehensive_attachments(config.noise) if config.noise is not None else []
    rotations = [
        _compile_ops(attach_to_ops(
            [GateOp(UnitaryGate(gate_matrix(kind.upper()), (qubit,), kind=kind)) for kind in kinds],
            attachments,
        ), config.n_sites, density=True)
        for kinds in _BASIS_GATE_KINDS.values()
    ]
    readout = config.noise.readout_error if config.noise is not None else 0.0
    rng = np.random.default_rng(config.seed)
    target = DensityMatrix(1, np.outer([a, b], np.conj([a, b])), validate=False)
    work = _work_buffers(4**config.n_sites)

    def record(state):
        rho = state.to_density_matrix() if isinstance(state, PureState) else state
        # <sigma> = p0 - p1 of the last qubit after each basis rotation
        return [1.0 - 2.0 * measure_p1(_apply_compiled(rho, ops, work), qubit, config.shots,
                                       rng, readout)
                for ops in rotations]

    rows = evolve_recorded(circuit, record)
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    zs = np.array([r[2] for r in rows])
    rhos, fids, fids_pc = [], [], []
    for x, y, z in zip(xs, ys, zs):
        rec = tomography_reconstruct(x, y, z)
        rhos.append(rec.matrix)
        fids.append(qubit_state_fidelity(rec, target))
        fids_pc.append(_best_phase_fidelity(rec.matrix, a, b))
    meta = _series_meta(config, circuit)
    return TomographyRecord(
        times=circuit.plan.times(),
        x=xs,
        y=ys,
        z=zs,
        rhos=np.array(rhos),
        fidelity=np.array(fids),
        fidelity_phase_corrected=np.array(fids_pc),
        sp=(1.0 - zs) / 2.0,
        amp_a=a,
        amp_b=b,
        meta=meta,
    )


def detect_first_peak(series: SPTimeSeries, site: int | None = None,
                      prominence: float = 0.05):
    """First local maximum with the given prominence in t in (0, T/2].

    Returns (grid time, value); raises NoPeakError on monotone or flat series.
    """
    values = series.series(site)
    if len(values) < 3:
        raise NoPeakError("series too short for peak detection")
    peaks = _find_peaks(values, prominence)
    half = series.times[-1] / 2.0 + 1e-12
    peaks = [p for p in peaks if 0.0 < series.times[p] <= half]
    if not peaks:
        raise NoPeakError("no local maximum with sufficient prominence in (0, T/2]")
    best = peaks[0]
    return float(series.times[best]), float(values[best])


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of x with at least the given prominence,
    in increasing order.

    A maximum is a run of equal samples with a lower sample on each side; it
    is reported at its middle index (left + right) // 2, so the first and
    last samples are never peaks. Its prominence is its value minus the
    higher of its two bases: on each side, the minimum of x from the peak
    out to the nearest strictly higher sample or the edge. Between turning
    points x is monotone, so the bases are searched over those alone.
    """
    ends = np.append(np.flatnonzero(x[1:] != x[:-1]), len(x) - 1)  # last sample of each run
    rising = np.diff(x[ends]) > 0
    # the first and last runs, and every run where x turns
    runs = [0, *(np.flatnonzero(rising[:-1] != rising[1:]) + 1).tolist(), len(ends) - 1]
    level, ends = x[ends[runs]].tolist(), ends.tolist()
    peaks = []
    for i in range(1, len(runs) - 1):
        top = level[i]
        if level[i - 1] > top:  # a valley
            continue
        bases = []
        for step in (-1, 1):
            k, low = i + step, top
            while 0 <= k < len(level) and level[k] <= top:
                low, k = min(low, level[k]), k + step
            bases.append(low)
        if top - max(bases) >= prominence:
            peaks.append((ends[runs[i] - 1] + 1 + ends[runs[i]]) // 2)
    return np.array(peaks, dtype=int)


def _series_meta(config: ExperimentConfig, circuit: NoisyCircuit) -> dict:
    return {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "n_sites": config.n_sites,
        "n_steps": config.n_steps,
        "total_time": config.total_time,
        "couplings": list(circuit.couplings.couplings),
        "zeta": circuit.zeta,
        "noisy": circuit.has_channels(),
        "shots": config.shots,
    }


def series_to_csv(series: SPTimeSeries) -> str:
    """CSV body: t,site,sp rows in (time, site) order."""
    lines = ["t,site,sp"]
    sites = series.sites()
    for k, t in enumerate(series.times):
        for s in sites:
            lines.append(f"{t:.12g},{s},{series.values[s][k]:.12g}")
    return "\n".join(lines) + "\n"


def series_to_json(series: SPTimeSeries) -> str:
    payload = {
        "meta": series.meta,
        "times": [float(t) for t in series.times],
        "values": {str(s): [float(v) for v in series.values[s]] for s in series.sites()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def tomography_to_csv(record: TomographyRecord, site: int) -> str:
    lines = ["t,site,sp,x,y,z,fidelity,fidelity_phase_corrected"]
    for k, t in enumerate(record.times):
        lines.append(
            f"{t:.12g},{site},{record.sp[k]:.12g},{record.x[k]:.12g},{record.y[k]:.12g},"
            f"{record.z[k]:.12g},{record.fidelity[k]:.12g},{record.fidelity_phase_corrected[k]:.12g}"
        )
    return "\n".join(lines) + "\n"


def tomography_to_json(record: TomographyRecord) -> str:
    payload = {
        "meta": record.meta,
        "times": [float(t) for t in record.times],
        "x": record.x.tolist(),
        "y": record.y.tolist(),
        "z": record.z.tolist(),
        "sp": record.sp.tolist(),
        "fidelity": record.fidelity.tolist(),
        "fidelity_phase_corrected": record.fidelity_phase_corrected.tolist(),
        "amp_a": [record.amp_a.real, record.amp_a.imag],
        "amp_b": [record.amp_b.real, record.amp_b.imag],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
