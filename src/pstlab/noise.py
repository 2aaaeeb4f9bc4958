"""Noise-channel constructors and the layered comprehensive model.

Defaults follow superconducting-transmon calibration data: single-qubit
Pauli error p = 1.875e-3 (split evenly over X, Y, Z), depolarizing
q = 2.5e-3 = 4p/3, T1 = 266.74 us, T2 = 199.97 us, gate durations
57 ns (1q) / 533 ns (2q), and ZZ crosstalk rate zeta = 0.1 in simulation
units.

Layering on a Trotter circuit: depolarizing (tensor of two single-qubit
channels) after every two-qubit XY gate models gate error; thermal
relaxation is layered after every gate with the matching duration; ZZ
crosstalk is either the coherent RZZ gates already present in the circuit
(hamiltonian mode) or an incoherent Z(x)Z dephasing attachment
(dephasing_channel mode). Every single-qubit gate (state prep, tomography
basis change) carries the Pauli channel plus 1q-duration thermal relaxation.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .chains import GateOp, NoisyCircuit
from .sim_core import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    KrausChannel,
    validate_cptp,
)

_TWO_QUBIT_KINDS = frozenset({"rxx", "ryy"})


@dataclass
class NoiseParams:
    """Parameters and layer toggles of the comprehensive model."""

    p_pauli: float = 1.875e-3  # split evenly over X, Y, Z
    q_depol: float = 2.5e-3
    t1: float = 266.74e-6
    t2: float = 199.97e-6
    dur_1q: float = 57e-9
    dur_2q: float = 533e-9
    zeta: float = 0.1
    p_zz: float = 0.0  # incoherent-variant probability (dephasing_channel mode)
    readout_error: float = 0.0
    pauli_on: bool = True
    depol_on: bool = True
    thermal_on: bool = True
    zz_on: bool = True
    zz_mode: str = "hamiltonian"  # or "dephasing_channel"

    def __post_init__(self):
        for name in ("p_pauli", "q_depol", "p_zz", "readout_error"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        for name in ("t1", "t2", "dur_1q", "dur_2q"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t2 > 2.0 * self.t1 + 1e-15:
            raise ValueError(f"T2 = {self.t2} exceeds 2*T1 = {2 * self.t1} (unphysical)")
        if self.zz_mode not in ("hamiltonian", "dephasing_channel"):
            raise ValueError(f"unknown zz_mode {self.zz_mode!r}")
        if self.zeta < 0:
            raise ValueError(f"zeta must be >= 0, got {self.zeta}")

    def circuit_zeta(self) -> float:
        """Crosstalk rate to bake into the circuit (hamiltonian mode only)."""
        if self.zz_on and self.zz_mode == "hamiltonian":
            return self.zeta
        return 0.0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseParams":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown noise parameter(s): {sorted(unknown)}")
        return cls(**d)


def pauli_channel(px: float, py: float, pz: float) -> KrausChannel:
    """(1-p) rho + px X rho X + py Y rho Y + pz Z rho Z with p = px+py+pz."""
    for name, v in (("px", px), ("py", py), ("pz", pz)):
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
    p = px + py + pz
    if p > 1.0 + 1e-12:
        raise ValueError(f"px + py + pz = {p} exceeds 1")
    ops = [math.sqrt(max(0.0, 1.0 - p)) * IDENTITY_2]
    for prob, mat in ((px, PAULI_X), (py, PAULI_Y), (pz, PAULI_Z)):
        if prob > 0:
            ops.append(math.sqrt(prob) * mat)
    return KrausChannel(ops)


def depolarizing_channel(q: float) -> KrausChannel:
    """(1 - 3q/4) rho + (q/4)(X rho X + Y rho Y + Z rho Z)."""
    if not 0.0 <= q <= 4.0 / 3.0:
        raise ValueError(f"depolarizing parameter q = {q} outside [0, 4/3]")
    w = q / 4.0
    ops = [math.sqrt(max(0.0, 1.0 - 3.0 * w)) * IDENTITY_2]
    if w > 0:
        ops += [math.sqrt(w) * PAULI_X, math.sqrt(w) * PAULI_Y, math.sqrt(w) * PAULI_Z]
    return KrausChannel(ops)


def two_qubit_tensor_channel(e1: KrausChannel, e2: KrausChannel) -> KrausChannel:
    """Kraus set {K_i (x) L_j}: independent single-qubit noise on a pair."""
    if e1.arity != 1 or e2.arity != 1:
        raise ValueError("tensor channel needs two single-qubit channels")
    ops = [np.kron(k, l) for k in e1.kraus_ops for l in e2.kraus_ops]
    return KrausChannel(ops)


def thermal_relaxation_channel(t1: float, t2: float, duration: float) -> KrausChannel:
    """Relaxation and dephasing accumulated over one gate duration.

    Amplitude damping with gamma1 = 1 - e^{-d/T1} composed with pure
    dephasing at rate 1/T_phi = 1/T2 - 1/(2 T1) (phase-flip probability
    (1 - e^{-d/T_phi})/2). This matches the standard per-gate
    thermal-relaxation error of circuit simulators.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if t2 > 2.0 * t1 + 1e-15:
        raise ValueError(f"T2 = {t2} exceeds 2*T1 = {2 * t1} (unphysical)")
    gamma1 = 1.0 - math.exp(-duration / t1)
    rate_phi = 1.0 / t2 - 1.0 / (2.0 * t1)
    p_phi = 0.5 * (1.0 - math.exp(-duration * rate_phi)) if rate_phi > 0 else 0.0
    damp = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma1)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma1)], [0.0, 0.0]], dtype=complex),
    ]
    flip = [
        math.sqrt(1.0 - p_phi) * IDENTITY_2,
        math.sqrt(p_phi) * PAULI_Z,
    ]
    ops = [f @ d for f in flip for d in damp if np.any(f @ d)]
    return KrausChannel(ops if ops else [IDENTITY_2.copy()])


def zz_dephasing_channel(p_zz: float) -> KrausChannel:
    """(1 - p) rho + p (Z(x)Z) rho (Z(x)Z): incoherent crosstalk variant."""
    if not 0.0 <= p_zz <= 1.0:
        raise ValueError(f"p_zz = {p_zz} outside [0, 1]")
    zz = np.kron(PAULI_Z, PAULI_Z)
    ops = [math.sqrt(1.0 - p_zz) * np.eye(4, dtype=complex)]
    if p_zz > 0:
        ops.append(math.sqrt(p_zz) * zz)
    return KrausChannel(ops)


@dataclass(frozen=True)
class ChannelAttachment:
    """Attach `channel` after every gate matched by kind/arity.

    With per_target=True a single-qubit channel is applied once per target
    qubit of the matched gate; otherwise the channel acts on the gate's
    target tuple directly.
    """

    channel: KrausChannel
    gate_kinds: frozenset | None = None
    arity: int | None = None
    per_target: bool = False

    def matches(self, gate) -> bool:
        if self.arity is not None and gate.arity != self.arity:
            return False
        if self.gate_kinds is not None and gate.kind not in self.gate_kinds:
            return False
        return True

    def placements(self, gate):
        if self.per_target:
            return [(self.channel, (t,)) for t in gate.targets]
        if self.channel.arity != gate.arity:
            raise ValueError(
                f"channel arity {self.channel.arity} does not match gate arity {gate.arity}"
            )
        return [(self.channel, gate.targets)]


def attach_to_ops(ops, attachments) -> list:
    """New GateOps with the attachments' channels added after each matched gate."""
    out = []
    for op in ops:
        channels = list(op.channels)
        for att in attachments:
            if att.matches(op.gate):
                channels.extend(att.placements(op.gate))
        out.append(GateOp(op.gate, channels))
    return out


def attach_channels(circuit: NoisyCircuit, attachments) -> NoisyCircuit:
    """Return a new circuit with the attachments' channels added post-gate."""
    for att in attachments:
        report = validate_cptp(att.channel)
        if not report.ok:
            raise ValueError(f"attachment channel failed CPTP check: {report}")
    return replace(circuit, prep=attach_to_ops(circuit.prep, attachments),
                   step=attach_to_ops(circuit.step, attachments))


def comprehensive_attachments(params: NoiseParams) -> list:
    """The attachment list realizing the layered model for one NoiseParams.

    Equal parameters share their channel objects, and with them each
    channel's cached superoperator, across runs.
    """
    return list(_comprehensive_attachments(astuple(params)))


@lru_cache(maxsize=16)
def _comprehensive_attachments(values: tuple) -> tuple:
    params = NoiseParams(*values)
    atts = []
    if params.depol_on:
        depol = depolarizing_channel(params.q_depol)
        atts.append(
            ChannelAttachment(
                channel=two_qubit_tensor_channel(depol, depol),
                gate_kinds=_TWO_QUBIT_KINDS,
                arity=2,
            )
        )
    if params.thermal_on:
        th2 = thermal_relaxation_channel(params.t1, params.t2, params.dur_2q)
        atts.append(
            ChannelAttachment(
                channel=two_qubit_tensor_channel(th2, th2),
                gate_kinds=_TWO_QUBIT_KINDS,
                arity=2,
            )
        )
        th1 = thermal_relaxation_channel(params.t1, params.t2, params.dur_1q)
        atts.append(ChannelAttachment(channel=th1, arity=1, per_target=True))
    if params.pauli_on:
        third = params.p_pauli / 3.0
        atts.append(
            ChannelAttachment(channel=pauli_channel(third, third, third), arity=1, per_target=True)
        )
    if params.zz_on and params.zz_mode == "dephasing_channel":
        atts.append(
            ChannelAttachment(
                channel=zz_dephasing_channel(params.p_zz),
                gate_kinds=_TWO_QUBIT_KINDS,
                arity=2,
            )
        )
    return tuple(atts)


def attach_comprehensive(circuit: NoisyCircuit, params: NoiseParams) -> NoisyCircuit:
    """Layer every enabled noise source onto a noise-free circuit.

    Coherent ZZ crosstalk is not attached here: in hamiltonian mode it must
    already be present as the circuit's RZZ gates (build the circuit with
    params.circuit_zeta()). Mixing the two ZZ modes is rejected.
    """
    if circuit.has_channels():
        raise ValueError("circuit already carries noise channels")
    if params.zz_on and params.zz_mode == "dephasing_channel" and circuit.zeta > 0:
        raise ValueError("circuit has coherent RZZ gates but zz_mode is dephasing_channel")
    if params.zz_on and params.zz_mode == "hamiltonian" and circuit.zeta == 0:
        raise ValueError(
            "zz_mode is hamiltonian but the circuit was built without RZZ gates; "
            "pass zeta=params.circuit_zeta() to build_trotter_circuit"
        )
    if not params.zz_on and circuit.zeta > 0:
        raise ValueError("circuit has RZZ gates but the zz layer is toggled off")
    return attach_channels(circuit, comprehensive_attachments(params))

