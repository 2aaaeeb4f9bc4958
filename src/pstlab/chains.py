"""Chain couplings, gate matrices and Trotter circuits.

The engineered profile J_i = j0 * sqrt(i (N - i)) gives an equally spaced
single-excitation spectrum and perfect end-to-end transfer at t = pi/2 (for
j0 = 1) and every odd multiple thereof.

Angle convention: one Trotter step applies RXX(J_i dt) followed by
RYY(J_i dt) on each bond, i.e. exp(-i (J_i dt / 2)(XX + YY)) per bond, so
the effective single-excitation hopping amplitude is exactly J_i and the
ideal first hitting time is (pi/2) / j0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sim_core import HADAMARD, PAULI_X, PAULI_Y, S_DAG, UnitaryGate

# Each XY gate kind in the order a Trotter step applies them on a bond, with
# its Pauli generator G: the gate of angle theta is exp(-i theta/2 G) =
# c I - i s G, c = cos(theta/2) and s = sin(theta/2).
XY_GENERATORS = {"rxx": np.kron(PAULI_X, PAULI_X), "ryy": np.kron(PAULI_Y, PAULI_Y)}


@dataclass(frozen=True)
class CouplingProfile:
    """Nearest-neighbour couplings of an N-site chain, in units of the reference j0."""

    n_sites: int
    couplings: tuple
    j0: float | None = None  # scale of an engineered profile; the grid's records report it

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"chain needs at least 2 sites, got {self.n_sites}")
        cps = tuple(float(j) for j in self.couplings)
        if len(cps) != self.n_sites - 1:
            raise ValueError(
                f"expected {self.n_sites - 1} couplings for {self.n_sites} sites, got {len(cps)}"
            )
        if not all(0 < j < math.inf for j in cps):  # NaN fails both
            raise ValueError(f"all couplings must be finite and positive, got {cps}")
        object.__setattr__(self, "couplings", cps)


@dataclass(frozen=True)
class TrotterPlan:
    """Time grid: total_time split into n_steps first-order steps."""

    total_time: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.total_time < math.inf:  # NaN fails both
            raise ValueError(f"total_time must be finite and positive, got {self.total_time}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.total_time / self.n_steps

    def times(self) -> np.ndarray:
        """Grid t_k = k * dt for k = 0..n_steps (endpoint exact)."""
        return np.linspace(0.0, self.total_time, self.n_steps + 1)


@dataclass
class GateOp:
    """One gate plus the noise channels scheduled right after it."""

    gate: UnitaryGate
    channels: list = field(default_factory=list)  # list of (KrausChannel, targets)


@dataclass
class NoisyCircuit:
    """Prep ops followed by one Trotter step repeated plan.n_steps times.

    Every step is identical, so it is stored once. Each op has `channels`,
    the noise after it. A gate-level circuit (build_trotter_circuit) holds
    GateOps; an assembled one (experiments.assemble_circuit) holds no gate,
    only each op's fused op and channels. `zeta` is the coherent crosstalk
    rate baked into the RZZ ops, 0 when absent. The circuit runs one member
    per entry of `profiles`, the coupling profiles of a lock-step batch.
    """

    n_qubits: int
    prep: list
    step: list
    plan: TrotterPlan
    profiles: tuple
    zeta: float = 0.0

    def has_channels(self) -> bool:
        return any(op.channels for op in self.prep + self.step)

    def gate_ops(self):
        yield from self.prep
        for _ in range(self.plan.n_steps):
            yield from self.step


def pst_couplings(n_sites: int, j0: float) -> CouplingProfile:
    """Engineered profile J_i = j0 * sqrt(i (N - i)), mirror symmetric by construction."""
    if n_sites < 2:
        raise ValueError(f"chain needs at least 2 sites, got {n_sites}")
    if not 0 < j0 < math.inf:  # NaN fails both
        raise ValueError(f"j0 must be finite and positive, got {j0}")
    cps = tuple(j0 * math.sqrt(i * (n_sites - i)) for i in range(1, n_sites))
    return CouplingProfile(n_sites=n_sites, couplings=cps, j0=j0)


def gate_matrix(kind: str, theta: float | None = None) -> np.ndarray:
    """Return the unitary matrix for a named gate.

    RXX(theta) and RYY(theta) have cos(theta/2) on the diagonal and
    -/+ i sin(theta/2) on the anti-diagonal; RZZ(phi) is
    diag(e^{-i phi/2}, e^{i phi/2}, e^{i phi/2}, e^{-i phi/2}), so
    RZZ(2 zeta t) is the coherent ZZ-crosstalk propagator for time t.
    """
    kind = kind.upper()
    if kind in ("RXX", "RYY"):
        [(c, s)] = half_angles(kind, [theta])
        corner = -1j * s if kind == "RXX" else 1j * s
        return np.array([[c, 0, 0, corner], [0, c, -1j * s, 0], [0, -1j * s, c, 0],
                         [corner, 0, 0, c]], dtype=complex)
    if kind == "RZZ":
        if theta is None or not math.isfinite(theta):
            raise ValueError(f"{kind} needs a finite rotation angle")
        return np.diag(
            [
                np.exp(-0.5j * theta),
                np.exp(0.5j * theta),
                np.exp(0.5j * theta),
                np.exp(-0.5j * theta),
            ]
        ).astype(complex)
    if kind == "H":
        return HADAMARD.copy()
    if kind == "SDG":
        return S_DAG.copy()
    if kind == "X":
        return PAULI_X.copy()
    raise ValueError(f"unknown gate kind {kind!r}")


def half_angles(kind: str, thetas) -> list:
    """(cos(theta/2), sin(theta/2)) of each angle of an RXX or RYY gate,
    each from math, so it does not depend on how many members of a batch
    share the op; a non-finite angle is refused."""
    out = []
    for theta in thetas:
        if theta is None or not math.isfinite(theta):
            raise ValueError(f"{kind} needs a finite rotation angle")
        out.append((math.cos(theta / 2.0), math.sin(theta / 2.0)))
    return out


def build_trotter_circuit(couplings: CouplingProfile, plan: TrotterPlan,
                          zeta: float = 0.0) -> NoisyCircuit:
    """First-order product-formula circuit of one coupling profile, noise
    not yet attached: the gate-level circuit, which
    noise.attach_comprehensive dresses and the Kraus loop runs.

    Each step applies, per bond i = 1..N-1 in ascending order, RXX(J_i dt)
    then RYY(J_i dt) on qubits (i-1, i); when zeta > 0, RZZ(2 zeta dt) on
    every neighbouring pair, each placed by step_order.
    """
    if zeta < 0:
        raise ValueError(f"zeta must be >= 0, got {zeta}")
    n, dt = couplings.n_sites, plan.dt
    xy = [GateOp(xy_gate(kind, (i, i + 1), couplings.couplings[i] * dt))
          for i in range(n - 1) for kind in XY_GENERATORS]
    step_ops = step_order(xy, [GateOp(gate) for gate in crosstalk_gates(n, plan, zeta)])
    return NoisyCircuit(
        n_qubits=n, prep=[], step=step_ops, plan=plan, profiles=(couplings,), zeta=zeta
    )


def xy_gate(kind: str, pair, theta: float) -> UnitaryGate:
    """The RXX or RYY gate ("rxx" or "ryy") of angle theta on `pair`."""
    return UnitaryGate(gate_matrix(kind, theta), pair, kind=kind)


def step_order(xy: list, crosstalk: list) -> list:
    """One Trotter step's ops in the order they run, from its XY ops (RXX
    then RYY per bond, bonds ascending) and its RZZ ops (one per bond, or
    none): each RZZ op right after the last XY op it shares a qubit with,
    B1 B2 Z1 B3 Z2 ... B_{N-1} Z_{N-2} Z_{N-1}. An RZZ op moves only past XY
    ops on other qubits, and each channel acts on its own gate's qubits, so
    this is the map of the XY sweep followed by the RZZ layer, and every
    group that sim_core.merge_groups merges holds an XY op, and the step
    merges into max(1, N - 2) ops.
    """
    if not crosstalk:
        return list(xy)
    order = list(xy[:2])
    for bond in range(1, len(crosstalk)):
        order += [*xy[2 * bond:2 * bond + 2], crosstalk[bond - 1]]
    return order + [crosstalk[-1]]


def crosstalk_gates(n_sites: int, plan: TrotterPlan, zeta: float) -> list:
    """The RZZ(2 zeta dt) gates of a Trotter step, one per neighbouring
    pair in ascending order (step_order places them); none when zeta (>= 0)
    is 0."""
    if not zeta > 0:
        return []
    phi = 2.0 * zeta * plan.dt
    return [UnitaryGate(gate_matrix("RZZ", phi), (i, i + 1), kind="rzz") for i in range(n_sites - 1)]
