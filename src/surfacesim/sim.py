"""Pauli-frame simulation of repeated noisy syndrome-extraction cycles.

Only the error frame is tracked: two bit-planes (x and z) over the qubit
grid, all zeros meaning the error-free state.  CNOTs move bits linearly
(X spreads control->target, Z spreads target->control), so a cycle is a
handful of vectorized XOR operations plus sparse sampled noise.

Syndrome qubits are never re-initialized.  A Z-type syndrome qubit is
measured in the Z basis, so its report is flipped by its accumulated x
bit; an X-type syndrome qubit is measured in the X basis and reads its z
bit.  Measurement errors report *and* project wrongly: the flip is XORed
into the frame before the read and stays there.  The stabilizer sign
inferred at round t is report(t) XOR report(t-1); decoding works purely
on changes of that sign.

A simulated window consists of one implicit noiseless baseline round
(round 0, all-zero frame), `rounds` noisy rounds, and one final noiseless
round that closes the time boundary: with this closure every error chain
ends either on another detection event or through a spatial boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import GateSchedule, Lattice
from .noise import ErrorModel, PauliOp

# Bit payloads (xc, zc, xt, zt) of the 15 two-qubit Paulis, ordered as
# noise.TWO_QUBIT_PAULIS.
PAULI2_BITS = np.array(
    [
        (a_x, a_z, b_x, b_z)
        for (a_x, a_z) in ((0, 0), (1, 0), (1, 1), (0, 1))
        for (b_x, b_z) in ((0, 0), (1, 0), (1, 1), (0, 1))
        if (a_x, a_z, b_x, b_z) != (0, 0, 0, 0)
    ],
    dtype=np.uint8,
)

PAULI1_BITS = np.array([(1, 0), (1, 1), (0, 1)], dtype=np.uint8)  # X, Y, Z

PHASES = ("cnot1", "cnot2", "cnot3", "cnot4", "idle5", "meas", "idle6")


@dataclass
class PauliFrame:
    """Accumulated error bits for every grid cell (flattened row-major)."""

    x: np.ndarray
    z: np.ndarray

    @classmethod
    def zeros(cls, n_cells: int) -> "PauliFrame":
        return cls(np.zeros(n_cells, dtype=np.uint8), np.zeros(n_cells, dtype=np.uint8))

    def copy(self) -> "PauliFrame":
        return PauliFrame(self.x.copy(), self.z.copy())


class CompiledCircuit:
    """Index arrays for one cycle of a schedule on a lattice."""

    def __init__(self, lattice: Lattice, schedule: GateSchedule):
        self.lattice = lattice
        self.schedule = schedule
        self.n_cells = lattice.size * lattice.size

        self.step_ctl = []
        self.step_tgt = []
        gates = []
        for k, step in enumerate(schedule.cnot_steps):
            ctl = np.array([lattice.index(c) for c, _ in step], dtype=np.int32)
            tgt = np.array([lattice.index(t) for _, t in step], dtype=np.int32)
            self.step_ctl.append(ctl)
            self.step_tgt.append(tgt)
            for g, (c, t) in enumerate(step):
                gates.append((k, lattice.index(c), lattice.index(t)))
        # Per-gate arrays, ordered by (step, position within step).
        self.gate_step = np.array([g[0] for g in gates], dtype=np.int32)
        self.gate_ctl = np.array([g[1] for g in gates], dtype=np.int32)
        self.gate_tgt = np.array([g[2] for g in gates], dtype=np.int32)
        self.n_cnots = len(gates)

        self.data_idx = np.array([lattice.index(c) for c in lattice.data_qubits], dtype=np.int32)
        self.z_idx = np.array([lattice.index(c) for c in lattice.z_stabilizers], dtype=np.int32)
        self.x_idx = np.array([lattice.index(c) for c in lattice.x_stabilizers], dtype=np.int32)
        self.n_z = len(self.z_idx)
        self.n_x = len(self.x_idx)
        self.idle_steps = schedule.idle_steps


def compile_circuit(lattice: Lattice, schedule: GateSchedule) -> CompiledCircuit:
    return CompiledCircuit(lattice, schedule)


def inject_error(frame: PauliFrame, targets, paulis) -> PauliFrame:
    """XOR Pauli bits into the frame at the given cells (involution).

    `targets` is one flat cell index or a sequence of them, with matching
    PauliOp(s).  Mutates and returns the frame.
    """
    if isinstance(targets, (int, np.integer)):
        targets, paulis = [targets], [paulis]
    for cell, op in zip(targets, paulis, strict=True):
        if not 0 <= cell < frame.x.shape[-1]:
            raise ValueError(f"cell index {cell} outside grid")
        frame.x[..., cell] ^= op.x
        frame.z[..., cell] ^= op.z
    return frame


class _Injection:
    """Deterministic errors for specific circuit locations of one window."""

    def __init__(self):
        self.by_key: dict[tuple[int, str], list] = {}

    def add(self, round_index: int, phase: str, cells, pauli: PauliOp | None = None):
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; choose from {PHASES}")
        self.by_key.setdefault((round_index, phase), []).append((cells, pauli))

    def get(self, round_index: int, phase: str):
        return self.by_key.get((round_index, phase), ())


def make_injection(entries) -> _Injection:
    """Build an injection plan from (round, phase, cells, pauli) tuples.

    For CNOT phases, cells is the (control, target) pair of flat indices
    and pauli is a (PauliOp, PauliOp) pair applied after that step's gates.
    For idle phases, cells is a flat data index with a single PauliOp.  For
    "meas", cells is the syndrome qubit's flat index (pauli ignored): the
    report flip for that round.
    """
    inj = _Injection()
    for round_index, phase, cells, pauli in entries:
        inj.add(round_index, phase, cells, pauli)
    return inj


@dataclass
class SyndromeHistory:
    """Measured stabilizer signs, one row per syndrome qubit.

    signs[graph][a, t] for t in [0, n_rounds); column 0 is the baseline
    (noiseless round on a clean frame), columns 1..noisy_rounds are noisy,
    and the final column is the noiseless closure round.
    """

    lattice: Lattice
    signs: dict[str, np.ndarray]
    noisy_rounds: int

    @property
    def n_rounds(self) -> int:
        return self.signs["z"].shape[1]


@dataclass(frozen=True)
class DetectionEvent:
    """Space-time point where a stabilizer sign changed."""

    i: int
    j: int
    t: int
    graph: str


@dataclass
class WindowResult:
    history: SyndromeHistory
    frame: PauliFrame
    noise_log: list | None = None


def _apply_pauli2(frame: PauliFrame, ctl: int, tgt: int, bits) -> None:
    frame.x[ctl] ^= bits[0]
    frame.z[ctl] ^= bits[1]
    frame.x[tgt] ^= bits[2]
    frame.z[tgt] ^= bits[3]


def run_cycle(frame: PauliFrame, circuit: CompiledCircuit, model: ErrorModel,
              rng: np.random.Generator | None, round_index: int,
              injections: _Injection | None = None,
              noise_log: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Advance the frame through one full cycle; return (z_reports, x_reports).

    Reports are frame-relative measurement bits: a report of 1 means the
    physical measurement would differ from the noiseless reference.  With
    rng=None (or a zero-probability model) the cycle is noiseless.
    """
    x, z = frame.x, frame.z
    noisy = rng is not None

    for k in range(4):
        ctl, tgt = circuit.step_ctl[k], circuit.step_tgt[k]
        x[tgt] ^= x[ctl]
        z[ctl] ^= z[tgt]
        if noisy and model.p2 > 0.0:
            u = rng.random(len(ctl))
            hits = np.nonzero(u < model.p2)[0]
            if hits.size:
                kinds = ((u[hits] / model.p2) * 15).astype(np.intp)
                np.clip(kinds, 0, 14, out=kinds)
                for h, kind in zip(hits, kinds):
                    _apply_pauli2(frame, ctl[h], tgt[h], PAULI2_BITS[kind])
                    if noise_log is not None:
                        noise_log.append((round_index, f"cnot{k+1}", int(h), int(kind)))
        if injections is not None:
            for cells, pauli in injections.get(round_index, f"cnot{k+1}"):
                _apply_pauli2(frame, cells[0], cells[1],
                              (pauli[0].x, pauli[0].z, pauli[1].x, pauli[1].z))

    def idle_noise(phase: str):
        if noisy and model.pI > 0.0:
            u = rng.random(len(circuit.data_idx))
            hits = np.nonzero(u < model.pI)[0]
            if hits.size:
                kinds = ((u[hits] / model.pI) * 3).astype(np.intp)
                np.clip(kinds, 0, 2, out=kinds)
                cells = circuit.data_idx[hits]
                bits = PAULI1_BITS[kinds]
                x[cells] ^= bits[:, 0]
                z[cells] ^= bits[:, 1]
                if noise_log is not None:
                    for h, kind in zip(hits, kinds):
                        noise_log.append((round_index, phase, int(h), int(kind)))
        if injections is not None:
            for cells, pauli in injections.get(round_index, phase):
                frame.x[cells] ^= pauli.x
                frame.z[cells] ^= pauli.z

    if 5 in circuit.idle_steps:
        idle_noise("idle5")

    # Measurement step: wrong-eigenstate flips persist in the frame.
    if noisy and model.pM > 0.0:
        flips_z = (rng.random(circuit.n_z) < model.pM).astype(np.uint8)
        flips_x = (rng.random(circuit.n_x) < model.pM).astype(np.uint8)
        x[circuit.z_idx] ^= flips_z
        z[circuit.x_idx] ^= flips_x
        if noise_log is not None:
            for a in np.nonzero(flips_z)[0]:
                noise_log.append((round_index, "meas", int(a), 0))
            for a in np.nonzero(flips_x)[0]:
                noise_log.append((round_index, "meas", int(a) + circuit.n_z, 0))
    if injections is not None:
        for cells, _ in injections.get(round_index, "meas"):
            if np.any(circuit.z_idx == cells):
                x[cells] ^= 1
            elif np.any(circuit.x_idx == cells):
                z[cells] ^= 1
            else:
                raise ValueError(f"cell {cells} is not a syndrome qubit")

    z_reports = x[circuit.z_idx].copy()
    x_reports = z[circuit.x_idx].copy()
    # Measurement destroys the non-measured component: a Z-basis projection
    # makes z bits on the measured qubit meaningless, and vice versa.
    z[circuit.z_idx] = 0
    x[circuit.x_idx] = 0

    if 6 in circuit.idle_steps:
        idle_noise("idle6")

    return z_reports, x_reports


def simulate_window(circuit: CompiledCircuit, model: ErrorModel,
                    rng: np.random.Generator | None, rounds: int,
                    injections: _Injection | None = None,
                    record_noise: bool = False) -> WindowResult:
    """Run `rounds` noisy cycles plus the closing noiseless cycle.

    Rounds are indexed 1..rounds for noise/injection purposes; recorded
    sign history additionally contains the baseline column 0 and the
    closure column rounds+1.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    frame = PauliFrame.zeros(circuit.n_cells)
    noise_log: list | None = [] if record_noise else None

    n_rounds = rounds + 2
    z_signs = np.zeros((circuit.n_z, n_rounds), dtype=np.uint8)
    x_signs = np.zeros((circuit.n_x, n_rounds), dtype=np.uint8)

    prev_z = np.zeros(circuit.n_z, dtype=np.uint8)
    prev_x = np.zeros(circuit.n_x, dtype=np.uint8)
    for t in range(1, rounds + 2):
        noisy_rng = rng if t <= rounds else None
        rz, rx = run_cycle(frame, circuit, model, noisy_rng, t,
                           injections=injections, noise_log=noise_log)
        z_signs[:, t] = rz ^ prev_z
        x_signs[:, t] = rx ^ prev_x
        prev_z, prev_x = rz, rx

    history = SyndromeHistory(
        lattice=circuit.lattice,
        signs={"z": z_signs, "x": x_signs},
        noisy_rounds=rounds,
    )
    return WindowResult(history=history, frame=frame, noise_log=noise_log)


def detection_events(history: SyndromeHistory) -> list[DetectionEvent]:
    """Space-time points where consecutive stabilizer signs differ."""
    if history.n_rounds < 2:
        raise ValueError("need at least two recorded rounds")
    events = []
    for graph in ("x", "z"):
        signs = history.signs[graph]
        stabs = history.lattice.stabilizers(graph)
        changed = signs[:, 1:] != signs[:, :-1]
        for a, t in zip(*np.nonzero(changed)):
            i, j = stabs[a]
            events.append(DetectionEvent(i=i, j=j, t=int(t) + 1, graph=graph))
    return events


def events_to_text(events) -> str:
    """Debug trace: one event per line, "type i j t"."""
    return "\n".join(f"{e.graph} {e.i} {e.j} {e.t}" for e in events)
