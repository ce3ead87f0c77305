"""Frozen reference: the round-by-round noisy Pauli-frame simulator.

`run_cycle` and `simulate_window` below are kept verbatim from the
simulator that stepped a Pauli frame through every noisy round, drawing
each segment's uniforms as it went.  The sampler in `surfacesim.sim`
must reproduce its windows bit for bit from the same RNG stream; the
tests compare the two.

With rng=None the stepper is also the noiseless injection oracle: it
propagates the errors of a `make_injection` plan through the frame, one
cycle at a time, without the fault table or the `run_cycle` of
`surfacesim.sim` that builds it; `single_fault_windows` injects every
single fault of a circuit that way.  Not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from surfacesim.noise import ErrorModel
from surfacesim.sim import (
    PAULI1_BITS, PAULI2_BITS, CompiledCircuit, PauliFrame, SyndromeHistory,
)

from paulis import SINGLE_PAULIS, TWO_QUBIT_PAULIS


PHASES = ("cnot1", "cnot2", "cnot3", "cnot4", "meas", "idle6")


class InjectionPlan:
    """Deterministic errors for specific circuit locations of one window:
    (round, phase) -> [(cells, pauli)] entries, as `make_injection` takes
    them."""

    def __init__(self):
        self.by_key: dict[tuple[int, str], list] = {}

    def get(self, round_index: int, phase: str):
        return self.by_key.get((round_index, phase), ())


def make_injection(entries) -> InjectionPlan:
    """Build an injection plan from (round, phase, cells, pauli) tuples.

    For CNOT phases, cells is the (control, target) pair of flat indices
    and pauli is a (PauliOp, PauliOp) pair applied after that step's gates.
    For idle phases, cells is a flat data index with a single PauliOp.  For
    "meas", cells is the syndrome qubit's flat index (pauli ignored): the
    report flip for that round.
    """
    plan = InjectionPlan()
    for round_index, phase, cells, pauli in entries:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; choose from {PHASES}")
        plan.by_key.setdefault((round_index, phase), []).append((cells, pauli))
    return plan


def cnot_phase(circuit: CompiledCircuit, gate: int) -> str:
    """The phase ("cnot1".."cnot4") of a CNOT gate, gates numbered by
    step and then by position within the step."""
    ends = np.cumsum([len(ctl) for ctl in circuit.step_ctl])
    return f"cnot{int(np.searchsorted(ends, gate, side='right')) + 1}"


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
              injections: InjectionPlan | None = None,
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

    # Every data qubit idles while the syndrome qubits are read out.
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
                    noise_log.append((round_index, "idle6", int(h), int(kind)))
    if injections is not None:
        for cells, pauli in injections.get(round_index, "idle6"):
            frame.x[cells] ^= pauli.x
            frame.z[cells] ^= pauli.z

    return z_reports, x_reports


def simulate_window(circuit: CompiledCircuit, model: ErrorModel,
                    rng: np.random.Generator | None, rounds: int,
                    injections: InjectionPlan | None = None,
                    record_noise: bool = False) -> WindowResult:
    """Run `rounds` noisy cycles plus the closing noiseless cycle.

    Rounds are indexed 1..rounds for noise/injection purposes; recorded
    sign history additionally contains the baseline column 0 and the
    closure column rounds+1.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    frame = PauliFrame(np.zeros(circuit.n_cells, dtype=np.uint8),
                       np.zeros(circuit.n_cells, dtype=np.uint8))
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
    )
    return WindowResult(history=history, frame=frame, noise_log=noise_log)


def single_fault_windows(circuit: CompiledCircuit) -> list:
    """Every single fault of the circuit, injected in round 2 (round index
    1) of a 5-round noiseless window: per fault its `FaultTable` phase
    ("cnot", "meas" or "idle6"), slot and Pauli kind, and the
    window.  The windows do not depend on the error model, so every
    decoder reads the same ones."""
    zero = ErrorModel(0, 0, 0)

    def window(phase, slot, kind, *fault):
        inj = make_injection([(2, *fault)])
        return phase, slot, kind, simulate_window(circuit, zero, None, 5, injections=inj)

    stab_cells = list(circuit.z_idx) + list(circuit.x_idx)
    return ([window("cnot", gate, kind, cnot_phase(circuit, gate),
                    (int(circuit.gate_ctl[gate]), int(circuit.gate_tgt[gate])), pair)
             for gate in range(circuit.n_cnots) for kind, pair in enumerate(TWO_QUBIT_PAULIS)]
            + [window("idle6", slot, kind, "idle6", int(cell), op)
               for slot, cell in enumerate(circuit.data_idx)
               for kind, op in enumerate(SINGLE_PAULIS)]
            + [window("meas", slot, 0, "meas", int(cell), None)
               for slot, cell in enumerate(stab_cells)])
