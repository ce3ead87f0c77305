"""Pauli-frame simulation of repeated noisy syndrome-extraction cycles.

Only the error frame is tracked: two bit-planes (x and z) over the qubit
grid, all zeros meaning the error-free state.  CNOTs move bits linearly
(X spreads control->target, Z spreads target->control), so a cycle is a
handful of vectorized XOR operations.  A cycle is fixed: the four CNOT
steps of `lattice.standard_schedule`, then the readout, during which every
data qubit idles once (phase "idle6").

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

Noisy windows are sampled, not stepped.  Every frame operation (the CNOT
XORs, the readout, the zeroing of the unmeasured component) is linear
over GF(2), so a window is the XOR of the effects of its faults, each
fault taken alone.  `FaultTable`, built once per compiled circuit, holds
one row per (slot, Pauli kind) of one cycle: the data bits and detection
events that fault flips.  One batched noiseless propagation through
`run_cycle`, one frame row per single-bit fault (the x or z bit on the
control or the target after a CNOT, of an idling data qubit, a readout
flip), gives each bit's effect.  After the cycle of a fault only data
bits and report accumulators are left; each later cycle XORs the same
data parity into every report, so the signs stay constant and a fault's
detection events all fall in its own round (dt = 0) or the next
(dt = 1).  The build checks this and fails loudly otherwise.  A kind's
row is then its Pauli bits times its slot's bit effects, mod 2, padded
with -1 to the longest row (8 entries at d = 3, 5 and 7); windows are
built from these rows, and `edge_analysis` reads its link classes from
the same rows.  `FaultTable.window` is the one builder: given the rows
that fire and their rounds, it takes one gather of those rows, a shift
of their event entries to the hit's round, and one parity count over
the entries that are not padding; the signs are the running XOR of the
events along time, and the final frame is the data parity of those rows
plus the final reports (the XOR of each sign row).  `FaultTable.sample`
draws the rows and hands them to it: one draw of uniforms, one
comparison against per-slot probabilities, and the row of each hit (its
slot's first row plus its Pauli kind).  The fault-distance certificate
in the tests builds its windows of chosen faults with the same method.

The windows are those of a round-by-round frame simulator fed by the same
stream.  Per round, that simulator drew one uniform per slot of the
layout cnot1-cnot4 (one per gate), the Z- then X-type readouts, idle6
(one per data qubit), leaving a segment out when its probability is 0;
a hit's Pauli kind was int((u / p) * 15) or int((u / p) * 3), clipped (a
clip that never acts: u < p keeps u / p below 1 in floating point).  Philox `random(a)`
followed by `random(b)` returns the numbers of one `random(a + b)`, so
the single draw here gives the same uniforms, hits and kinds, and the
same window bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Lattice
from .noise import ErrorModel

# Bit payloads (xc, zc, xt, zt) of the 15 non-identity two-qubit Paulis:
# control Pauli major, each qubit in the order I, X, Y, Z (the order of
# TWO_QUBIT_PAULIS in the tests' Pauli helper).
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


@dataclass
class PauliFrame:
    """Accumulated error bits for every grid cell (flattened row-major).

    The cell axis is the last one; a batch of frames adds leading axes.
    """

    x: np.ndarray
    z: np.ndarray


class CompiledCircuit:
    """Index arrays for one cycle on a lattice: the CNOT steps of a
    schedule (`lattice.standard_schedule`), then the readout with its
    data idle."""

    def __init__(self, lattice: Lattice, schedule: tuple):
        self.lattice = lattice
        self.n_cells = lattice.size * lattice.size

        self.step_ctl = []
        self.step_tgt = []
        for step in schedule:
            self.step_ctl.append(np.array([lattice.index(c) for c, _ in step], dtype=np.int32))
            self.step_tgt.append(np.array([lattice.index(t) for _, t in step], dtype=np.int32))
        # Per-gate arrays, ordered by (step, position within step).
        self.gate_ctl = np.concatenate(self.step_ctl)
        self.gate_tgt = np.concatenate(self.step_tgt)
        self.n_cnots = len(self.gate_ctl)

        self.data_idx = np.array([lattice.index(c) for c in lattice.data_qubits], dtype=np.int32)
        self.z_idx = np.array([lattice.index(c) for c in lattice.z_stabilizers], dtype=np.int32)
        self.x_idx = np.array([lattice.index(c) for c in lattice.x_stabilizers], dtype=np.int32)
        self.n_z = len(self.z_idx)
        self.n_x = len(self.x_idx)

    @cached_property
    def fault_table(self) -> "FaultTable":
        """Per-cycle unit-fault effects, built on first use."""
        return FaultTable(self)


def compile_circuit(lattice: Lattice, schedule: tuple) -> CompiledCircuit:
    return CompiledCircuit(lattice, schedule)


@dataclass
class SyndromeHistory:
    """Measured stabilizer signs, one row per syndrome qubit.

    signs[graph][a, t] for t in [0, n_rounds); column 0 is the baseline
    (noiseless round on a clean frame), the middle columns are the noisy
    rounds, and the final column is the noiseless closure round.
    """

    lattice: Lattice
    signs: dict[str, np.ndarray]

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


def run_cycle(frame: PauliFrame, circuit: CompiledCircuit,
              injections: dict[str, tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of frames (rows by cells) noiselessly through one
    full cycle; return (z_reports, x_reports).

    `injections` maps a phase ("cnot1".."cnot4", "meas", "idle6")
    to (rows, cells, x_bits, z_bits): bit i is XORed into cell cells[i] of
    frame row rows[i] there, and no (row, cell) pair repeats.  Reports are
    frame-relative measurement bits: a report of 1 means the physical
    measurement would differ from the noiseless reference.
    """
    x, z = frame.x, frame.z

    def inject(phase: str):
        if phase in injections:
            rows, cells, bx, bz = injections[phase]
            x[rows, cells] ^= bx
            z[rows, cells] ^= bz

    for k in range(4):
        ctl, tgt = circuit.step_ctl[k], circuit.step_tgt[k]
        x[..., tgt] ^= x[..., ctl]
        z[..., ctl] ^= z[..., tgt]
        inject(f"cnot{k + 1}")

    # Measurement step: wrong-eigenstate flips persist in the frame.
    inject("meas")
    z_reports = x[..., circuit.z_idx]
    x_reports = z[..., circuit.x_idx]
    # Measurement destroys the non-measured component: a Z-basis projection
    # makes z bits on the measured qubit meaningless, and vice versa.
    z[..., circuit.z_idx] = 0
    x[..., circuit.x_idx] = 0

    inject("idle6")

    return z_reports, x_reports


class FaultTable:
    """What a fault of each (slot, Pauli kind) of one cycle flips, one
    padded row (pad) per kind.

    Rows are numbered by phase in draw order ("cnot", the four CNOT
    steps; "meas"; "idle6"), then by slot, then by Pauli kind:
    `slot_rows(phase)` gives each slot's first row, and kind k of the
    slot is that row plus k.  A CNOT slot is a
    gate (gates numbered by step, then by position within the step, kinds
    in PAULI2_BITS order); an idle slot is a data qubit (kinds in
    PAULI1_BITS order); a meas slot is a Z-type, then X-type, syndrome
    qubit, with the one kind "readout flip".

    pad[r] lists the data bits the fault leaves flipped in the final
    frame, coded cell (x bit) or n_cells + cell (z bit), then its
    detection events, coded 2 * n_cells + dt * n_stab + a, where a indexes
    the Z-type and then the X-type syndrome qubits and dt in {0, 1} counts
    rounds after the fault's; then -1 up to the longest row's length.
    """

    def __init__(self, circuit: CompiledCircuit):
        c = circuit
        # Only what `window` reads: the circuit caches this table, so a
        # reference back to it would keep both alive until a collection.
        self.n_cells, self.n_z, self.lattice = c.n_cells, c.n_z, c.lattice
        self.n_stab = c.n_z + c.n_x
        stab_cells = np.concatenate([c.z_idx, c.x_idx])

        # Every unit fault (one x or z bit on one cell) of one round, injected
        # in round 1, unit f in frame row f, and the draw segments of one
        # round: (phase, probability attribute, each kind's bits over a
        # slot's units, the units of each slot).  A slot's units are the
        # columns of its kind bits: (xc, zc, xt, zt) for a CNOT, (x, z) for
        # an idle qubit, the one readout flip.
        inj: dict[str, tuple] = {}
        n_units = 0

        def inject(phase: str, cells, x_bits, z_bits):
            nonlocal n_units
            units = n_units + np.arange(cells.size).reshape(cells.shape)
            n_units += cells.size
            inj[phase] = (units.ravel(), cells.ravel(),
                          np.broadcast_to(x_bits, cells.shape).ravel().astype(np.uint8),
                          np.broadcast_to(z_bits, cells.shape).ravel().astype(np.uint8))
            return units

        is_z = (np.arange(self.n_stab) < c.n_z)[:, None]
        segments = [
            ("cnot", "p2", PAULI2_BITS, np.concatenate([
                inject(f"cnot{k + 1}", np.stack([ctl, ctl, tgt, tgt], axis=1), [1, 0, 1, 0],
                       [0, 1, 0, 1]) for k, (ctl, tgt) in enumerate(zip(c.step_ctl, c.step_tgt))])),
            ("meas", "pM", np.ones((1, 1), dtype=np.uint8),
             inject("meas", stab_cells[:, None], is_z, ~is_z)),
            ("idle6", "pI", PAULI1_BITS,
             inject("idle6", np.repeat(c.data_idx[:, None], 2, axis=1), [1, 0], [0, 1]))]
        self._report_codes = np.concatenate([c.z_idx, c.n_cells + c.x_idx])
        self._layouts: dict[ErrorModel, tuple] = {}

        # Rounds 1-3 with every unit fault in round 1.  No data bit may move
        # after round 1, round 3 must see no event and must leave the frame
        # of round 1: then the frame repeats with period two, and no event
        # follows round 2.  Frames are stored cell-major, so the per-cell
        # gathers of each CNOT step read contiguous memory.
        frame = PauliFrame(np.zeros((c.n_cells, n_units), dtype=np.uint8).T,
                           np.zeros((c.n_cells, n_units), dtype=np.uint8).T)
        report = sign = np.zeros((n_units, self.n_stab), dtype=np.uint8)
        events = []
        for t in (1, 2, 3):
            new_report = np.concatenate(run_cycle(frame, c, inj if t == 1 else {}), axis=1)
            events.append(new_report ^ report ^ sign)
            report, sign = new_report, new_report ^ report
            if t == 1:
                first_x, first_z = frame.x.copy(), frame.z.copy()
            cells = c.data_idx if t == 2 else slice(None)
            if t > 1 and not (np.array_equal(frame.x[:, cells], first_x[:, cells])
                              and np.array_equal(frame.z[:, cells], first_z[:, cells])):
                raise ValueError("a noiseless cycle changes the frame a unit fault "
                                 "leaves behind; the sampler needs it settled after "
                                 "one cycle")
        late = np.flatnonzero(events[2].any(axis=1))
        if late.size:
            raise ValueError(
                f"unit faults {late[:8].tolist()} flip detection events two rounds "
                "after their own; the sampler needs every fault's events within "
                "dt in {0, 1}")

        # Each unit's entries as one 0/1 row, packed eight columns to a byte;
        # a kind's row is the XOR of its units' rows, formed and made sparse
        # a segment at a time.
        unit_rows = np.packbits(np.concatenate([first_x[:, c.data_idx], first_z[:, c.data_idx],
                                                events[0], events[1]], axis=1), axis=1)
        col_code = np.concatenate([c.data_idx, c.n_cells + c.data_idx,
                                   2 * c.n_cells + np.arange(2 * self.n_stab, dtype=np.int32)])
        n_cols = len(col_code)
        # Phase -> (probability attribute, first row, slot count, kind count).
        self._phases: dict[str, tuple[str, int, int, int]] = {}
        codes, entry_rows = [], []
        n_rows = 0
        for phase, attr, kinds, units in segments:
            self._phases[phase] = (attr, n_rows, len(units), len(kinds))
            words = np.zeros((len(units), len(kinds), unit_rows.shape[1]), dtype=np.uint8)
            for unit, bits in zip(unit_rows[units].swapaxes(0, 1), kinds.T):
                words ^= unit[:, None] * bits[:, None]  # slot, kind, packed column
            hit = np.flatnonzero(np.unpackbits(words, axis=-1, count=n_cols).view(bool))
            entry_rows.append(n_rows + hit // n_cols)
            codes.append(col_code[hit % n_cols])
            n_rows += len(kinds) * len(units)
        counts = np.bincount(np.concatenate(entry_rows), minlength=n_rows)
        self.pad = np.full((n_rows, counts.max(initial=0)), -1, dtype=np.intp)
        self.pad[np.arange(self.pad.shape[1]) < counts[:, None]] = np.concatenate(codes)

    def slot_rows(self, phase: str) -> np.ndarray:
        """The first row of each slot of a phase; kind k is that row + k."""
        _attr, first, n_slots, n_kinds = self._phases[phase]
        return first + n_kinds * np.arange(n_slots)

    def _layout(self, model: ErrorModel) -> tuple:
        """Per-slot arrays of one round's draws under a model: probability,
        kind count, first row."""
        layout = self._layouts.get(model)
        if layout is None:
            cols = ([], [], [])
            for phase, (attr, _first, _n_slots, n_kinds) in self._phases.items():
                p = getattr(model, attr)
                if p > 0.0:
                    rows = self.slot_rows(phase)
                    for col, value in zip(cols, (p, n_kinds, rows)):
                        col.append(np.broadcast_to(value, rows.shape))
            dtypes = (np.float64, np.float64, np.intp)
            layout = tuple(np.concatenate(col).astype(dtype) if col else np.zeros(0, dtype)
                           for col, dtype in zip(cols, dtypes))
            self._layouts[model] = layout
        return layout

    def sample(self, model: ErrorModel, rng: np.random.Generator,
               rounds: int) -> WindowResult:
        """One noisy window of `rounds` rounds plus the closure round."""
        p, mult, first_row = self._layout(model)
        rows = at = np.zeros(0, dtype=np.intp)
        if p.size:
            u = rng.random(rounds * p.size)
            hit = np.flatnonzero(u.reshape(rounds, p.size) < p)
            at, s = np.divmod(hit, p.size)
            # u < p makes u / p < 1 in floating point, so the kind stays
            # below the multiplier.
            rows = first_row[s] + ((u[hit] / p[s]) * mult[s]).astype(np.intp)
        return self.window(rows, at, rounds)

    def window(self, rows, at, rounds: int) -> WindowResult:
        """The window of `rounds` noisy rounds plus the closure round in
        which exactly row rows[i] fires at round index at[i] (0 ..
        rounds - 1), for integer sequences of one length; a row that
        fires twice in one round cancels."""
        n_cells, n_z = self.n_cells, self.n_z
        n_rounds = rounds + 2
        entries = self.pad[rows]
        # Event codes (past the data bits) move to their fault's round,
        # round index i being round i + 1 of the window.
        shift = (np.asarray(at, dtype=np.intp) + 1) * self.n_stab
        entries += shift[:, None] * (entries >= 2 * n_cells)
        bits = np.bincount(entries[entries >= 0],
                           minlength=2 * n_cells + n_rounds * self.n_stab)
        bits = bits.astype(np.uint8) & 1
        signs = np.bitwise_xor.accumulate(
            bits[2 * n_cells:].reshape(n_rounds, self.n_stab), axis=0)
        # The final reports, one per syndrome qubit, are the XOR of its signs.
        bits[self._report_codes] = np.bitwise_xor.reduce(signs, axis=0)
        signs = signs.T
        history = SyndromeHistory(lattice=self.lattice, signs={
            "z": np.ascontiguousarray(signs[:n_z]),
            "x": np.ascontiguousarray(signs[n_z:])})
        return WindowResult(history=history,
                            frame=PauliFrame(bits[:n_cells], bits[n_cells:2 * n_cells]))


def simulate_window(circuit: CompiledCircuit, model: ErrorModel,
                    rng: np.random.Generator, rounds: int) -> WindowResult:
    """`rounds` noisy cycles plus the closing noiseless cycle, sampled from
    the circuit's fault table."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    return circuit.fault_table.sample(model, rng, rounds)


def _graph_events(history: SyndromeHistory, graph: str) -> tuple[list[int], list[int]]:
    """Detection events of one graph in scan order (by stabilizer, then
    round), as parallel lists of stabilizer indices (into
    lattice.stabilizers(graph)) and rounds."""
    signs = history.signs[graph]
    a_idx, t_idx = np.nonzero(signs[:, 1:] != signs[:, :-1])
    return a_idx.tolist(), (t_idx + 1).tolist()


def detection_events(history: SyndromeHistory) -> list[DetectionEvent]:
    """Space-time points where consecutive stabilizer signs differ."""
    if history.n_rounds < 2:
        raise ValueError("need at least two recorded rounds")
    events = []
    for graph in ("x", "z"):
        stabs = history.lattice.stabilizers(graph)
        for a, t in zip(*_graph_events(history, graph)):
            i, j = stabs[a]
            events.append(DetectionEvent(i=i, j=j, t=t, graph=graph))
    return events


def events_to_text(events) -> str:
    """Debug trace: one event per line, "type i j t"."""
    return "\n".join(f"{e.graph} {e.i} {e.j} {e.t}" for e in events)
