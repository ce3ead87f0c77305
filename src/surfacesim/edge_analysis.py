"""Automatic derivation of syndrome-change link classes and probabilities.

Every gate error decomposes, per detection graph, into a few effective
components: each CNOT's fifteen Pauli pairs collapse into control-only,
target-only and both-legs components of probability 4*p2/15 each, every
data identity contributes one component of probability 2*pI/3, and every
measurement one wrong-eigenstate flip of probability pM.  Each component
is one row of the circuit's fault table (`sim.FaultTable`, the rows the
sampler draws), which gives its detection-event signature (at most two
events); the tests check it against each component pushed through its
own noiseless window by the frozen frame stepper.  Components of the
same gate with the same signature are mutually exclusive outcomes of one
error event, so they aggregate additively (4+4 -> 8*p2/15) before
grouping.

Grouping components across circuit locations by signature yields the link
classes: the probability of a link is the probability that an odd number
of its (independent) contributing processes fire.  Single-event
signatures become boundary links.  The derivation re-runs automatically
for any valid schedule, lattice size and error model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .lattice import Lattice
from .noise import ErrorModel
from .sim import PAULI1_BITS, PAULI2_BITS, CompiledCircuit


class ErrorProcess(NamedTuple):
    """One effective error component at one circuit location, per graph."""

    graph: str                 # detection graph it can touch: "x" or "z"
    location: tuple            # ("cnot", gate_index) | ("idle6", cell) | ("meas", cell)
    component: str             # "ctl" | "tgt" | "both" | "flip" (merged: "ctl+both" etc.)
    prob_class: str            # "4p2/15" | "8p2/15" | "2pI/3" | "pM"
    probability: float


@dataclass
class EdgeClass:
    """A link class: all processes producing one detection-event signature."""

    graph: str
    cells: tuple                       # ((i,j), (i,j)) earlier-first, or ((i,j),)
    dt: int
    probability: float
    members: tuple[ErrorProcess, ...]
    side: str | None = None            # boundary exit side for boundary classes
    offset: tuple | None = None        # sublattice (da, db, dt), earlier -> later
    letter: str | None = None


def odd_parity_probability(probs) -> float:
    """Probability that an odd number of independent events occur.

    Exact closed form: (1 - prod(1 - 2 q_i)) / 2.
    """
    prod = 1.0
    for q in probs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"probability {q} outside [0, 1]")
        prod *= 1.0 - 2.0 * q
    return 0.5 * (1.0 - prod)


def _signed_processes(circuit: CompiledCircuit, model: ErrorModel):
    """(process, signature) for every effective error component of one
    cycle, both graphs.

    CNOT components of one gate that share a signature are merged here
    (exclusive outcomes of the same error event), which is what produces
    the 8*p2/15 class; components invisible to the graph are dropped.

    A signature is the process's detection events as (flat_cell, dt)
    pairs, earliest first and then by cell, dt counted from the earliest
    event; never empty.  All of them are read from the padded rows of the
    fault table (`sim.FaultTable`) that the sampler draws, each a slot's
    `slot_rows` entry plus its kind: for the z graph, each gate's X⊗I,
    I⊗X and X⊗X rows (the control-only, target-only and both-legs
    components), each idle data qubit's X row and each Z-type readout
    row; for the x graph, the same with Z and the X-type readouts.
    """
    table = circuit.fault_table
    stab_cells = np.concatenate([circuit.z_idx, circuit.x_idx])
    n_z, n_cells = circuit.n_z, circuit.n_cells
    ev_start = 2 * n_cells
    kinds2, kinds1 = PAULI2_BITS.tolist(), PAULI1_BITS.tolist()

    def row_signatures(graph: str, rows: np.ndarray):
        """The signature of each given row, () for a row without events, in
        order: each event entry keyed (dt - lo) * n_cells + cell, each row's
        keys sorted, in one pass over the rows' padded entries."""
        code = table.pad[rows]
        is_event = code >= ev_start  # padding (-1) lies below every event code
        dt, a = np.divmod(code - ev_start, table.n_stab)
        assert ((a[is_event] < n_z) == (graph == "z")).all()
        lo = np.min(dt, axis=1, where=is_event, initial=np.iinfo(dt.dtype).max, keepdims=True)
        key = np.where(is_event, (dt - lo) * n_cells + stab_cells[a], np.iinfo(dt.dtype).max)
        key.sort(axis=1)
        count = is_event.sum(axis=1)
        dt_rel, cell = np.divmod(key[np.arange(key.shape[1]) < count[:, None]], n_cells)
        events = list(zip(cell.tolist(), dt_rel.tolist()))
        ends = np.cumsum(count).tolist()
        return (tuple(events[start:end]) for start, end in zip([0] + ends, ends))

    def flips(sig: tuple, location: tuple) -> tuple:
        if not sig:
            raise ValueError(f"the fault at {location} flips no detection event")
        return sig

    p_cnot = model.p2 * 4.0 / 15.0
    p_idle = model.pI * 2.0 / 3.0
    data_cells = circuit.data_idx.tolist()
    for graph in ("z", "x"):
        bit = 0 if graph == "z" else 1  # the z graph sees x bits, the x graph z bits
        one = [int(i == bit) for i in range(2)]  # X or Z on one qubit
        comp_kind = {"ctl": kinds2.index(one + [0, 0]), "tgt": kinds2.index([0, 0] + one),
                     "both": kinds2.index(one + one)}
        stabs = range(n_z) if graph == "z" else range(n_z, len(stab_cells))
        # Every row this graph reads, in the order the loops below take them.
        sigs_of_rows = row_signatures(graph, np.concatenate(
            [(table.slot_rows("cnot")[:, None] + list(comp_kind.values())).ravel()]
            + [table.slot_rows("idle6") + kinds1.index(one)]
            + [table.slot_rows("meas")[stabs]]))
        for gate in range(circuit.n_cnots):
            sigs: dict[tuple, list[str]] = {}
            for comp in comp_kind:
                sig = next(sigs_of_rows)
                if sig:
                    sigs.setdefault(sig, []).append(comp)
            for sig, comps in sigs.items():
                if len(comps) == 1:
                    yield ErrorProcess(graph, ("cnot", gate), comps[0],
                                       "4p2/15", p_cnot), sig
                else:
                    yield ErrorProcess(graph, ("cnot", gate), "+".join(comps),
                                       "8p2/15", len(comps) * p_cnot), sig
        for cell in data_cells:
            location = ("idle6", cell)
            yield (ErrorProcess(graph, location, "flip", "2pI/3", p_idle),
                   flips(next(sigs_of_rows), location))
        for cell in stab_cells[stabs].tolist():
            location = ("meas", cell)
            yield (ErrorProcess(graph, location, "flip", "pM", model.pM),
                   flips(next(sigs_of_rows), location))


@dataclass
class EdgeClassTable:
    """All link classes for one (lattice, schedule, model) configuration;
    `metric.LinkGraph` reads them as a graph."""

    lattice: Lattice
    model: ErrorModel
    pair_classes: dict[str, dict[tuple, EdgeClass]]
    boundary_classes: dict[str, dict[int, EdgeClass]]
    bulk_classes: dict[str, list[EdgeClass]]

    def to_json(self) -> str:
        lat = self.lattice
        out = {"distance": lat.distance, "model": vars(self.model), "graphs": {}}
        for graph in ("x", "z"):
            bulk = [
                {
                    "letter": cls.letter,
                    "offset": list(cls.offset),
                    "member_count": len(cls.members),
                    "member_classes": sorted(m.prob_class for m in cls.members),
                    "probability": cls.probability,
                }
                for cls in self.bulk_classes[graph]
            ]
            boundary = [
                {
                    "cell": list(lat.cell(cell)),
                    "side": cls.side,
                    "member_count": len(cls.members),
                    "probability": cls.probability,
                }
                for cell, cls in sorted(self.boundary_classes[graph].items())
            ]
            out["graphs"][graph] = {"bulk": bulk, "boundary": boundary,
                                    "pair_count": len(self.pair_classes[graph])}
        return json.dumps(out, indent=2)


def _sublattice_offset(lattice: Lattice, cells: tuple, dt: int) -> tuple:
    (a1, b1) = lattice.sublattice_coord(lattice.cell(cells[0]))
    (a2, b2) = lattice.sublattice_coord(lattice.cell(cells[1]))
    return (a2 - a1, b2 - b1, dt)


def derive_edge_classes(circuit: CompiledCircuit, model: ErrorModel) -> EdgeClassTable:
    """Group all processes by signature and compute exact link probabilities."""
    return group_processes(circuit.lattice, model, _signed_processes(circuit, model))


def group_processes(lattice: Lattice, model: ErrorModel, signed) -> EdgeClassTable:
    """The link classes of (process, signature) pairs given in
    _signed_processes order."""
    groups: dict[str, dict[tuple, list[ErrorProcess]]] = {"x": {}, "z": {}}
    for proc, sig in signed:
        if len(sig) > 2:
            raise ValueError(
                f"process {proc.location}/{proc.component} flips {len(sig)} "
                "detection events; this schedule does not produce pairwise "
                "links and cannot be decoded with a matching graph")
        groups[proc.graph].setdefault(sig, []).append(proc)

    pair_classes: dict[str, dict[tuple, EdgeClass]] = {"x": {}, "z": {}}
    boundary_classes: dict[str, dict[int, EdgeClass]] = {"x": {}, "z": {}}
    for graph, sig_groups in groups.items():
        for sig, members in sig_groups.items():
            prob = odd_parity_probability([m.probability for m in members])
            if len(sig) == 1:
                cell = sig[0][0]
                cls = EdgeClass(
                    graph=graph, cells=(lattice.cell(cell),),
                    dt=0, probability=prob, members=tuple(members),
                    side=lattice.nearest_boundary(lattice.cell(cell))[1])
                boundary_classes[graph][cell] = cls
            else:
                (cu, _), (cv, dt) = sig
                cls = EdgeClass(
                    graph=graph, cells=(lattice.cell(cu), lattice.cell(cv)),
                    dt=dt, probability=prob, members=tuple(members),
                    offset=_sublattice_offset(lattice, (cu, cv), dt))
                pair_classes[graph][(cu, cv, dt)] = cls

    return EdgeClassTable(
        lattice=lattice, model=model, pair_classes=pair_classes,
        boundary_classes=boundary_classes,
        bulk_classes={g: _bulk_classes(pair_classes[g]) for g in ("x", "z")})


def _bulk_classes(pair_classes: dict[tuple, EdgeClass]) -> list[EdgeClass]:
    """One representative per translation class, letter-labeled.

    The representative of each offset is the instance with the most
    contributing processes (boundary instances lose members).  The class
    containing the measurement-flip process gets the letter A: its group
    structure (four CNOT components of probability 4*p2/15 plus one pM)
    identifies the temporal link whose closed-form probability anchors
    the published polynomial.  Remaining letters follow by descending
    probability.
    """
    by_offset: dict[tuple, EdgeClass] = {}
    for cls in pair_classes.values():
        best = by_offset.get(cls.offset)
        if best is None or len(cls.members) > len(best.members):
            by_offset[cls.offset] = cls
    classes = list(by_offset.values())

    def has_meas(cls: EdgeClass) -> bool:
        return any(m.prob_class == "pM" for m in cls.members)

    classes.sort(key=lambda c: (not has_meas(c), -c.probability, c.offset))
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [replace(cls, letter=letters[rank] if rank < len(letters) else f"Z{rank}")
            for rank, cls in enumerate(classes)]
