"""Automatic derivation of syndrome-change link classes and probabilities.

Every gate error decomposes, per detection graph, into a few effective
components: each CNOT's fifteen Pauli pairs collapse into control-only,
target-only and both-legs components of probability 4*p2/15 each, every
data identity contributes one component of probability 2*pI/3, and every
measurement one wrong-eigenstate flip of probability pM.  Each component
is the XOR of at most two unit faults of the circuit's fault table
(`sim.FaultTable`, built by one batched noiseless propagation), which
gives its detection-event signature (at most two events); the tests
check it against each component pushed through its own noiseless
window by the frozen frame stepper.  Components of the same gate with
the same signature are mutually exclusive outcomes of one error event,
so they aggregate additively (4+4 -> 8*p2/15) before grouping.

Grouping components across circuit locations by signature yields the link
classes: the probability of a link is the probability that an odd number
of its (independent) contributing processes fire.  Single-event
signatures become boundary links.  The derivation re-runs automatically
for any valid schedule, lattice size and error model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .lattice import Lattice
from .noise import ErrorModel
from .sim import CompiledCircuit


@dataclass(frozen=True)
class ErrorProcess:
    """One effective error component at one circuit location, per graph."""

    graph: str                 # detection graph it can touch: "x" or "z"
    location: tuple            # ("cnot", gate_index) | ("idle5"|"idle6", cell) | ("meas", cell)
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


def _unit_faults(circuit: CompiledCircuit, proc: ErrorProcess) -> tuple[int, ...]:
    """The fault-table unit faults whose XOR is the process's component."""
    table = circuit.fault_table
    kind, where = proc.location
    bit = 0 if proc.graph == "z" else 1  # the z graph sees x bits, the x graph z bits
    if kind == "cnot":
        ctl = table.cnot_unit(where, False, bit)
        tgt = table.cnot_unit(where, True, bit)
        # Merged components like "tgt+both" share a signature; take any one.
        return {"ctl": (ctl,), "tgt": (tgt,), "both": (ctl, tgt)}[
            proc.component.split("+")[0]]
    if kind in ("idle5", "idle6"):
        return (table.idle_unit(int(kind[-1]), where, bit),)
    if kind == "meas":
        return (table.meas_unit(where),)
    raise ValueError(f"unknown location {proc.location}")


def process_signature(circuit: CompiledCircuit,
                      proc: ErrorProcess) -> tuple[tuple[int, int], ...]:
    """Detection-event signature of one process, read from the circuit's
    fault table: (flat_cell, dt) pairs with dt counted from the earliest
    event, empty if the process is invisible to its graph."""
    events = circuit.fault_table.events(_unit_faults(circuit, proc))
    assert all(graph == proc.graph for graph, _, _ in events)
    if not events:
        return ()
    lo = min(dt for _, _, dt in events)
    return tuple(sorted((cell, dt - lo) for _, cell, dt in events))


def enumerate_processes(circuit: CompiledCircuit, model: ErrorModel) -> list[ErrorProcess]:
    """All effective error components of one cycle, both graphs.

    CNOT components of one gate that share a signature are merged here
    (exclusive outcomes of the same error event), which is what produces
    the 8*p2/15 class.
    """
    return [proc for proc, _ in _signed_processes(circuit, model)]


def _signed_processes(circuit: CompiledCircuit, model: ErrorModel):
    """(process, signature) for every process of enumerate_processes, in
    its order; each component's signature is read once."""
    p_cnot = model.p2 * 4.0 / 15.0
    for graph in ("z", "x"):
        for gate in range(circuit.n_cnots):
            sigs: dict[tuple, list[str]] = {}
            for comp in ("ctl", "tgt", "both"):
                raw = ErrorProcess(graph, ("cnot", gate), comp, "4p2/15", p_cnot)
                sig = process_signature(circuit, raw)
                if sig:
                    sigs.setdefault(sig, []).append(comp)
            for sig, comps in sigs.items():
                if len(comps) == 1:
                    yield ErrorProcess(graph, ("cnot", gate), comps[0],
                                       "4p2/15", p_cnot), sig
                else:
                    yield ErrorProcess(graph, ("cnot", gate), "+".join(comps),
                                       "8p2/15", len(comps) * p_cnot), sig
        p_idle = model.pI * 2.0 / 3.0
        for step in circuit.idle_steps:
            for cell in circuit.data_idx:
                proc = ErrorProcess(graph, (f"idle{step}", int(cell)),
                                    "flip", "2pI/3", p_idle)
                yield proc, process_signature(circuit, proc)
        stab_idx = circuit.z_idx if graph == "z" else circuit.x_idx
        for cell in stab_idx:
            proc = ErrorProcess(graph, ("meas", int(cell)), "flip", "pM", model.pM)
            yield proc, process_signature(circuit, proc)


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


def _sublattice_offset(lattice: Lattice, graph: str, cells: tuple, dt: int) -> tuple:
    (a1, b1) = lattice.sublattice_coord(lattice.cell(cells[0]))
    (a2, b2) = lattice.sublattice_coord(lattice.cell(cells[1]))
    da, db = a2 - a1, b2 - b1
    if dt == 0 and (da, db) < (-da, -db):
        da, db = -da, -db
    return (da, db, dt)


def derive_edge_classes(circuit: CompiledCircuit, model: ErrorModel) -> EdgeClassTable:
    """Group all processes by signature and compute exact link probabilities."""
    lattice = circuit.lattice
    groups: dict[str, dict[tuple, list[ErrorProcess]]] = {"x": {}, "z": {}}
    for proc, sig in _signed_processes(circuit, model):
        if not sig:
            continue
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
                (cu, dtu), (cv, dtv) = sig
                if dtu > dtv:
                    (cu, dtu), (cv, dtv) = (cv, dtv), (cu, dtu)
                dt = dtv - dtu
                if dt == 0:
                    cu, cv = min(cu, cv), max(cu, cv)
                cls = EdgeClass(
                    graph=graph, cells=(lattice.cell(cu), lattice.cell(cv)),
                    dt=dt, probability=prob, members=tuple(members),
                    offset=_sublattice_offset(lattice, graph, (cu, cv), dt))
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
