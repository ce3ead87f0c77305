"""Automatic derivation of syndrome-change link classes and probabilities.

Every gate error decomposes, per detection graph, into a few effective
components: each CNOT's fifteen Pauli pairs collapse into control-only,
target-only and both-legs components of probability 4*p2/15 each, every
data identity contributes one component of probability 2*pI/3, and every
measurement one wrong-eigenstate flip of probability pM.  Each component
is the XOR of at most two unit faults of the circuit's fault table
(`sim.FaultTable`, built by one batched noiseless propagation), which
gives its detection-event signature (at most two events);
`propagate_process`, which pushes one component through its own
noiseless window, is the reference.  Components of the same gate with
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
from dataclasses import dataclass, field

import numpy as np

from .lattice import Lattice
from .noise import ErrorModel, PauliOp, X, Z
from .sim import CompiledCircuit, detection_events, make_injection, simulate_window

PROB_CLASSES = ("4p2/15", "8p2/15", "2pI/3", "pM")


@dataclass(frozen=True)
class ErrorProcess:
    """One effective error component at one circuit location, per graph."""

    graph: str                 # detection graph it can touch: "x" or "z"
    location: tuple            # ("cnot", gate_index) | ("idle5"|"idle6", cell) | ("meas", cell)
    component: str             # "ctl" | "tgt" | "both" | "flip" (merged: "ctl+both" etc.)
    prob_class: str            # one of PROB_CLASSES
    probability: float


@dataclass
class EdgeClass:
    """A link class: all processes producing one detection-event signature."""

    graph: str
    kind: str                          # "pair" or "boundary"
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


def _component_paulis(graph: str) -> dict[str, tuple[PauliOp, PauliOp]]:
    # The z graph (Z stabilizers) sees X components; the x graph sees Z.
    p = X if graph == "z" else Z
    ident = PauliOp(0, 0)
    return {"ctl": (p, ident), "tgt": (ident, p), "both": (p, p)}


def _injection_for(circuit: CompiledCircuit, proc: ErrorProcess, round_index: int):
    kind = proc.location[0]
    if kind == "cnot":
        gate = proc.location[1]
        step = int(circuit.gate_step[gate])
        # Merged components like "tgt+both" share a signature; inject any one.
        comp = proc.component.split("+")[0]
        pauli = _component_paulis(proc.graph)[comp]
        cells = (int(circuit.gate_ctl[gate]), int(circuit.gate_tgt[gate]))
        return make_injection([(round_index, f"cnot{step + 1}", cells, pauli)])
    if kind in ("idle5", "idle6"):
        pauli = X if proc.graph == "z" else Z
        return make_injection([(round_index, kind, proc.location[1], pauli)])
    if kind == "meas":
        return make_injection([(round_index, "meas", proc.location[1], None)])
    raise ValueError(f"unknown location {proc.location}")


def propagate_process(circuit: CompiledCircuit,
                      proc: ErrorProcess) -> tuple[tuple[int, int], ...]:
    """Detection-event signature of a single injected process.

    Returns a tuple of (flat_cell, dt) pairs with dt relative to the
    injection round, canonicalized so min dt is 0; empty if the process
    is invisible to its graph.
    """
    model = ErrorModel(0.0, 0.0, 0.0)
    inj = _injection_for(circuit, proc, 2)  # injected in round 2 of 4
    res = simulate_window(circuit, model, None, rounds=4, injections=inj)
    events = detection_events(res.history)
    assert all(e.graph == proc.graph for e in events)
    sig = tuple(sorted(
        (circuit.lattice.index((e.i, e.j)), e.t - 2) for e in events))
    if not sig:
        return sig
    dts = [dt for _, dt in sig]
    assert all(dt in (0, 1) for dt in dts), f"signature spans >1 round: {sig}"
    lo = min(dts)
    return tuple(sorted((c, dt - lo) for c, dt in sig))


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
    """`propagate_process`'s signature, read from the circuit's fault table."""
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
    procs: list[ErrorProcess] = []
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
                    procs.append(ErrorProcess(graph, ("cnot", gate), comps[0],
                                              "4p2/15", p_cnot))
                else:
                    procs.append(ErrorProcess(graph, ("cnot", gate), "+".join(comps),
                                              "8p2/15", len(comps) * p_cnot))
        p_idle = model.pI * 2.0 / 3.0
        for step in circuit.idle_steps:
            for cell in circuit.data_idx:
                procs.append(ErrorProcess(graph, (f"idle{step}", int(cell)),
                                          "flip", "2pI/3", p_idle))
        stab_idx = circuit.z_idx if graph == "z" else circuit.x_idx
        for cell in stab_idx:
            procs.append(ErrorProcess(graph, ("meas", int(cell)), "flip",
                                      "pM", model.pM))
    return procs


@dataclass
class EdgeClassTable:
    """All link classes for one (lattice, schedule, model) configuration."""

    lattice: Lattice
    model: ErrorModel
    pair_classes: dict[str, dict[tuple, EdgeClass]]
    boundary_classes: dict[str, dict[int, EdgeClass]]
    bulk_classes: dict[str, list[EdgeClass]] = field(default_factory=dict)

    def neighbors(self, graph: str, cell: int):
        """Iterate (other_cell, signed_dt, probability) links from a cell."""
        return self._adjacency[graph].get(cell, ())

    def boundary(self, graph: str, cell: int) -> EdgeClass | None:
        return self.boundary_classes[graph].get(cell)

    def finalize(self) -> "EdgeClassTable":
        adjacency: dict[str, dict[int, list]] = {}
        for graph, classes in self.pair_classes.items():
            adj: dict[int, list] = {}
            for (u, v, dt), cls in classes.items():
                adj.setdefault(u, []).append((v, dt, cls.probability))
                adj.setdefault(v, []).append((u, -dt, cls.probability))
            adjacency[graph] = {c: tuple(links) for c, links in adj.items()}
        self._adjacency = adjacency
        return self

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
    for proc in enumerate_processes(circuit, model):
        sig = process_signature(circuit, proc)
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
                    graph=graph, kind="boundary", cells=(lattice.cell(cell),),
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
                    graph=graph, kind="pair",
                    cells=(lattice.cell(cu), lattice.cell(cv)), dt=dt,
                    probability=prob, members=tuple(members),
                    offset=_sublattice_offset(
                        lattice, graph, (cu, cv), dt))
                pair_classes[graph][(cu, cv, dt)] = cls

    table = EdgeClassTable(lattice=lattice, model=model,
                           pair_classes=pair_classes,
                           boundary_classes=boundary_classes)
    table.bulk_classes = {g: _bulk_classes(table, g) for g in ("x", "z")}
    return table.finalize()


def component_group_maps(table: EdgeClassTable):
    """Lookup from (graph, location, component-part) to group id.

    Groups are numbered over all pair and boundary classes of both graphs;
    returns (group_list, part_map) where group_list[i] is the EdgeClass.
    """
    group_list: list[EdgeClass] = []
    part_map: dict[tuple, int] = {}
    for graph in ("x", "z"):
        classes = list(table.pair_classes[graph].values()) + \
            list(table.boundary_classes[graph].values())
        for cls in classes:
            gid = len(group_list)
            group_list.append(cls)
            for member in cls.members:
                for part in member.component.split("+"):
                    part_map[(graph, member.location, part)] = gid
    return group_list, part_map


def mc_validate(circuit: CompiledCircuit, model: ErrorModel,
                table: EdgeClassTable, n_samples: int, seed: int = 0,
                batch: int = 20_000):
    """Monte Carlo check of every link probability.

    Samples n_samples independent noisy cycles (error locations only; no
    frame propagation needed) and counts, per link class, how often an
    odd number of its member processes fired.  Returns a list of
    (class, expected_probability, observed_frequency, n) tuples.
    """
    group_list, part_map = component_group_maps(table)
    n_groups = len(group_list)

    from .sim import PAULI1_BITS, PAULI2_BITS

    # CNOT kind -> group, per gate and graph: shape (n_cnots, 15).
    gate_gid = {g: np.full((circuit.n_cnots, 15), -1, dtype=np.int32)
                for g in ("x", "z")}
    for gate in range(circuit.n_cnots):
        for kind in range(15):
            xc, zc, xt, zt = PAULI2_BITS[kind]
            for graph, (bc, bt) in (("z", (xc, xt)), ("x", (zc, zt))):
                part = {(1, 0): "ctl", (0, 1): "tgt", (1, 1): "both"}.get(
                    (int(bc), int(bt)))
                if part is None:
                    continue
                gid = part_map.get((graph, ("cnot", gate), part))
                if gid is not None:
                    gate_gid[graph][gate, kind] = gid

    idle_locs = [(f"idle{step}", int(cell))
                 for step in circuit.idle_steps for cell in circuit.data_idx]
    idle_gid = {g: np.full((len(idle_locs), 3), -1, dtype=np.int32)
                for g in ("x", "z")}
    for loc_i, loc in enumerate(idle_locs):
        for kind in range(3):
            bx, bz = PAULI1_BITS[kind]
            for graph, bit in (("z", bx), ("x", bz)):
                if bit:
                    gid = part_map.get((graph, loc, "flip"))
                    if gid is not None:
                        idle_gid[graph][loc_i, kind] = gid

    meas_locs = ([("z", ("meas", int(c))) for c in circuit.z_idx]
                 + [("x", ("meas", int(c))) for c in circuit.x_idx])
    meas_gid = np.full(len(meas_locs), -1, dtype=np.int32)
    for loc_i, (graph, loc) in enumerate(meas_locs):
        gid = part_map.get((graph, loc, "flip"))
        if gid is not None:
            meas_gid[loc_i] = gid

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    odd_counts = np.zeros(n_groups, dtype=np.int64)
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        parity = np.zeros((b, n_groups), dtype=np.uint8)

        if model.p2 > 0:
            u = rng.random((b, circuit.n_cnots))
            rows, gates = np.nonzero(u < model.p2)
            kinds = np.minimum((u[rows, gates] / model.p2 * 15).astype(np.intp), 14)
            for graph in ("x", "z"):
                gids = gate_gid[graph][gates, kinds]
                ok = gids >= 0
                np.bitwise_xor.at(parity, (rows[ok], gids[ok]), 1)
        if model.pI > 0 and idle_locs:
            u = rng.random((b, len(idle_locs)))
            rows, locs = np.nonzero(u < model.pI)
            kinds = np.minimum((u[rows, locs] / model.pI * 3).astype(np.intp), 2)
            for graph in ("x", "z"):
                gids = idle_gid[graph][locs, kinds]
                ok = gids >= 0
                np.bitwise_xor.at(parity, (rows[ok], gids[ok]), 1)
        if model.pM > 0:
            u = rng.random((b, len(meas_locs)))
            rows, locs = np.nonzero(u < model.pM)
            gids = meas_gid[locs]
            ok = gids >= 0
            np.bitwise_xor.at(parity, (rows[ok], gids[ok]), 1)

        odd_counts += parity.sum(axis=0, dtype=np.int64)
        done += b

    return [(cls, cls.probability, odd_counts[gid] / n_samples, n_samples)
            for gid, cls in enumerate(group_list)]


def _bulk_classes(table: EdgeClassTable, graph: str) -> list[EdgeClass]:
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
    for cls in table.pair_classes[graph].values():
        best = by_offset.get(cls.offset)
        if best is None or len(cls.members) > len(best.members):
            by_offset[cls.offset] = cls
    classes = list(by_offset.values())

    def has_meas(cls: EdgeClass) -> bool:
        return any(m.prob_class == "pM" for m in cls.members)

    classes.sort(key=lambda c: (not has_meas(c), -c.probability, c.offset))
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    out = []
    for rank, cls in enumerate(classes):
        letter = letters[rank] if rank < len(letters) else f"Z{rank}"
        out.append(EdgeClass(
            graph=cls.graph, kind=cls.kind, cells=cls.cells, dt=cls.dt,
            probability=cls.probability, members=cls.members,
            offset=cls.offset, letter=letter))
    return out
