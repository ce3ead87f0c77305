"""Reference implementations the tests check the package against.  Not part
of the package.

* Matching: `max_cardinality_matching`, a maximum-cardinality matching of
  maximum weight from `_max_weight_matching` on weights shifted up by a
  constant; `mwpm`, the minimum-weight perfect matching it gives on
  weights max_w - w; and `brute_force_mwpm`, an exhaustive minimum for
  graphs of up to 12 nodes; `solve_dp_all_subsets`, the decoder's subset
  DP solved over every subset of a component, which the decoder's DP
  must match mate for mate.
* Decoding: `build_match_graph`, the full augmented match graph of one
  graph type's events with every weight taken from a `MetricCache`, and
  `corrections_from_matching`, the flip plane of a matching of it, walked
  one chain step at a time (`_staircase_flip`, `_boundary_flip`).
* dmax tables: `dmax_table_reference`, the pair table filled from one
  search per stabilizer to twice the largest boundary weight, each
  keeping the nodes of rounds t >= 0.
* d0-d2 tables: `path_sum_table_reference`, one source's walk program
  over an explicit list of transitions between links.
* Link classes: `propagate_process`, the signature of one error component
  pushed through its own noiseless window by the frozen frame stepper;
  `propagated_processes`, every process of a cycle with its propagated
  signature; and `mc_validate`, a Monte Carlo check of every link
  probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from surfacesim.decoder import PRUNE_EPS
from surfacesim.edge_analysis import EdgeClass, EdgeClassTable, ErrorProcess
from surfacesim.lattice import Lattice
from surfacesim.matching import _max_weight_matching
from surfacesim.metric import _T_SPAN, MAX_LINKS, LinkGraph, MetricCache, settled
from surfacesim.noise import ErrorModel
from surfacesim.sim import PAULI1_BITS, PAULI2_BITS, CompiledCircuit, detection_events

from frame_reference import cnot_phase, make_injection, simulate_window
from paulis import PauliOp, X, Z


# --- matching --------------------------------------------------------------

class MatchingError(ValueError):
    """Structural failure: odd node count or no perfect matching."""


@dataclass
class MatchGraph:
    """Undirected weighted graph; nodes are 0..n_nodes-1."""

    n_nodes: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)

    def add_edge(self, u: int, v: int, w: float) -> None:
        if u == v or not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise ValueError(f"bad edge ({u}, {v})")
        self.edges.append((u, v, float(w)))


@dataclass
class Matching:
    """A perfect matching: every node paired exactly once."""

    pairs: tuple[tuple[int, int], ...]
    total_weight: float


def max_cardinality_matching(n: int, edges: list[tuple[int, int, float]]) -> list[int]:
    """Maximum-cardinality matching of maximum weight among those; returns
    mate[v] = partner vertex or -1.

    Adds C = (n // 2) * R + 1 to every weight, where R = max(max_w, 0) -
    min(min_w, 0).  A matching of k + 1 edges then outweighs one of k by
    at least C + (k + 1) * min_w - k * max_w >= C - (k + 1) * R > 0, since
    k + 1 <= n // 2; so the maximum-weight matching of the shifted weights
    has maximum cardinality, and maximum weight among those.
    """
    max_w = max((w for _, _, w in edges), default=0.0)
    min_w = min((w for _, _, w in edges), default=0.0)
    c = (n // 2) * (max(max_w, 0.0) - min(min_w, 0.0)) + 1.0
    return _max_weight_matching(n, [(u, v, w + c) for u, v, w in edges])


def mwpm(graph: MatchGraph) -> Matching:
    """Globally minimum-weight perfect matching (exact)."""
    n = graph.n_nodes
    if n % 2 != 0:
        raise MatchingError(f"odd node count {n}")
    if n == 0:
        return Matching(pairs=(), total_weight=0.0)
    max_w = max((w for _, _, w in graph.edges), default=0.0)
    mate = max_cardinality_matching(n, [(u, v, max_w - w) for u, v, w in graph.edges])
    pairs = []
    for v in range(n):
        if mate[v] == -1:
            raise MatchingError("no perfect matching exists")
        if v < mate[v]:
            pairs.append((v, mate[v]))
    weight_of = {}
    for u, v, w in graph.edges:
        key = (min(u, v), max(u, v))
        weight_of[key] = min(w, weight_of.get(key, math.inf))
    total = math.fsum(weight_of[p] for p in pairs)
    return Matching(pairs=tuple(pairs), total_weight=total)


def brute_force_mwpm(graph: MatchGraph) -> Matching:
    """Exhaustive minimum over all perfect matchings (test oracle)."""
    n = graph.n_nodes
    if n % 2 != 0:
        raise MatchingError(f"odd node count {n}")
    if n > 12:
        raise MatchingError(f"brute force limited to 12 nodes, got {n}")
    if n == 0:
        return Matching(pairs=(), total_weight=0.0)
    weight_of: dict[tuple[int, int], float] = {}
    for u, v, w in graph.edges:
        key = (min(u, v), max(u, v))
        weight_of[key] = min(w, weight_of.get(key, math.inf))

    best: list = [math.inf, None]

    def recurse(unmatched: list[int], chosen: list[tuple[int, int]], acc: float):
        if not unmatched:
            if acc < best[0]:
                best[0] = acc
                best[1] = list(chosen)
            return
        u = unmatched[0]
        rest = unmatched[1:]
        for idx, v in enumerate(rest):
            w = weight_of.get((min(u, v), max(u, v)))
            if w is None:
                continue
            chosen.append((u, v))
            recurse(rest[:idx] + rest[idx + 1:], chosen, acc + w)
            chosen.pop()

    recurse(list(range(n)), [], 0.0)
    if best[1] is None:
        raise MatchingError("no perfect matching exists")
    total = math.fsum(weight_of[(min(u, v), max(u, v))] for u, v in best[1])
    return Matching(pairs=tuple(sorted(best[1])), total_weight=total)


def solve_dp_all_subsets(comp: list[int], pos: list[int], nbr: list[list[int]],
                         wts: list[list[float]], bweight: list[float]) -> list[int]:
    """`decoder._solve_dp` over all 2^k subsets of the component, in
    increasing bit-mask order: each subset's lowest event goes to the
    boundary first, then pairs with partners by ascending position,
    replaced only when strictly lighter.  Returns the mate of each
    position, -1 for the unpaired."""
    k = len(comp)
    wmat = [[math.inf] * k for _ in range(k)]
    for a, u in enumerate(comp):
        row = wmat[a]
        for v, w in zip(nbr[u], wts[u]):
            row[pos[v]] = w
    full = 1 << k
    dp = [math.inf] * full
    choice: list = [None] * full
    dp[0] = 0.0
    for mask in range(1, full):
        a = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << a)
        best = dp[rest] + bweight[comp[a]]
        pick = -1
        row = wmat[a]
        m = rest
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            w = row[b]
            if w < math.inf:
                cand = dp[rest ^ (1 << b)] + w
                if cand < best:
                    best = cand
                    pick = b
        dp[mask] = best
        choice[mask] = pick
    mate = [-1] * k
    mask = full - 1
    while mask:
        a = (mask & -mask).bit_length() - 1
        pick = choice[mask]
        mask ^= 1 << a
        if pick >= 0:
            mate[a], mate[pick] = pick, a
            mask ^= 1 << pick
    return mate


# --- decoding --------------------------------------------------------------

def build_match_graph(events: list[tuple[int, int]], cache: MetricCache,
                      prune: bool = True) -> tuple[MatchGraph, list[str]]:
    """Augmented match graph over one graph type's events.

    Nodes 0..k-1 are the real events, k..2k-1 their boundary twins; twin
    pairs carry zero weight so unused twins absorb each other.  Returns
    the graph and the boundary side label per real node.
    """
    k = len(events)
    graph = MatchGraph(n_nodes=2 * k)
    sides = []
    bweight = []
    for cell, _t in events:
        w, side = cache.boundary_weight(cell)
        bweight.append(w)
        sides.append(side)
    for u in range(k):
        cu, tu = events[u]
        for v in range(u + 1, k):
            cv, tv = events[v]
            w = cache.pair_weight(cu, tu, cv, tv)
            if prune and w >= bweight[u] + bweight[v] - PRUNE_EPS:
                continue
            graph.add_edge(u, v, w)
    for u in range(k):
        graph.add_edge(u, k + u, bweight[u])
    for u in range(k):
        for v in range(u + 1, k):
            graph.add_edge(k + u, k + v, 0.0)
    return graph, sides


def dmax_table_reference(graph: LinkGraph, cells: list[int], b_max: float,
                         reach: int) -> list[list[list[float]]]:
    """wtab[a][b][t], 0 <= t <= reach: the d_max weight from (cells[a], 0)
    to (cells[b], t) for every node that a search from a settles within
    2 * b_max, inf elsewhere.  Every stabilizer is searched, and each
    search keeps its nodes of rounds t >= 0 only."""
    S = len(cells)
    stab_of_cell = {c: a for a, c in enumerate(cells)}
    wtab = [[[math.inf] * (reach + 1) for _ in range(S)] for _ in range(S)]
    for a in range(S):
        for d, (cell, t) in settled(graph, (cells[a], 0), 2.0 * b_max + 1e-9):
            if 0 <= t <= reach:
                wtab[a][stab_of_cell[cell]][t] = d
    return wtab


def _csr_rows(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry positions of the given CSR rows (concatenated) and each row's count."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts), counts


def path_sum_table_reference(graph: LinkGraph, source, targets, n: int) -> list[float]:
    """d_n weights from one source to every node of `targets` by the walk
    program on transitions between links: every pair of links e = (u -> v),
    f = (v -> x) of the source's breadth-first ball, for n = 2 those with
    x != u, is listed, and each step sums a link's weight over the
    transitions into it.  The same ball and the same walks as
    `metric.path_sum_table`, which sums the weight arriving at v once and,
    for n = 2, subtracts the reverse link's instead."""
    if not 0 <= n <= 2:
        raise ValueError("n must be in [0, 2]")
    links, half = graph.links, _T_SPAN // 2
    start = source[0] * _T_SPAN + source[1] + half
    codes = [cell * _T_SPAN + t + half for cell, t in targets]
    if start in codes:
        raise ValueError("source and target must differ")
    index = {start: 0}
    depth = [0]
    tail, head, prob = [], [], []
    missing = set(codes)
    l_max = 0
    frontier = [start]
    level = 0
    while frontier and ((missing and level < MAX_LINKS) or level < l_max + n):
        nxt = []
        for code in frontier:
            u = index[code]
            for p, _, step in links.get(code // _T_SPAN, ()):
                other = code + step
                v = index.get(other)
                if v is None:
                    v = index[other] = len(depth)
                    depth.append(level + 1)
                    nxt.append(other)
                    if other in missing and level < MAX_LINKS:
                        missing.discard(other)
                        l_max = level + 1
                tail.append(u)
                head.append(v)
                prob.append(p)
        frontier = nxt
        level += 1

    size, n_links = len(depth), len(tail)
    depth = np.array(depth)
    tail = np.array(tail, dtype=np.intp)
    head = np.array(head, dtype=np.intp)
    prob = np.array(prob, dtype=np.float64)
    ptr = np.concatenate(([0], np.cumsum(np.bincount(tail, minlength=size))))
    pos, fan = _csr_rows(ptr, head)
    src = np.repeat(np.arange(n_links), fan)
    dst = np.argsort(tail, kind="stable")[pos]
    if n == 2:
        keep = head[dst] != tail[src]
        src, dst = src[keep], dst[keep]
    total = np.zeros(size)
    w = np.where(tail == 0, prob, 0.0)
    for step in range(1, l_max + n + 1):
        if step > 1:
            w = np.bincount(dst, weights=w[src], minlength=n_links) * prob
        at_node = np.bincount(head, weights=w, minlength=size)
        window = (depth <= step) & (step <= depth + n)
        total[window] += at_node[window]

    out = []
    for y in codes:
        s = 0.0 if y in missing else total[index[y]]
        out.append(-math.log(s) if s > 0.0 else math.inf)
    return out


def _staircase_flip(lattice: Lattice, corr: np.ndarray,
                    cell_u: int, cell_v: int) -> None:
    """Toggle data qubits along the vertical-then-horizontal lattice path,
    one step at a time."""
    size = lattice.size
    i1, j1 = lattice.cell(cell_u)
    i2, j2 = lattice.cell(cell_v)
    for i in range(min(i1, i2), max(i1, i2), 2):
        corr[(i + 1) * size + j1] ^= 1
    for j in range(min(j1, j2), max(j1, j2), 2):
        corr[i2 * size + (j + 1)] ^= 1


def _boundary_flip(lattice: Lattice, corr: np.ndarray, cell: int, side: str) -> None:
    """Toggle data qubits straight out of a boundary side, one step at a time."""
    size = lattice.size
    i, j = lattice.cell(cell)
    if side == "left":
        for jj in range(j - 1, -1, -2):
            corr[i * size + jj] ^= 1
    elif side == "right":
        for jj in range(j + 1, size, 2):
            corr[i * size + jj] ^= 1
    elif side == "top":
        for ii in range(i - 1, -1, -2):
            corr[ii * size + j] ^= 1
    elif side == "bottom":
        for ii in range(i + 1, size, 2):
            corr[ii * size + j] ^= 1
    else:
        raise ValueError(f"unknown boundary side {side!r}")


def corrections_from_matching(matching: Matching, events: list[tuple[int, int]],
                              sides: list[str], lattice: Lattice) -> np.ndarray:
    """Data-qubit flip plane realizing a matching from build_match_graph."""
    k = len(events)
    corr = np.zeros(lattice.size * lattice.size, dtype=np.uint8)
    for u, v in matching.pairs:
        if u < k and v < k:
            _staircase_flip(lattice, corr, events[u][0], events[v][0])
        elif u < k <= v:
            _boundary_flip(lattice, corr, events[u][0], sides[u])
        elif v < k <= u:
            _boundary_flip(lattice, corr, events[v][0], sides[v])
    return corr


# --- link classes ----------------------------------------------------------

def _component_paulis(graph: str) -> dict[str, tuple[PauliOp, PauliOp]]:
    # The z graph (Z stabilizers) sees X components; the x graph sees Z.
    p = X if graph == "z" else Z
    ident = PauliOp(0, 0)
    return {"ctl": (p, ident), "tgt": (ident, p), "both": (p, p)}


def _injection_for(circuit: CompiledCircuit, proc: ErrorProcess, round_index: int):
    kind = proc.location[0]
    if kind == "cnot":
        gate = proc.location[1]
        # Merged components like "tgt+both" share a signature; inject any one.
        comp = proc.component.split("+")[0]
        pauli = _component_paulis(proc.graph)[comp]
        cells = (int(circuit.gate_ctl[gate]), int(circuit.gate_tgt[gate]))
        return make_injection([(round_index, cnot_phase(circuit, gate), cells, pauli)])
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
    return tuple(sorted(((c, dt - lo) for c, dt in sig), key=lambda e: (e[1], e[0])))


def propagated_processes(circuit: CompiledCircuit, model: ErrorModel,
                         signature=propagate_process):
    """(process, signature) for every process of
    `edge_analysis._signed_processes`, in its order, with each component's
    signature taken from `signature(circuit, process)` (by default
    propagate_process) and CNOT components of one gate merged by those
    signatures: the reference for the package's one-pass read of
    signatures from the fault table."""
    p_cnot = model.p2 * 4.0 / 15.0
    for graph in ("z", "x"):
        for gate in range(circuit.n_cnots):
            sigs: dict[tuple, list[str]] = {}
            for comp in ("ctl", "tgt", "both"):
                sig = signature(circuit, ErrorProcess(graph, ("cnot", gate), comp,
                                                      "4p2/15", p_cnot))
                if sig:
                    sigs.setdefault(sig, []).append(comp)
            for sig, comps in sigs.items():
                yield ErrorProcess(graph, ("cnot", gate), "+".join(comps),
                                   "4p2/15" if len(comps) == 1 else "8p2/15",
                                   len(comps) * p_cnot), sig
        procs = [ErrorProcess(graph, (f"idle{step}", cell), "flip", "2pI/3",
                              model.pI * 2.0 / 3.0)
                 for step in circuit.idle_steps for cell in circuit.data_idx.tolist()]
        procs += [ErrorProcess(graph, ("meas", cell), "flip", "pM", model.pM)
                  for cell in (circuit.z_idx if graph == "z" else circuit.x_idx).tolist()]
        for proc in procs:
            yield proc, signature(circuit, proc)


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
