"""Window decoding: detection events -> matching -> corrections -> verdict.

The X and Z graphs are decoded independently.  Real detection events are
matched against each other or against their nearest spatial boundary;
the matching minimizes total separation under the chosen metric.

Separations come from tables built once per Decoder: the metric is
evaluated for every (stabilizer, stabilizer, round offset) within reach,
and per stabilizer for the boundary.  The circuit is periodic in time,
so these cover every event pair of every window, and decoding a window
evaluates no metric at all: candidate edges are table lookups between
time-sorted events.  Reach bounds the space and time separation (in
sublattice units and rounds) of a pair whose best single path can be
lighter than two boundary matches, since every link weighs at least as
much as the most probable one.  One loop over source stabilizers fills
the pair table of every metric:

* dmax: every node `metric.settled` reaches within twice the largest
  boundary weight;
* d0-d2: one `metric.path_sum_table` walk program over every target
  within reach;
* manhattan: the closed form over the same targets.

Boundary weights are one `metric.boundary_distance` search per
stabilizer (`Lattice.nearest_boundary` for manhattan).  The tables keep
every weight they compute: the one prune rule is the candidate scan's,
below.

The match graph follows the virtual-twin construction: every real event
gets a virtual partner at its boundary weight, virtual nodes pair among
themselves at zero weight, and real-real edges heavier than the sum of
the two boundary weights are pruned (they can never improve an optimal
matching).  The candidate scan keeps the surviving edges as one
adjacency list per event, which the component split and both solvers
read directly.  Each connected component is solved exactly: a lone pair
is matched (its edge survived the prune), clusters of up to DP_MAX_NODES
events go to dynamic programming over subsets, larger ones to a
maximum-weight matching of pair gains by the event-driven blossom solver
in `matching`.  The cutoff is where the two cost the same on components
from real windows: the DP doubles its work per added event, blossom
grows slowly.  Both routes return the same optimum as blossom
on the full graph.

Corrections follow a canonical staircase (vertical leg then horizontal
leg) between matched stabilizers, or run straight out of the recorded
boundary side; any such chain is homologically equivalent to the
maximum-probability path, so the failure verdict is unchanged.  The data
cells of each chain are listed once per Decoder: the boundary chain of
every stabilizer at construction, the staircase of an ordered stabilizer
pair when it is first matched.  A graph's correction plane is then one
parity count over the listed cells of its matched pairs and
boundary-matched events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matching
from .edge_analysis import EdgeClassTable
from .lattice import Lattice
from .metric import LinkGraph, boundary_distance, manhattan, path_sum_table, settled
from .sim import PauliFrame, SyndromeHistory, _graph_events

DP_MAX_NODES = 6
PRUNE_EPS = 1e-9


@dataclass
class DecodeOutcome:
    """Matched pairs, applied corrections and the logical verdict."""

    matches: dict[str, list[tuple] | None]
    corrections: dict[str, np.ndarray]  # data-cell flip plane per graph
    logical_x_failed: bool
    logical_z_failed: bool
    residual: dict[str, np.ndarray] | None = None


class Decoder:
    """Reusable decoder for one (lattice, schedule, model, metric) setup.

    Construction precomputes, per graph, the pair-weight table
    wtab[a][b][dt] over all stabilizer pairs within pruning reach, the
    per-stabilizer boundary weights and the boundary chains (see the
    module docstring).  Decoding a window then reads only these tables:
    candidate edges are table lookups, followed by small exact matchings,
    and corrections are lists of chain cells.
    """

    def __init__(self, table: EdgeClassTable, metric: str = "dmax"):
        self.lattice = table.lattice
        self.metric = metric
        self._tables = {g: self._precompute(LinkGraph(table, g)) for g in ("x", "z")}
        lat = self.lattice
        self._lx = np.array([lat.index(c) for c in lat.logical_x_support], dtype=np.intp)
        self._lz = np.array([lat.index(c) for c in lat.logical_z_support], dtype=np.intp)

    def _precompute(self, lg: LinkGraph) -> dict:
        """Per-stabilizer tables of one graph, as plain Python lists: the
        decode loop indexes them per candidate pair, where list lookups
        are much cheaper than numpy scalar indexing."""
        lat = self.lattice
        stabs = lat.stabilizers(lg.graph)
        S = len(stabs)
        cells = [lat.index(c) for c in stabs]
        stab_of_cell = {c: a for a, c in enumerate(cells)}
        sub = [lat.sublattice_coord(c) for c in stabs]
        probs = [p for links in lg.links.values() for _, _, p, _, _ in links]
        w_min = -math.log(max(probs)) if probs else math.inf
        if self.metric == "manhattan":
            bw = [lat.nearest_boundary(c) for c in stabs]
            w_min = 1.0
        elif probs and not lg.exits:
            # Each boundary weight would be a search of the unbounded time
            # axis for a boundary link that does not exist.
            raise ValueError(f"{lg.graph} graph has links but no boundary link "
                             f"of positive probability")
        elif w_min == 0.0:
            # A link of weight 0 makes steps along it free; along the
            # unbounded time axis a search would never finish settling.
            raise ValueError(f"{lg.graph} graph has a link of probability 1 "
                             f"(weight 0)")
        else:
            bw = [boundary_distance(lg, (c, 0)) for c in cells]
        bvals = [float(w) for w, _ in bw]
        bsides = [side for _, side in bw]
        bchains = [_boundary_chain(lat, c, side) for c, side in zip(cells, bsides)]
        # An edge no lighter than two boundary matches is pruned.  Every
        # link weighs at least w_min (one unit for manhattan) and moves at
        # most one sublattice unit per axis and one round, so no single
        # path of a pair more than 2 * b_max / w_min apart in space or
        # time is that light; the tables end there.
        b_max = max(bvals)
        reach = max(1, math.ceil(2.0 * b_max / w_min)) if math.isfinite(w_min) else 1

        wtab = [[[math.inf] * (reach + 1) for _ in range(S)] for _ in range(S)]
        for a in range(S):
            row = wtab[a]
            if self.metric == "dmax":
                # Nodes in earlier rounds are settled too; only 0 <= t is
                # a table entry.
                for d, (cell, t) in settled(lg, (cells[a], 0), 2.0 * b_max + 1e-9):
                    if 0 <= t <= reach:
                        row[stab_of_cell[cell]][t] = d
                continue
            targets = [(b, dt) for b in range(S)
                       if max(abs(sub[a][0] - sub[b][0]), abs(sub[a][1] - sub[b][1])) <= reach
                       for dt in range(reach + 1) if (b, dt) != (a, 0)]
            if self.metric == "manhattan":
                weights = [manhattan((*sub[a], 0), (*sub[b], dt)) for b, dt in targets]
            else:
                weights = path_sum_table(
                    lg, (cells[a], 0), [(cells[b], dt) for b, dt in targets],
                    int(self.metric[1]))
            for (b, dt), w in zip(targets, weights):
                row[b][dt] = w
        return {"cells": cells, "bvals": bvals, "bsides": bsides,
                "wtab": wtab, "reach": reach,
                "stairs": _Staircases(lat, cells), "bchains": bchains}

    def decode(self, history: SyndromeHistory, frame: PauliFrame,
               verify: bool = False, collect_matches: bool = True) -> DecodeOutcome:
        """Match both graphs' detection events and judge the window.

        With collect_matches unset, `matches` holds None per graph; the
        corrections and the verdict are the same either way.
        """
        lat = self.lattice
        matches: dict[str, list[tuple] | None] = {}
        corrections: dict[str, np.ndarray] = {}
        for graph in ("x", "z"):
            tab = self._tables[graph]
            cells, bsides = tab["cells"], tab["bsides"]
            stairs, bchains = tab["stairs"], tab["bchains"]
            stabs, ts = _graph_events(history, graph)
            pairs, bd = self._match_graph_events(graph, stabs, ts)
            flips: list[int] = []
            for u, v in pairs:
                flips += stairs[stabs[u], stabs[v]]
            for u in bd:
                flips += bchains[stabs[u]]
            corrections[graph] = (np.bincount(flips, minlength=lat.size * lat.size)
                                  & 1).astype(np.uint8)
            if collect_matches:
                events = [(cells[a], t) for a, t in zip(stabs, ts)]
                matches[graph] = [(events[u], events[v]) for u, v in pairs]
                matches[graph] += [(events[u], bsides[stabs[u]]) for u in bd]
            else:
                matches[graph] = None

        res_x = frame.x ^ corrections["z"]  # the z graph tracks data X errors
        res_z = frame.z ^ corrections["x"]
        x_failed = bool(int(res_z[self._lx].sum()) % 2)
        z_failed = bool(int(res_x[self._lz].sum()) % 2)

        if verify:
            _assert_trivial_syndrome(lat, res_x, res_z)

        return DecodeOutcome(
            matches=matches, corrections=corrections,
            logical_x_failed=x_failed, logical_z_failed=z_failed,
            residual={"x": res_x, "z": res_z})

    def _match_graph_events(self, graph: str, stabs: list[int], ts: list[int]):
        """Match one graph's events, given as parallel lists of stabilizer
        indices and rounds; returns (real pairs, boundary-matched events)
        as positions in those lists.

        Candidate pairs are scanned in time order, but events keep their
        given positions as labels: exact ties between optimal matchings
        are resolved by label order, so decode passes events in scan order
        (by stabilizer, then round) to keep every verdict reproducible.
        """
        k = len(stabs)
        tab = self._tables[graph]
        wtab, reach, bvals = tab["wtab"], tab["reach"], tab["bvals"]
        bweight = [bvals[a] for a in stabs]
        order = sorted(range(k), key=ts.__getitem__)
        st = [stabs[u] for u in order]
        tt = [ts[u] for u in order]
        bt = [bweight[u] for u in order]
        # nbrs[u] lists (v, weight) per candidate edge of event u, in scan
        # order; this order fixes the component order, and so tie order.
        nbrs: list[list[tuple[int, float]]] = [[] for _ in range(k)]
        for i in range(k):
            row = wtab[st[i]]
            ti = tt[i]
            bi = bt[i]
            u = order[i]
            nu = nbrs[u]
            for j in range(i + 1, k):
                dt = tt[j] - ti
                if dt > reach:
                    break
                # Pairs beyond Chebyshev reach hold inf, so the table
                # lookup also does the spatial cut.
                w = row[st[j]][dt]
                if w < bi + bt[j] - PRUNE_EPS:
                    v = order[j]
                    nu.append((v, w))
                    nbrs[v].append((u, w))

        pairs: list[tuple[int, int]] = []
        boundary: list[int] = []
        pos = [0] * k
        for comp in _components(nbrs):
            n = len(comp)
            if n == 1:
                boundary.append(comp[0])
                continue
            if n == 2:
                pairs.append((comp[0], comp[1]))
                continue
            for a, u in enumerate(comp):
                pos[u] = a
            solve = _solve_dp if n <= DP_MAX_NODES else _solve_blossom
            local_pairs, local_bd = solve(comp, nbrs, pos, bweight)
            pairs.extend(local_pairs)
            boundary.extend(local_bd)
        return pairs, boundary


def _components(nbrs: list[list[tuple[int, float]]]) -> list[list[int]]:
    """Connected components of the candidate graph, each in depth-first
    discovery order from its lowest event."""
    seen = [False] * len(nbrs)
    comps: list[list[int]] = []
    for start in range(len(nbrs)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            for v, _ in nbrs[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def _solve_dp(comp: list[int], nbrs: list[list[tuple[int, float]]],
              pos: list[int], bweight: list[float]):
    """Exact minimum of sum(pair weights) + sum(boundary weights of the
    unpaired) over all pairings of one component, by dynamic programming
    over subsets; pos[u] is event u's position in comp."""
    k = len(comp)
    wmat = [[math.inf] * k for _ in range(k)]
    for a, u in enumerate(comp):
        row = wmat[a]
        for v, w in nbrs[u]:
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
    pairs = []
    bd = []
    mask = full - 1
    while mask:
        a = (mask & -mask).bit_length() - 1
        pick = choice[mask]
        if pick < 0:
            bd.append(comp[a])
            mask ^= 1 << a
        else:
            pairs.append((comp[a], comp[pick]))
            mask ^= (1 << a) | (1 << pick)
    return pairs, bd


def _solve_blossom(comp: list[int], nbrs: list[list[tuple[int, float]]],
                   pos: list[int], bweight: list[float]):
    """The same minimum in reduced form: maximize the gains
    (b_u + b_v - w_uv) of matched pairs.

    A maximum-weight (not perfect) matching over positive gains minimizes
    sum(pair weights) + sum(boundary weights of the unmatched), exactly the
    virtual-twin objective, without the zero-weight twin clique.
    """
    redges = []
    for a, u in enumerate(comp):
        bu = bweight[u]
        for v, w in nbrs[u]:
            b = pos[v]
            if a < b:
                redges.append((a, b, bu + bweight[v] - w))
    redges.sort()  # by position pair; the edge order breaks exact ties
    # Looked up on the module at call time, so a patched solver (the
    # bench's span tracer) is the one called.
    mate = matching._max_weight_matching(len(comp), redges)
    pairs = []
    bd = []
    for a, u in enumerate(comp):
        if mate[a] == -1:
            bd.append(u)
        elif a < mate[a]:
            pairs.append((u, comp[mate[a]]))
    return pairs, bd


class _Staircases(dict):
    """Data cells of the staircase between stabilizers a and b (indices
    into `cells`), keyed (a, b) and filled on first use: the vertical leg
    runs in a's column, then the horizontal leg in b's row."""

    def __init__(self, lattice: Lattice, cells: list[int]):
        super().__init__()
        self.size = lattice.size
        self.coords = [lattice.cell(c) for c in cells]

    def __missing__(self, key: tuple[int, int]) -> list[int]:
        (i1, j1), (i2, j2) = self.coords[key[0]], self.coords[key[1]]
        size = self.size
        chain = self[key] = [
            *range((min(i1, i2) + 1) * size + j1, (max(i1, i2) + 1) * size + j1, 2 * size),
            *range(i2 * size + min(j1, j2) + 1, i2 * size + max(j1, j2) + 1, 2)]
        return chain


def _boundary_chain(lattice: Lattice, cell: int, side: str) -> list[int]:
    """Data cells from a stabilizer straight out of its boundary side."""
    size = lattice.size
    i, j = lattice.cell(cell)
    steps = {"left": (i * size + j - 1, i * size - 1, -2),
             "right": (i * size + j + 1, (i + 1) * size, 2),
             "top": ((i - 1) * size + j, j - size, -2 * size),
             "bottom": ((i + 1) * size + j, size * size, 2 * size)}
    if side not in steps:
        raise ValueError(f"unknown boundary side {side!r}")
    return list(range(*steps[side]))


def _assert_trivial_syndrome(lattice: Lattice, res_x: np.ndarray,
                             res_z: np.ndarray) -> None:
    for stab in lattice.z_stabilizers:
        parity = sum(int(res_x[lattice.index(q)]) for q in lattice.supports[stab]) % 2
        if parity:
            raise AssertionError(f"residual X syndrome at {stab}")
    for stab in lattice.x_stabilizers:
        parity = sum(int(res_z[lattice.index(q)]) for q in lattice.supports[stab]) % 2
        if parity:
            raise AssertionError(f"residual Z syndrome at {stab}")
