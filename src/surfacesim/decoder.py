"""Window decoding: detection events -> matching -> corrections -> verdict.

The X and Z graphs are decoded independently.  Real detection events are
matched against each other or against their nearest spatial boundary;
the matching minimizes total separation under the chosen metric.

Separations come from tables built once per Decoder: the metric is
evaluated for every (stabilizer, stabilizer, round offset) within reach,
and per stabilizer for the boundary.  The circuit is periodic in time,
so these cover every event pair of every window, and decoding a window
evaluates no metric at all: candidate edges are table lookups between
time-sorted events.  Every metric is weights on a `metric.LinkGraph`:
the model's links for dmax and d0-d2, and for manhattan the unit-weight
grid of the lattice (`LinkGraph.grid`), whatever the model.  Reach
bounds the space and time separation (in sublattice units and rounds)
of a pair whose best single path can be lighter than two boundary
matches, since every link weighs at least as much as the lightest one.
Boundary weights are one `metric.boundary_distance` per stabilizer, a
search of the graph's time-free cell view, which gives the space-time
minimum bit for bit since exits do not depend on t; `boundary_weights`
computes them and holds the one rule for which graphs decode.  Each
metric then computes the pair weights from every source stabilizer and
writes their gains to the gain table (below):

* dmax and manhattan: one `metric.settled` search from the source, cut
  at twice its boundary weight b_a.  Each pair {a, c} is filled once, by
  its owner, the endpoint with the larger (b, index): a node (c, t) that
  the owner a settles gives entry (a, c, t) for t >= 0 and (c, a, -t)
  for t <= 0, since links are undirected and the circuit is periodic in
  time.  A pair is kept only if it is lighter than b_a + b_c, at most
  twice the owner's boundary weight, so the owner's search reaches every
  entry it can keep; an entry no owner reaches stays 0.0.
* d0-d2: one `metric.path_sum_table` call per graph, with every
  stabilizer as a source and its targets within reach.  It walks each
  source's breadth-first ball as a dynamic program over the last link
  taken; a step onto a link takes its probability times the weight that
  arrived at its near end, for d2 less the weight on its reverse link
  (no stepping back).  Sources form groups in stabilizer order, of about
  `metric.GROUP_LINKS` links; a group's balls are gathered one level
  of all of them per numpy pass and walked together, one numpy pass per
  step.

The one prune rule is the gain table's: gtab[a][c][dt] is the gain
(b_a + b_c) - w of an entry w < (b_a + b_c) - PRUNE_EPS, and 0.0 for
every other entry, so a kept gain is always above PRUNE_EPS.  No weight
is stored.  A pair with no kept entry shares one all-zero row, and equal
gains share one float.  The candidate builders read this table and
nothing else.

The match graph follows the virtual-twin construction: every real event
gets a virtual partner at its boundary weight, virtual nodes pair among
themselves at zero weight, and real-real edges heavier than the sum of
the two boundary weights are pruned (they can never improve an optimal
matching).  Each connected component of the surviving candidate graph
is solved exactly: a lone pair is matched (its edge survived the
prune), and every larger one gets a maximum-weight matching of the pair
gains b_u + b_v - w_uv: by dynamic programming over subsets up to
DP_MAX_NODES events, beyond that by the event-driven blossom solver in
`matching`.  Both take the same (n, edges) and maximize the same float
sum, so both return an optimum of one objective, but where optima tie
they may pick different ones, so the cutoff also fixes which optimum a
tie gets.  The DP solves only the subsets reachable from the whole
component, where each step removes the lowest event alone (to the
boundary) or with one neighbour above it; on the sparse components of
real windows that is about 4 / 6 / 9 / 12 of the 7 / 15 / 31 / 63
subsets of 3 / 4 / 5 / 6 events (d = 3, `d2`).

The candidate graph has two builders, chosen per graph by its event
count, and they differ only in how they find the kept pairs.  Below
ARRAY_MIN_EVENTS a Python scan over the time-sorted events looks each
pair within reach up in the gain table; from ARRAY_MIN_EVENTS on, numpy
does the same with a stable sort by round, every pair within reach from
one searchsorted/repeat pass and one gather from a dense copy of the
gain table (made on first use).  The scan costs about one step per pair
within reach, the arrays a fixed numpy overhead per call plus a little
per edge.  On standard-model windows (p = 0.6-1.4%, T = 4d and 10d) the
two cost the same at about 48 events at d = 5 (47 for d2, 59 for
manhattan); d = 3 graphs of such windows stay below 48 events, where
the scan builds the graph 1.4-9.9x faster (3.3-3.4x for each metric's
median graph), and every d = 7 or 9 graph is above the cutoff, where
the arrays build it 1.7-2.9x faster.

Each graph is matched alone, its events labelled by their positions in
the order `_graph_events` lists them (by stabilizer, then round).  Both
builders give per event a row of neighbour positions in scan order
(time order, equal rounds in position order) and one list of kept pairs
with their gains, read from the gain table.  One depth-first walk of the
rows gives the components, each event's component and its position in
it.  A component of three or more events gets its gain edges sorted by
position pair, out of the kept pairs by Python in a scan-built graph and
by one numpy sort over the graph's components in an array-built one
(`_sorted_gain_edges`).  Both solvers return a mate per position, which
one loop over the components turns into the graph's pairs and boundary
matches.  So every matching is the same whichever builder ran.

Corrections follow one chain rule, a canonical staircase (vertical leg
then horizontal leg) between matched points.  A boundary match runs from
the event's stabilizer to its twin, the grid point just past its recorded
boundary side, so its staircase runs straight out of that side.  Any such
chain is homologically equivalent to the maximum-probability path, so
the failure verdict is unchanged.  The data cells of each staircase are
listed once per Decoder, when its pair is first matched.  A graph's
correction plane is then one parity count over the listed cells of its
matched pairs and boundary-matched events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matching
from .edge_analysis import EdgeClassTable
from .lattice import Lattice
from .metric import METRICS, LinkGraph, boundary_distance, path_sum_table, settled
from .sim import PauliFrame, SyndromeHistory, _graph_events

DP_MAX_NODES = 6
ARRAY_MIN_EVENTS = 48
PRUNE_EPS = 1e-9


@dataclass
class DecodeOutcome:
    """Matched pairs, applied corrections and the logical verdict."""

    matches: dict[str, list[tuple] | None]
    corrections: dict[str, np.ndarray]  # data-cell flip plane per graph
    logical_x_failed: bool
    logical_z_failed: bool
    residual: dict[str, np.ndarray]  # data frame after correction, x and z planes


def boundary_weights(lg: LinkGraph) -> list[tuple[float, str]]:
    """Each stabilizer's (boundary weight, side) in one graph, in
    `Lattice.stabilizers` order; the one rule for which graphs decode.

    Refused: a link of weight 0, along which a search of the unbounded
    time axis would never finish settling; and, in a graph with links, a
    stabilizer with no path to a boundary (a readout-only model, or rates
    too small for some space links), whose inf weight would make the
    tables' reach and the dmax cut unbounded."""
    if lg.w_min == 0.0:
        raise ValueError(f"{lg.graph} graph has a link of probability 1 (weight 0)")
    lat = lg.lattice
    stabs = lat.stabilizers(lg.graph)
    bw = [boundary_distance(lg, (lat.index(c), 0)) for c in stabs]
    stuck = [c for c, (b, _) in zip(stabs, bw) if b == math.inf]
    if lg.links and stuck:
        raise ValueError(f"{lg.graph} graph has links but no path from its "
                         f"stabilizer at {stuck[0]} to a boundary link")
    return bw


class Decoder:
    """Reusable decoder for one (lattice, schedule, model, metric) setup.

    Construction precomputes, per graph, the per-stabilizer boundary
    weights and sides and the gain table gtab[a][b][dt] over all
    stabilizer pairs within pruning reach (see the module docstring).
    Decoding a window then reads only these tables: candidate edges are
    table lookups, followed by small exact matchings, and corrections are
    lists of staircase cells.  A graph `boundary_weights` refuses raises.
    """

    def __init__(self, table: EdgeClassTable, metric: str = "dmax"):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
        self.lattice = table.lattice
        self.metric = metric
        self._tables = {g: self._precompute(LinkGraph.grid(self.lattice, g)
                                            if metric == "manhattan" else LinkGraph(table, g))
                        for g in ("x", "z")}
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
        sub = [lat.sublattice_coord(c) for c in stabs]
        w_min = lg.w_min
        bvals, bsides = map(list, zip(*boundary_weights(lg)))
        # An edge no lighter than two boundary matches is pruned.  Every
        # link weighs at least w_min and moves at most one sublattice unit
        # per axis and one round, so no single path of a pair more than
        # 2 * b_max / w_min apart in space or time is that light; the
        # tables end there.
        b_max = max(bvals)
        reach = max(1, math.ceil(2.0 * b_max / w_min)) if math.isfinite(w_min) else 1

        R = reach + 1
        # The one prune rule: gtab[a][c][dt] is the gain (b_a + b_c) - w of
        # an entry w lighter than b_a + b_c - PRUNE_EPS, else 0.0.  The
        # fills compute each w and write only its gain, through keep().
        zero = [0.0] * R
        gtab = [[zero] * S for _ in range(S)]
        gains: dict[float, float] = {}

        def keep(a: int, c: int, dt: int, gain: float) -> None:
            # A pair with no kept entry shares `zero`, and equal gains share
            # one float: a large table holds few distinct values.
            row = gtab[a][c]
            if row is zero:
                row = gtab[a][c] = [0.0] * R
            row[dt] = gains.setdefault(gain, gain)

        if self.metric in ("dmax", "manhattan"):
            # Sources run in (b, index) order: when the fill reaches source
            # a, `owned` holds the cells of a and of every stabilizer
            # before it, whose pairs with a are a's to fill.
            owned: dict[int, int] = {}
            for a in sorted(range(S), key=lambda a: (bvals[a], a)):
                ba = bvals[a]
                # a's search, cut at 2 * b_a, fills both orientations of
                # each pair a owns.
                owned[cells[a]] = a
                for d, (cell, t) in settled(lg, (cells[a], 0), 2.0 * ba):
                    c = owned.get(cell)
                    if c is None or not -reach <= t <= reach:
                        continue
                    bsum = ba + bvals[c]
                    if d < bsum - PRUNE_EPS:
                        if t >= 0:
                            keep(a, c, t, bsum - d)
                        if t <= 0 and c != a:
                            keep(c, a, -t, bsum - d)
        else:
            targets = [[(b, dt) for b in range(S)
                        if max(abs(sub[a][0] - sub[b][0]), abs(sub[a][1] - sub[b][1])) <= reach
                        for dt in range(R) if (b, dt) != (a, 0)] for a in range(S)]
            weights = path_sum_table(
                lg, [((cells[a], 0), [(cells[b], dt) for b, dt in targets[a]])
                     for a in range(S)], int(self.metric[1]))
            for a in range(S):
                for (c, dt), w in zip(targets[a], weights[a]):
                    bsum = bvals[a] + bvals[c]
                    if w < bsum - PRUNE_EPS:
                        keep(a, c, dt, bsum - w)
        return {"cells": cells, "bvals": bvals, "bsides": bsides, "gtab": gtab,
                "reach": reach, "stairs": _Staircases(lat, cells, bsides)}

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
            stabs, ts = _graph_events(history, graph)
            pairs, bd = _match_graph(tab, stabs, ts)
            cells, bsides = tab["cells"], tab["bsides"]
            stairs, S = tab["stairs"], len(cells)
            flips: list[int] = []
            for u, v in pairs:
                flips += stairs[stabs[u], stabs[v]]
            for u in bd:
                flips += stairs[stabs[u], S + stabs[u]]
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


def _match_graph(tab: dict, stabs: list[int], ts: list[int]):
    """Match one graph's events, given as parallel lists of stabilizer
    indices and rounds; returns (real pairs, boundary-matched events) as
    positions in those lists.

    Candidate pairs are scanned in time order, but events keep their
    positions as labels: exact ties between optimal matchings are
    resolved by label order, so decode passes events in scan order (by
    stabilizer, then round) to keep every verdict reproducible.
    """
    if len(stabs) < ARRAY_MIN_EVENTS:
        nbr, kept = _scan_graph(tab, stabs, ts)
        comps, cid, pos = _components(nbr)
        # Each solved component's edges as (a, b, gain) over positions
        # a < b, sorted by position pair (the edge order breaks exact ties).
        gain_edges = {c: [] for c, comp in enumerate(comps) if len(comp) > 2}
        for u, v, g in kept:
            edges = gain_edges.get(cid[u])
            if edges is not None:
                a, b = pos[u], pos[v]
                edges.append((a, b, g) if a < b else (b, a, g))
        for edges in gain_edges.values():
            edges.sort()
    else:
        nbr, kept = _array_graph(tab, stabs, ts)
        comps, cid, pos = _components(nbr)
        gain_edges = _sorted_gain_edges(kept, comps, cid, pos)

    pairs: list[tuple[int, int]] = []
    boundary: list[int] = []
    for c, comp in enumerate(comps):
        n = len(comp)
        if n == 1:
            boundary.append(comp[0])
        elif n == 2:
            pairs.append((comp[0], comp[1]))
        else:
            # Both solvers are looked up at call time, so a patched solver
            # (the bench's span tracer) is the one called.
            if n <= DP_MAX_NODES:
                mate = _solve_dp(n, gain_edges[c])
            else:
                mate = matching._max_weight_matching(n, gain_edges[c])
            for a, b in enumerate(mate):
                if b < 0:
                    boundary.append(comp[a])
                elif a < b:
                    pairs.append((comp[a], comp[b]))
    return pairs, boundary


def _scan_graph(tab: dict, stabs: list[int], ts: list[int]):
    """The candidate graph of a few events, by a Python scan over the
    time-sorted events; returns its neighbour rows (nbr[u] lists the other
    event of each candidate edge of event u, in scan order) and its kept
    pairs as (u, v, gain).  This order fixes the component order, and so
    tie order."""
    k = len(stabs)
    gtab, reach = tab["gtab"], tab["reach"]
    order = sorted(range(k), key=ts.__getitem__)
    st = [stabs[u] for u in order]
    tt = [ts[u] for u in order]
    nbr: list[list[int]] = [[] for _ in range(k)]
    kept: list[tuple[int, int, float]] = []
    for i in range(k):
        row = gtab[st[i]]
        ti = tt[i]
        u = order[i]
        nu = nbr[u]
        for j in range(i + 1, k):
            dt = tt[j] - ti
            if dt > reach:
                break
            # Pairs beyond Chebyshev reach hold no gain, so the table
            # lookup also does the spatial cut.
            g = row[st[j]][dt]
            if g:
                v = order[j]
                nu.append(v)
                nbr[v].append(u)
                kept.append((u, v, g))
    return nbr, kept


def _array_graph(tab: dict, stabs: list[int], ts: list[int]):
    """The same neighbour rows for many events, from numpy arrays; also
    returns the kept pairs as arrays (u, v, gain) for
    `_sorted_gain_edges`."""
    k = len(stabs)
    reach = tab["reach"]
    S, R = len(tab["cells"]), reach + 1
    dense = _dense_gains(tab)
    t = np.array(ts, dtype=np.intp)
    order = np.argsort(t, kind="stable")
    tt = t[order]
    st = np.array(stabs, dtype=np.intp)[order]
    # Every pair (i, j), i < j in scan order, at most reach rounds apart,
    # ordered as the scan visits them; gtab[st_i][st_j][tt_j - tt_i] is
    # dense[key_i + key_j] with the keys below.
    idx = np.arange(k)
    cnt = np.searchsorted(tt, tt + reach, side="right") - idx - 1
    i = np.repeat(idx, cnt)
    j = np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt - idx - 1, cnt)
    key_i, key_j = st * (S * R) - tt, st * R + tt
    g = dense[key_i[i] + key_j[j]]
    keep = np.flatnonzero(g)
    i, j = i[keep], j[keep]
    u, v = order[i], order[j]
    # Rows by event, each row's neighbours in scan order: the order in
    # which the scan appends them.
    src = np.concatenate([u, v])
    dst = np.concatenate([j, i])
    perm = np.argsort(src * k + dst)
    ptr = [0, *np.cumsum(np.bincount(src, minlength=k)).tolist()]
    nl = order[dst[perm]].tolist()
    return [nl[s:e] for s, e in zip(ptr, ptr[1:])], (u, v, g[keep])


def _dense_gains(tab: dict) -> np.ndarray:
    """The graph's gain table raveled into one array, made on first use: a
    decoder that meets only small graphs never pays for it."""
    if "dense" not in tab:
        tab["dense"] = np.array(tab["gtab"], dtype=float).ravel()
    return tab["dense"]


def _sorted_gain_edges(kept, comps: list[list[int]], cid: list[int], pos: list[int]):
    """The gain edges of every component of three or more events that
    holds kept pairs of `_array_graph`, keyed by component index: one sort
    orders them all by (component, lower position, upper position)."""
    solved = [len(comp) > 2 for comp in comps]
    if not any(solved):
        return {}
    k = len(cid)
    u, v, gain = kept
    cid, pos = np.array(cid), np.array(pos)
    sel = np.flatnonzero(np.array(solved)[cid[u]])
    u, v, gain = u[sel], v[sel], gain[sel]
    cu, pu, pv = cid[u], pos[u], pos[v]
    a, b = np.minimum(pu, pv), np.maximum(pu, pv)
    o = np.argsort((cu * k + a) * k + b)
    rows = list(zip(a[o].tolist(), b[o].tolist(), gain[o].tolist()))
    counts = np.bincount(cu, minlength=len(comps))
    held = np.flatnonzero(counts)
    ends = np.cumsum(counts[held]).tolist()
    return {c: rows[s:e] for c, s, e in zip(held.tolist(), [0, *ends], ends)}


def _components(nbr: list[list[int]]):
    """Connected components of the candidate graph, each in depth-first
    discovery order from its lowest event; also returns each event's
    component index and position in its component."""
    cid = [-1] * len(nbr)
    pos = [0] * len(nbr)
    comps: list[list[int]] = []
    for start in range(len(nbr)):
        if cid[start] >= 0:
            continue
        c = len(comps)
        comp = [start]
        cid[start] = c
        stack = [start]
        while stack:
            for v in nbr[stack.pop()]:
                if cid[v] < 0:
                    cid[v] = c
                    pos[v] = len(comp)
                    comp.append(v)
                    stack.append(v)
        comps.append(comp)
    return comps, cid, pos


def _solve_dp(n: int, edges: list[tuple[int, int, float]]) -> list[int]:
    """Exact maximum of the summed gains of a matching of n positions, by
    dynamic programming over subsets; edges are (a, b, gain), a < b,
    sorted by position pair, as `_match_graph` gives them.
    Returns the mate of each position, -1 for the unmatched, as
    `matching._max_weight_matching` does on the same edges.

    A subset's lowest position stays unmatched (goes to the boundary) or
    pairs with a neighbour above it that is still in the subset, so only
    the subsets reachable from all n positions by such steps are solved,
    in increasing bit-mask order.  Each is solved with the boundary first,
    then partners by ascending position, replaced only when the gain is
    strictly larger: exact ties go to the earliest choice."""
    # Per position, (bit, gain) of each neighbour above it, by position.
    up: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, g in edges:
        up[a].append((1 << b, g))
    full = (1 << n) - 1
    # Every step clears bits, so a top-down sweep marks all reachable masks.
    seen = [False] * full + [True]
    masks = []
    for mask in range(full, 0, -1):
        if seen[mask]:
            masks.append(mask)
            low = mask & -mask
            rest = mask ^ low
            seen[rest] = True
            for bit, _ in up[low.bit_length() - 1]:
                if rest & bit:
                    seen[rest ^ bit] = True
    dp = [0.0] * (full + 1)
    choice = [0] * (full + 1)  # the partner's bit, 0 for the boundary
    for mask in reversed(masks):
        low = mask & -mask
        rest = mask ^ low
        best = dp[rest]
        pick = 0
        for bit, g in up[low.bit_length() - 1]:
            if rest & bit:
                cand = dp[rest ^ bit] + g
                if cand > best:
                    best = cand
                    pick = bit
        dp[mask] = best
        choice[mask] = pick
    mate = [-1] * n
    mask = full
    while mask:
        low = mask & -mask
        pick = choice[mask]
        mask ^= low | pick
        if pick:
            a, b = low.bit_length() - 1, pick.bit_length() - 1
            mate[a], mate[b] = b, a
    return mate


class _Staircases(dict):
    """Data cells of the staircase from point a to point b, keyed (a, b)
    and filled on first use: the vertical leg runs in a's column, then the
    horizontal leg in b's row.  Point S + a is stabilizer a's twin, just
    past its boundary side, so (a, S + a) runs straight out of that side."""

    def __init__(self, lattice: Lattice, cells: list[int], sides: list[str]):
        super().__init__()
        size = self.size = lattice.size
        stabs = [lattice.cell(c) for c in cells]
        self.coords = stabs + [{"left": (i, -1), "right": (i, size), "top": (-1, j),
                                "bottom": (size, j)}[side]
                               for (i, j), side in zip(stabs, sides)]

    def __missing__(self, key: tuple[int, int]) -> list[int]:
        (i1, j1), (i2, j2) = self.coords[key[0]], self.coords[key[1]]
        size = self.size
        chain = self[key] = [
            *range((min(i1, i2) + 1) * size + j1, (max(i1, i2) + 1) * size + j1, 2 * size),
            *range(i2 * size + min(j1, j2) + 1, i2 * size + max(j1, j2) + 1, 2)]
        return chain


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
