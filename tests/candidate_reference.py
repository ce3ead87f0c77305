"""The Python scan that built the decoder's candidate graph before
`candidate_graph` in `surfacesim/_blossom.c`: the oracle for the
kernel's components and gain edges, order for order.

`match_graph` is `decoder._match_graph` as it ran with the scan route,
and `_scan_graph` and `_components` are kept as they were.  It reads the
decoder's gain table through `nested_gains`, hands each solver its edges
as (m, 3) float64 rows, the solvers' one contract, and looks both solvers
up at call time, as the decoder does, so a test's patched solver sees
its calls.  `solver_rows` turns a solver's edges back into tuples, the
form tests record and compare.
"""

from __future__ import annotations

import numpy as np

from surfacesim import decoder, matching


def nested_gains(tab: dict) -> list[list[list[float]]]:
    """A graph's flat gain table as nested rows: gtab[a][c][dt] is entry
    (a * S + c) * R + dt."""
    gains, S, R = tab["gains"].tolist(), len(tab["cells"]), tab["reach"] + 1
    return [[gains[(a * S + c) * R:(a * S + c + 1) * R] for c in range(S)] for a in range(S)]


def solver_rows(edges) -> list[tuple[int, int, float]]:
    """A solver's edges, (a, b, gain) rows of an array or tuples, as
    tuples of Python numbers: positions int, gains the same doubles."""
    return [(int(a), int(b), g)
            for a, b, g in np.asarray(edges, dtype=float).reshape(-1, 3).tolist()]


def match_graph(tab: dict, stabs: list[int], ts: list[int]):
    """Match one graph's events, given as parallel lists of stabilizer
    indices and rounds; returns (real pairs, boundary-matched events) as
    positions in those lists."""
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

    pairs: list[tuple[int, int]] = []
    boundary: list[int] = []
    for c, comp in enumerate(comps):
        n = len(comp)
        if n == 1:
            boundary.append(comp[0])
        elif n == 2:
            pairs.append((comp[0], comp[1]))
        else:
            edges = np.array(gain_edges[c], dtype=float).reshape(-1, 3)
            if n <= decoder.DP_MAX_NODES:
                mate = decoder._solve_dp(n, edges)
            else:
                mate = matching._max_weight_matching(n, edges)
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
    gtab, reach = nested_gains(tab), tab["reach"]
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
