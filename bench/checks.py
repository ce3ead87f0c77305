"""Output checks that count a decoded window as a failed operation.

* `residual_ok`: the corrected frame leaves every stabilizer satisfied.
* `band_ok`: a phase's logical failure count lies in a wide binomial band
  around the workload's reference rate, which catches a decoder made fast
  by being wrong.
* `MatchingOracle`: the decoder's matching objective equals the optimum of
  the reduced gain graph solved by networkx, with weights taken from the
  public metric functions rather than the decoder's caches.
"""

from __future__ import annotations

import math
from collections import Counter

from surfacesim.metric import LinkGraph, boundary_distance, d_max, d_n
from surfacesim.sim import detection_events

REL_TOL = 1e-9
BAND_Z = 5.0


def residual_ok(lattice, residual) -> bool:
    """Z stabilizers see residual X errors, X stabilizers residual Z errors."""
    for stabs, plane in ((lattice.z_stabilizers, residual["x"]),
                         (lattice.x_stabilizers, residual["z"])):
        for stab in stabs:
            if sum(int(plane[lattice.index(q)]) for q in lattice.supports[stab]) % 2:
                return False
    return True


def band_ok(fails: int, windows: int, rate: float, ref_windows: int) -> bool:
    """`fails` of `windows` within BAND_Z standard errors of the reference
    rate, counting the reference's own sampling error."""
    var = rate * (1.0 - rate) * (1.0 / windows + 1.0 / ref_windows)
    return abs(fails / windows - rate) <= BAND_Z * math.sqrt(var) + 1.0 / windows


class MatchingOracle:
    """Optimal matching objective of one window, computed independently.

    A pair (u, v) can only beat sending both events to the boundary when
    w_uv < b_u + b_v.  Pairs whose link-count lower bound already rules
    that out are not evaluated: a path needs at least
    max(ceil(cheb / s), ceil(|dt| / t)) links, each weighing at least
    w_min, where s and t are the largest spatial and time steps of any
    single link.  For d_max this bound is exact; for d_n, whose weight sums
    many paths, it is the same single-path bound the decoder prunes with.
    """

    def __init__(self, table, metric: str):
        if metric not in ("dmax", "d0", "d1", "d2"):
            raise ValueError(f"no oracle for metric {metric!r}")
        self.lattice = table.lattice
        self.metric = metric
        self.graphs = {g: LinkGraph(table, g) for g in ("x", "z")}
        self._pair: dict[tuple, float] = {}
        self._boundary: dict[tuple, float] = {}
        self._bound = {}
        for g in ("x", "z"):
            probs, s_max, t_max = [], 1, 1
            for (cu, cv, dt), cls in table.pair_classes[g].items():
                if cls.probability > 0.0:
                    probs.append(cls.probability)
                    s_max = max(s_max, self._cheb(cu, cv))
                    t_max = max(t_max, abs(dt))
            w_min = -math.log(max(probs)) if probs else math.inf
            self._bound[g] = (w_min, s_max, t_max)

    def _cheb(self, cu: int, cv: int) -> int:
        lat = self.lattice
        (a1, b1), (a2, b2) = (lat.sublattice_coord(lat.cell(c)) for c in (cu, cv))
        return max(abs(a1 - a2), abs(b1 - b2))

    def boundary(self, g: str, cell: int) -> float:
        key = (g, cell)
        if key not in self._boundary:
            self._boundary[key] = boundary_distance(self.graphs[g], (cell, 0))[0]
        return self._boundary[key]

    def pair(self, g: str, ev_u, ev_v) -> float:
        (cu, tu), (cv, tv) = ev_u, ev_v
        if tv < tu:
            (cu, tu), (cv, tv) = (cv, tv), (cu, tu)
        key = (g, cu, cv, tv - tu)
        if key not in self._pair:
            s1, s2 = (cu, 0), (cv, tv - tu)
            if self.metric == "dmax":
                w = d_max(self.graphs[g], s1, s2)
            else:
                w = d_n(self.graphs[g], s1, s2, int(self.metric[1]))[0]
            self._pair[key] = w
        return self._pair[key]

    def optimum(self, g: str, events) -> float:
        import networkx as nx
        w_min, s_max, t_max = self._bound[g]
        b = [self.boundary(g, c) for c, _ in events]
        reach = 2 * max(b, default=0.0)
        order = sorted(range(len(events)), key=lambda u: events[u][1])
        gains = nx.Graph()
        gains.add_nodes_from(range(len(events)))
        for i, u in enumerate(order):
            for v in order[i + 1:]:
                dt = events[v][1] - events[u][1]
                if math.ceil(dt / t_max) * w_min >= reach:
                    break
                links = max(math.ceil(self._cheb(events[u][0], events[v][0]) / s_max),
                            math.ceil(dt / t_max))
                if links * w_min >= b[u] + b[v]:
                    continue
                gain = b[u] + b[v] - self.pair(g, events[u], events[v])
                if gain > 0.0:
                    gains.add_edge(u, v, weight=gain)
        mate = nx.max_weight_matching(gains, maxcardinality=False)
        return sum(b) - sum(gains[u][v]["weight"] for u, v in mate)

    def check(self, history, outcome) -> list[str]:
        """Problems with one decoded window; empty when it is correct."""
        problems = []
        lat = self.lattice
        by_graph: dict[str, list] = {"x": [], "z": []}
        for e in detection_events(history):
            by_graph[e.graph].append((lat.index((e.i, e.j)), e.t))
        for g, events in by_graph.items():
            used = Counter()
            objective = 0.0
            for a, b in outcome.matches[g]:
                if isinstance(b, str):
                    used[a] += 1
                    objective += self.boundary(g, a[0])
                else:
                    used[a] += 1
                    used[b] += 1
                    objective += self.pair(g, a, b)
            if used != Counter(events):
                problems.append(f"{g} graph: matches do not cover each event once")
                continue
            best = self.optimum(g, events)
            if abs(objective - best) > REL_TOL * max(1.0, abs(best)):
                problems.append(f"{g} graph: objective {objective!r} != oracle {best!r}")
        if not residual_ok(lat, outcome.residual):
            problems.append("residual syndrome is not trivial")
        return problems
