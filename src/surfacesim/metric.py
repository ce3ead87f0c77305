"""Separation measures between detection events.

All measures operate on the space-time link graph implied by an
EdgeClassTable: nodes are (syndrome qubit, round) points of one graph
type, edges carry the link probabilities, and a path's probability is
the product of its link probabilities.

* manhattan: the legacy |di| + |dj| + |dt| count in unit stabilizer
  spacing, kept as a comparison baseline.
* d_max: -ln of the single most probable connecting path (a shortest
  path under additive -ln(p) weights).
* d_n: -ln of the summed probability of all simple paths using the
  minimum number of links l, plus paths up to l+n links.
* boundary_distance: cheapest d_max-style escape to a spatial boundary.
* settled: d_max from one source to every node within a cutoff, lightest
  first; the decoder's dmax tables and boundary_distance walk it.

Paths never repeat a node: a repeated node corresponds to error pairs
that cancel rather than an error chain.

`d_n` enumerates the paths of one pair by depth-first search; it is the
definition and the test oracle.  `path_sum_table` gives the same sums
from one source to many targets with one dynamic program over walks:

* A walk of m <= l + n links to a target y, l = l(y) its fewest-link
  count, that repeats a node contains a closed sub-walk; cutting it out
  leaves a walk to y of at least l links, so the closed sub-walk has at
  most n links.  Self-links are dropped (a path never takes them), so it
  has at least 2.
* The simple paths counted by d_n are therefore exactly the walks of
  l .. l + n links that never return to a node within n steps: for
  n <= 1 every such walk, for n = 2 every walk that does not step back
  to the node it came from.  The same rule keeps a path from passing
  through its target or its source.
* A walk of at most max l(y) + n links stays inside the breadth-first
  ball of that radius around the source, so the program runs on the
  ball's links only.  Its state is the last link taken, which is enough
  to forbid stepping back; each target sums the weight that arrives at
  it after l(y) .. l(y) + n steps.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .edge_analysis import EdgeClassTable
from .sim import _csr_rows

MAX_LINKS = 64  # longest fewest-link path searched for
MAX_PATHS = 2_000_000  # path enumeration guard of path_sum
METRICS = ("manhattan", "dmax", "d0", "d1", "d2")  # decoder metric names


@dataclass(frozen=True)
class PathSum:
    """Total probability over an admitted path set."""

    value: float
    path_count: int
    max_links: int


class LinkGraph:
    """The links and boundary exits of positive probability of one graph
    type, read from an EdgeClassTable when built, over (cell, t) nodes.

    The graph is unbounded in time, which models the interior of a long
    window.  A cell's links follow the table's class order, which fixes
    how searches break ties.
    """

    def __init__(self, table: EdgeClassTable, graph: str):
        self.graph = graph
        self.lattice = table.lattice
        self.links: dict[int, list[tuple[int, int, float]]] = {}
        for (u, v, dt), cls in table.pair_classes[graph].items():
            if cls.probability > 0.0:
                self.links.setdefault(u, []).append((v, dt, cls.probability))
                self.links.setdefault(v, []).append((u, -dt, cls.probability))
        self.exits = {cell: (cls.probability, cls.side)
                      for cell, cls in table.boundary_classes[graph].items()
                      if cls.probability > 0.0}

    def neighbors(self, node: tuple[int, int]):
        cell, t = node
        for other, dt, prob in self.links.get(cell, ()):
            yield (other, t + dt), prob

    def boundary_link(self, cell: int):
        """(probability, side) of the cell's boundary exit, or None."""
        return self.exits.get(cell)


def manhattan(s1: tuple[int, int, int], s2: tuple[int, int, int]) -> float:
    """Legacy separation |i1-i2| + |j1-j2| + |t1-t2| in unit spacing."""
    return float(abs(s1[0] - s2[0]) + abs(s1[1] - s2[1]) + abs(s1[2] - s2[2]))


def d_max(graph: LinkGraph, s1: tuple[int, int], s2: tuple[int, int]) -> float:
    """-ln(probability) of the single most probable path between two nodes.

    Nodes are (flat_cell, t).  Dijkstra over -ln(p) weights with early
    exit at the target.
    """
    if s1 == s2:
        raise ValueError("s1 and s2 must differ")
    dist: dict[tuple[int, int], float] = {s1: 0.0}
    heap = [(0.0, s1)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == s2:
            return d
        if d > dist.get(node, math.inf):
            continue
        for other, prob in graph.neighbors(node):
            nd = d - math.log(prob)
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    raise ValueError(f"nodes {s1} and {s2} are not connected")


def min_links(graph: LinkGraph, s1, s2) -> int:
    """Fewest links, at most MAX_LINKS, connecting two nodes (breadth-first
    search)."""
    if s1 == s2:
        return 0
    frontier = {s1}
    seen = {s1}
    for depth in range(1, MAX_LINKS + 1):
        nxt = set()
        for node in frontier:
            for other, _ in graph.neighbors(node):
                if other == s2:
                    return depth
                if other not in seen:
                    seen.add(other)
                    nxt.add(other)
        frontier = nxt
        if not frontier:
            break
    raise ValueError(f"no path of <= {MAX_LINKS} links between {s1} and {s2}")


def path_sum(graph: LinkGraph, s1, s2, max_links: int) -> PathSum:
    """Sum of path probabilities over simple paths of <= max_links links."""
    total = 0.0
    count = 0
    on_path = {s1}

    def dfs(node, prob, links_left):
        nonlocal total, count
        for other, p in graph.neighbors(node):
            if other == s2:
                total += prob * p
                count += 1
                if count > MAX_PATHS:
                    raise RuntimeError(
                        f"path enumeration exceeded {MAX_PATHS} paths")
            elif links_left > 1 and other not in on_path:
                on_path.add(other)
                dfs(other, prob * p, links_left - 1)
                on_path.discard(other)

    dfs(s1, 1.0, max_links)
    return PathSum(value=total, path_count=count, max_links=max_links)


def d_n(graph: LinkGraph, s1, s2, n: int) -> tuple[float, int]:
    """-ln of the probability summed over minimum-length and up to
    l+n-link simple paths; also returns the admitted path count."""
    if not 0 <= n <= 2:
        raise ValueError("n must be in [0, 2]")
    l = min_links(graph, s1, s2)
    ps = path_sum(graph, s1, s2, l + n)
    return -math.log(ps.value), ps.path_count


def path_sum_table(graph: LinkGraph, source, targets, n: int) -> list[float]:
    """d_n weights from one source node to every node of `targets`.

    Equals [d_n(graph, source, y, n)[0] for y in targets] up to rounding,
    from one walk dynamic program (see the module docstring).  A target
    with no path of at most MAX_LINKS links gets weight inf.
    """
    if not 0 <= n <= 2:
        raise ValueError("n must be in [0, 2]")
    if source in targets:
        raise ValueError("source and target must differ")
    # Breadth-first ball: l(y) per target, and every link a walk of at
    # most max l(y) + n links can take.
    index = {source: 0}
    depth = [0]
    tail, head, prob = [], [], []
    missing = set(targets)
    l_max = 0
    frontier = [source]
    level = 0
    while frontier and ((missing and level < MAX_LINKS) or level < l_max + n):
        nxt = []
        for node in frontier:
            u = index[node]
            for other, p in graph.neighbors(node):
                if other == node:
                    continue
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

    # State: the last link taken.  A step from link e = (u -> v) may take
    # any link f = (v -> x), for n = 2 only with x != u.
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
        # Weight reaching a node y after l(y) .. l(y) + n steps counts.
        window = (depth <= step) & (step <= depth + n)
        total[window] += at_node[window]

    out = []
    for y in targets:
        s = 0.0 if y in missing else total[index[y]]
        out.append(-math.log(s) if s > 0.0 else math.inf)
    return out


def settled(graph: LinkGraph, source, cutoff: float = math.inf):
    """Dijkstra from a source node: yields (weight, node) for every node
    whose single-path weight is at most cutoff, lightest first, each node
    once."""
    dist: dict[tuple[int, int], float] = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        yield d, node
        for other, prob in graph.neighbors(node):
            nd = d - math.log(prob)
            if nd <= cutoff and nd < dist.get(other, math.inf):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))


def boundary_distance(graph: LinkGraph, s: tuple[int, int]) -> tuple[float, str]:
    """Cheapest escape from node s to a spatial boundary of its graph type.

    Returns (-ln probability of the best escape chain, boundary side).
    """
    best = math.inf
    best_side = None
    for d, node in settled(graph, s):
        if d >= best:
            break
        link = graph.boundary_link(node[0])
        if link is not None:
            w = d - math.log(link[0])
            if w < best:
                best, best_side = w, link[1]
    if best_side is None:
        # Zero-probability model: nothing is reachable.  Report the
        # geometrically nearest side at infinite weight; no detection
        # events can occur in this regime, so the weight is never used.
        lat = graph.lattice
        return math.inf, lat.nearest_boundary(lat.cell(s[0]))[1]
    return best, best_side


class MetricCache:
    """The per-pair reference: memoized weights by definition, one metric
    evaluation per key.

    The decoder does not use it; its tables come from `settled` (dmax),
    `path_sum_table` (d0-d2), `boundary_distance` and the closed forms
    (manhattan).  `pair_weight` evaluates one pair by definition (a d_max
    search, or a minimum-link search plus a path enumeration for d_n) and
    `boundary_weight` one cell; the tests check the decoder's tables
    against them, and the benchmark traces both by name.  Pair weights depend only on (cell_u, cell_v, dt)
    because the circuit is periodic in time, boundary weights only on the
    cell.
    """

    def __init__(self, table: EdgeClassTable, graph: str, metric: str):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.graph = LinkGraph(table, graph)
        self.lattice = table.lattice
        self._pair: dict[tuple[int, int, int], float] = {}
        self._boundary: dict[int, tuple[float, str]] = {}

    def pair_weight(self, cell_u: int, t_u: int, cell_v: int, t_v: int) -> float:
        dt = t_v - t_u
        if dt < 0:
            cell_u, cell_v, dt = cell_v, cell_u, -dt
        if self.metric == "manhattan":
            su = self.lattice.sublattice_coord(self.lattice.cell(cell_u))
            sv = self.lattice.sublattice_coord(self.lattice.cell(cell_v))
            return manhattan((*su, 0), (*sv, dt))
        key = (cell_u, cell_v, dt)
        w = self._pair.get(key)
        if w is None:
            s1, s2 = (cell_u, 0), (cell_v, dt)
            if self.metric == "dmax":
                w = d_max(self.graph, s1, s2)
            else:
                w = d_n(self.graph, s1, s2, int(self.metric[1]))[0]
            self._pair[key] = w
        return w

    def boundary_weight(self, cell: int) -> tuple[float, str]:
        got = self._boundary.get(cell)
        if got is None:
            if self.metric == "manhattan":
                links, side = self.lattice.nearest_boundary(self.lattice.cell(cell))
                got = (float(links), side)
            else:
                got = boundary_distance(self.graph, (cell, 0))
            self._boundary[cell] = got
        return got
