"""Separation measures between detection events.

All measures operate on the space-time link graph implied by an
EdgeClassTable: nodes are (syndrome qubit, round) points of one graph
type, edges carry the link probabilities, and a path's probability is
the product of its link probabilities.  `LinkGraph` owns the link
layout, (probability, weight, step), and the node encoding: one integer
code per (cell, t), which a link's step moves to the code of its far
end.  The table searches (`settled`, `path_sum_table`) walk codes and
convert (cell, t) nodes only at their edge; the per-pair definitions
(`d_max`, `min_links`, `path_sum`) walk (cell, t) nodes through
`LinkGraph.neighbors`.

* manhattan: the legacy |di| + |dj| + |dt| count in unit stabilizer
  spacing, kept as a comparison baseline.  The decoder reads it as
  `settled` weights on `LinkGraph.grid`, the unit-weight grid of the
  lattice, and the closed form `manhattan` is the reference.
* d_max: -ln of the single most probable connecting path (a shortest
  path under additive -ln(p) weights).
* d_n: -ln of the summed probability of all simple paths using the
  minimum number of links l, plus paths up to l+n links.
* boundary_distance: cheapest d_max-style escape to a spatial boundary,
  read from the start of one `settled` search on the graph's time-free
  cell view (`LinkGraph.cells`), which gives it bit for bit, since exits
  do not depend on t.
* settled: d_max from one source to every node within a fixed cutoff,
  lightest first.  The decoder's dmax and manhattan tables read one per
  source, cut at twice the source's boundary weight.

Paths never repeat a node: a repeated node corresponds to error pairs
that cancel rather than an error chain.

`d_n` enumerates the paths of one pair by depth-first search; it is the
definition and the test oracle.  `path_sum_table` gives the same sums
from each source of a graph to many targets, one walk dynamic program
per source:

* A walk of m <= l + n links to a target y, l = l(y) its fewest-link
  count, that repeats a node contains a closed sub-walk; cutting it out
  leaves a walk to y of at least l links, so the closed sub-walk has at
  most n links.  No link joins a node to itself (see LinkGraph), so it
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
  it after l(y) .. l(y) + n steps, read at its own node only.
* A step gives link f = (v -> x) p_f times the weight that arrived at v
  the step before; for n = 2, less the weight of the walks ending on
  f's reverse link (x -> v), which would step back.  A node has no
  link to itself and at most one link to another node, so that reverse
  is the only link to leave out; when the ball lacks it (x is on the
  ball's rim, whose links are not gathered), nothing is left out.  For
  n <= 1 each link's sum has the terms and order of a sum over explicit
  link-to-link transitions; for n = 2 the subtraction can move the last
  bit.
* The balls of a group of sources are gathered together, one level of
  every ball per numpy pass, over a dense (source, cell, t) index that
  numbers each ball's nodes.  A pass lists the last level's links in
  (node, link) order and numbers the nodes they first reach by first
  appearance, source by source, so each ball numbers its nodes and
  orders its links as it would on its own; only the levels of different
  balls interleave.  The links go straight into the group's walk arrays,
  one program on the balls' disjoint union: one bincount per step
  serves the whole group, and every node sums its incoming links in
  its own ball's order, so each source gets, bit for bit, the weights
  it gets walked alone.  A group walks as many steps as its longest
  member needs; step s walks only the links leaving levels below s, as
  the others carry no weight yet.
* Sources join groups in query order, and a group is fixed before it is
  gathered: a source is expected to bring the graph's links of
  2 (|dt| + n) + 1 rounds, |dt| its farthest target's offset in time,
  and a group is closed once its sources' expected links reach
  GROUP_LINKS.
"""

from __future__ import annotations

import copy
import heapq
import math
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .edge_analysis import EdgeClassTable
from .lattice import Lattice

MAX_LINKS = 64  # longest fewest-link path searched for
MAX_PATHS = 2_000_000  # path enumeration guard of path_sum
METRICS = ("manhattan", "dmax", "d0", "d1", "d2")  # decoder metric names
# Expected links at which a group of path-sum sources is closed (see
# path_sum_table).  path_sum_table time for both graphs of standard-model
# d2 builds at p = 1% (2-core box, best of 4-16 interleaved runs) at
# d = 5 / 7 / 9: 17.9 / 138 / 583 ms at this value; 18.6 / 168 / 637 at
# 8192, 17.4 / 148 / 679 at 16384, 20.3 / 149 / 603 at 65536.  At d = 3,
# one group per graph from 8192 up, it does not matter.
GROUP_LINKS = 32768
_T_SPAN = 1 << 32  # node codes: see LinkGraph


class LinkGraph:
    """The links and boundary exits of positive probability of one graph
    type, read from an EdgeClassTable when built (or, from `grid`, the
    unit-weight grid of the lattice).

    Node (cell, t) has the integer code cell * _T_SPAN + t + _T_SPAN // 2,
    which orders as the tuple does while |t| < _T_SPAN // 2; the searches
    (`settled`, `path_sum_table`) run on codes.  links[cell] lists
    (probability, -ln probability, step) per link of the cell, each link
    once from either end, where step is the code of the far end minus the
    code of the near one; adding -ln p rounds exactly as subtracting ln p
    does.  w_min is the lightest link's weight (inf without links).
    exits[cell] is the (probability, side) of the cell's boundary exit.
    The graph is unbounded in time, which models the interior of a long
    window.  A cell's links follow the table's class order, which fixes
    how searches break ties.  No link joins a node to itself: two events
    of one stabilizer in one round cancel; one pair class gives at most
    one link between two nodes, listed from both ends.  `cells` is the
    graph's time-free view, on which `boundary_distance` searches.
    """

    def __init__(self, table: EdgeClassTable, graph: str):
        self.graph = graph
        self.lattice = table.lattice
        self.links: dict[int, list[tuple[float, float, int]]] = {}
        p_max = 0.0
        for (u, v, dt), cls in table.pair_classes[graph].items():
            p = cls.probability
            if p > 0.0:
                w = -math.log(p)
                step = (v - u) * _T_SPAN + dt
                self.links.setdefault(u, []).append((p, w, step))
                self.links.setdefault(v, []).append((p, w, -step))
                p_max = max(p_max, p)
        self.w_min = -math.log(p_max) if p_max > 0.0 else math.inf
        self.exits = {cell: (cls.probability, cls.side)
                      for cell, cls in table.boundary_classes[graph].items()
                      if cls.probability > 0.0}

    @classmethod
    def grid(cls, lattice: Lattice, graph: str) -> LinkGraph:
        """The unit-weight space-time grid of one graph type, the Manhattan
        view, built from the lattice alone, whatever the model: a weight-1
        link from each stabilizer to each sublattice neighbour (two cells
        along a row or column) and to itself one round later or earlier,
        and a weight-1 exit on each stabilizer next to a boundary of its
        type.  A settled weight is then |di| + |dj| + |dt| in sublattice
        units, and a boundary weight `Lattice.nearest_boundary`'s count."""
        size = lattice.size
        p = math.exp(-1.0)  # -ln p is 1.0 exactly; the weight is stored as 1.0
        view = cls.__new__(cls)
        view.graph, view.lattice, view.w_min = graph, lattice, 1.0
        view.links, view.exits = {}, {}
        sides = {"x": (("top", -2, 0), ("bottom", 2, 0)),
                 "z": (("left", 0, -2), ("right", 0, 2))}[graph]
        stabs = set(lattice.stabilizers(graph))
        for i, j in sorted(stabs):
            u = i * size + j
            for far, dt in (((i, j), 1), ((i, j + 2), 0), ((i + 2, j), 0)):
                if dt or far in stabs:
                    v = lattice.index(far)
                    step = (v - u) * _T_SPAN + dt
                    view.links.setdefault(u, []).append((p, 1.0, step))
                    view.links.setdefault(v, []).append((p, 1.0, -step))
            for side, di, dj in sides:
                if not (0 <= i + di < size and 0 <= j + dj < size):
                    view.exits[u] = (p, side)
        return view

    @cached_property
    def cells(self) -> LinkGraph:
        """The time-free view, for boundary weights: one node (cell, 0) per
        cell, and per neighbouring cell one link, the lightest of the
        cell's links to it, with step dcell * _T_SPAN.  Links from a cell
        to itself (moves in time only) are dropped; the other attributes,
        exits and w_min among them, are the graph's."""
        half = _T_SPAN // 2
        view = copy.copy(self)
        view.links = {}
        for cell, row in self.links.items():
            lightest: dict[int, tuple[float, float, int]] = {}
            for p, w, step in row:
                dcell = (step + half) // _T_SPAN
                if dcell and (dcell not in lightest or w < lightest[dcell][1]):
                    lightest[dcell] = (p, w, dcell * _T_SPAN)
            view.links[cell] = list(lightest.values())
        return view

    def neighbors(self, node: tuple[int, int]):
        """Yields ((cell, t), probability) per link of node (cell, t), for
        the per-pair definitions below."""
        cell, t = node
        half = _T_SPAN // 2
        for prob, _, step in self.links.get(cell, ()):
            dcell, dt = divmod(step + half, _T_SPAN)
            yield (cell + dcell, t + dt - half), prob


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


def path_sum(graph: LinkGraph, s1, s2, max_links: int) -> tuple[float, int]:
    """Sum of path probabilities over simple paths of <= max_links links,
    and the number of those paths."""
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
    return total, count


def d_n(graph: LinkGraph, s1, s2, n: int) -> tuple[float, int]:
    """-ln of the probability summed over minimum-length and up to
    l+n-link simple paths; also returns the admitted path count."""
    if not 0 <= n <= 2:
        raise ValueError("n must be in [0, 2]")
    l = min_links(graph, s1, s2)
    total, count = path_sum(graph, s1, s2, l + n)
    return -math.log(total), count


def path_sum_table(graph: LinkGraph, queries, n: int) -> list[list[float]]:
    """d_n weights from each source node to each of its targets.

    `queries` lists (source, targets) pairs, one per source; the result
    lists per pair its targets' weights, in target order.  Those equal
    [d_n(graph, source, y, n)[0] for y in targets] up to rounding, from
    one walk program per source (see the module docstring).  A target
    with no path of at most MAX_LINKS links gets weight inf.

    Sources are gathered and walked in groups, in query order; a group
    is closed once its sources' expected links, the graph's links of
    2 (|dt| + n) + 1 rounds each, |dt| the source's farthest target's
    offset in time, reach GROUP_LINKS.
    """
    if not 0 <= n <= 2:
        raise ValueError("n must be in [0, 2]")
    links = _link_rows(graph, n)
    queries = list(queries)
    counts = np.array([len(targets) for _, targets in queries], dtype=np.intp)
    sources = np.fromiter(chain.from_iterable(source for source, _ in queries),
                          dtype=np.intp, count=2 * len(queries)).reshape(-1, 2)
    targets = np.fromiter(chain.from_iterable(chain.from_iterable(t for _, t in queries)),
                          dtype=np.intp, count=2 * int(counts.sum())).reshape(-1, 2)
    owner = np.repeat(np.arange(len(queries)), counts)
    rounds = np.zeros(len(queries), dtype=np.intp)
    np.maximum.at(rounds, owner, np.abs(targets[:, 1] - sources[owner, 1]))
    expected = (links.move.size * (2 * (rounds + n) + 1)).tolist()
    offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
    out: list[list[float]] = []
    i = 0
    while i < len(queries):
        j, total = i + 1, expected[i]
        while j < len(queries) and total < GROUP_LINKS:
            total += expected[j]
            j += 1
        group = _gather(links, sources[i:j], targets[offsets[i]:offsets[j]], counts[i:j], n)
        _walk(group, n, out)
        i = j
    return out


class _Links(NamedTuple):
    """A graph's links for the gather, cell by cell: cell c's are the fan[c]
    entries from first[c] on, in the order of its row in LinkGraph.links.
    Each has its probability, the position of its reverse among the far
    cell's links, and its move: the far node's entry of a dense index
    (see `_gather`) less the near node's, cell offset * span + t offset.
    The index holds span = 2h + 1 rounds, every t within h of the source,
    and no walk of at most MAX_LINKS + n links leaves them."""

    first: np.ndarray
    fan: np.ndarray
    move: np.ndarray
    prob: np.ndarray
    rev: np.ndarray
    cells: int
    span: int


def _link_rows(graph: LinkGraph, n: int) -> _Links:
    """The graph's links for walks of at most MAX_LINKS + n links."""
    half = _T_SPAN // 2
    cells = graph.lattice.size ** 2  # every cell, sources without links included
    order = sorted(graph.links)
    steps = {cell: [s for _, _, s in graph.links[cell]] for cell in order}
    slots = {cell: {s: j for j, s in enumerate(row)} for cell, row in steps.items()}
    for cell, row in steps.items():
        if 0 in slots[cell] or len(slots[cell]) != len(row):
            raise ValueError(f"cell {cell} has a link of step 0 or two links of one step")
    moves = [divmod(s + half, _T_SPAN) for cell in order for s in steps[cell]]
    span = 2 * (MAX_LINKS + n) * max((abs(t - half) for _, t in moves), default=0) + 1
    fan = np.zeros(cells, dtype=np.intp)
    fan[order] = [len(steps[cell]) for cell in order]
    return _Links(
        np.cumsum(fan) - fan, fan,
        np.array([dcell * span + t - half for dcell, t in moves], dtype=np.intp),
        np.array([p for cell in order for p, _, _ in graph.links[cell]], dtype=float),
        np.array([slots[cell + (s + half) // _T_SPAN][-s] for cell in order for s in steps[cell]],
                 dtype=np.intp),
        cells, span)


class _Group(NamedTuple):
    """The balls of a group of sources as one link program over their
    nodes; source i is node i.  rev is the position of each link's
    reverse, or the link count where the ball lacks it (only for n = 2).
    Flat target j (the group's targets end to end, counts[i] of them for
    source i) sits at node rows[k] for j = found[k], at depth l(y) =
    depth[k]; the others have no path of at most MAX_LINKS links.  Source
    i's walk needs steps[i] steps.  Nodes and links are numbered level by
    level: levels[s] counts the links leaving nodes of level < s and the
    nodes of level <= s, for s up to the deepest level gathered."""

    nodes: int
    tail: np.ndarray
    head: np.ndarray
    prob: np.ndarray
    rev: np.ndarray | None
    counts: np.ndarray
    found: np.ndarray
    rows: np.ndarray
    depth: np.ndarray
    steps: np.ndarray
    levels: list[tuple[int, int]]


def _gather(links: _Links, sources, targets, counts, n: int) -> _Group:
    """The breadth-first balls around a group of sources, one level of
    every ball per pass: l(y) per target, and every link a walk of at most
    max l(y) + n links can take, straight into the group's link arrays."""
    k, cells, span = len(sources), links.cells, links.span
    half, slab = span // 2, cells * span
    # index[(i * cells + cell) * span + t - t_i + half] numbers node
    # (cell, t) of source i's ball; -1 while unreached.
    index = np.full(k * slab, -1, dtype=np.intp)
    keys = np.arange(k) * slab + sources[:, 0] * span + half
    index[keys] = np.arange(k)
    owner = np.repeat(np.arange(k), counts)
    cell, dt = targets[:, 0], targets[:, 1] - sources[owner, 1]
    valid = (cell >= 0) & (cell < cells) & (np.abs(dt) <= half)
    tkey = np.where(valid, (owner * cells + cell) * span + dt + half, -1)
    if np.any(tkey == keys[owner]):
        raise ValueError("source and target must differ")
    depth = np.full(owner.size, -1, dtype=np.intp)
    wait = np.flatnonzero(valid)  # targets not reached yet
    missing = np.bincount(owner, minlength=k)
    steps = np.full(k, n, dtype=np.intp)  # l_max + n per source

    none = np.zeros(0, dtype=np.intp)
    frontiers, fans, positions, heads = [none], [none], [none], [none]
    levels = [(0, k)]
    new_ids, new_keys = np.arange(k), keys
    nodes, n_links, level = k, 0, 0
    while new_keys.size:
        # A ball grows to l_max + n levels, and to MAX_LINKS while a
        # target is missing.
        live = (level < steps) | ((missing > 0) & (level < MAX_LINKS))
        if not live.all():
            go = live[new_keys // slab]
            new_ids, new_keys = new_ids[go], new_keys[go]
            if not new_keys.size:
                break
        # The links of the last level's nodes, in node then link order.
        cell = new_keys // span % cells
        fan = links.fan[cell]
        ends = fan.cumsum()
        pos = np.arange(ends[-1]) + (links.first[cell] - ends + fan).repeat(fan)
        far = new_keys.repeat(fan) + links.move[pos]
        head = index[far]
        # Nodes first reached are numbered by first appearance: the
        # reversed scatter leaves each key the position of its first.
        new = (head < 0).nonzero()[0]
        fresh = far[new]
        at = np.arange(fresh.size)
        index[fresh[::-1]] = at[::-1]
        frontiers.append(new_ids)
        new_keys = fresh[index[fresh] == at]
        new_ids = np.arange(nodes, nodes + new_keys.size)
        index[new_keys] = new_ids
        head[new] = index[fresh]
        fans.append(fan)
        positions.append(pos)
        heads.append(head)
        nodes += new_keys.size
        n_links += pos.size
        level += 1
        levels.append((n_links, nodes))
        if level <= MAX_LINKS and wait.size:
            hit = index[tkey[wait]] >= 0
            if hit.any():
                found = wait[hit]
                depth[found] = level
                steps[owner[found]] = level + n
                missing -= np.bincount(owner[found], minlength=k)
                wait = wait[~hit]

    frontier, fan = np.concatenate(frontiers), np.concatenate(fans)
    pos, head = np.concatenate(positions), np.concatenate(heads)
    rev = None
    if n == 2:
        start = np.full(nodes, -1, dtype=np.intp)  # each expanded node's first link
        start[frontier] = np.cumsum(fan) - fan
        ahead = start[head]
        rev = np.where(ahead >= 0, ahead + links.rev[pos], n_links)
    found = np.flatnonzero(depth >= 0)
    return _Group(nodes, np.repeat(frontier, fan), head, links.prob[pos], rev, counts,
                  found, index[tkey[found]], depth[found], steps, levels)


def _walk(group: _Group, n: int, out: list[list[float]]) -> None:
    """Walks a group's balls as one program, for as many steps as the
    longest needs, and appends each source's weights to out."""
    tail, head, prob, rev = group.tail, group.head, group.prob, group.rev
    # Targets by l(y): those read after `step` steps form one slice.
    order = np.argsort(group.depth, kind="stable")
    rows, depth = group.rows[order], group.depth[order]
    step_no = np.arange(1, int(group.steps.max(initial=0)) + 1)
    lo = np.searchsorted(depth, step_no - n, side="left").tolist()
    hi = np.searchsorted(depth, step_no, side="right").tolist()

    total = np.zeros(rows.size)
    at = np.zeros(group.nodes)
    at[:group.steps.size] = 1.0
    w = np.zeros(tail.size + 1)  # the last slot stands in for absent reverses
    last = len(group.levels) - 1
    for step, (a, b) in enumerate(zip(lo, hi), 1):
        # Weight of walks ending on each link, then at each node.  Links
        # leaving level `step` or deeper carry none yet, and adding their
        # 0.0 would change no sum, so only the links before them are walked.
        m, size = group.levels[min(step, last)]
        if n == 2:
            w[:m] = prob[:m] * (at[tail[:m]] - w[rev[:m]])
        else:
            w[:m] = prob[:m] * at[tail[:m]]
        at = np.bincount(head[:m], weights=w[:m], minlength=size)
        # Weight reaching a target y after l(y) .. l(y) + n steps counts.
        if a < b:
            total[a:b] += at[rows[a:b]]

    sums = np.empty_like(total)
    sums[order] = total
    reached = sums > 0.0
    weights = np.full(int(group.counts.sum()), math.inf)
    weights[group.found[reached]] = [-math.log(s) for s in sums[reached].tolist()]
    weights = weights.tolist()
    k = 0
    for count in group.counts.tolist():
        out.append(weights[k:k + count])
        k += count


def settled(graph: LinkGraph, source, cutoff: float = math.inf):
    """Dijkstra from a source node: yields (weight, node) for every node
    whose single-path weight is at most cutoff, lightest first, each node
    once.  Equal weights settle in (cell, t) order.  The search runs on
    node codes and link weights (see LinkGraph)."""
    links, half = graph.links, _T_SPAN // 2
    inf = math.inf
    heappop, heappush = heapq.heappop, heapq.heappush
    start = source[0] * _T_SPAN + source[1] + half
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, code = heappop(heap)
        if d > cutoff:
            return
        if d > dist[code]:
            continue
        cell, t_code = divmod(code, _T_SPAN)
        yield d, (cell, t_code - half)
        for _, w, step in links.get(cell, ()):
            nd = d + w
            if nd <= cutoff:
                nxt = code + step
                if nd < dist.get(nxt, inf):
                    dist[nxt] = nd
                    heappush(heap, (nd, nxt))


def boundary_distance(graph: LinkGraph, s: tuple[int, int]) -> tuple[float, str]:
    """Cheapest escape from node s to a spatial boundary of its graph type.

    Returns (-ln probability of the best escape chain, boundary side).  The
    search runs on the time-free view `graph.cells` from (cell, 0), since
    exits do not depend on t; it stops at the first cell no lighter than
    the best escape found so far, since no escape through it can be
    lighter.  Weight and side are bit for bit those of the same loop over
    `settled(graph, s)`:

    * Float addition of non-negative weights is monotone, so `settled`
      returns, per node, the minimum over paths of the path's left-to-right
      float sum.  Every space-time path to some (c, t) projects onto a walk
      of the view to c no heavier (a step in time only is dropped, a link
      is replaced by the lightest between the same cells), and every walk
      of the view lifts to a space-time walk of the same weight; so the
      view's weight of c is min over t of the weight of (c, t).
    * Escapes through later nodes of a cell weigh no less than through its
      first, so they never win; the first nodes of the cells settle in
      (weight, cell) order in both searches, so the strict `<` below keeps
      the same side.
    """
    best = math.inf
    best_side = None
    for d, (cell, _) in settled(graph.cells, (s[0], 0)):
        if d >= best:
            break
        link = graph.exits.get(cell)
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

    The decoder does not use it; its tables come from `boundary_distance`
    (boundary weights), `settled` (dmax, and manhattan on `LinkGraph.grid`)
    and `path_sum_table` (d0-d2).  `pair_weight` evaluates one pair by
    definition (a d_max search, a minimum-link search plus a path
    enumeration for d_n, the closed form for manhattan) and
    `boundary_weight` one cell (`Lattice.nearest_boundary` for manhattan);
    the tests check the decoder's tables against them, and the benchmark
    traces both by name.  Pair weights depend only on (cell_u, cell_v, dt)
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
