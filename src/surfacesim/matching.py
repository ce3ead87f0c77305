"""Exact minimum-weight perfect matching on general weighted graphs.

The solver is a primal-dual blossom algorithm (Edmonds) in the classic
O(n^3) formulation: it maintains vertex/blossom dual variables, grows
alternating trees from free vertices, shrinks odd cycles into blossoms
and expands them when their dual reaches zero.  Minimization is realized
by maximizing the uniformly shifted weights (max_w - w) in
maximum-cardinality mode, which preserves the optimal perfect matching.

Tightness comparisons on floating-point weights use an absolute epsilon
of 1e-12; duals are combinations of halved input weights, so this is far
above accumulated rounding error for decoder-scale weights.

A brute-force oracle over all perfect matchings is provided for small
graphs, plus a plain "u v w" edge-list text format for test harnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

EPS = 1e-12


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

    def dumps(self) -> str:
        lines = [f"{self.n_nodes}"]
        lines += [f"{u} {v} {w!r}" for u, v, w in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "MatchGraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        graph = cls(n_nodes=int(lines[0]))
        for ln in lines[1:]:
            u, v, w = ln.split()
            graph.add_edge(int(u), int(v), float(w))
        return graph


@dataclass
class Matching:
    """A perfect matching: every node paired exactly once."""

    pairs: tuple[tuple[int, int], ...]
    total_weight: float

    def partner(self) -> dict[int, int]:
        out = {}
        for u, v in self.pairs:
            out[u] = v
            out[v] = u
        return out


def mwpm(graph: MatchGraph) -> Matching:
    """Globally minimum-weight perfect matching (exact)."""
    n = graph.n_nodes
    if n % 2 != 0:
        raise MatchingError(f"odd node count {n}")
    if n == 0:
        return Matching(pairs=(), total_weight=0.0)
    max_w = max((w for _, _, w in graph.edges), default=0.0)
    shifted = [(u, v, max_w - w) for u, v, w in graph.edges]
    mate = _max_weight_matching(n, shifted, maxcardinality=True)
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


def _max_weight_matching(n: int, edges: list[tuple[int, int, float]],
                         maxcardinality: bool, eps: float = EPS) -> list[int]:
    """Maximum-weight matching; returns mate[v] = partner vertex or -1.

    With maxcardinality=True the matching has maximum cardinality, and
    maximum weight among those.  Edge weights may be any floats.
    """
    if not edges:
        return [-1] * n
    nedge = len(edges)

    # endpoint[p] is the vertex at endpoint p; edge k has endpoints 2k, 2k+1.
    endpoint = []
    for (i, j, _) in edges:
        endpoint.append(i)
        endpoint.append(j)
    # neighbend[v] lists the remote endpoints of edges incident to v.
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j, _) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

    maxweight = max(0.0, max(w for _, _, w in edges))

    # mate[v] = remote endpoint of its matched edge, or -1.
    mate = [-1] * n
    # label per top-level blossom: 0 free, 1 = S (outer), 2 = T (inner).
    label = [0] * (2 * n)
    # labelend[b] = endpoint through which b got its label (or -1).
    labelend = [-1] * (2 * n)
    # inblossom[v] = top-level blossom containing vertex v.
    inblossom = list(range(n))
    blossomparent = [-1] * (2 * n)
    blossomchilds: list = [None] * (2 * n)
    blossombase = list(range(n)) + [-1] * n
    blossomendps: list = [None] * (2 * n)
    # bestedge[b] = edge index with least slack to another S-blossom.
    bestedge = [-1] * (2 * n)
    blossombestedges: list = [None] * (2 * n)
    unusedblossoms = list(range(n, 2 * n))
    # Vertex duals start at maxweight, blossom duals at zero.
    dualvar = [maxweight] * n + [0.0] * n
    allowedge = [False] * nedge
    queue: list[int] = []

    def slack(k: int) -> float:
        i, j, wt = edges[k]
        return dualvar[i] + dualvar[j] - 2.0 * wt

    def blossom_leaves(b: int):
        if b < n:
            yield b
        else:
            for t in blossomchilds[b]:
                if t < n:
                    yield t
                else:
                    yield from blossom_leaves(t)

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            queue.extend(blossom_leaves(b))
        else:
            base = blossombase[b]
            assert mate[base] >= 0
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w to find a common tree ancestor base."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                assert label[b] == 2
                assert labelend[b] >= 0
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        """Shrink the cycle through edge k and base into a new blossom."""
        (v, w, _) = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path: list[int] = []
        endps: list[int] = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labelend[bv] == mate[blossombase[bv]])
            assert labelend[bv] >= 0
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            assert label[bw] == 2 or (
                label[bw] == 1 and labelend[bw] == mate[blossombase[bw]])
            assert labelend[bw] >= 0
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0.0
        blossomchilds[b] = path
        blossomendps[b] = endps
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        # Merge least-slack edge lists of the sub-blossoms.
        bestedgeto = [-1] * (2 * n)
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [[p // 2 for p in neighbend[leaf]]
                           for leaf in blossom_leaves(bv)]
            else:
                nblists = [blossombestedges[bv]]
            for nblist in nblists:
                for kk in nblist:
                    (i, j, _) = edges[kk]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (bj != b and label[bj] == 1 and
                            (bestedgeto[bj] == -1 or
                             slack(kk) < slack(bestedgeto[bj]))):
                        bestedgeto[bj] = kk
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = [kk for kk in bestedgeto if kk != -1]
        bestedge[b] = -1
        for kk in blossombestedges[b]:
            if bestedge[b] == -1 or slack(kk) < slack(bestedge[b]):
                bestedge[b] = kk

    def expand_blossom(b: int, endstage: bool) -> None:
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dualvar[s] <= eps:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            # Relabel the path through the blossom that the tree uses.
            assert labelend[b] >= 0
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == 1:
                    j += jstep
                    continue
                for leaf in blossom_leaves(bv):
                    if label[leaf] != 0:
                        break
                else:
                    leaf = -1
                if leaf >= 0:
                    assert label[leaf] == 2
                    assert inblossom[leaf] == bv
                    label[leaf] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(leaf, 2, labelend[leaf])
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched/unmatched edges along the path base..v inside b."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= n:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= n:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]
        assert blossombase[b] == v

    def augment_matching(k: int) -> None:
        (v, w, _) = edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert labelend[bs] == mate[blossombase[bs]]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                assert label[bt] == 2
                assert labelend[bt] >= 0
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                assert blossombase[bt] == t
                if inblossom[j] >= n:
                    augment_blossom(inblossom[j], j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    for _stage in range(n):
        label[:] = [0] * (2 * n)
        bestedge[:] = [-1] * (2 * n)
        for b in range(n, 2 * n):
            blossombestedges[b] = None
        allowedge[:] = [False] * nedge
        queue[:] = []
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                for p in neighbend[v]:
                    k = p // 2
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    if not allowedge[k]:
                        kslack = slack(k)
                        if kslack <= eps:
                            allowedge[k] = True
                    if allowedge[k]:
                        if label[inblossom[w]] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[inblossom[w]] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            assert label[inblossom[w]] == 2
                            label[w] = 2
                            labelend[w] = p ^ 1
                    elif label[inblossom[w]] == 1:
                        b = inblossom[v]
                        if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                            bestedge[b] = k
                    elif label[w] == 0:
                        if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                            bestedge[w] = k
            if augmented:
                break

            deltatype = -1
            delta = deltaedge = deltablossom = None
            if not maxcardinality:
                deltatype = 1
                delta = max(0.0, min(dualvar[:n]))
            for v in range(n):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            for b in range(2 * n):
                if (blossomparent[b] == -1 and label[b] == 1 and
                        bestedge[b] != -1):
                    kslack = slack(bestedge[b])
                    d = kslack / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            for b in range(n, 2 * n):
                if (blossombase[b] >= 0 and blossomparent[b] == -1 and
                        label[b] == 2):
                    if deltatype == -1 or dualvar[b] < delta:
                        delta = dualvar[b]
                        deltatype = 4
                        deltablossom = b
            if deltatype == -1:
                # No improving move: maximum cardinality reached.
                deltatype = 1
                delta = max(0.0, min(dualvar[:n]))

            for v in range(n):
                lbl = label[inblossom[v]]
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in range(n, 2 * n):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 2:
                allowedge[deltaedge] = True
                (i, j, _) = edges[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                assert label[inblossom[i]] == 1
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                (i, j, _) = edges[deltaedge]
                assert label[inblossom[i]] == 1
                queue.append(i)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break
        for b in range(n, 2 * n):
            if (blossomparent[b] == -1 and blossombase[b] >= 0 and
                    label[b] == 1 and dualvar[b] <= eps):
                expand_blossom(b, True)

    out = [-1] * n
    for v in range(n):
        if mate[v] >= 0:
            out[v] = endpoint[mate[v]]
    return out
