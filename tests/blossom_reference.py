"""The Python blossom solver that `surfacesim/_blossom.c` is ported from:
the oracle for the kernel's mates, tie for tie.

`max_weight_matching` is the solver `surfacesim.matching` ran before the
port, kept as it was apart from its name; the algorithm is described in
`surfacesim.matching`'s docstring.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter

EPS = 1e-12
# Kinds of timeline event in max_weight_matching.
_STOP, _EDGE, _EXPAND = range(3)


def max_weight_matching(n: int, edges: list[tuple[int, int, float]]) -> list[int]:
    """Maximum-weight matching; returns mate[v] = partner vertex or -1.

    Edge weights may be any floats.
    """
    if not edges:
        return [-1] * n

    maxweight = max(0.0, max(map(itemgetter(2), edges)))
    # The slack of edge k while both ends are unchanged S roots, as a scan
    # computes it: (maxweight + maxweight) - wt2[k], falling at rate 2.
    root_slack = maxweight + maxweight
    # endpoint[p] is the vertex at endpoint p; edge k has endpoints 2k, 2k+1.
    # neighbend[v] lists the remote endpoints of edges incident to v, in
    # edge order.
    endpoint: list[int] = []
    neighbend: list[list[int]] = [[] for _ in range(n)]
    wt2: list[float] = []
    # first_t[v], first_p[v]: the time and remote endpoint of v's least-
    # slack edge among all of its edges, found as a first scan at time 0
    # would find it; touched[v]: v is an end of an edge tight at time 0.
    first_t = [maxweight] * n
    first_p = [-1] * n
    touched = [False] * n
    p = 0
    for (i, j, wt) in edges:
        endpoint.append(i)
        endpoint.append(j)
        neighbend[i].append(p + 1)
        neighbend[j].append(p)
        w2 = 2.0 * wt
        wt2.append(w2)
        t0 = root_slack - w2
        if t0 <= EPS:
            touched[i] = touched[j] = True
        else:
            t = 0.5 * t0
            if t < first_t[i]:
                first_t[i] = t
                first_p[i] = p + 1
            if t < first_t[j]:
                first_t[j] = t
                first_p[j] = p
        p += 2

    # mate[v] = remote endpoint of its matched edge, or -1.
    mate = [-1] * n
    # label per top-level blossom: 0 unlabelled, 1 = S (outer), 2 = T (inner).
    # On a vertex inside a T-blossom, 2 marks a tight edge from an S vertex.
    # Every vertex starts as the S root of its own tree.
    label = [1] * n + [0] * n
    # labelend[b] = endpoint through which b got its label (or -1).
    labelend = [-1] * (2 * n)
    # tree[b] = root vertex of the alternating tree holding top-level b.
    tree = list(range(n)) + [-1] * n
    # inblossom[v] = top-level blossom containing vertex v.
    inblossom = list(range(n))
    blossomparent = [-1] * (2 * n)
    blossomchilds: list = [None] * (2 * n)
    blossombase = list(range(n)) + [-1] * n
    blossomendps: list = [None] * (2 * n)
    unusedblossoms = list(range(n, 2 * n))
    # Lazy duals: at time `now` the dual of vertex x (or the z of blossom
    # x) is off[x] + rate[x] * now.  stamp[x] counts the changes of
    # rate[x]; an event recorded under an older stamp is stale.
    off = [maxweight] * n + [0.0] * n
    rate = [-1] * n + [0] * n
    stamp = [0] * (2 * n)
    # cur[v] = the edge event S vertex v owns, `no_event` once v is
    # scanned without one, or None while v is not a scanned S vertex.
    # set_rate clears it: a vertex that turns S is queued for a scan.
    cur: list = [None] * (2 * n)
    no_event = (maxweight, _EDGE, -1)
    # Per tree root, made on first use: the blossoms labelled into the
    # tree, and the (vertex, endpoint) marks its scans wrote inside
    # T-blossoms.  A tree with neither list is its lone root.
    members: dict[int, list[int]] = {}
    marks: dict[int, list[tuple[int, int]]] = {}
    # Events (time, kind, edge or blossom, stamp, stamp[, owner]); see the
    # module docstring.  The stop event ends the run when popped, so the
    # heap is never empty.
    heap: list = [(maxweight, _STOP, 0, 0, 0)]
    now = 0.0

    # The ends of edges tight at time 0 wait in the queue for a full first
    # scan; every other vertex starts with its recorded edge.
    queue = []
    for v in range(n):
        if touched[v]:
            queue.append(v)
        elif first_p[v] >= 0:
            p = first_p[v]
            ev = (first_t[v], _EDGE, p >> 1, 0, 0, v)
            cur[v] = ev
            heap.append(ev)
        else:
            cur[v] = no_event
    heapify(heap)

    def set_rate(x: int, r: int) -> None:
        if rate[x] != r:
            off[x] += (rate[x] - r) * now
            rate[x] = r
            stamp[x] += 1
            cur[x] = None

    def push_edge(k: int, t: float, owner: int) -> None:
        """Make `owner`'s event: edge k becomes tight at time t."""
        ev = (t, _EDGE, k, stamp[endpoint[2 * k]], stamp[endpoint[2 * k + 1]], owner)
        cur[owner] = ev
        heappush(heap, ev)

    def push_own(x: int) -> None:
        """Recompute the event of scanned S vertex x: its least-slack edge
        to an S or unlabelled vertex of another blossom."""
        bx = inblossom[x]
        ox = off[x]
        best = maxweight
        bp = -1
        for p in neighbend[x]:
            w = endpoint[p]
            bw = inblossom[w]
            if bw != bx:
                lw = label[bw]
                if lw == 1:
                    t = (ox + off[w] - wt2[p >> 1]) * 0.5
                elif lw == 0:
                    t = ox + off[w] - wt2[p >> 1]
                else:
                    continue
                if t < best:
                    best = t
                    bp = p
        if bp >= 0:
            push_edge(bp >> 1, best, x)
        else:
            cur[x] = no_event

    def offer(x: int) -> None:
        """Offer each edge of x, just unlabelled without a finished scan as
        S (from T, or from S mid-scan), to its scanned S neighbour when it
        tightens before that neighbour's event."""
        bx = inblossom[x]
        ox = off[x]
        for p in neighbend[x]:
            w = endpoint[p]
            bw = inblossom[w]
            if bw != bx and label[bw] == 1:
                ev = cur[w]
                if ev is not None:
                    k = p >> 1
                    t = ox + off[w] - wt2[k]
                    if t < ev[0] or (t == ev[0] and k < ev[2]):
                        push_edge(k, t, w)

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
        root = tree[inblossom[endpoint[p]]]
        tree[b] = root
        members.setdefault(root, [root]).append(b)
        if t == 1:
            if b >= n:
                set_rate(b, 1)
            for v in blossom_leaves(b):
                set_rate(v, -1)
                queue.append(v)
        else:
            if b >= n:
                set_rate(b, -1)
                heappush(heap, (off[b], _EXPAND, b, stamp[b], 0))
            for v in blossom_leaves(b):
                set_rate(v, 1)
            base = blossombase[b]
            assert mate[base] >= 0
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w to find a common tree ancestor base;
        -1 when they lie in different trees."""
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
        """Shrink the cycle through edge k and base into a new S-blossom."""
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
        tree[b] = tree[bb]
        members.setdefault(tree[b], [tree[b]]).append(b)
        off[b] = 0.0
        rate[b] = 0
        set_rate(b, 1)
        blossomchilds[b] = path
        blossomendps[b] = endps
        for s in path:
            if s >= n:
                set_rate(s, 0)  # nested z freezes
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                set_rate(leaf, -1)
                queue.append(leaf)
            inblossom[leaf] = b

    def expand_blossom(b: int) -> None:
        """Dissolve top-level T-blossom b, whose z has reached zero."""
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        set_rate(b, 0)
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
            j += jstep
            p = blossomendps[b][j - endptrick] ^ endptrick
            j += jstep
        bv = blossomchilds[b][j]
        label[endpoint[p ^ 1]] = label[bv] = 2
        labelend[endpoint[p ^ 1]] = labelend[bv] = p
        tree[bv] = tree[b]
        members.setdefault(tree[b], [tree[b]]).append(bv)
        if bv >= n:
            set_rate(bv, -1)
            heappush(heap, (off[bv], _EXPAND, bv, stamp[bv], 0))
        # The other children join a tree through a marked vertex, or
        # become unlabelled.
        loose: list[int] = []
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
            else:
                for leaf in blossom_leaves(bv):
                    set_rate(leaf, 0)
                    loose.append(leaf)
            j += jstep
        for x in loose:
            offer(x)
        label[b] = labelend[b] = tree[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
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

    def clear(b: int, unscanned: list[int]) -> None:
        """Unlabel b and what it holds; its vertices that leave without a
        finished scan as S (T vertices included) go to unscanned."""
        label[b] = 0
        labelend[b] = -1
        if b < n:
            if cur[b] is None:
                unscanned.append(b)
            set_rate(b, 0)
        else:
            for s in blossomchilds[b]:
                clear(s, unscanned)

    def dissolve(root: int, unscanned: list[int]) -> None:
        """Unlabel every blossom of the tree rooted at root, nested ones
        included, and drop the marks its scans left in other trees."""
        for b in members.pop(root, (root,)):
            if blossomparent[b] == -1 and label[b] > 0 and tree[b] == root:
                tree[b] = -1
                if b >= n:
                    set_rate(b, 0)
                clear(b, unscanned)
        for w, q in marks.pop(root, ()):
            if labelend[w] == q:
                label[w] = 0
                labelend[w] = -1

    def tight_ss(v: int, w: int, k: int) -> bool:
        """Act on tight edge k between S vertices v and w: shrink a
        blossom, or augment and dissolve both trees (returns True)."""
        rv = tree[inblossom[v]]
        rw = tree[inblossom[w]]
        if (rv not in members and rv not in marks
                and rw not in members and rw not in marks):
            # Two lone roots: v and w themselves.
            mate[endpoint[2 * k]] = 2 * k + 1
            mate[endpoint[2 * k + 1]] = 2 * k
            for x in (v, w):
                label[x] = 0
                tree[x] = -1
                set_rate(x, 0)
            return True
        base = scan_blossom(v, w)
        if base >= 0:
            add_blossom(base, k)
            return False
        augment_matching(k)
        unscanned: list[int] = []
        dissolve(rv, unscanned)
        dissolve(rw, unscanned)
        for x in unscanned:
            offer(x)
        return True

    def scan(v: int) -> bool:
        """Act on the tight edges of S vertex v, make v's event and offer
        each scanned S neighbour its edge; returns True if v's tree
        augmented."""
        best = no_event
        bv = inblossom[v]
        for p in neighbend[v]:
            w = endpoint[p]
            bw = inblossom[w]
            if bv == bw:
                continue
            lw = label[bw]
            if lw == 2 and label[w]:
                continue
            # v is S: its dual is off[v] - now.
            k = p >> 1
            t0 = off[v] + off[w] - wt2[k]
            if lw == 1:
                if t0 - 2.0 * now <= EPS:
                    if tight_ss(v, w, k):
                        return True
                    bv = inblossom[v]  # v's new blossom
                    continue
                t = 0.5 * t0
                ev = cur[w]
                if ev is not None and (t < ev[0] or (t == ev[0] and k < ev[2])):
                    push_edge(k, t, w)
            elif lw == 0:
                if t0 - now <= EPS:
                    assign_label(w, 2, p ^ 1)
                    continue
                t = t0
            else:
                if t0 <= EPS:
                    label[w] = 2
                    labelend[w] = p ^ 1
                    marks.setdefault(tree[bv], []).append((w, p ^ 1))
                continue
            if t < best[0]:
                best = (t, _EDGE, k, stamp[endpoint[2 * k]], stamp[endpoint[2 * k + 1]], v)
        cur[v] = best
        if best is not no_event:
            heappush(heap, best)
        return False

    free = n
    while free >= 2:
        if queue:
            v = queue.pop()
            if label[inblossom[v]] == 1 and scan(v):
                free -= 2
            continue
        ev = heappop(heap)
        t, kind, x = ev[0], ev[1], ev[2]
        if kind == _EDGE:
            owner = ev[5]
            if cur[owner] is not ev:
                continue  # replaced, or its owner changed rate
            v = endpoint[2 * x]
            w = endpoint[2 * x + 1]
            if stamp[v] == ev[3] and stamp[w] == ev[4] and inblossom[v] != inblossom[w]:
                if t > now:
                    now = t
                if label[inblossom[v]] == 0:
                    assign_label(v, 2, 2 * x + 1)
                elif label[inblossom[w]] == 0:
                    assign_label(w, 2, 2 * x)
                elif tight_ss(w, v, x):
                    free -= 2
                    continue
            # Stale, or acted on with the owner still S: recompute.
            push_own(owner)
        elif kind == _EXPAND:
            if stamp[x] != ev[3]:
                continue
            if t > now:
                now = t
            expand_blossom(x)
        else:
            break  # free vertices' duals reach zero: the matching is optimal

    # Each self-recursive closure holds the cell that holds it: emptied,
    # the solve leaves no reference cycle for the collector.
    del assign_label, blossom_leaves, augment_blossom, clear
    out = [-1] * n
    for v in range(n):
        if mate[v] >= 0:
            out[v] = endpoint[mate[v]]
    return out
