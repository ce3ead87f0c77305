"""Exact maximum-weight matching on general weighted graphs.

`_max_weight_matching` is a primal-dual blossom algorithm (Edmonds) run
in C (`_blossom.c`, loaded with ctypes) as one continuous stage over many alternating trees, in the manner of
multi-tree solvers (Kolmogorov, "Blossom V", 2009; Higgott & Gidney,
"Sparse Blossom", arXiv:2303.15933).  Every free vertex roots an S-tree
at the start; trees grow, shrink odd cycles into blossoms and expand
T-blossoms whose dual reaches zero.  An augmentation joins two trees,
flips the matching along the path and dissolves only those two trees:
their blossoms, nested ones included, lose their labels, and so do the
marks their scans left inside other trees' T-blossoms.  Every other tree
carries on.  The decoder maximizes pair gains: each component's (n,
edges), sorted out of the graph's kept pairs by `decoder._match_graph`
(`decoder._sorted_gain_edges` in an array-built graph), goes to this solver
or, up to `decoder.DP_MAX_NODES` events, to `decoder._solve_dp`, which
takes the same arguments and maximizes the same sum.

Duals are lazy.  All trees move their duals together as time `now`
advances, so the dual of a vertex, or the z of a blossom, is stored as
off + rate * now.  A vertex's rate follows the label of its top-level
blossom (S -1, T +1, unlabelled 0); a top-level blossom's z moves the
other way and nested z are frozen.  A value is rewritten only when its
rate changes.  Nothing else is updated as time passes: a heap holds the
times at which something becomes tight, and the solver jumps from one
to the next.  A T-blossom owns the event of its z reaching zero, pushed
when it is labelled T.

Only S vertices own edge events, at most one each: a scanned S vertex's
event is its least-slack edge to an S or unlabelled vertex of another
blossom (between S vertices the slack falls at rate 2, else at rate 1).
An edge's slack is fixed while neither end changes rate, so the run
keeps one invariant: every edge that can tighten is covered, at each of
its S ends, by an owner event no later than its own (by time, then edge
index).  Every way an edge starts to tighten, or to tighten faster,
restores it:
- a vertex that turns S is scanned before the next event is popped; its
  scan makes its own event and offers each edge to a scanned S
  neighbour whose event is later;
- a vertex that leaves T (its tree dissolved, or its T-blossom expanded
  around it) offers its edges to its scanned S neighbours the same way,
  and so does one whose tree dissolves before its scan as S finished;
- a scanned S vertex that leaves S only slows its edges, so the events
  its S neighbours hold for them stay lower bounds, and it makes no
  rescan.
Since every event is a lower bound on what its owner covers, the
earliest event in the heap always names the earliest tightening edge,
and the solver takes the same actions in the same order as one that
recomputes the event of every changed vertex after every change.  That
holds exactly where the duals are computed exactly (integer or other
dyadic weights); elsewhere a lower bound can come out a rounding unit
above the edge's recomputed time when the edge is tight at the moment
its end leaves S, and events that tie before rounding may then be taken
in another order, still reaching a maximum-weight matching.

Events are keyed (time, kind, edge or blossom index, stamps, owner),
where the stamps count the rate changes of the edge's ends when the
edge was found; equal times resolve by kind, then index.  A scan takes
a candidate's stamps when it finds it, because a later tight edge in
the same scan can label the candidate's blossom T.  A popped event its
owner has replaced, or whose owner changed rate since, is dropped.  One
whose other end changed rate, or whose ends now share a blossom, is
stale: its owner recomputes its event from its edges.  A current event
is acted on whatever its recomputed slack, so roundoff can never lose an
event, and its owner, if still S, then recomputes its event.  Either way
the new event is never earlier than the one popped.  Nothing at or after
the stop time (now = max weight, where the free vertices' duals reach
zero) is pushed; the run ends there or when fewer than two free vertices
remain.

Two shortcuts skip work whose outcome is known.  Both rest on one fact:
every scan or recompute of an S vertex covers its edges to the roots
that have been S since the start, so such a root never needs to offer.
- Until the first event is popped, time is 0 and only edges tight at 0
  act, so a vertex that is no end of such an edge keeps its first label
  and dual, and its first scan can act on nothing.  Its least-slack edge
  over all of its edges, recorded while the edges are read in, is its
  event: exact while the neighbour is still an S root, and a lower bound
  found stale when popped otherwise.  The vertex starts with it instead
  of waiting in the scan queue.
- A tight edge between two trees that are each a lone root augments by
  setting the two mates: the trace-back, the path flip and the dissolve
  of such trees reduce to that, even when a root leaves S in the middle
  of its own scan.
Tree member and mark lists are made when a tree first needs one, so a
lone root has neither.

`EPS` (1e-12, absolute) decides only whether an edge found during a scan
is tight enough to act on at once rather than through an event; duals
are combinations of halved input weights, so this is far above
accumulated rounding error for decoder-scale weights.

The C kernel is a port of the Python solver kept in
`tests/blossom_reference.py`, and returns the same mates, ties included:
- every float expression is evaluated in the same order, compiled with
  `-ffp-contract=off` so that no multiply-add is fused;
- events compare as the same tuples (time, kind, index, stamps, owner);
- the heap sifts as CPython's `heapq` does;
- where the Python compared events by identity (`cur[owner] is ev`), the
  kernel compares their slots in its event pool;
- member, mark, child and queue lists keep their insertion order;
- each assert is a check whose failure returns its line of `_blossom.c`,
  which the wrapper raises as AssertionError.

The kernel is built on first import with the system C compiler into the
package's `__pycache__/`, under a name that carries a digest of the
source and the compile command; later imports load that file.  A failed
build raises ImportError naming the command.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_blossom.c")
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")


def load_kernel(directory: Path) -> ctypes.CDLL:
    """The compiled kernel, built into `directory` unless a build of the
    same source and command is already there."""
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_COMPILE).encode()).hexdigest()[:16]
    lib = directory / f"_blossom-{digest}.so"
    if not lib.exists():
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        command = [*_COMPILE, "-o", tmp, str(_SOURCE)]
        try:
            subprocess.run(command, check=True, capture_output=True, text=True)
            os.chmod(tmp, 0o755)
            os.replace(tmp, lib)
        except (OSError, subprocess.CalledProcessError) as exc:
            Path(tmp).unlink(missing_ok=True)
            detail = getattr(exc, "stderr", None) or exc
            raise ImportError(f"building the blossom kernel failed: "
                              f"{' '.join(command)}: {detail}") from exc
    kernel = ctypes.CDLL(str(lib))
    kernel.max_weight_matching.argtypes = (ctypes.c_int, ctypes.c_int,
                                           ctypes.c_void_p, ctypes.c_void_p)
    kernel.max_weight_matching.restype = ctypes.c_int
    return kernel


_kernel = load_kernel(Path(__file__).parent / "__pycache__").max_weight_matching


def _max_weight_matching(n: int, edges: list[tuple[int, int, float]]) -> list[int]:
    """Maximum-weight matching; returns mate[v] = partner vertex or -1.

    Edge weights may be any floats.
    """
    m = len(edges)
    packed = np.fromiter(chain.from_iterable(edges), float, 3 * m)
    mate = np.empty(n, np.intc)
    rc = _kernel(n, m, packed.ctypes.data, mate.ctypes.data)
    if rc == 1:
        raise MemoryError("blossom kernel: out of memory")
    if rc == 2:
        raise ValueError("blossom kernel: an edge names a vertex outside 0..n-1")
    if rc:
        raise AssertionError(f"blossom kernel: the check at _blossom.c:{rc} failed")
    return mate.tolist()
