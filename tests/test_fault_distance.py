"""Graph-like distance of the derived link graphs (ROADMAP item 12).

The fewest faults on a chain from one boundary side to the opposite one,
counting each fault as one link or one boundary exit: an exit, then
links, then an exit.  Time is free, so the chain's cells are found by a
breadth-first search over each `LinkGraph`'s cells, with every pair
link as an edge and the time-like links (one cell to itself) dropped.
This is the quantity Stim reports as `shortest_graphlike_error` (Gidney,
arXiv:2103.02202); the circuit's hook errors must not bring it below d.
"""

import functools
import math

import pytest

from surfacesim.edge_analysis import EdgeClass, derive_edge_classes
from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.metric import LinkGraph
from surfacesim.noise import ErrorModel, preset
from surfacesim.sim import compile_circuit

# The sides each graph's chains run between: Z-type syndrome qubits exit
# left or right, X-type top or bottom.
SIDES = {"z": ("left", "right"), "x": ("top", "bottom")}
MODELS = {name: preset(name, 0.01) for name in ("standard", "balanced", "iontrap")}
MODELS["phenomenological"] = ErrorModel(0.0, 0.015, 0.01)


@functools.lru_cache(maxsize=1)
def _circuit(d: int):
    lat = build_lattice(d)
    return compile_circuit(lat, standard_schedule(lat))


def graphlike_distance(graph: LinkGraph) -> float:
    """2 + the fewest links from a cell exiting on one side of the graph
    to a cell exiting on the opposite side (inf if none)."""
    start, end = SIDES[graph.graph]
    dist = {cell: 0 for cell, (_, side) in graph.exits.items() if side == start}
    frontier = list(dist)
    while frontier:
        if any(graph.exits.get(cell, (0.0, None))[1] == end for cell in frontier):
            return 2 + dist[frontier[0]]
        nxt = []
        for cell in frontier:
            for (other, _t), _p in graph.neighbors((cell, 0)):
                if other not in dist:
                    dist[other] = dist[cell] + 1
                    nxt.append(other)
        frontier = nxt
    return math.inf


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_graphlike_distance_is_the_code_distance(d):
    circuit = _circuit(d)
    for name, model in MODELS.items():
        table = derive_edge_classes(circuit, model)
        for graph in ("x", "z"):
            assert graphlike_distance(LinkGraph(table, graph)) == d, (name, graph)


def test_graphlike_distance_sees_a_shortcut():
    # One added link class from a left-exit cell to a right-exit cell
    # makes a chain of three faults on a distance-5 code.
    table = derive_edge_classes(_circuit(5), MODELS["standard"])
    exits = table.boundary_classes["z"]
    left = min(cell for cell, cls in exits.items() if cls.side == "left")
    right = min(cell for cell, cls in exits.items() if cls.side == "right")
    table.pair_classes["z"][(left, right, 0)] = EdgeClass(
        graph="z", cells=(table.lattice.cell(left), table.lattice.cell(right)), dt=0,
        probability=0.01, members=())
    assert graphlike_distance(LinkGraph(table, "x")) == 5
    assert graphlike_distance(LinkGraph(table, "z")) == 3
