import itertools
import math

import pytest

from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.noise import ErrorModel, preset
from surfacesim.sim import compile_circuit
from surfacesim.edge_analysis import derive_edge_classes
from surfacesim.metric import (
    LinkGraph, MetricCache, boundary_distance, d_max, d_n, manhattan, min_links,
    path_sum, path_sum_table, settled,
)


@pytest.fixture(scope="module")
def table_d5():
    lat = build_lattice(5)
    circ = compile_circuit(lat, standard_schedule(lat))
    return derive_edge_classes(circ, preset("standard", 0.01))


@pytest.fixture(scope="module")
def graph_z(table_d5):
    return LinkGraph(table_d5, "z")


def test_manhattan_examples():
    assert manhattan((0, 0, 0), (0, 0, 0)) == 0
    assert manhattan((0, 0, 0), (1, -1, 0)) == 2
    assert manhattan((2, 3, 1), (0, 0, 5)) == 9


def test_dmax_single_temporal_link(table_d5, graph_z):
    lat = table_d5.lattice
    cell = lat.index((4, 3))
    p_a = table_d5.pair_classes["z"][(cell, cell, 1)].probability
    assert d_max(graph_z, (cell, 0), (cell, 1)) == pytest.approx(-math.log(p_a))


def test_link_graph_reads_probabilities_when_built():
    """A class probability edited after the derivation is the one a
    LinkGraph built afterwards uses; a link or exit edited to zero is
    dropped."""
    lat = build_lattice(5)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    cell = lat.index((4, 3))
    temporal = table.pair_classes["z"][(cell, cell, 1)]
    temporal.probability = 0.125
    g = LinkGraph(table, "z")
    assert ((cell, 1), 0.125) in list(g.neighbors((cell, 0)))
    assert ((cell, -1), 0.125) in list(g.neighbors((cell, 0)))
    assert d_max(g, (cell, 0), (cell, 1)) == pytest.approx(-math.log(0.125))
    temporal.probability = 0.0
    edge = lat.index((4, 1))
    table.boundary_classes["z"][edge].probability = 0.0
    g = LinkGraph(table, "z")
    assert (cell, 1) not in [other for other, _ in g.neighbors((cell, 0))]
    assert d_max(g, (cell, 0), (cell, 1)) > -math.log(0.01)
    assert g.boundary_link(edge) is None


def test_dmax_requires_distinct_nodes(graph_z, table_d5):
    cell = table_d5.lattice.index((4, 3))
    with pytest.raises(ValueError):
        d_max(graph_z, (cell, 0), (cell, 0))


def test_dmax_two_links_with_equal_probabilities():
    # On a synthetic uniform table every 2-link path has the same weight.
    lat = build_lattice(5)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    q = 0.01
    for key_classes in table.pair_classes.values():
        for cls in key_classes.values():
            cls.probability = q
    g = LinkGraph(table, "z")
    a = lat.index((4, 3))
    b = lat.index((4, 5))  # one horizontal link apart
    c = lat.index((4, 7))  # two horizontal links apart
    assert d_max(g, (a, 0), (b, 0)) == pytest.approx(-math.log(q))
    assert d_max(g, (a, 0), (c, 0)) == pytest.approx(-2 * math.log(q))


def test_single_link_pair_d0_equals_dmax(table_d5, graph_z):
    lat = table_d5.lattice
    cell = lat.index((4, 3))
    s1, s2 = (cell, 0), (cell, 1)
    w0, count = d_n(graph_z, s1, s2, 0)
    assert count == 1
    assert w0 == pytest.approx(d_max(graph_z, s1, s2))


def test_dn_rejects_large_n(graph_z, table_d5):
    lat = table_d5.lattice
    with pytest.raises(ValueError):
        d_n(graph_z, (lat.index((4, 3)), 0), (lat.index((4, 5)), 0), 4)


def test_metric_dominance_random_pairs(table_d5, graph_z):
    import numpy as np
    lat = table_d5.lattice
    rng = np.random.default_rng(3)
    stabs = [lat.index(c) for c in lat.z_stabilizers]
    sub = {s: lat.sublattice_coord(lat.cell(s)) for s in stabs}
    checked = 0
    while checked < 30:
        a, b = rng.choice(len(stabs), size=2, replace=False)
        s1, s2 = (stabs[a], 0), (stabs[b], int(rng.integers(0, 3)))
        # Keep the enumeration tractable: nearby pairs only.
        if max(abs(sub[s1[0]][0] - sub[s2[0]][0]),
               abs(sub[s1[0]][1] - sub[s2[0]][1]), s2[1]) > 2:
            continue
        dm = d_max(graph_z, s1, s2)
        d0, _ = d_n(graph_z, s1, s2, 0)
        d1, _ = d_n(graph_z, s1, s2, 1)
        d2, _ = d_n(graph_z, s1, s2, 2)
        assert dm >= d0 - 1e-12
        assert d0 >= d1 - 1e-12
        assert d1 >= d2 - 1e-12
        checked += 1


def test_metric_symmetry(table_d5, graph_z):
    lat = table_d5.lattice
    pairs = [((lat.index((4, 3)), 0), (lat.index((2, 5)), 1)),
             ((lat.index((0, 1)), 0), (lat.index((4, 3)), 2))]
    for s1, s2 in pairs:
        assert d_max(graph_z, s1, s2) == pytest.approx(d_max(graph_z, s2, s1))
        for n in (0, 1, 2):
            wa, ca = d_n(graph_z, s1, s2, n)
            wb, cb = d_n(graph_z, s2, s1, n)
            assert wa == pytest.approx(wb)
            assert ca == cb


def _enumerate_all_paths(graph, s1, s2, max_links):
    """Oracle: exhaustive simple-path enumeration via itertools-free DFS,
    independent of the implementation's pruned search."""
    results = []

    def walk(node, visited, prob, steps):
        if steps > max_links:
            return
        for other, p in graph.neighbors(node):
            if other == s2:
                results.append(prob * p)
            elif other not in visited and steps < max_links:
                walk(other, visited | {other}, prob * p, steps + 1)

    walk(s1, {s1}, 1.0, 1)
    return results


class _WindowLinkGraph(LinkGraph):
    """A link graph whose rounds outside [t_min, t_max] do not exist."""

    def __init__(self, table, graph, t_min, t_max):
        super().__init__(table, graph)
        self.t_min, self.t_max = t_min, t_max

    def neighbors(self, node):
        for other, prob in super().neighbors(node):
            if self.t_min <= other[1] <= self.t_max:
                yield other, prob


def test_path_enumeration_oracle_small_window(table_d5):
    # 5x5x5 window: d_max and d_n reproduced exactly by brute force.
    lat = table_d5.lattice
    g = _WindowLinkGraph(table_d5, "z", t_min=0, t_max=4)
    s1 = (lat.index((2, 3)), 1)
    s2 = (lat.index((4, 5)), 2)
    l = min_links(g, s1, s2)
    for n in (0, 1, 2):
        oracle_paths = _enumerate_all_paths(g, s1, s2, l + n)
        w, count = d_n(g, s1, s2, n)
        assert count == len(oracle_paths)
        assert w == pytest.approx(-math.log(math.fsum(oracle_paths)))
        # The walk program needs no time periodicity either.
        assert path_sum_table(g, s1, [s2], n)[0] == pytest.approx(w, rel=1e-12)
    best = min(-math.log(p) for p in _enumerate_all_paths(g, s1, s2, l + 3))
    # d_max must match the best path found over a generous link budget.
    assert d_max(g, s1, s2) == pytest.approx(best)


def _walk_weight(graph, s1, s2, lengths):
    """Summed probability of every walk (nodes may repeat) from s1 to s2
    whose link count is in `lengths`."""
    total = 0.0
    layer = {s1: 1.0}
    for m in range(1, max(lengths) + 1):
        nxt = {}
        for node, w in layer.items():
            for other, p in graph.neighbors(node):
                nxt[other] = nxt.get(other, 0.0) + w * p
        layer = nxt
        if m in lengths:
            total += layer.get(s2, 0.0)
    return total


def test_path_sum_table_excludes_backtracking_with_equal_probabilities():
    # On a synthetic uniform table the n = 2 sum is q^l times a path count;
    # walks that step back and forth are longer than l by 2 and must not
    # be counted.
    lat = build_lattice(5)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    q = 0.01
    for key_classes in table.pair_classes.values():
        for cls in key_classes.values():
            cls.probability = q
    g = LinkGraph(table, "z")
    s1 = (lat.index((4, 3)), 0)
    targets = [(lat.index((4, 5)), 0),   # one horizontal link
               (lat.index((4, 7)), 0),   # two horizontal links
               (lat.index((4, 3)), 1)]   # one temporal link
    got = path_sum_table(g, s1, targets, 2)
    for s2, w in zip(targets, got):
        l = min_links(g, s1, s2)
        paths = _enumerate_all_paths(g, s1, s2, l + 2)
        assert w == pytest.approx(-math.log(path_sum(g, s1, s2, l + 2).value),
                                  rel=1e-12)
        assert w == pytest.approx(-math.log(math.fsum(paths)), rel=1e-12)
        walks = _walk_weight(g, s1, s2, range(l, l + 3))
        assert walks > math.fsum(paths) * (1 + 1e-3)
        assert w > -math.log(walks)


def test_path_sum_table_rejects_bad_arguments(graph_z, table_d5):
    s1 = (table_d5.lattice.index((4, 3)), 0)
    with pytest.raises(ValueError):
        path_sum_table(graph_z, s1, [(s1[0], 1)], 3)
    with pytest.raises(ValueError):
        path_sum_table(graph_z, s1, [s1], 1)


def test_settled_yields_d_max_lightest_first(table_d5, graph_z):
    src = (table_d5.lattice.index((4, 3)), 0)
    out = list(settled(graph_z, src, cutoff=10.0))
    weights = [w for w, _ in out]
    assert out[0] == (0.0, src)
    assert weights == sorted(weights) and weights[-1] <= 10.0
    assert len({node for _, node in out}) == len(out) > 40
    for w, node in out[1::7]:
        assert w == pytest.approx(d_max(graph_z, src, node), rel=1e-12, abs=0)


def test_boundary_distance_single_link(table_d5, graph_z):
    lat = table_d5.lattice
    cell = lat.index((4, 1))  # adjacent to the left boundary
    cls = table_d5.boundary_classes["z"][cell]
    w, side = boundary_distance(graph_z, (cell, 0))
    assert side == "left"
    assert w == pytest.approx(-math.log(cls.probability))


def test_boundary_distance_monotone_row_sweep(table_d5, graph_z):
    lat = table_d5.lattice
    weights = []
    for j in range(1, lat.size, 2):
        w, _ = boundary_distance(graph_z, (lat.index((4, j)), 0))
        weights.append(w)
    # Distance to the nearest boundary rises toward the middle column.
    mid = len(weights) // 2
    assert weights[0] < weights[mid]
    assert weights[-1] < weights[mid]
    assert weights == pytest.approx(weights[::-1], rel=1e-9)


def test_paper_anchor_pair_values():
    """In-text example at p=0.01: d_0/d_1/d_2 near 6.91/6.86/6.85.

    The derived link topology has 4 minimum-length paths (not 6), so the
    counts differ from the quoted 6/30/390 and are pinned at the derived
    values as a regression; the weights land within +/-0.15.  Evaluated
    on a central pair at d=7, deep enough that no admitted path touches
    a boundary (d=9 reproduces identical numbers).
    """
    lat = build_lattice(7)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    g = LinkGraph(table, "z")
    s1 = (lat.index((6, 7)), 0)
    s2 = (lat.index((8, 5)), 0)  # sublattice offset (1, -1, 0)
    d0, c0 = d_n(g, s1, s2, 0)
    d1, c1 = d_n(g, s1, s2, 1)
    d2, c2 = d_n(g, s1, s2, 2)
    assert (c0, c1, c2) == (4, 28, 180)
    assert d0 == pytest.approx(6.91, abs=0.15)
    assert d1 == pytest.approx(6.86, abs=0.15)
    assert d2 == pytest.approx(6.85, abs=0.15)
    assert d_max(g, s1, s2) >= d0


def test_metric_cache_consistency(table_d5):
    cache = MetricCache(table_d5, "z", "dmax")
    lat = table_d5.lattice
    g = LinkGraph(table_d5, "z")
    a, b = lat.index((2, 3)), lat.index((4, 5))
    assert cache.pair_weight(a, 3, b, 4) == pytest.approx(
        d_max(g, (a, 0), (b, 1)))
    # Time-shift invariance through the cache.
    assert cache.pair_weight(a, 7, b, 8) == cache.pair_weight(a, 3, b, 4)
    assert cache.pair_weight(b, 4, a, 3) == cache.pair_weight(a, 3, b, 4)
    w, side = cache.boundary_weight(lat.index((4, 1)))
    assert side == "left"

    mcache = MetricCache(table_d5, "z", "manhattan")
    assert mcache.pair_weight(a, 0, b, 2) == manhattan((1, 1, 0), (2, 2, 2))
    assert mcache.boundary_weight(lat.index((4, 1))) == (1.0, "left")
    assert mcache.boundary_weight(lat.index((4, 7))) == (1.0, "right")


def test_equal_probability_ranking_matches_weighted_manhattan():
    # With all link probabilities equal, d_max orders pairs like a
    # link-count distance, the bridge to the legacy metric.
    lat = build_lattice(5)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    q = 0.02
    for classes in table.pair_classes.values():
        for cls in classes.values():
            cls.probability = q
    g = LinkGraph(table, "z")
    a = lat.index((2, 3))
    pairs = [((a, 0), (lat.index((2, 5)), 0)),
             ((a, 0), (lat.index((2, 7)), 0)),
             ((a, 0), (lat.index((4, 5)), 2))]
    link_counts = [min_links(g, s1, s2) for s1, s2 in pairs]
    weights = [d_max(g, s1, s2) for s1, s2 in pairs]
    ranked_w = sorted(range(3), key=lambda i: weights[i])
    ranked_c = sorted(range(3), key=lambda i: link_counts[i])
    assert ranked_w == ranked_c


@pytest.mark.parametrize("d", [3, 5, 7])
def test_nearest_boundary_serves_every_side_choice(d):
    """`Lattice.nearest_boundary` counts the stabilizers between a cell and
    each boundary of its type, and it decides the side of every boundary
    class, the manhattan boundary weight and the zero-probability escape."""
    lat = build_lattice(d)
    circ = compile_circuit(lat, standard_schedule(lat))
    noisy = derive_edge_classes(circ, preset("standard", 0.01))
    silent = derive_edge_classes(circ, ErrorModel(0, 0, 0))
    for graph, sides in (("z", ("left", "right")), ("x", ("top", "bottom"))):
        stabs = lat.stabilizers(graph)
        cache = MetricCache(noisy, graph, "manhattan")
        escape = LinkGraph(silent, graph)
        for i, j in stabs:
            if graph == "z":  # along the row
                line = [jj for ii, jj in stabs if ii == i]
                pos = j
            else:  # along the column
                line = [ii for ii, jj in stabs if jj == j]
                pos = i
            before = 1 + sum(q < pos for q in line)
            after = 1 + sum(q > pos for q in line)
            expect = (before, sides[0]) if before <= after else (after, sides[1])
            assert lat.nearest_boundary((i, j)) == expect
            cell = lat.index((i, j))
            assert cache.boundary_weight(cell) == (float(expect[0]), expect[1])
            assert boundary_distance(escape, (cell, 0)) == (math.inf, expect[1])
        assert noisy.boundary_classes[graph]
        for cell, cls in noisy.boundary_classes[graph].items():
            assert lat.nearest_boundary(lat.cell(cell)) == (1, cls.side)
