import functools
import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfacesim.matching import _max_weight_matching

from oracles import (MatchGraph, Matching, MatchingError, brute_force_mwpm,
                     max_cardinality_matching, mwpm)


def complete_graph(weights):
    """weights: dict (u, v) -> w over u < v."""
    n = max(max(k) for k in weights) + 1
    g = MatchGraph(n_nodes=n)
    for (u, v), w in weights.items():
        g.add_edge(u, v, w)
    return g


def test_two_nodes():
    g = MatchGraph(2)
    g.add_edge(0, 1, 3.7)
    m = mwpm(g)
    assert m.pairs == ((0, 1),)
    assert m.total_weight == pytest.approx(3.7)
    b = brute_force_mwpm(g)
    assert b.pairs == m.pairs and b.total_weight == m.total_weight


def test_four_node_dominant_pairing():
    weights = {(0, 1): 1, (2, 3): 1, (0, 2): 10, (1, 3): 10,
               (0, 3): 10, (1, 2): 10}
    g = complete_graph(weights)
    m = mwpm(g)
    assert set(m.pairs) == {(0, 1), (2, 3)}
    assert m.total_weight == pytest.approx(2)
    assert brute_force_mwpm(g).total_weight == pytest.approx(2)


def test_odd_node_count_rejected():
    g = MatchGraph(3)
    g.add_edge(0, 1, 1.0)
    with pytest.raises(MatchingError):
        mwpm(g)
    with pytest.raises(MatchingError):
        brute_force_mwpm(g)


def test_no_perfect_matching_detected():
    g = MatchGraph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(0, 2, 1.0)
    g.add_edge(0, 3, 1.0)  # star: vertices 1,2,3 pairwise unconnected
    with pytest.raises(MatchingError):
        mwpm(g)
    with pytest.raises(MatchingError):
        brute_force_mwpm(g)


def test_brute_force_size_limit():
    g = MatchGraph(14)
    with pytest.raises(MatchingError):
        brute_force_mwpm(g)


def test_six_nodes_equal_weights_degenerate():
    g = MatchGraph(6)
    for u in range(6):
        for v in range(u + 1, 6):
            g.add_edge(u, v, 2.5)
    m = mwpm(g)
    assert len(m.pairs) == 3
    assert m.total_weight == pytest.approx(7.5)
    assert brute_force_mwpm(g).total_weight == pytest.approx(7.5)


def test_empty_graph():
    assert mwpm(MatchGraph(0)).pairs == ()


def _random_graph(rng, n, density=1.0, scale=1.0):
    g = MatchGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() <= density:
                g.add_edge(u, v, float(rng.random()) * scale)
    return g


def test_oracle_equivalence_1000_graphs():
    rng = np.random.default_rng(12345)
    count = 0
    trial = 0
    while count < 1000:
        trial += 1
        n = int(rng.choice([4, 6, 8, 8, 10, 12]))
        density = float(rng.choice([1.0, 1.0, 0.8]))
        g = _random_graph(rng, n, density, scale=float(rng.choice([1.0, 100.0])))
        try:
            expect = brute_force_mwpm(g)
        except MatchingError:
            continue
        got = mwpm(g)
        assert len(got.pairs) == n // 2
        seen = set()
        for u, v in got.pairs:
            seen.update((u, v))
        assert seen == set(range(n))
        assert got.total_weight == pytest.approx(expect.total_weight, abs=1e-9), \
            (trial, g.edges)
        count += 1


def test_ten_random_8_node_complete_graphs_exact():
    rng = np.random.default_rng(777)
    for _ in range(10):
        g = _random_graph(rng, 8)
        assert mwpm(g).total_weight == pytest.approx(
            brute_force_mwpm(g).total_weight, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=1000.0),
       st.integers(min_value=0, max_value=10**6))
def test_scale_invariance(c, seed):
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, 8)
    base = mwpm(g)
    scaled = MatchGraph(8)
    for u, v, w in g.edges:
        scaled.add_edge(u, v, w * c)
    m = mwpm(scaled)
    assert m.total_weight == pytest.approx(base.total_weight * c, rel=1e-9)
    # The scaled solution is optimal for the scaled graph.
    assert m.total_weight <= brute_force_mwpm(scaled).total_weight + 1e-9 * c


def test_determinism():
    rng = np.random.default_rng(42)
    g = _random_graph(rng, 10)
    first = mwpm(g)
    for _ in range(3):
        again = mwpm(g)
        assert again.pairs == first.pairs
        assert again.total_weight == first.total_weight


def test_zero_weight_edges():
    g = MatchGraph(4)
    g.add_edge(0, 1, 0.0)
    g.add_edge(2, 3, 0.0)
    g.add_edge(0, 2, 5.0)
    g.add_edge(1, 3, 5.0)
    m = mwpm(g)
    assert set(m.pairs) == {(0, 1), (2, 3)}
    assert m.total_weight == 0.0


def test_blossom_shrink_path():
    # Odd cycle forcing blossom formation: triangle plus pendant matches.
    g = MatchGraph(6)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(0, 2, 1.0)
    g.add_edge(0, 3, 4.0)
    g.add_edge(1, 4, 6.0)
    g.add_edge(2, 5, 8.0)
    m = mwpm(g)
    assert m.total_weight == pytest.approx(
        brute_force_mwpm(g).total_weight)


def test_large_sparse_graph_against_dp_structure():
    # 60 nodes: ring + chords; checks the solver scales past oracle sizes
    # and returns a perfect matching with sane total.
    n = 60
    g = MatchGraph(n)
    for u in range(n):
        g.add_edge(u, (u + 1) % n, 1.0 + 0.001 * u)
    for u in range(0, n, 2):
        g.add_edge(u, (u + 7) % n, 3.0)
    m = mwpm(g)
    assert len(m.pairs) == n // 2
    # The even-chain pairing (0,1),(2,3),... has weight sum_{even u}(1+.001u).
    best_chain = sum(1.0 + 0.001 * u for u in range(0, n, 2))
    assert m.total_weight <= best_chain + 1e-9


def _best_matching(n, edges, maxcardinality):
    """Exhaustive optimum over all (not necessarily perfect) matchings, by
    recursion over vertex subsets: (cardinality, weight) with
    maxcardinality, else (0, weight)."""
    weight_of = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        weight_of[key] = max(w, weight_of.get(key, -math.inf))

    @functools.lru_cache(maxsize=None)
    def best(mask):
        if mask == 0:
            return (0, 0.0)
        u = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << u)
        out = best(rest)
        for v in range(u + 1, n):
            w = weight_of.get((u, v))
            if w is not None and rest >> v & 1:
                card, total = best(rest ^ (1 << v))
                cand = (card + 1 if maxcardinality else 0, total + w)
                if cand > out:
                    out = cand
        return out

    return best((1 << n) - 1)


def _solver_value(n, edges, mate, maxcardinality):
    """(cardinality, weight) of a mate list, checked to be a matching of
    the graph's edges."""
    weight_of = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        weight_of[key] = max(w, weight_of.get(key, -math.inf))
    pairs = []
    for v in range(n):
        if mate[v] >= 0:
            assert mate[mate[v]] == v
            if v < mate[v]:
                pairs.append((v, mate[v]))
    total = math.fsum(weight_of[p] for p in pairs)
    return (len(pairs) if maxcardinality else 0, total)


def _solve(n, edges, maxcardinality):
    """The solver's mates: maximum weight, or with maxcardinality maximum
    cardinality first, through the oracle's constant weight shift."""
    if maxcardinality:
        return max_cardinality_matching(n, edges)
    return _max_weight_matching(n, edges)


def _random_int_edges(rng, n, density):
    return [(u, v, float(rng.randint(1, 6)))
            for u in range(n) for v in range(u + 1, n) if rng.random() < density]


@pytest.mark.parametrize("maxcardinality", [False, True])
def test_matching_oracle_tie_heavy_weights(maxcardinality):
    """Integer weights 1-6 make equal-weight optima common; every solve
    must still reach the exhaustive optimum."""
    rng = random.Random(2024)
    for trial in range(400):
        n = rng.randint(2, 12)
        edges = _random_int_edges(rng, n, rng.choice([0.3, 0.5, 0.8, 1.0]))
        mate = _solve(n, edges, maxcardinality)
        got = _solver_value(n, edges, mate, maxcardinality)
        want = _best_matching(n, edges, maxcardinality)
        assert got[0] == want[0] and got[1] == pytest.approx(want[1], abs=1e-9), \
            (trial, n, edges)


# Small graphs that drive the solver through particular steps; vertex 0
# is isolated in the first group.
HAND_BUILT = {
    # An S-blossom is formed and used in an augmenting path.
    "s_blossom": [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7), (1, 6, 5), (4, 5, 6)],
    # A blossom nested in another S-blossom.
    "nested_s_blossom": [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8),
                         (4, 5, 10), (5, 6, 6)],
    "relabelled_nested": [(1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20),
                          (4, 5, 25), (5, 6, 10), (6, 7, 10), (7, 8, 8)],
    # A dissolved S-blossom is later labelled T and expanded; a child of
    # the expansion is left unlabelled.
    "t_blossom_expansion": [(1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25), (3, 4, 22),
                            (4, 5, 25), (4, 8, 14), (5, 7, 13)],
    "nested_t_expansion": [(1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18),
                           (3, 5, 18), (4, 5, 13), (4, 7, 7), (5, 6, 7)],
    "t_expansion_two_entries": [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50),
                                (1, 6, 30), (3, 9, 35), (4, 8, 35), (5, 7, 26), (9, 10, 5)],
    "nested_t_expansion_on_path": [(1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45),
                                   (4, 5, 95), (4, 6, 94), (5, 6, 94), (6, 7, 50),
                                   (1, 8, 30), (3, 11, 35), (5, 9, 36), (7, 10, 26),
                                   (11, 12, 5)],
    # A child of an expanded T-blossom joins a tree through a marked vertex.
    "expansion_through_mark": [(0, 2, 8), (0, 3, 9), (0, 5, 5), (1, 3, 1), (2, 3, 6),
                               (3, 5, 3)],
    # A T-blossom becomes part of a new S-blossom.
    "t_blossom_absorbed": [(1, 4, 2), (1, 5, 2), (2, 3, 8), (2, 4, 8), (3, 4, 6), (4, 5, 4)],
    # An augmentation dissolves a tree whose scans marked vertices inside
    # another tree's T-blossom; that tree keeps growing.
    "marks_of_dissolved_tree": [(0, 4, 7), (0, 5, 9), (0, 6, 7), (0, 7, 7), (1, 3, 3),
                                (1, 5, 7), (1, 6, 2), (2, 4, 5), (2, 5, 8), (3, 4, 5),
                                (3, 5, 4), (3, 6, 6), (4, 5, 9), (4, 6, 3), (5, 7, 3),
                                (6, 7, 8)],
}


@pytest.mark.parametrize("maxcardinality", [False, True])
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_graphs_reach_the_optimum(name, maxcardinality):
    edges = [(u, v, float(w)) for u, v, w in HAND_BUILT[name]]
    n = 1 + max(max(u, v) for u, v, _ in edges)
    mate = _solve(n, edges, maxcardinality)
    got = _solver_value(n, edges, mate, maxcardinality)
    want = _best_matching(n, edges, maxcardinality)
    assert got[0] == want[0] and got[1] == pytest.approx(want[1], abs=1e-9)


def test_max_weight_matching_is_deterministic():
    rng = random.Random(99)
    for _ in range(5):
        edges = _random_int_edges(rng, 40, 0.2)
        for maxcardinality in (False, True):
            first = _solve(40, edges, maxcardinality)
            assert _solve(40, list(edges), maxcardinality) == first


# sha256 of the mate lists of the 40 graphs in `_tie_heavy_graphs`, per
# `_solve` mode, as the solver returned them when pinned.
PINNED_TIE_MATES = {
    False: "acd9a0ad84310650a218ac522f9a423b09db324145300f62840e29bb74651cac",
    True: "7fb9cd28d8f2381ccf65eb114a358eb16160ab77a97805533e6ae0f5e51e0701",
}


def _tie_heavy_graphs():
    rng = random.Random(2026)
    for _ in range(40):
        n = rng.randint(20, 60)
        yield n, _random_int_edges(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))


@pytest.mark.parametrize("maxcardinality", [False, True])
def test_max_weight_matching_keeps_pinned_tie_order(maxcardinality):
    """Among equal-weight optima the solver's pick is part of the decoder's
    verdicts: integer weights 1-6 make such ties common, and the mates of
    these graphs must stay the pinned ones."""
    digest = hashlib.sha256()
    for n, edges in _tie_heavy_graphs():
        digest.update(repr(_solve(n, edges, maxcardinality)).encode())
    assert digest.hexdigest() == PINNED_TIE_MATES[maxcardinality]
