import gc
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surfacesim
from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.noise import ErrorModel, preset, trial_rng
from surfacesim.sim import SyndromeHistory, _graph_events, compile_circuit, simulate_window
from surfacesim.edge_analysis import derive_edge_classes
from surfacesim.decoder import (
    DP_MAX_NODES, PRUNE_EPS, Decoder, _dense_gains, _match_graph, _solve_dp, _Staircases,
)
from surfacesim.harness import _setup
from surfacesim.matching import _max_weight_matching
from surfacesim.metric import (
    METRICS, LinkGraph, MetricCache, boundary_distance, d_max, d_n, manhattan,
    path_sum_table,
)

import frame_reference
from frame_reference import make_injection, single_fault_windows
from oracles import (
    MatchGraph, _boundary_flip, _staircase_flip, brute_force_mwpm, build_match_graph,
    corrections_from_matching, dmax_table_reference, mwpm, path_sum_table_reference,
    solve_dp_all_subsets,
)
from paulis import X


@pytest.fixture(scope="module")
def setup_d3():
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", 0.01)
    table = derive_edge_classes(circ, model)
    return circ, model, table, Decoder(table, "dmax")


@pytest.fixture(scope="module")
def setup_d5():
    lat = build_lattice(5)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", 0.01)
    table = derive_edge_classes(circ, model)
    return circ, model, table, Decoder(table, "dmax")


def test_noiseless_window_decodes_trivially(setup_d3):
    circ, model, table, dec = setup_d3
    res = simulate_window(circ, ErrorModel(0, 0, 0), trial_rng(0, 0), rounds=6)
    out = dec.decode(res.history, res.frame, verify=True)
    assert not out.logical_x_failed and not out.logical_z_failed
    assert not out.corrections["x"].any() and not out.corrections["z"].any()
    assert out.matches == {"x": [], "z": []}


def test_bulk_data_error_matched_as_pair(setup_d5):
    circ, model, table, dec = setup_d5
    lat = circ.lattice
    cell = lat.index((4, 4))
    inj = make_injection([(3, "idle6", cell, X)])
    res = frame_reference.simulate_window(circ, ErrorModel(0, 0, 0), None, rounds=8,
                                          injections=inj)
    out = dec.decode(res.history, res.frame, verify=True)
    # Single-link pair beats two boundary matches at p = 0.01.
    (pair,) = out.matches["z"]
    assert isinstance(pair[1], tuple)  # real-real, not a boundary side
    corr = out.corrections["z"]
    assert corr.sum() == 1 and corr[cell] == 1
    assert not out.logical_x_failed and not out.logical_z_failed


def test_boundary_adjacent_error_matched_to_boundary(setup_d3):
    circ, model, table, dec = setup_d3
    lat = circ.lattice
    cell = lat.index((2, 0))  # column-0 data: single Z-graph event
    inj = make_injection([(2, "idle6", cell, X)])
    res = frame_reference.simulate_window(circ, ErrorModel(0, 0, 0), None, rounds=6,
                                          injections=inj)
    out = dec.decode(res.history, res.frame, verify=True)
    (match,) = out.matches["z"]
    assert match[1] == "left"
    corr = out.corrections["z"]
    assert corr.sum() == 1 and corr[cell] == 1
    assert not out.logical_z_failed


def test_two_link_pair_restores_syndromes(setup_d5):
    circ, model, table, dec = setup_d5
    lat = circ.lattice
    inj = make_injection([(3, "idle6", lat.index((4, 2)), X),
                          (3, "idle6", lat.index((4, 4)), X)])
    res = frame_reference.simulate_window(circ, ErrorModel(0, 0, 0), None, rounds=8,
                                          injections=inj)
    out = dec.decode(res.history, res.frame, verify=True)  # verify asserts syndromes
    assert not out.logical_z_failed
    assert out.corrections["z"].sum() in (0, 2)


def test_measurement_flip_needs_no_data_correction(setup_d5):
    circ, model, table, dec = setup_d5
    lat = circ.lattice
    inj = make_injection([(4, "meas", lat.index((4, 3)), None)])
    res = frame_reference.simulate_window(circ, ErrorModel(0, 0, 0), None, rounds=8,
                                          injections=inj)
    out = dec.decode(res.history, res.frame, verify=True)
    assert not out.corrections["z"].any()
    assert not out.logical_z_failed and not out.logical_x_failed


SINGLE_FAULT_MODELS = {
    "standard": preset("standard", 0.01),
    "balanced": preset("balanced", 0.01),
    "iontrap": preset("iontrap", 0.01),
    # The phenomenological point has no gate faults: only idle and readout.
    "phenomenological": ErrorModel(0.0, 0.015, 0.01),
}


@pytest.mark.parametrize("d", [3, 5, 7])
def test_exhaustive_single_fault_correction(d):
    """Every single fault at every circuit location that the error model
    can fail is corrected, under every table metric and every preset and
    the phenomenological point: the decoders reach distance 3, 5 and 7
    (ROADMAP item 12).  Manhattan's misses are pinned, not required to be
    none: 92 of 651 at d = 3 for every preset, and none at the
    phenomenological point or at d = 5 and 7."""
    lat = build_lattice(d)
    circ = compile_circuit(lat, standard_schedule(lat))
    windows = single_fault_windows(circ)
    missed = {}
    for name, model in SINGLE_FAULT_MODELS.items():
        cases = [res for phase, _, _, res in windows if model.p2 > 0.0 or phase != "cnot"]
        assert len(cases) == ({3: 651, 5: 2323, 7: 5019} if model.p2 > 0.0
                              else {3: 51, 5: 163, 7: 339})[d]
        table = derive_edge_classes(circ, model)
        for metric in ("dmax", "d0", "d1", "d2", "manhattan"):
            dec = Decoder(table, metric)
            missed[name, metric] = 0
            for res in cases:
                out = dec.decode(res.history, res.frame, verify=True,
                                 collect_matches=False)
                missed[name, metric] += out.logical_x_failed or out.logical_z_failed
    want = dict.fromkeys(missed, 0)
    if d == 3:
        for name in ("standard", "balanced", "iontrap"):
            want[name, "manhattan"] = 92
    assert missed == want


def test_half_distance_chain_fails(setup_d3):
    # ceil(d/2) colinear data errors in one round beat the matching.
    circ, model, table, dec = setup_d3
    lat = circ.lattice
    inj = make_injection([(2, "idle6", lat.index((0, 0)), X),
                          (2, "idle6", lat.index((0, 2)), X)])
    res = frame_reference.simulate_window(circ, ErrorModel(0, 0, 0), None, rounds=6,
                                          injections=inj)
    out = dec.decode(res.history, res.frame, verify=True)
    assert out.logical_z_failed
    assert not out.logical_x_failed


def test_build_match_graph_empty():
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    cache = MetricCache(table, "z", "dmax")
    graph, sides = build_match_graph([], cache)
    assert graph.n_nodes == 0 and sides == []
    assert mwpm(graph).pairs == ()


def _event_tuples(dec, graph_name, stabs, ts):
    cells = dec._tables[graph_name]["cells"]
    return [(cells[a], t) for a, t in zip(stabs, ts)]


def test_fast_path_matches_full_blossom():
    """Table-driven, component-decomposed decoding equals blossom on the
    full unpruned augmented graph, window by window."""
    _check_against_full_blossom(5, "dmax", rounds=20, max_events=40)


def test_fast_path_matches_full_blossom_d2():
    # d2 weights of far pairs enumerate very many paths: keep windows short.
    _check_against_full_blossom(3, "d2", rounds=3, max_events=10)


def _check_against_full_blossom(d, metric, rounds, max_events):
    lat = build_lattice(d)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", 0.01)
    table = derive_edge_classes(circ, model)
    dec = Decoder(table, metric)
    caches = {g: MetricCache(table, g, metric) for g in ("x", "z")}
    checked = 0
    for trial in range(25):
        res = simulate_window(circ, model, trial_rng(31, trial), rounds=rounds)
        for graph_name in ("x", "z"):
            stabs, ts = _graph_events(res.history, graph_name)
            if not stabs or len(stabs) > max_events:
                continue
            events = _event_tuples(dec, graph_name, stabs, ts)
            cache = caches[graph_name]
            pairs, bd = _match_graph(dec._tables[graph_name], stabs, ts)
            assert sorted([u for p in pairs for u in p] + bd) == list(range(len(stabs)))
            fast_total = math.fsum(
                cache.pair_weight(events[u][0], events[u][1],
                                  events[v][0], events[v][1])
                for u, v in pairs) + math.fsum(
                cache.boundary_weight(events[u][0])[0] for u in bd)
            full, _sides = build_match_graph(events, cache, prune=False)
            full_total = mwpm(full).total_weight
            assert fast_total == pytest.approx(full_total, abs=1e-6), \
                (trial, graph_name, len(events))
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize("d", [3, 5])
def test_dmax_table_matches_d_max_oracle(d):
    """Every finite table entry is the d_max of its pair, and no pair that
    could beat two boundary matches is missing from the table."""
    lat = build_lattice(d)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    dec = Decoder(table, "dmax")
    for g in ("x", "z"):
        tab = dec._tables[g]
        cells, bvals, reach = tab["cells"], tab["bvals"], tab["reach"]
        wtab = np.array(tab["wtab"])
        sub = [lat.sublattice_coord(lat.cell(c)) for c in cells]
        graph = LinkGraph(table, g)
        for a, b, dt in np.ndindex(wtab.shape):
            if a == b and dt == 0:
                continue  # no two events share a space-time point
            cheb = max(abs(sub[a][0] - sub[b][0]), abs(sub[a][1] - sub[b][1]))
            if cheb > reach:
                assert wtab[a, b, dt] == np.inf, (g, a, b, dt)
                continue
            exact = d_max(graph, (cells[a], 0), (cells[b], dt))
            if np.isfinite(wtab[a, b, dt]):
                assert wtab[a, b, dt] == pytest.approx(exact, rel=1e-12, abs=0)
            else:
                assert exact >= bvals[a] + bvals[b], (g, a, b, dt)


def _preset_table(d, model, p=0.01):
    lat = build_lattice(d)
    return derive_edge_classes(compile_circuit(lat, standard_schedule(lat)), preset(model, p))


@pytest.mark.parametrize("d,model", [(3, "standard"), (5, "standard"), (7, "standard"),
                                     (9, "standard"), (5, "balanced"), (5, "iontrap")])
def test_owner_fill_matches_reference_fill(d, model):
    """Each pair filled once, from the search of the endpoint with the
    larger (b, index), keeps and prunes exactly what the fill that
    searches every stabilizer to 2 * b_max keeps and prunes."""
    table = _preset_table(d, model)
    dec = Decoder(table, "dmax")
    kept = 0
    for g in ("x", "z"):
        tab = dec._tables[g]
        b, wtab, reach = tab["bvals"], tab["wtab"], tab["reach"]
        ref = dmax_table_reference(LinkGraph(table, g), tab["cells"], max(b), reach)
        for a, c, dt in np.ndindex(len(b), len(b), reach + 1):
            w, w_ref = wtab[a][c][dt], ref[a][c][dt]
            bound = b[a] + b[c] - PRUNE_EPS
            assert (w < bound) == (w_ref < bound), (g, a, c, dt)
            if w < bound:
                assert w == pytest.approx(w_ref, rel=1e-12, abs=0), (g, a, c, dt)
                kept += 1
            elif w == math.inf:
                assert w_ref >= b[a] + b[c], (g, a, c, dt)
    assert kept > 80


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("model,p", [("standard", 0.01), ("balanced", 0.01),
                                     ("iontrap", 0.01), ("standard", 0.0)])
def test_dmax_boundary_weights_are_boundary_distance(d, model, p):
    """The search that fills the dmax table gives each stabilizer the
    boundary weight and side of `boundary_distance`, bit for bit; at
    p = 0 that is the nearest side at weight inf."""
    table = _preset_table(d, model, p)
    dec = Decoder(table, "dmax")
    for g in ("x", "z"):
        tab = dec._tables[g]
        graph = LinkGraph(table, g)
        got = list(zip(tab["bvals"], tab["bsides"]))
        assert got == [boundary_distance(graph, (c, 0)) for c in tab["cells"]]
        assert all(w == math.inf for w, _ in got) == (p == 0.0)


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_manhattan_tables_are_the_closed_form(d):
    """The `manhattan` tables, searched on `LinkGraph.grid`, give every
    stabilizer `Lattice.nearest_boundary`'s count and side, a reach of
    twice the largest count, and on every entry that either the table or
    the closed form `metric.manhattan` puts below b_a + b_c - PRUNE_EPS
    (every entry the candidate scan can keep) the closed form's weight,
    bit for bit."""
    lat = build_lattice(d)
    dec = Decoder(_preset_table(d, "standard"), "manhattan")
    kept = 0
    for g in ("x", "z"):
        tab = dec._tables[g]
        stabs = [lat.cell(c) for c in tab["cells"]]
        nearest = [lat.nearest_boundary(c) for c in stabs]
        b, wtab, reach = tab["bvals"], tab["wtab"], tab["reach"]
        assert [repr(w) for w in b] == [repr(float(n)) for n, _ in nearest]
        assert tab["bsides"] == [side for _, side in nearest]
        assert reach == 2 * max(n for n, _ in nearest)
        sub = [lat.sublattice_coord(c) for c in stabs]
        for a, c, dt in itertools.product(range(len(b)), range(len(b)), range(reach + 1)):
            w, ref = wtab[a][c][dt], manhattan((*sub[a], 0), (*sub[c], dt))
            bound = b[a] + b[c] - PRUNE_EPS
            if w < bound or ref < bound:
                assert repr(w) == repr(ref), (g, a, c, dt)
                kept += 1
    assert kept > 40


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [0.01, 0.0])
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("metric", ["dmax", "d2", "manhattan"])
def test_gain_table_is_the_prune_rule(metric, d, p):
    """Both candidate builders read only the gain table: every entry is
    (b_a + b_c) - w, bit for bit, where w < (b_a + b_c) - PRUNE_EPS, and
    0.0 everywhere else; its dense copy is its rows raveled.  At p = 0
    the dmax and d2 tables are inf off the source point, so they keep no
    pair there; manhattan tables do not depend on the model."""
    dec = Decoder(_preset_table(d, "standard", p), metric)
    kept = 0
    for g in ("x", "z"):
        tab = dec._tables[g]
        b, wtab, gtab = tab["bvals"], tab["wtab"], tab["gtab"]
        S, R = len(b), tab["reach"] + 1
        flat = []
        for a, c in itertools.product(range(S), range(S)):
            assert len(gtab[a][c]) == R, (g, a, c)
            for dt in range(R):
                w, bsum = wtab[a][c][dt], b[a] + b[c]
                want = bsum - w if w < bsum - PRUNE_EPS else 0.0
                assert repr(gtab[a][c][dt]) == repr(want), (g, a, c, dt)
                kept += want != 0.0 and (c, dt) != (a, 0)
            flat += gtab[a][c]
        dense = _dense_gains(tab)
        assert dense.dtype == np.float64 and dense.shape == (S * S * R,)
        assert repr(dense.tolist()) == repr(flat), g
    assert (kept > 0) == (p > 0 or metric == "manhattan")


MANHATTAN_MODELS = [*SINGLE_FAULT_MODELS.values(),
                    # Readout links only; time links of weight 0.  The dmax
                    # build refuses both.
                    ErrorModel(0.0, 0.0, 0.01), ErrorModel(0.0, 0.01, 1.0)]


@pytest.mark.parametrize("d", [3, 5])
def test_manhattan_tables_ignore_the_model(d):
    """The Manhattan view is built from the lattice alone: its tables are
    the same under every model, those whose own link graphs cannot be
    decoded included."""
    lat = build_lattice(d)
    circ = compile_circuit(lat, standard_schedule(lat))
    keys = ("cells", "bvals", "bsides", "wtab", "reach")

    def tables(model):
        dec = Decoder(derive_edge_classes(circ, model), "manhattan")
        return repr([[dec._tables[g][k] for k in keys] for g in ("x", "z")])

    first, *rest = map(tables, MANHATTAN_MODELS)
    assert rest == [first] * (len(MANHATTAN_MODELS) - 1)


def _in_reach_entries(dec, table, g):
    """(a, b, dt) table entries within Chebyshev and time reach, except
    the source point itself: the targets of every table fill."""
    lat = table.lattice
    sub = [lat.sublattice_coord(c) for c in lat.stabilizers(g)]
    reach = dec._tables[g]["reach"]
    return {(a, b, dt) for a in range(len(sub)) for b in range(len(sub))
            if max(abs(sub[a][0] - sub[b][0]), abs(sub[a][1] - sub[b][1])) <= reach
            for dt in range(reach + 1) if (a, dt) != (b, 0)}


@pytest.mark.parametrize("metric", ["d0", "d1", "d2"])
def test_path_sum_table_matches_pair_weight(metric):
    """Every in-reach entry is filled, none is pre-pruned, and each equals
    the d_n definition."""
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    dec = Decoder(table, metric)
    for g in ("x", "z"):
        tab = dec._tables[g]
        cells = tab["cells"]
        wtab = np.array(tab["wtab"])
        fresh = MetricCache(table, g, metric)
        finite = {(int(a), int(b), int(dt))
                  for a, b, dt in zip(*np.nonzero(np.isfinite(wtab)))}
        assert finite == _in_reach_entries(dec, table, g)
        assert len(finite) == 138
        for a, b, dt in finite:
            exact = fresh.pair_weight(cells[a], 0, cells[b], dt)
            assert wtab[a, b, dt] == pytest.approx(exact, rel=1e-12, abs=0)


def test_path_sum_table_keeps_pairs_lighter_than_two_boundaries(setup_d5):
    """A path sum can be lighter than the one-best-link-per-step bound on
    its single paths, so the table prunes nothing: every in-reach d2 pair
    lighter than two boundary matches is in it, at its path-sum weight."""
    _, _, table, _ = setup_d5
    dec = Decoder(table, "d2")
    kept = 0
    for g in ("x", "z"):
        tab = dec._tables[g]
        cells, bvals, wtab = tab["cells"], tab["bvals"], tab["wtab"]
        graph = LinkGraph(table, g)
        by_source: dict = {}
        for a, b, dt in _in_reach_entries(dec, table, g):
            by_source.setdefault(a, []).append((b, dt))
        for a, targets in by_source.items():
            (weights,) = path_sum_table(
                graph, [((cells[a], 0), [(cells[b], dt) for b, dt in targets])], 2)
            for (b, dt), w in zip(targets, weights):
                if w < bvals[a] + bvals[b]:
                    assert wtab[a][b][dt] == pytest.approx(w, rel=1e-12, abs=0), \
                        (g, a, b, dt)
                    kept += 1
    assert kept > 1000


def test_path_sum_table_d5_spot_check(setup_d5):
    """Nearby d = 5 entries of the d1 table against the path enumeration."""
    _, _, table, _ = setup_d5
    dec = Decoder(table, "d1")
    lat = table.lattice
    rng = np.random.default_rng(5)
    for g in ("x", "z"):
        tab = dec._tables[g]
        cells = tab["cells"]
        sub = [lat.sublattice_coord(c) for c in lat.stabilizers(g)]
        near = sorted((a, b, dt) for a, b, dt in _in_reach_entries(dec, table, g)
                      if max(abs(sub[a][0] - sub[b][0]), abs(sub[a][1] - sub[b][1]),
                             dt) <= 2)
        graph = LinkGraph(table, g)
        for i in rng.choice(len(near), size=10, replace=False):
            a, b, dt = near[i]
            exact, _ = d_n(graph, (cells[a], 0), (cells[b], dt), 1)
            assert tab["wtab"][a][b][dt] == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("d,model", [(5, "standard"), (5, "balanced"),
                                     (7, "standard"), (7, "balanced")])
def test_path_sum_tables_match_the_transition_walk(d, model):
    """The decoder's d0-d2 tables against one walk per source over an
    explicit list of link transitions: d0 and d1 add the same terms in
    the same order, so they agree bit for bit; d2 subtracts a reverse
    link's weight instead of leaving it out of the sum, which may move
    the last bit but no inf and no keep decision."""
    table = _preset_table(d, model)
    for n in (0, 1, 2):
        dec = Decoder(table, f"d{n}")
        for g in ("x", "z"):
            tab = dec._tables[g]
            cells, bvals, wtab = tab["cells"], tab["bvals"], tab["wtab"]
            graph = LinkGraph(table, g)
            by_source: dict = {}
            for a, b, dt in sorted(_in_reach_entries(dec, table, g)):
                by_source.setdefault(a, []).append((b, dt))
            for a, targets in by_source.items():
                ref = path_sum_table_reference(
                    graph, (cells[a], 0), [(cells[b], dt) for b, dt in targets], n)
                for (b, dt), r in zip(targets, ref):
                    w, cut = wtab[a][b][dt], bvals[a] + bvals[b] - PRUNE_EPS
                    assert math.isinf(w) == math.isinf(r)
                    assert (w < cut) == (r < cut)
                    if n < 2:
                        assert w == r
                    else:
                        assert w == pytest.approx(r, rel=1e-12, abs=0)


@pytest.mark.parametrize("metric", METRICS)
def test_path_sum_build_enumerates_no_paths(setup_d3, metric, monkeypatch):
    """Every pair table comes from one fill route: no per-pair search,
    path enumeration or cache lookup runs during construction.  The
    table searches walk node codes, so neither building nor decoding
    steps through the per-pair definitions' `LinkGraph.neighbors`."""
    circ, model, table, _ = setup_d3

    def forbidden(*args, **kwargs):
        raise AssertionError("per-pair metric evaluation")

    import surfacesim.metric as metric_module
    for name in ("d_max", "path_sum", "min_links"):
        monkeypatch.setattr(metric_module, name, forbidden)
    monkeypatch.setattr(LinkGraph, "neighbors", forbidden)
    monkeypatch.setattr(MetricCache, "pair_weight", forbidden)
    monkeypatch.setattr(MetricCache, "boundary_weight", forbidden)
    # `boundary_distance` runs one `metric.settled` search per stabilizer
    # (the dmax and manhattan fills' searches go through the decoder's own
    # binding).
    searched = []
    search = metric_module.settled

    def counted(graph, source, *args):
        searched.append(source)
        return search(graph, source, *args)

    monkeypatch.setattr(metric_module, "settled", counted)
    dec = Decoder(table, metric)
    lat = table.lattice
    stabs = [(lat.index(c), 0) for g in ("x", "z") for c in lat.stabilizers(g)]
    assert sorted(searched) == sorted(stabs)
    assert np.isfinite(np.array(dec._tables["z"]["wtab"])).sum() > 30
    res = simulate_window(circ, model, trial_rng(12, 0), rounds=10)
    out = dec.decode(res.history, res.frame, verify=True)
    assert sum(len(m) for m in out.matches.values()) > 0


@pytest.mark.parametrize("d,metric", [(3, "d0"), (3, "d1"), (3, "d2"), (5, "d2")])
def test_path_sum_reach_drops_no_keepable_pair(d, metric):
    """Reach comes from a single-path bound, but a path sum can be lighter
    than its best single path.  Every pair just outside the table (a
    Chebyshev offset above reach, or reach + 1 .. reach + 2 rounds apart)
    is still no lighter than two boundary matches, so the candidate scan
    would prune it anyway."""
    table = _preset_table(d, "standard")
    dec = Decoder(table, metric)
    lat = table.lattice
    checked = 0
    for g in ("x", "z"):
        tab = dec._tables[g]
        cells, bvals, reach = tab["cells"], tab["bvals"], tab["reach"]
        sub = [lat.sublattice_coord(c) for c in lat.stabilizers(g)]
        graph = LinkGraph(table, g)
        for a in range(len(cells)):
            targets = [(b, dt) for b in range(len(cells))
                       for dt in (range(reach + 3)
                                  if max(abs(sub[a][0] - sub[b][0]),
                                         abs(sub[a][1] - sub[b][1])) > reach
                                  else (reach + 1, reach + 2))]
            (weights,) = path_sum_table(
                graph, [((cells[a], 0), [(cells[b], dt) for b, dt in targets])],
                int(metric[1]))
            for (b, dt), w in zip(targets, weights):
                assert w >= bvals[a] + bvals[b] - PRUNE_EPS, (g, a, b, dt)
            checked += len(targets)
    assert checked == 2 * {3: 72, 5: 800}[d]


@pytest.fixture(scope="module")
def decoders_d3():
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", 0.01)
    table = derive_edge_classes(circ, model)
    return circ, model, {m: Decoder(table, m) for m in ("dmax", "d2", "manhattan")}


@pytest.mark.parametrize("metric", ["dmax", "d2", "manhattan"])
def test_decode_reads_only_the_tables(decoders_d3, metric, monkeypatch):
    """Once built, a decoder computes no metric: every weight it needs is
    in its tables."""
    circ, model, decoders = decoders_d3

    def forbidden(*args, **kwargs):
        raise AssertionError("metric evaluated during decode")

    import surfacesim.decoder as decoder_module
    import surfacesim.metric as metric_module
    for name in ("d_max", "path_sum", "boundary_distance", "min_links", "settled"):
        monkeypatch.setattr(metric_module, name, forbidden)
    # The decoder's own bindings of the build-time searches.
    for name in ("boundary_distance", "settled", "path_sum_table"):
        monkeypatch.setattr(decoder_module, name, forbidden)
    monkeypatch.setattr(MetricCache, "pair_weight", forbidden)
    monkeypatch.setattr(MetricCache, "boundary_weight", forbidden)
    events = 0
    for trial in range(30):
        res = simulate_window(circ, model, trial_rng(12, trial), rounds=10)
        out = decoders[metric].decode(res.history, res.frame, verify=True)
        events += sum(len(m) for m in out.matches.values())
    assert events > 0


def test_blossom_components_match_networkx(setup_d5, monkeypatch):
    """Components too large for the subset DP: each blossom solve reaches
    networkx's maximum total gain on the same gain graph."""
    circ, model, table, dec = setup_d5
    _check_blossom_against_networkx(circ, model, dec, monkeypatch,
                                    seed=8, windows=10, rounds=50)


def test_blossom_components_match_networkx_d7(monkeypatch):
    """At d = 7 and p = 1% each graph of a window is one component of
    hundreds of events."""
    pytest.importorskip("networkx")
    lat = build_lattice(7)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", 0.01)
    dec = Decoder(derive_edge_classes(circ, model), "dmax")
    _check_blossom_against_networkx(circ, model, dec, monkeypatch,
                                    seed=8, windows=1, rounds=70, min_nodes=100)


def _check_blossom_against_networkx(circ, model, dec, monkeypatch, seed, windows,
                                    rounds, min_nodes=0):
    """Capture every call of the solver the decoder makes and compare each
    solve's total gain with networkx's on the same edge list."""
    nx = pytest.importorskip("networkx")
    import surfacesim.matching as matching_module
    captured = []
    original = matching_module._max_weight_matching

    def capture(n, edges):
        mate = original(n, edges)
        captured.append((n, list(edges), mate))
        return mate

    monkeypatch.setattr(matching_module, "_max_weight_matching", capture)
    for trial in range(windows):
        res = simulate_window(circ, model, trial_rng(seed, trial), rounds=rounds)
        dec.decode(res.history, res.frame)
    assert captured
    assert max(n for n, *_ in captured) >= min_nodes
    for n, edges, mate in captured:
        assert n > DP_MAX_NODES
        assert edges == sorted(edges)
        gain = {(u, v): g for u, v, g in edges}
        assert all(mate[mate[u]] == u for u in range(n) if mate[u] >= 0)
        ours = math.fsum(gain[(u, mate[u])] for u in range(n) if u < mate[u])
        graph = nx.Graph()
        graph.add_weighted_edges_from(edges)
        theirs = math.fsum(graph[u][v]["weight"]
                           for u, v in nx.max_weight_matching(graph, maxcardinality=False))
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)


def _summed_gain(edges: list[tuple[int, int, float]], mate: list[int]) -> float:
    gain = {(a, b): g for a, b, g in edges}
    return math.fsum(gain[a, b] for a, b in enumerate(mate) if a < b)


@pytest.mark.parametrize("ties", [False, True], ids=["float", "integer-ties"])
def test_solve_dp_matches_brute_force_and_blossom(ties):
    """One random gain graph of 3 to DP_MAX_NODES positions (some holding a
    position with no edge) goes to the subset DP, the all-subsets DP, the
    blossom solver and, as pair weights and boundary weights, to the
    brute-force virtual-twin solver: the DP's mates pair up along edges
    and are the all-subsets DP's, tie for tie; its summed gain is the
    blossom's, and its weight the brute-force minimum."""
    rng = random.Random(5)
    for trial in range(80):
        n = rng.randint(3, DP_MAX_NODES)
        if ties:
            bweight = [float(rng.randint(1, 3)) for _ in range(n)]
        else:
            bweight = [rng.uniform(1.0, 4.0) for _ in range(n)]
        lone = rng.randrange(n) if trial % 3 == 0 else None
        weight = {}
        for a in range(n):
            for b in range(a + 1, n):
                if lone in (a, b) or rng.random() < 0.3:
                    continue
                bsum = bweight[a] + bweight[b]
                # Only edges that survive the prune reach a solver.
                weight[a, b] = (float(rng.randint(1, int(bsum) - 1)) if ties
                                else rng.uniform(0.1, bsum - 0.01))
        edges = [(a, b, bweight[a] + bweight[b] - w) for (a, b), w in sorted(weight.items())]

        mate = _solve_dp(n, edges)
        assert mate == solve_dp_all_subsets(n, edges), trial
        assert len(mate) == n
        assert all(mate[b] == a and (min(a, b), max(a, b)) in weight
                   for a, b in enumerate(mate) if b >= 0)
        if lone is not None:
            assert mate[lone] == -1

        assert _summed_gain(edges, mate) == pytest.approx(
            _summed_gain(edges, _max_weight_matching(n, edges)), abs=1e-9), trial
        twins = MatchGraph(2 * n)
        for a in range(n):
            twins.add_edge(a, n + a, bweight[a])
            for b in range(a + 1, n):
                twins.add_edge(n + a, n + b, 0.0)
        for (a, b), w in weight.items():
            twins.add_edge(a, b, w)
        total = (math.fsum(weight[a, b] for a, b in enumerate(mate) if a < b)
                 + math.fsum(bweight[a] for a, b in enumerate(mate) if b < 0))
        assert total == pytest.approx(brute_force_mwpm(twins).total_weight, abs=1e-9), trial


@pytest.mark.parametrize("d,metric,windows", [
    (3, "d2", 300), (3, "manhattan", 300), (5, "dmax", 30)])
def test_solve_dp_matches_all_subsets_on_decoder_components(d, metric, windows,
                                                            monkeypatch):
    """Every subset DP call of real windows (standard model, p = 0.01,
    T = 10d) returns the all-subsets DP's mates, ties included, and the
    summed gain of the blossom solver's matching of the same edges; the
    calls cover every component size the DP takes."""
    import surfacesim.decoder as decoder_module

    model = preset("standard", 0.01)
    circ, dec = _setup(d, model, metric)
    solve_dp = decoder_module._solve_dp
    calls: list = []

    def dp(n, edges):
        mate = solve_dp(n, edges)
        calls.append(("dp", n, list(edges), mate))
        return mate

    monkeypatch.setattr(decoder_module, "_solve_dp", dp)
    for trial in range(windows):
        res = simulate_window(circ, model, trial_rng(29, trial), 10 * d)
        dec.decode(res.history, res.frame, collect_matches=False)
    for _, n, edges, mate in calls:
        assert edges == sorted(edges) and all(a < b for a, b, _ in edges)
        assert mate == solve_dp_all_subsets(n, edges)
        assert _summed_gain(edges, mate) == pytest.approx(
            _summed_gain(edges, _max_weight_matching(n, edges)), rel=1e-9, abs=1e-9)
    assert {n for _, n, _, _ in calls} == set(range(3, DP_MAX_NODES + 1))


# Rounds at which the two graphs of a window often fall on either side of
# ARRAY_MIN_EVENTS (standard model, p = 0.01).
STRADDLE_ROUNDS = {3: 80, 5: 20, 7: 10}


@pytest.mark.parametrize("d,metric,windows", [
    (3, "dmax", 40), (3, "manhattan", 40), (3, "d2", 40),
    (5, "dmax", 8), (5, "manhattan", 8), (5, "d2", 8), (7, "dmax", 2)])
def test_array_route_builds_the_scan_routes_graph(d, metric, windows, monkeypatch):
    """Both builders of the candidate graph give the same matching, in the
    same order, and hand each solver the same (n, edges), so the gain
    edges of every array-built component, subset DP ones included, are
    the scan's bit for bit: the graphs of whole windows are matched one
    by one, once with every event count below ARRAY_MIN_EVENTS (the
    scan), once with none below it (the arrays) and once with the cutoff
    as it is, in scan order and with each graph's events shuffled.
    Windows whose graphs fall on either side of the cutoff are among
    them, so the natural route builds one graph by the scan and the other
    by arrays."""
    import surfacesim.decoder as decoder_module
    import surfacesim.matching as matching_module

    model = preset("standard", 0.01)
    circ, dec = _setup(d, model, metric)
    rng = random.Random(1)

    def window_graphs(res):
        graphs = [(graph, *_graph_events(res.history, graph)) for graph in ("x", "z")]
        shuffled = []
        for graph, stabs, ts in graphs:
            order = rng.sample(range(len(stabs)), len(stabs))
            shuffled.append((graph, [stabs[i] for i in order], [ts[i] for i in order]))
        return graphs + shuffled

    plain = [("x", [], []), ("z", [0], [3])]
    for trial in range(windows):
        plain += window_graphs(simulate_window(circ, model, trial_rng(1, trial), 10 * d))
    straddling = []
    for trial in range(20):
        res = simulate_window(circ, model, trial_rng(2, trial), STRADDLE_ROUNDS[d])
        sizes = [len(_graph_events(res.history, graph)[0]) for graph in ("x", "z")]
        if min(sizes) < decoder_module.ARRAY_MIN_EVENTS <= max(sizes):
            straddling += window_graphs(res)
    assert len(straddling) >= 2 * 4  # two windows' graphs, each also shuffled

    calls: list = []
    solve_dp, solve = decoder_module._solve_dp, matching_module._max_weight_matching

    def dp(n, edges):
        calls.append(("dp", n, list(edges)))
        return solve_dp(n, edges)

    def blossom(n, edges):
        calls.append(("blossom", n, list(edges)))
        return solve(n, edges)

    monkeypatch.setattr(decoder_module, "_solve_dp", dp)
    monkeypatch.setattr(matching_module, "_max_weight_matching", blossom)
    routes = {}
    for name, min_events in (("scan", 10**9), ("array", 0),
                             ("natural", decoder_module.ARRAY_MIN_EVENTS)):
        monkeypatch.setattr(decoder_module, "ARRAY_MIN_EVENTS", min_events)
        calls.clear()
        out = [_match_graph(dec._tables[g], stabs, ts) for g, stabs, ts in plain]
        plain_calls = list(calls)
        out += [_match_graph(dec._tables[g], stabs, ts) for g, stabs, ts in straddling]
        routes[name] = out, list(calls)
    scan, scan_calls = routes["scan"]
    for name in ("array", "natural"):
        got, got_calls = routes[name]
        assert got == scan, name
        assert len(got_calls) == len(scan_calls), name
        for got_call, want in zip(got_calls, scan_calls):
            assert got_call == want, name
        # repr also compares floats bit for bit and tells a numpy scalar
        # from a Python number.  Its result is asserted on its own: a
        # report diffing the two strings would take minutes.
        same_repr = repr(routes[name]) == repr(routes["scan"])
        assert same_repr, name
    # Both solvers are reached; at d = 7 each graph of a 10d-round window
    # is one large component.
    assert {call[0] for call in plain_calls} == ({"blossom"} if d == 7 else {"dp", "blossom"})


@pytest.mark.parametrize("metric", ["dmax", "manhattan"])
def test_a_graphs_matching_does_not_read_the_other_graph(metric):
    """A window made of one window's x signs and another's z signs gets
    the x matches and x correction plane of the first and the z ones of
    the second.  The d = 5 windows at STRADDLE_ROUNDS often have one
    graph below ARRAY_MIN_EVENTS and one at or above it, so some mixed
    windows have their graphs built by different builders."""
    import surfacesim.decoder as decoder_module

    model = preset("standard", 0.01)
    circ, dec = _setup(5, model, metric)
    windows = [simulate_window(circ, model, trial_rng(2, trial), STRADDLE_ROUNDS[5])
               for trial in range(8)]
    decoded = [dec.decode(res.history, res.frame) for res in windows]
    mixed_builders = 0
    for a, b in itertools.permutations(range(len(windows)), 2):
        signs = {"x": windows[a].history.signs["x"], "z": windows[b].history.signs["z"]}
        history = SyndromeHistory(lattice=circ.lattice, signs=signs)
        out = dec.decode(history, windows[a].frame)
        for graph, source in (("x", a), ("z", b)):
            assert out.matches[graph] == decoded[source].matches[graph], (a, b, graph)
            assert np.array_equal(out.corrections[graph],
                                  decoded[source].corrections[graph]), (a, b, graph)
        sizes = [len(_graph_events(history, graph)[0]) for graph in ("x", "z")]
        mixed_builders += min(sizes) < decoder_module.ARRAY_MIN_EVENTS <= max(sizes)
    assert mixed_builders >= 1


@pytest.mark.parametrize("d", [5, 7])
def test_decoding_leaves_no_cyclic_garbage(d):
    """Everything a decode allocates is freed by reference counting: with
    the collector off, no solve leaves a reference cycle behind."""
    model = preset("standard", 0.01)
    circ, dec = _setup(d, model, "dmax")
    windows = [simulate_window(circ, model, trial_rng(1, trial), 10 * d)
               for trial in range(3)]
    gc.collect()
    gc.disable()
    try:
        for res in windows:
            dec.decode(res.history, res.frame)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_corrections_from_matching_roundtrip(setup_d5):
    circ, model, table, dec = setup_d5
    res = simulate_window(circ, model, trial_rng(77, 3), rounds=15)
    events = _event_tuples(dec, "z", *_graph_events(res.history, "z"))
    if not events:
        pytest.skip("no events in this window")
    cache = MetricCache(table, "z", "dmax")
    graph, sides = build_match_graph(events, cache)
    matching = mwpm(graph)
    corr = corrections_from_matching(matching, events, sides, circ.lattice)
    assert corr.shape == (circ.lattice.size ** 2,)
    data_cells = {circ.lattice.index(c) for c in circ.lattice.data_qubits}
    assert set(np.nonzero(corr)[0]) <= data_cells


def test_correction_planes_match_chain_walk(setup_d5):
    """The decoder's chain tables flip exactly the cells that walking each
    matched pair's chain step by step flips."""
    circ, model, table, dec = setup_d5
    lat = circ.lattice
    sides = set()
    for trial in range(30):
        res = simulate_window(circ, model, trial_rng(78, trial), rounds=10)
        out = dec.decode(res.history, res.frame)
        for graph in ("x", "z"):
            corr = np.zeros(lat.size * lat.size, dtype=np.uint8)
            for (cu, _tu), end in out.matches[graph]:
                if isinstance(end, str):
                    _boundary_flip(lat, corr, cu, end)
                    sides.add(end)
                else:
                    _staircase_flip(lat, corr, cu, end[0])
            assert np.array_equal(out.corrections[graph], corr), (trial, graph)
    assert sides == {"left", "right", "top", "bottom"}


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_boundary_staircases_run_straight_out_of_each_side(d):
    """A boundary match's chain, the staircase from a stabilizer to its
    twin, flips the cells that walking straight out of the twin's side
    flips: every stabilizer of both graphs, toward both boundary sides of
    its type (Z-type left and right, X-type top and bottom), whichever
    side a decoder would record."""
    lat = build_lattice(d)
    n = lat.size * lat.size
    for graph, sides in (("z", ("left", "right")), ("x", ("top", "bottom"))):
        cells = [lat.index(c) for c in lat.stabilizers(graph)]
        S = len(cells)
        for side in sides:
            stairs = _Staircases(lat, cells, [side] * S)
            for a, cell in enumerate(cells):
                want = np.zeros(n, dtype=np.uint8)
                _boundary_flip(lat, want, cell, side)
                got = np.bincount(stairs[a, S + a], minlength=n) & 1
                assert np.array_equal(got, want), (graph, side, lat.cell(cell))


def test_homology_verdict_stable_under_path_choice(setup_d5):
    """Transposed staircases (horizontal leg first) give identical verdicts."""
    circ, model, table, dec = setup_d5
    lat = circ.lattice
    size = lat.size

    def transposed_corrections(matches, graph_name):
        corr = np.zeros(size * size, dtype=np.uint8)
        for m in matches:
            if isinstance(m[1], str):
                _boundary_flip(lat, corr, m[0][0], m[1])
            else:
                (cu, _tu), (cv, _tv) = m
                i1, j1 = lat.cell(cu)
                i2, j2 = lat.cell(cv)
                for j in range(min(j1, j2), max(j1, j2), 2):
                    corr[i1 * size + (j + 1)] ^= 1
                for i in range(min(i1, i2), max(i1, i2), 2):
                    corr[(i + 1) * size + j2] ^= 1
        return corr

    lx = [lat.index(c) for c in lat.logical_x_support]
    lz = [lat.index(c) for c in lat.logical_z_support]
    for trial in range(40):
        res = simulate_window(circ, model, trial_rng(99, trial), rounds=15)
        out = dec.decode(res.history, res.frame, verify=True)
        alt_corr_z = transposed_corrections(out.matches["z"], "z")
        alt_corr_x = transposed_corrections(out.matches["x"], "x")
        alt_x_failed = bool(int((res.frame.z ^ alt_corr_x)[lx].sum()) % 2)
        alt_z_failed = bool(int((res.frame.x ^ alt_corr_z)[lz].sum()) % 2)
        assert alt_x_failed == out.logical_x_failed
        assert alt_z_failed == out.logical_z_failed


def test_verify_catches_bad_corrections(setup_d3):
    circ, model, table, dec = setup_d3
    lat = circ.lattice
    from surfacesim.decoder import _assert_trivial_syndrome
    res_x = np.zeros(lat.size ** 2, dtype=np.uint8)
    res_z = np.zeros(lat.size ** 2, dtype=np.uint8)
    res_x[lat.index((2, 2))] = 1  # uncorrected data error
    with pytest.raises(AssertionError):
        _assert_trivial_syndrome(lat, res_x, res_z)


@pytest.mark.parametrize("metric", ["d1-typo", "d", "Dmax", ""])
def test_decoder_rejects_unknown_metric(setup_d3, metric):
    table = setup_d3[2]
    with pytest.raises(ValueError, match="unknown metric"):
        Decoder(table, metric)


@pytest.mark.parametrize("metric", ["dmax", "d1"])
def test_decoder_rejects_graph_without_boundary_links(metric):
    # Readout errors alone make time-like links only.  Each boundary weight
    # would search the unbounded time axis for a boundary link that does
    # not exist, so the build must refuse instead; a child process with a
    # timeout keeps a hang from stalling the suite.
    code = f"""
from surfacesim.decoder import Decoder
from surfacesim.edge_analysis import derive_edge_classes
from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.noise import ErrorModel
from surfacesim.sim import compile_circuit
lat = build_lattice(3)
table = derive_edge_classes(compile_circuit(lat, standard_schedule(lat)),
                            ErrorModel(0.0, 0.0, 0.01))
try:
    Decoder(table, {metric!r})
except ValueError as exc:
    print("ValueError:", exc)
"""
    src = str(Path(surfacesim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("Decoder build on a graph without boundary links hung")
    assert proc.returncode == 0, proc.stderr
    assert "ValueError:" in proc.stdout and "boundary link" in proc.stdout


@pytest.mark.parametrize("metric", ["dmax", "d1"])
def test_decoder_rejects_links_of_weight_zero(metric, monkeypatch):
    # With p2 = 0 and pM = 1 every time-like link has probability 1.  A
    # search along them would never finish settling, so the build refuses
    # the graph before any search starts.
    import surfacesim.decoder as decoder_module
    import surfacesim.metric as metric_module

    def forbidden(*args, **kwargs):
        raise AssertionError("search started on a graph with weight-0 links")

    monkeypatch.setattr(decoder_module, "boundary_distance", forbidden)
    monkeypatch.setattr(decoder_module, "settled", forbidden)
    monkeypatch.setattr(metric_module, "settled", forbidden)
    lat = build_lattice(3)
    table = derive_edge_classes(compile_circuit(lat, standard_schedule(lat)),
                                ErrorModel(0.0, 0.01, 1.0))
    with pytest.raises(ValueError, match="probability 1"):
        Decoder(table, metric)


TIES_UNRESOLVED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4: exact ties between optimal Manhattan "
    "matchings are broken by event label order")


@pytest.mark.parametrize("metric,d,windows", [
    pytest.param("manhattan", 3, 200, marks=TIES_UNRESOLVED),
    pytest.param("manhattan", 5, 50, marks=TIES_UNRESOLVED),
    ("dmax", 3, 200), ("dmax", 5, 50)])
def test_verdicts_do_not_depend_on_event_labels(metric, d, windows, monkeypatch):
    # The same windows decoded with each graph's events handed over in a
    # seeded random order instead of scan order must get the same verdicts.
    import surfacesim.decoder as decoder_module

    model = preset("standard", 0.01)
    circ, dec = _setup(d, model, metric)

    def verdicts():
        out = []
        for trial in range(windows):
            res = simulate_window(circ, model, trial_rng(1, trial), 10 * d)
            outcome = dec.decode(res.history, res.frame, collect_matches=False)
            out.append((outcome.logical_x_failed, outcome.logical_z_failed))
        return out

    plain = verdicts()
    rng = random.Random(1)

    def shuffled_events(history, graph):
        stabs, ts = _graph_events(history, graph)
        order = rng.sample(range(len(stabs)), len(stabs))
        return [stabs[i] for i in order], [ts[i] for i in order]

    monkeypatch.setattr(decoder_module, "_graph_events", shuffled_events)
    relabelled = verdicts()
    changed = sum(a != b for a, b in zip(plain, relabelled))
    assert changed == 0, f"{changed} of {windows} verdicts changed"
