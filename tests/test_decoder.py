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
from surfacesim.sim import _graph_events, compile_circuit, simulate_window
from surfacesim.edge_analysis import derive_edge_classes
from surfacesim.decoder import DP_MAX_NODES, Decoder
from surfacesim.harness import _setup
from surfacesim.metric import METRICS, LinkGraph, MetricCache, d_max, d_n, path_sum_table

import frame_reference
from frame_reference import cnot_phase, make_injection
from oracles import (
    _boundary_flip, _staircase_flip, build_match_graph, corrections_from_matching, mwpm,
)
from paulis import SINGLE_PAULIS, TWO_QUBIT_PAULIS, X


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


@pytest.mark.parametrize("d", [3, 5])
def test_exhaustive_single_fault_correction(d):
    """Any single Pauli error at any circuit location is corrected."""
    lat = build_lattice(d)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", 0.01)
    table = derive_edge_classes(circ, model)
    dec = Decoder(table, "dmax")
    zero = ErrorModel(0, 0, 0)
    r0 = 2
    rounds = 5
    cases = 0
    for gate in range(circ.n_cnots):
        phase = cnot_phase(circ, gate)
        cells = (int(circ.gate_ctl[gate]), int(circ.gate_tgt[gate]))
        for pair in TWO_QUBIT_PAULIS:
            inj = make_injection([(r0, phase, cells, pair)])
            res = frame_reference.simulate_window(circ, zero, None, rounds, injections=inj)
            out = dec.decode(res.history, res.frame, verify=True)
            assert not out.logical_x_failed, (gate, pair)
            assert not out.logical_z_failed, (gate, pair)
            cases += 1
    for idle_step in circ.idle_steps:
        for cell in circ.data_idx:
            for op in SINGLE_PAULIS:
                inj = make_injection([(r0, f"idle{idle_step}", int(cell), op)])
                res = frame_reference.simulate_window(circ, zero, None, rounds, injections=inj)
                out = dec.decode(res.history, res.frame, verify=True)
                assert not out.logical_x_failed and not out.logical_z_failed
                cases += 1
    for cell in list(circ.z_idx) + list(circ.x_idx):
        inj = make_injection([(r0, "meas", int(cell), None)])
        res = frame_reference.simulate_window(circ, zero, None, rounds, injections=inj)
        out = dec.decode(res.history, res.frame, verify=True)
        assert not out.logical_x_failed and not out.logical_z_failed
        cases += 1
    assert cases > 15 * circ.n_cnots


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
            pairs, bd = dec._match_graph_events(graph_name, stabs, ts)
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
            weights = path_sum_table(graph, (cells[a], 0),
                                     [(cells[b], dt) for b, dt in targets], 2)
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


@pytest.mark.parametrize("metric", METRICS)
def test_path_sum_build_enumerates_no_paths(setup_d3, metric, monkeypatch):
    """Every pair table comes from one fill route: no per-pair search,
    path enumeration or cache lookup runs during construction."""
    _, _, table, _ = setup_d3

    def forbidden(*args, **kwargs):
        raise AssertionError("per-pair metric evaluation during construction")

    import surfacesim.decoder as decoder_module
    import surfacesim.metric as metric_module
    for name in ("d_max", "path_sum", "min_links"):
        monkeypatch.setattr(metric_module, name, forbidden)
    monkeypatch.setattr(MetricCache, "pair_weight", forbidden)
    monkeypatch.setattr(MetricCache, "boundary_weight", forbidden)
    # Boundary weights are one search per stabilizer, and none for manhattan.
    searched = []

    def boundary_search(graph, node):
        searched.append(node)
        return metric_module.boundary_distance(graph, node)

    monkeypatch.setattr(decoder_module, "boundary_distance", boundary_search)
    dec = Decoder(table, metric)
    stabs = len(table.lattice.x_stabilizers) + len(table.lattice.z_stabilizers)
    assert len(searched) == (0 if metric == "manhattan" else stabs)
    assert np.isfinite(np.array(dec._tables["z"]["wtab"])).sum() > 30


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
    for name in ("d_max", "path_sum", "boundary_distance", "min_links"):
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

    def forbidden(*args, **kwargs):
        raise AssertionError("search started on a graph with weight-0 links")

    monkeypatch.setattr(decoder_module, "boundary_distance", forbidden)
    monkeypatch.setattr(decoder_module, "settled", forbidden)
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
