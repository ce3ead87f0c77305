import gc
import weakref

import numpy as np
import pytest

from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.noise import PRESET_NAMES, ErrorModel, preset, trial_rng
from surfacesim.sim import (
    SyndromeHistory, compile_circuit, detection_events, events_to_text, simulate_window,
)

import frame_reference
from frame_reference import cnot_phase, make_injection
from paulis import SINGLE_PAULIS, TWO_QUBIT_PAULIS, X, Y, Z


@pytest.fixture(scope="module")
def circuit_d3():
    lat = build_lattice(3)
    return compile_circuit(lat, standard_schedule(lat))


@pytest.fixture(scope="module")
def circuit_d5():
    lat = build_lattice(5)
    return compile_circuit(lat, standard_schedule(lat))


def test_noiseless_window_has_constant_signs(circuit_d3):
    model = ErrorModel(0, 0, 0)
    res = simulate_window(circuit_d3, model, trial_rng(0, 0), rounds=8)
    for graph in ("x", "z"):
        assert not res.history.signs[graph].any()
    assert detection_events(res.history) == []
    assert not res.frame.x.any() and not res.frame.z.any()


def test_noiseless_any_distance_and_rounds():
    for d, rounds in [(3, 3), (5, 6)]:
        lat = build_lattice(d)
        circ = compile_circuit(lat, standard_schedule(lat))
        res = simulate_window(circ, preset("standard", 0.0), trial_rng(1, 0), rounds)
        assert detection_events(res.history) == []


def test_single_data_x_flips_two_z_stabilizers(circuit_d3):
    lat = circuit_d3.lattice
    # Bulk data qubit (2, 2): Z-stabilizer neighbors east and west.
    cell = lat.index((2, 2))
    inj = make_injection([(2, "idle6", cell, X)])
    res = frame_reference.simulate_window(circuit_d3, ErrorModel(0, 0, 0), None, rounds=6,
                                          injections=inj)
    events = detection_events(res.history)
    assert sorted((e.graph, e.i, e.j, e.t) for e in events) == [
        ("z", 2, 1, 3), ("z", 2, 3, 3)]
    # Signs stay flipped from round 3 onward.
    signs = res.history.signs["z"]
    a = lat.z_stabilizers.index((2, 1))
    assert list(signs[a]) == [0, 0, 0, 1, 1, 1, 1, 1]


def test_single_data_z_flips_two_x_stabilizers(circuit_d3):
    lat = circuit_d3.lattice
    # Bulk data qubit (2, 2): X-stabilizer neighbors north and south.
    cell = lat.index((2, 2))
    inj = make_injection([(2, "idle6", cell, Z)])
    res = frame_reference.simulate_window(circuit_d3, ErrorModel(0, 0, 0), None, rounds=6,
                                          injections=inj)
    events = detection_events(res.history)
    assert sorted((e.graph, e.i, e.j, e.t) for e in events) == [
        ("x", 1, 2, 3), ("x", 3, 2, 3)]


def test_measurement_flip_gives_double_temporal_event(circuit_d3):
    lat = circuit_d3.lattice
    cell = lat.index((2, 1))
    inj = make_injection([(3, "meas", cell, None)])
    res = frame_reference.simulate_window(circuit_d3, ErrorModel(0, 0, 0), None, rounds=7,
                                          injections=inj)
    events = detection_events(res.history)
    assert sorted((e.graph, e.i, e.j, e.t) for e in events) == [
        ("z", 2, 1, 3), ("z", 2, 1, 4)]


def test_frame_linearity(circuit_d5):
    # Window with injected errors E1 | E2 equals XOR of separate windows.
    lat = circuit_d5.lattice
    rng = np.random.default_rng(11)
    cells = [lat.index(c) for c in lat.data_qubits]
    ops = [X, Y, Z]
    for _ in range(10):
        picks = rng.choice(len(cells), size=4, replace=False)
        paulis = [ops[int(k)] for k in rng.integers(0, 3, 4)]
        entries = [(int(rng.integers(1, 4)), "idle6", cells[p], op)
                   for p, op in zip(picks, paulis)]
        e1, e2 = entries[:2], entries[2:]
        model = ErrorModel(0, 0, 0)
        f_both = frame_reference.simulate_window(circuit_d5, model, None, 5,
                                                 injections=make_injection(e1 + e2)).frame
        f1 = frame_reference.simulate_window(circuit_d5, model, None, 5,
                                             injections=make_injection(e1)).frame
        f2 = frame_reference.simulate_window(circuit_d5, model, None, 5,
                                             injections=make_injection(e2)).frame
        assert np.array_equal(f_both.x, f1.x ^ f2.x)
        assert np.array_equal(f_both.z, f1.z ^ f2.z)


def test_detection_events_from_constructed_history(circuit_d3):
    lat = circuit_d3.lattice
    nz, nx = circuit_d3.n_z, circuit_d3.n_x
    signs = {"z": np.zeros((nz, 5), dtype=np.uint8),
             "x": np.zeros((nx, 5), dtype=np.uint8)}
    hist = SyndromeHistory(lattice=lat, signs=signs)
    assert detection_events(hist) == []

    signs["z"][0, :] = [0, 0, 1, 1, 1]
    events = detection_events(hist)
    assert [(e.graph, e.t) for e in events] == [("z", 2)]

    signs["z"][0, :] = 0
    signs["x"][1, :3] = [0, 1, 0]
    events = detection_events(hist)
    assert sorted((e.graph, e.t) for e in events) == [("x", 1), ("x", 2)]


def test_windows_reproducible(circuit_d3):
    model = preset("standard", 0.05)
    r1 = simulate_window(circuit_d3, model, trial_rng(9, 3), rounds=10)
    r2 = simulate_window(circuit_d3, model, trial_rng(9, 3), rounds=10)
    assert np.array_equal(r1.history.signs["z"], r2.history.signs["z"])
    assert np.array_equal(r1.history.signs["x"], r2.history.signs["x"])
    assert np.array_equal(r1.frame.x, r2.frame.x)


def test_event_trace_format(circuit_d3):
    lat = circuit_d3.lattice
    inj = make_injection([(2, "meas", lat.index((2, 1)), None)])
    res = frame_reference.simulate_window(circuit_d3, ErrorModel(0, 0, 0), None, rounds=4,
                                          injections=inj)
    text = events_to_text(detection_events(res.history))
    assert text.splitlines() == ["z 2 1 2", "z 2 1 3"]


@pytest.mark.parametrize("graph", ["x", "z"])
def test_every_single_fault_makes_at_most_two_events(circuit_d3, graph):
    # Exhaustive over single Pauli components on every location at d=3;
    # the d=5 sweep happens in the edge-analysis tests.
    from surfacesim.edge_analysis import _signed_processes
    from oracles import propagate_process

    model = preset("standard", 0.01)
    for proc, _ in _signed_processes(circuit_d3, model):
        if proc.graph != graph:
            continue
        events = propagate_process(circuit_d3, proc)
        assert len(events) <= 2


# --- fault-table sampler ---------------------------------------------------

def _circuit(d, idle_steps=(6,)):
    lat = build_lattice(d)
    return compile_circuit(lat, standard_schedule(lat, idle_steps=idle_steps))


SAMPLER_CASES = [
    (d, model, idle, rounds)
    for d in (3, 5)
    for model, idle, rounds in (
        [(preset(name, 0.01), (6,), 10 * d) for name in ("standard", "balanced", "iontrap")]
        + [(ErrorModel(*m), (6,), rounds)
           for m in ((0.01, 0, 0.01), (0, 0.01, 0), (1.0, 0, 0))
           for rounds in (1, 10 * d)]
        + [(preset("standard", 0.01), idle, 10 * d) for idle in ((5,), (5, 6))]
    )
]


@pytest.mark.parametrize("d,model,idle_steps,rounds", SAMPLER_CASES)
def test_sampler_matches_frozen_reference(d, model, idle_steps, rounds):
    # Signs and the whole final frame, window by window, against the
    # round-by-round simulator fed by the same stream.
    circ = _circuit(d, idle_steps)
    for idx in range(30):
        got = simulate_window(circ, model, trial_rng(21, idx), rounds)
        want = frame_reference.simulate_window(circ, model, trial_rng(21, idx), rounds)
        for graph in ("x", "z"):
            assert got.history.signs[graph].dtype == want.history.signs[graph].dtype
            assert np.array_equal(got.history.signs[graph], want.history.signs[graph]), idx
        assert np.array_equal(got.frame.x, want.frame.x), idx
        assert np.array_equal(got.frame.z, want.frame.z), idx


@pytest.mark.parametrize("d,idle_steps", [(d, idle) for d in (3, 5, 7)
                                          for idle in ((5,), (6,), (5, 6))])
def test_preset_windows_match_frozen_reference(d, idle_steps):
    # Each preset's windows against the frozen stepper, at every idle
    # layout (the frozen-reference test above covers d = 3 and 5).
    circ = _circuit(d, idle_steps)
    for name in PRESET_NAMES:
        model = preset(name, 0.01)
        for idx in range(3):
            got = simulate_window(circ, model, trial_rng(23, idx), 2 * d)
            want = frame_reference.simulate_window(circ, model, trial_rng(23, idx), 2 * d)
            for graph in ("x", "z"):
                assert np.array_equal(got.history.signs[graph], want.history.signs[graph])
            assert np.array_equal(got.frame.x, want.frame.x)
            assert np.array_equal(got.frame.z, want.frame.z)


@pytest.mark.parametrize("model", [ErrorModel(0, 0, 0), ErrorModel(1e-300, 1e-300, 1e-300)],
                         ids=["p=0", "no-hit"])
def test_window_without_hits_samples_clean(circuit_d3, model, monkeypatch):
    # p = 0 draws nothing; a tiny p draws every slot and hits none.  Either
    # way the gather is empty and the window is clean, in every shape.
    table = circuit_d3.fault_table
    gathered = []

    class Pad(np.ndarray):
        def __getitem__(self, rows):
            out = np.asarray(super().__getitem__(rows))
            gathered.append(out.shape)
            return out

    monkeypatch.setattr(table, "pad", table.pad.view(Pad))
    res = simulate_window(circuit_d3, model, trial_rng(2, 0), rounds=4)
    assert gathered == [(0, table.pad.shape[1])]
    n_stab = {"z": circuit_d3.n_z, "x": circuit_d3.n_x}
    for graph in ("x", "z"):
        signs = res.history.signs[graph]
        assert signs.shape == (n_stab[graph], 6) and not signs.any()
    for plane in (res.frame.x, res.frame.z):
        assert plane.shape == (circuit_d3.n_cells,) and not plane.any()


def test_dropped_circuit_frees_its_fault_table():
    """A circuit caches its fault table and the table keeps no reference
    back, so with the cyclic collector off, dropping the circuit frees
    the table by reference counting."""
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    simulate_window(circ, preset("standard", 0.01), trial_rng(1, 0), rounds=3)
    table = weakref.ref(circ.fault_table)
    gc.collect()
    gc.disable()
    try:
        del circ
        assert table() is None
    finally:
        gc.enable()


def _kind_rows(circ):
    """(row, phase, cells, pauli) of every fault-table row, numbered by the
    rule FaultTable documents (phases in draw order: the CNOT gates, idle5
    if scheduled, the readouts, idle6 if scheduled; then slot, then kind)
    without reading the table: pauli is a (control, target) pair for a
    CNOT, one Pauli for an idle qubit, and for a readout the bit it flips
    (X on a Z-type syndrome qubit, Z on an X-type one)."""
    kinds = []
    for gate in range(circ.n_cnots):
        cells = (int(circ.gate_ctl[gate]), int(circ.gate_tgt[gate]))
        kinds += [(cnot_phase(circ, gate), cells, pair) for pair in TWO_QUBIT_PAULIS]
    idle = {step: [(f"idle{step}", int(cell), op)
                   for cell in circ.data_idx for op in SINGLE_PAULIS]
            for step in circ.idle_steps}
    kinds += idle.get(5, [])
    stab_cells = np.concatenate([circ.z_idx, circ.x_idx])
    kinds += [("meas", int(cell), X if a < circ.n_z else Z) for a, cell in enumerate(stab_cells)]
    kinds += idle.get(6, [])
    return [(row, *kind) for row, kind in enumerate(kinds)]


def _row_entries(table, row: int) -> np.ndarray:
    codes = table.pad[row]
    return codes[codes >= 0]


@pytest.mark.parametrize("d,idle_steps", [(3, (5, 6)), (5, (6,))])
def test_fault_table_entries_match_injected_faults(d, idle_steps):
    # Each kind row against the frozen frame stepper with that one Pauli
    # injected: in the last noisy round (dt = 1 lands in the closure
    # column) and in an earlier one.  The stepper shares no code with the
    # `run_cycle` that builds the table.
    circ = _circuit(d, idle_steps)
    table = circ.fault_table
    n_stab = circ.n_z + circ.n_x
    zero = ErrorModel(0, 0, 0)
    entries = _kind_rows(circ)
    assert len(entries) == len(table.pad)
    # slot_rows(phase) + kind is the documented numbering.
    n_kinds = {"cnot": 15, "meas": 1, **{f"idle{step}": 3 for step in idle_steps}}
    for phase, n in n_kinds.items():
        want = [row for row, ph, *_ in entries if ph.startswith(phase)]
        assert (table.slot_rows(phase)[:, None] + np.arange(n)).ravel().tolist() == want
    # Each padded row holds its entries in increasing code order, then
    # -1 up to the longest row's length.
    counts = (table.pad >= 0).sum(axis=1)
    assert table.pad.shape[1] == counts.max()
    for row, count in zip(table.pad, counts):
        assert (row[count:] == -1).all() and (np.diff(row[:count]) > 0).all()
    data_cols = np.concatenate([circ.data_idx, circ.n_cells + circ.data_idx])
    for row, phase, cells, pauli in entries:
        codes = _row_entries(table, row)
        for rounds, r0 in ((2, 2), (3, 1)):
            res = frame_reference.simulate_window(
                circ, zero, None, rounds, injections=make_injection([(r0, phase, cells, pauli)]))
            signs = np.concatenate([res.history.signs["z"], res.history.signs["x"]])
            events = signs ^ np.concatenate([np.zeros((n_stab, 1), np.uint8),
                                             signs[:, :-1]], axis=1)
            want = np.zeros_like(events)
            for code in codes[codes >= 2 * circ.n_cells]:
                dt, a = divmod(int(code) - 2 * circ.n_cells, n_stab)
                want[a, r0 + dt] = 1
            assert np.array_equal(events, want), (row, rounds, r0)

            data = np.zeros(2 * circ.n_cells, dtype=np.uint8)
            data[codes[codes < 2 * circ.n_cells]] = 1
            frame = np.concatenate([res.frame.x, res.frame.z])
            assert np.array_equal(frame[data_cols], data[data_cols]), (row, rounds, r0)


def test_fault_table_kinds_touch_their_graph(circuit_d5):
    # An x bit is seen only by Z-type stabilizers and a z bit only by X-type
    # ones: pure-X kinds touch only the z graph, pure-Z kinds only the x
    # graph.  No row flips more than two events in one graph.
    table = circuit_d5.fault_table
    n_z, n_stab = circuit_d5.n_z, circuit_d5.n_z + circuit_d5.n_x
    ev_start = 2 * circuit_d5.n_cells
    for row, _, _, pauli in _kind_rows(circuit_d5):
        codes = _row_entries(table, row)
        in_z = (codes[codes >= ev_start] - ev_start) % n_stab < n_z
        assert in_z.sum() <= 2 and (~in_z).sum() <= 2, row
        ops = pauli if isinstance(pauli, tuple) else (pauli,)
        if not any(op.z for op in ops):
            assert in_z.all(), row
        if not any(op.x for op in ops):
            assert not in_z.any(), row


def _patched_cycle(monkeypatch, tamper):
    import surfacesim.sim as sim

    original = sim.run_cycle
    cycles = 0

    def cycle(frame, circuit, injections):
        nonlocal cycles
        cycles += 1
        reports = original(frame, circuit, injections)
        tamper(frame, reports, cycles)
        return reports

    monkeypatch.setattr(sim, "run_cycle", cycle)
    return sim


def test_fault_table_rejects_events_two_rounds_late(monkeypatch):
    def late_report(frame, reports, cycle):
        if cycle == 3:
            reports[0][5, 0] ^= 1

    sim = _patched_cycle(monkeypatch, late_report)
    with pytest.raises(ValueError, match="two rounds"):
        sim.FaultTable(_circuit(3))


def test_fault_table_rejects_an_unsettled_frame(monkeypatch):
    def moving_data(frame, reports, cycle):
        if cycle == 3:
            frame.x[7, 0] ^= 1

    sim = _patched_cycle(monkeypatch, moving_data)
    with pytest.raises(ValueError, match="settled"):
        sim.FaultTable(_circuit(3))


def test_simulate_window_rejects_bad_calls(circuit_d3):
    model = preset("standard", 0.01)
    with pytest.raises(ValueError, match="rounds"):
        simulate_window(circuit_d3, model, trial_rng(0, 0), 0)
