import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.noise import ErrorModel, preset
from surfacesim.sim import compile_circuit
from surfacesim.edge_analysis import (
    _signed_processes, derive_edge_classes, odd_parity_probability,
)

from frame_reference import cnot_phase
from oracles import propagate_process, propagated_processes


def eq1(p):
    # Truncated closed form for the temporal link under the standard model.
    q = 4 * p / 15
    return 16 * p / 15 * (1 - q) ** 3 * (1 - p) + p * (1 - q) ** 4


@pytest.fixture(scope="module")
def setup_d5():
    lat = build_lattice(5)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", 0.01)
    table = derive_edge_classes(circ, model)
    return circ, model, table


def test_odd_parity_examples():
    assert odd_parity_probability([]) == 0.0
    assert odd_parity_probability([0.37]) == pytest.approx(0.37)
    assert odd_parity_probability([0.5, 0.3, 0.9]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        odd_parity_probability([1.2])


@given(st.lists(st.floats(min_value=0, max_value=1), max_size=8))
def test_odd_parity_matches_enumeration(qs):
    # Brute-force: sum over odd-cardinality subsets.
    total = 0.0
    for mask in range(1 << len(qs)):
        if bin(mask).count("1") % 2 == 1:
            prob = 1.0
            for idx, q in enumerate(qs):
                prob *= q if (mask >> idx) & 1 else (1 - q)
            total += prob
    assert odd_parity_probability(qs) == pytest.approx(total, abs=1e-12)


def test_processes_all_probabilities_zero_at_p0():
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    procs = [p for p, _ in _signed_processes(circ, ErrorModel(0, 0, 0))]
    assert procs and all(p.probability == 0.0 for p in procs)


def test_single_cnot_z_view_mass_is_12_fifteenths():
    # Oracle: enumerate the 15 Pauli pairs and project onto X components of
    # the two legs; {XI, IX, XX} each collect 4 Paulis, so the X-visible
    # mass of one CNOT is 12*p2/15 split into three 4*p2/15 components.
    from paulis import TWO_QUBIT_PAULIS
    p2 = 0.15
    counts = {}
    for a, b in TWO_QUBIT_PAULIS:
        key = (a.x, b.x)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {(0, 0): 3, (1, 0): 4, (0, 1): 4, (1, 1): 4}
    visible_mass = sum(n * p2 / 15 for key, n in counts.items() if key != (0, 0))
    assert visible_mass == pytest.approx(12 * p2 / 15)

    # On a CNOT with no invisible component (any Z-stabilizer gate, where
    # ctl = data and tgt = syndrome), the enumerated processes carry the
    # full mass; X-stabilizer final-step gates lose the dead control leg
    # and merge the rest into 8*p2/15.
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", p2)
    from surfacesim.lattice import cell_role
    z_gates = [g for g in range(circ.n_cnots)
               if cell_role(*lat.cell(int(circ.gate_tgt[g]))) == "z"]
    procs = [p for p, _ in _signed_processes(circ, model)
             if p.graph == "z" and p.location == ("cnot", z_gates[0])]
    assert sum(p.probability for p in procs) == pytest.approx(12 * p2 / 15)


def test_idle_process_class(setup_d5):
    circ, model, _ = setup_d5
    idles = [p for p, _ in _signed_processes(circ, model)
             if p.location[0].startswith("idle") and p.graph == "x"]
    assert len(idles) == len(circ.data_idx)
    assert all(p.prob_class == "2pI/3" for p in idles)
    assert all(p.probability == pytest.approx(2 * model.pI / 3) for p in idles)


def test_data_memory_error_is_spatial_link(setup_d5):
    circ, model, _ = setup_d5
    lat = circ.lattice
    # Bulk data qubit at (4, 4): z errors pair its north/south X stabilizers.
    from surfacesim.edge_analysis import ErrorProcess
    proc = ErrorProcess("x", ("idle6", lat.index((4, 4))), "flip",
                        "2pI/3", 2 * model.pI / 3)
    sig = propagate_process(circ, proc)
    cells = sorted(lat.cell(c) for c, _ in sig)
    assert cells == [(3, 4), (5, 4)]
    assert all(dt == 0 for _, dt in sig)


def test_measurement_flip_is_temporal_link(setup_d5):
    circ, model, _ = setup_d5
    lat = circ.lattice
    from surfacesim.edge_analysis import ErrorProcess
    stab = lat.index((4, 3))
    proc = ErrorProcess("z", ("meas", stab), "flip", "pM", model.pM)
    sig = propagate_process(circ, proc)
    assert sig == ((stab, 0), (stab, 1))


def test_all_signatures_at_most_two_events_d5(setup_d5):
    circ, model, _ = setup_d5
    for proc, _ in _signed_processes(circ, model):
        assert len(propagate_process(circ, proc)) <= 2


def test_diagonal_class_exists(setup_d5):
    # At least one class must combine a temporal and a spatial offset.
    _, _, table = setup_d5
    for graph in ("x", "z"):
        offsets = {cls.offset for cls in table.bulk_classes[graph]}
        assert any(dt == 1 and (da, db) != (0, 0) for (da, db, dt) in offsets)


def test_six_bulk_classes_with_letters(setup_d5):
    _, _, table = setup_d5
    for graph in ("x", "z"):
        letters = [cls.letter for cls in table.bulk_classes[graph]]
        assert letters == list("ABCDEF")


def test_temporal_class_membership_and_eq1(setup_d5):
    _, model, table = setup_d5
    for graph in ("x", "z"):
        a_cls = table.bulk_classes[graph][0]
        assert a_cls.offset == (0, 0, 1)
        kinds = sorted(m.prob_class for m in a_cls.members)
        assert kinds == ["4p2/15"] * 4 + ["pM"]
        assert a_cls.probability == pytest.approx(eq1(model.p2), abs=0.6 * model.p2 ** 3)


def test_class_a_value_at_p001(setup_d5):
    _, _, table = setup_d5
    assert table.bulk_classes["z"][0].probability == pytest.approx(0.02037, abs=2e-5)


def test_eq1_agreement_order_p_cubed():
    # Residual of the O(p^3)-truncated polynomial against the exact
    # odd-parity value; the exact cubic coefficient is ~0.50.
    for p in np.linspace(0.001, 0.02, 9):
        exact = odd_parity_probability([4 * p / 15] * 4 + [p])
        assert abs(exact - eq1(p)) <= 0.6 * p ** 3


def test_zero_probability_classes_at_p0():
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, ErrorModel(0, 0, 0))
    for graph in ("x", "z"):
        for cls in table.pair_classes[graph].values():
            assert cls.probability == 0.0


def test_completeness_every_visible_process_grouped(setup_d5):
    circ, model, table = setup_d5
    visible = 0
    for proc, _ in _signed_processes(circ, model):
        if propagate_process(circ, proc):
            visible += 1
    grouped = 0
    for graph in ("x", "z"):
        grouped += sum(len(c.members) for c in table.pair_classes[graph].values())
        grouped += sum(len(c.members) for c in table.boundary_classes[graph].values())
    assert grouped == visible


def test_translation_invariance_d7():
    lat = build_lattice(7)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = derive_edge_classes(circ, preset("standard", 0.01))
    for graph in ("x", "z"):
        by_offset = {}
        for cls in table.pair_classes[graph].values():
            by_offset.setdefault(cls.offset, []).append(cls)
        for offset, classes in by_offset.items():
            full = max(len(c.members) for c in classes)
            probs = {round(c.probability, 15) for c in classes
                     if len(c.members) == full}
            assert len(probs) == 1, (graph, offset, probs)


def test_boundary_classes_on_boundary_stabilizers_only(setup_d5):
    circ, _, table = setup_d5
    lat = circ.lattice
    for graph, coord, lo_hi in (("z", 1, "left"), ("x", 0, "top")):
        for cell, cls in table.boundary_classes[graph].items():
            i, j = lat.cell(cell)
            edge_coord = j if graph == "z" else i
            assert edge_coord in (1, lat.size - 2)
            assert cls.side in (("left", "right") if graph == "z" else ("top", "bottom"))


def test_json_export_roundtrip(setup_d5):
    _, _, table = setup_d5
    doc = json.loads(table.to_json())
    assert doc["distance"] == 5
    for graph in ("x", "z"):
        bulk = doc["graphs"][graph]["bulk"]
        assert [b["letter"] for b in bulk] == list("ABCDEF")
        assert all(0 < b["probability"] < 1 for b in bulk)
        assert doc["graphs"][graph]["boundary"]


def test_predicted_events_match_simulator(setup_d5):
    """Noise confined to one cycle: the simulated detection events must
    equal the XOR of the signatures of the error components that fired.

    This ties the link model end-to-end to the actual circuit simulator,
    including multi-error cancellations within a cycle.
    """
    circ, model, _table = setup_d5
    lat = circ.lattice
    from paulis import SINGLE_PAULIS, TWO_QUBIT_PAULIS
    from surfacesim.noise import trial_rng
    from surfacesim.sim import detection_events
    from frame_reference import make_injection, simulate_window

    r0 = 2
    zero = ErrorModel(0, 0, 0)

    # Absolute event sets per raw component, from one injection each.
    from surfacesim.edge_analysis import ErrorProcess
    from oracles import _injection_for
    abs_sig: dict = {}
    for graph in ("x", "z"):
        raw_components = (
            [(("cnot", g), part) for g in range(circ.n_cnots)
             for part in ("ctl", "tgt", "both")]
            + [(("idle6", int(c)), "flip") for c in circ.data_idx]
            + [(("meas", int(c)), "flip")
               for c in (circ.z_idx if graph == "z" else circ.x_idx)])
        for location, part in raw_components:
            raw = ErrorProcess(graph, location, part, "4p2/15", 0.0)
            res = simulate_window(circ, zero, None, rounds=r0 + 2,
                                  injections=_injection_for(circ, raw, r0))
            abs_sig[(graph, location, part)] = {
                (e.graph, lat.index((e.i, e.j)), e.t)
                for e in detection_events(res.history)}

    rng = trial_rng(404, 0)
    for trial in range(300):
        entries = []
        fired = []  # (graph, location, part)
        for gate in range(circ.n_cnots):
            if rng.random() < 0.02:
                kind = int(rng.integers(15))
                pair = TWO_QUBIT_PAULIS[kind]
                cells = (int(circ.gate_ctl[gate]), int(circ.gate_tgt[gate]))
                entries.append((r0, cnot_phase(circ, gate), cells, pair))
                for graph, (bc, bt) in (("z", (pair[0].x, pair[1].x)),
                                        ("x", (pair[0].z, pair[1].z))):
                    part = {(1, 0): "ctl", (0, 1): "tgt", (1, 1): "both"}.get((bc, bt))
                    if part:
                        fired.append((graph, ("cnot", gate), part))
        for cell in circ.data_idx:
            if rng.random() < 0.02:
                op = SINGLE_PAULIS[int(rng.integers(3))]
                entries.append((r0, "idle6", int(cell), op))
                if op.x:
                    fired.append(("z", ("idle6", int(cell)), "flip"))
                if op.z:
                    fired.append(("x", ("idle6", int(cell)), "flip"))
        for graph, idx in (("z", circ.z_idx), ("x", circ.x_idx)):
            for cell in idx:
                if rng.random() < 0.02:
                    entries.append((r0, "meas", int(cell), None))
                    fired.append((graph, ("meas", int(cell)), "flip"))

        res = simulate_window(circ, zero, None, rounds=r0 + 2,
                              injections=make_injection(entries))
        observed = {(e.graph, lat.index((e.i, e.j)), e.t)
                    for e in detection_events(res.history)}

        predicted: set = set()
        for key in fired:
            predicted ^= abs_sig[key]
        assert observed == predicted, (trial, sorted(observed), sorted(predicted))


def test_mc_probability_validation_1e6(setup_d5):
    # Smaller-N version of the acceptance-scale validation: every class
    # frequency within 5 sigma at N = 10^6.
    from oracles import mc_validate
    circ, model, table = setup_d5
    n = 10**6
    results = mc_validate(circ, model, table, n_samples=n, seed=77)
    assert len(results) > 100
    worst = 0.0
    for cls, expected, observed, n_s in results:
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n_s)
        pull = abs(observed - expected) / sigma
        worst = max(worst, pull)
        assert pull < 5.0, (cls.graph, cls.cells, cls.dt, expected, observed)
    assert worst > 0.0


def test_process_signature_matches_propagation_d3():
    # Every process's one-pass signature, read from the fault table,
    # equals the one propagated gate by gate.
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    model = preset("standard", 0.01)
    signed = list(_signed_processes(circ, model))
    assert ([proc for proc, _ in signed]
            == [proc for proc, _ in propagated_processes(circ, model)])
    for proc, sig in signed:
        assert sig == propagate_process(circ, proc), proc


@pytest.mark.parametrize("phase,kinds", [("idle6", 3), ("meas", 1)])
def test_idle_or_readout_fault_without_events_is_refused(phase, kinds):
    # An idle or readout fault always flips a detection event; one whose
    # fault-table rows flip none is refused by name, not grouped.
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    table = circ.fault_table
    table.pad[table.slot_rows(phase)[0] + np.arange(kinds)] = -1
    with pytest.raises(ValueError, match=f"fault at \\('{phase}', .*flips no detection event"):
        derive_edge_classes(circ, preset("standard", 0.01))


def _class_snapshot(table):
    pairs = {g: {key: (c.members, c.probability, c.cells, c.dt, c.offset)
                 for key, c in table.pair_classes[g].items()} for g in ("x", "z")}
    bounds = {g: {key: (c.members, c.probability, c.cells, c.side)
                  for key, c in table.boundary_classes[g].items()} for g in ("x", "z")}
    return table.to_json(), pairs, bounds


@pytest.mark.parametrize("d", [3, 5, 7])
def test_derivation_from_fault_table_matches_propagation(d):
    # The same processes and signatures, and so the same EdgeClassTable,
    # as with every signature taken from propagate_process.  Signatures do
    # not depend on the model, so each propagated one is reused across
    # the presets.
    import surfacesim.edge_analysis as ea

    lat = build_lattice(d)
    circ = compile_circuit(lat, standard_schedule(lat))
    propagated: dict = {}

    def signature(circuit, proc):
        key = (proc.graph, proc.location, proc.component)
        if key not in propagated:
            propagated[key] = propagate_process(circuit, proc)
        return propagated[key]

    for name in ("standard", "balanced", "iontrap"):
        model = preset(name, 0.01)
        signed = list(propagated_processes(circ, model, signature))
        assert list(ea._signed_processes(circ, model)) == signed, name
        want = ea.group_processes(lat, model, signed)
        got = derive_edge_classes(circ, model)
        assert _class_snapshot(got) == _class_snapshot(want), name
