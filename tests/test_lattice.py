import pytest

from surfacesim.lattice import STEP_ORDER, build_lattice, cell_role, standard_schedule
from surfacesim.sim import compile_circuit


def test_rejects_bad_distance():
    with pytest.raises(ValueError):
        build_lattice(2)
    with pytest.raises(ValueError):
        build_lattice(4)
    with pytest.raises(ValueError):
        build_lattice(1)


def test_d3_counts():
    lat = build_lattice(3)
    assert lat.size == 5
    assert len(lat.data_qubits) == 13
    assert len(lat.x_stabilizers) == 6
    assert len(lat.z_stabilizers) == 6


def test_d3_logical_weights():
    lat = build_lattice(3)
    assert len(lat.logical_x_support) == 3
    assert len(lat.logical_z_support) == 3


@pytest.mark.parametrize("d", [3, 5, 7])
def test_support_sizes(d):
    lat = build_lattice(d)
    for cell, support in lat.supports.items():
        i, j = cell
        on_edge = i in (0, lat.size - 1) or j in (0, lat.size - 1)
        if on_edge:
            assert len(support) == 3, cell
        else:
            assert len(support) == 4, cell


@pytest.mark.parametrize("d", [3, 5])
def test_stabilizers_commute(d):
    lat = build_lattice(d)
    for xc in lat.x_stabilizers:
        for zc in lat.z_stabilizers:
            overlap = set(lat.supports[xc]) & set(lat.supports[zc])
            assert len(overlap) % 2 == 0, (xc, zc)


@pytest.mark.parametrize("d", [3, 5])
def test_logicals_commute_with_stabilizers_and_anticommute(d):
    lat = build_lattice(d)
    lx = set(lat.logical_x_support)
    lz = set(lat.logical_z_support)
    # X-chain vs Z-stabilizers, Z-chain vs X-stabilizers: even overlaps.
    for zc in lat.z_stabilizers:
        assert len(lx & set(lat.supports[zc])) % 2 == 0
    for xc in lat.x_stabilizers:
        assert len(lz & set(lat.supports[xc])) % 2 == 0
    assert len(lx & lz) % 2 == 1


def test_roles_partition_grid():
    lat = build_lattice(5)
    cells = {(i, j) for i in range(lat.size) for j in range(lat.size)}
    tagged = set(lat.data_qubits) | set(lat.x_stabilizers) | set(lat.z_stabilizers)
    assert tagged == cells
    for i, j in lat.x_stabilizers:
        assert i % 2 == 1 and j % 2 == 0
    for i, j in lat.z_stabilizers:
        assert i % 2 == 0 and j % 2 == 1


def test_d3_total_cnots():
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    assert circ.n_cnots == sum(len(s) for s in lat.supports.values()) == 40


@pytest.mark.parametrize("d", [3, 5, 7])
def test_standard_schedule_validates(d):
    # No step uses a qubit twice, and the steps make each (stabilizer,
    # support qubit) gate exactly once, X-type qubits as control and
    # Z-type qubits as target.
    lat = build_lattice(d)
    gates = []
    for step in standard_schedule(lat):
        used = [q for gate in step for q in gate]
        assert len(used) == len(set(used))
        for ctrl, tgt in step:
            roles = cell_role(*ctrl), cell_role(*tgt)
            assert roles in (("x", "data"), ("data", "z")), (ctrl, tgt)
            gates.append((ctrl, tgt) if roles[0] == "x" else (tgt, ctrl))
    assert sorted(gates) == sorted((stab, q) for stab, support in lat.supports.items()
                                   for q in support)


def test_step_counts_match_direction_presence():
    lat = build_lattice(3)
    for k, step in enumerate(standard_schedule(lat)):
        expect = 0
        for cell in lat.x_stabilizers:
            if STEP_ORDER["x"][k] in lat.neighbors(cell):
                expect += 1
        for cell in lat.z_stabilizers:
            if STEP_ORDER["z"][k] in lat.neighbors(cell):
                expect += 1
        assert len(step) == expect


def test_describe_roundtrips_roles():
    lat = build_lattice(3)
    desc = lat.describe()
    assert desc["distance"] == 3
    assert len(desc["data_qubits"]) == 13
    assert len(desc["x_stabilizers"]) == 6
    assert sum(len(step) for step in standard_schedule(lat)) == 40


def test_sublattice_coords_unit_spacing():
    lat = build_lattice(5)
    for (i, j) in lat.z_stabilizers:
        a, b = lat.sublattice_coord((i, j))
        assert (2 * a, 2 * b + 1) == (i, j)
    for (i, j) in lat.x_stabilizers:
        a, b = lat.sublattice_coord((i, j))
        assert (2 * a + 1, 2 * b) == (i, j)
    assert cell_role(0, 1) == "z"
    assert cell_role(1, 0) == "x"
