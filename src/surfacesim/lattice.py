"""Planar surface-code layout and the stabilizer-measurement gate schedule.

Geometry: a (2d-1) x (2d-1) grid of qubits.  Data qubits sit on cells with
i+j even.  X-type syndrome qubits sit on (odd i, even j) cells and are the
control of every CNOT they touch; Z-type syndrome qubits sit on
(even i, odd j) cells and are the target.  Each measurement cycle is the
four CNOT steps that tile the plane, then the readout: syndrome qubits are
measured while every data qubit idles once (the phase "idle6" of fault
locations).

With this layout, chains of data X errors terminate on the left/right grid
edges (Z graph) and chains of data Z errors terminate on the top/bottom
edges (X graph).  The logical X operator runs along row 0 and the logical
Z operator along column 0.
"""

from __future__ import annotations

from dataclasses import dataclass

DIRECTIONS = {"n": (-1, 0), "e": (0, 1), "s": (1, 0), "w": (0, -1)}

# Step ordering for the four CNOT steps: X stabilizers touch (n, w, e, s)
# while Z stabilizers touch (n, e, w, s), so the two tilings never collide
# and every single error process flips at most two detection events.
# Orderings outside this interleaved family (e.g. both types sweeping
# n, e, s, w) are conflict-free too, but their hook errors split across
# rounds into 3- and 4-event signatures that no pair-link model captures.
STEP_ORDER = {"x": ("n", "w", "e", "s"), "z": ("n", "e", "w", "s")}

DATA = "data"
X_SYNDROME = "x"
Z_SYNDROME = "z"


def cell_role(i: int, j: int) -> str:
    if (i + j) % 2 == 0:
        return DATA
    return X_SYNDROME if i % 2 == 1 else Z_SYNDROME


def _grid_neighbors(size: int, cell: tuple[int, int]) -> dict[str, tuple[int, int]]:
    """The neighbors of a cell inside a size x size grid, keyed by direction."""
    i, j = cell
    return {name: (i + di, j + dj) for name, (di, dj) in DIRECTIONS.items()
            if 0 <= i + di < size and 0 <= j + dj < size}


@dataclass(frozen=True)
class Lattice:
    """Distance-d planar code layout.  Immutable once built."""

    distance: int
    size: int  # grid is size x size, size = 2d-1
    data_qubits: tuple[tuple[int, int], ...]
    x_stabilizers: tuple[tuple[int, int], ...]
    z_stabilizers: tuple[tuple[int, int], ...]
    supports: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    logical_x_support: tuple[tuple[int, int], ...]
    logical_z_support: tuple[tuple[int, int], ...]

    def index(self, cell: tuple[int, int]) -> int:
        return cell[0] * self.size + cell[1]

    def cell(self, index: int) -> tuple[int, int]:
        return divmod(index, self.size)

    def stabilizers(self, graph: str) -> tuple[tuple[int, int], ...]:
        if graph == X_SYNDROME:
            return self.x_stabilizers
        if graph == Z_SYNDROME:
            return self.z_stabilizers
        raise ValueError(f"unknown graph type {graph!r}")

    def neighbors(self, cell: tuple[int, int]) -> dict[str, tuple[int, int]]:
        """On-grid neighbors of a syndrome qubit, keyed by direction."""
        return _grid_neighbors(self.size, cell)

    def sublattice_coord(self, cell: tuple[int, int]) -> tuple[int, int]:
        """Map a syndrome cell to unit-spaced coordinates of its own graph.

        Same-type stabilizers that are nearest neighbors differ by one unit,
        which is the coordinate system used for the Manhattan separation.
        """
        i, j = cell
        role = cell_role(i, j)
        if role == Z_SYNDROME:
            return (i // 2, (j - 1) // 2)
        if role == X_SYNDROME:
            return ((i - 1) // 2, j // 2)
        raise ValueError(f"{cell} is not a syndrome qubit")

    def nearest_boundary(self, cell: tuple[int, int]) -> tuple[int, str]:
        """Nearest boundary that a syndrome qubit's error chains end on, and
        its distance in sublattice units (one more than the stabilizers
        lying between).  Z-type qubits exit left or right, X-type top or
        bottom; a tie goes left or top."""
        a, b = self.sublattice_coord(cell)
        if cell_role(*cell) == Z_SYNDROME:
            left, right = b + 1, self.distance - 1 - b
            return (left, "left") if left <= right else (right, "right")
        top, bottom = a + 1, self.distance - 1 - a
        return (top, "top") if top <= bottom else (bottom, "bottom")

    def describe(self) -> dict:
        """JSON-friendly dump of roles, supports and logical operators."""
        return {
            "distance": self.distance,
            "grid": self.size,
            "data_qubits": [list(c) for c in self.data_qubits],
            "x_stabilizers": {
                f"{i},{j}": [list(c) for c in self.supports[(i, j)]]
                for (i, j) in self.x_stabilizers
            },
            "z_stabilizers": {
                f"{i},{j}": [list(c) for c in self.supports[(i, j)]]
                for (i, j) in self.z_stabilizers
            },
            "logical_x_support": [list(c) for c in self.logical_x_support],
            "logical_z_support": [list(c) for c in self.logical_z_support],
        }


def build_lattice(distance: int) -> Lattice:
    """Build the distance-d layout.  Requires odd distance >= 3."""
    if distance < 3:
        raise ValueError(f"distance must be >= 3, got {distance}")
    if distance % 2 == 0:
        raise ValueError(f"distance must be odd, got {distance}")
    size = 2 * distance - 1

    data, xstabs, zstabs = [], [], []
    for i in range(size):
        for j in range(size):
            role = cell_role(i, j)
            if role == DATA:
                data.append((i, j))
            elif role == X_SYNDROME:
                xstabs.append((i, j))
            else:
                zstabs.append((i, j))

    supports = {cell: tuple(sorted(_grid_neighbors(size, cell).values()))
                for cell in xstabs + zstabs}

    logical_x = tuple((0, j) for j in range(0, size, 2))
    logical_z = tuple((i, 0) for i in range(0, size, 2))

    return Lattice(
        distance=distance,
        size=size,
        data_qubits=tuple(data),
        x_stabilizers=tuple(xstabs),
        z_stabilizers=tuple(zstabs),
        supports=supports,
        logical_x_support=logical_x,
        logical_z_support=logical_z,
    )


def standard_schedule(lattice: Lattice) -> tuple:
    """The tiled four-step CNOT ordering, identical for every stabilizer:
    element k lists the (control, target) pairs of CNOT step k+1.

    Every X stabilizer touches its neighbors in STEP_ORDER["x"] order (as
    control) and every Z stabilizer in the "z" order (as target); missing
    boundary neighbors are skipped.  A measurement cycle is these four
    steps, then the readout, during which every data qubit idles once.
    """
    steps: list[list[tuple[tuple[int, int], tuple[int, int]]]] = [[] for _ in range(4)]
    for cell in lattice.x_stabilizers:
        neigh = lattice.neighbors(cell)
        for k, direction in enumerate(STEP_ORDER["x"]):
            if direction in neigh:
                steps[k].append((cell, neigh[direction]))
    for cell in lattice.z_stabilizers:
        neigh = lattice.neighbors(cell)
        for k, direction in enumerate(STEP_ORDER["z"]):
            if direction in neigh:
                steps[k].append((neigh[direction], cell))
    return tuple(tuple(sorted(step)) for step in steps)
