"""Pauli operators and enumerations for the test oracles.  Not part of the
package.

TWO_QUBIT_PAULIS lists the 15 non-identity two-qubit Paulis in the order
of `surfacesim.sim.PAULI2_BITS`, so a sampled kind index names the same
Pauli pair in both.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PauliOp:
    """Single-qubit Pauli as X/Z bits: I=(0,0), X=(1,0), Z=(0,1), Y=(1,1)."""

    x: int
    z: int


X = PauliOp(1, 0)
Z = PauliOp(0, 1)
Y = PauliOp(1, 1)
I = PauliOp(0, 0)

SINGLE_PAULIS = (X, Y, Z)

TWO_QUBIT_PAULIS = tuple(
    (a, b) for a in (I, X, Y, Z) for b in (I, X, Y, Z) if (a, b) != (I, I)
)
