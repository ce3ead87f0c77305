"""Stochastic error models: depolarizing gate noise and measurement flips.

Three probabilities parameterize a model: p2 after every CNOT (two-qubit
depolarizing, 15 non-identity Pauli pairs equally likely), pI after every
identity gate (single-qubit depolarizing), and pM for a measurement that
reports and projects into the wrong eigenstate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRESET_NAMES = ("standard", "balanced", "iontrap")


@dataclass(frozen=True)
class ErrorModel:
    p2: float
    pI: float
    pM: float

    def __post_init__(self):
        for name, p in (("p2", self.p2), ("pI", self.pI), ("pM", self.pM)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")


def preset(name: str, p: float) -> ErrorModel:
    """Named error models.

    standard: p2 = pI = pM = p.
    balanced: pI = 4*p2/5 and pM = 2*pI/3, so an idle qubit fails like one
        qubit of a two-qubit gate and measurement only sees one basis.
    iontrap:  pI = p2/1000, pM = p2/100.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if name == "standard":
        return ErrorModel(p, p, p)
    if name == "balanced":
        return ErrorModel(p, 4 * p / 5, 8 * p / 15)
    if name == "iontrap":
        return ErrorModel(p, p / 1000, p / 100)
    raise ValueError(f"unknown error model {name!r}; choose from {PRESET_NAMES}")


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial.

    Streams are derived counter-style from (master_seed, trial_index), so a
    sweep gives identical results no matter how trials are scheduled.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.Philox(seq))
