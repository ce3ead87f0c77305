import numpy as np
import pytest

from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.noise import ErrorModel, preset, trial_rng
from surfacesim.sim import compile_circuit, simulate_window


def test_presets():
    assert preset("standard", 0.01) == ErrorModel(0.01, 0.01, 0.01)
    m = preset("balanced", 0.015)
    assert m.p2 == pytest.approx(0.015)
    assert m.pI == pytest.approx(0.012)
    assert m.pM == pytest.approx(0.008)
    m = preset("iontrap", 0.01)
    assert m.p2 == pytest.approx(0.01)
    assert m.pI == pytest.approx(0.00001)
    assert m.pM == pytest.approx(0.0001)


def test_preset_rejects_unknown_name_and_bad_p():
    with pytest.raises(ValueError):
        preset("nonsense", 0.01)
    with pytest.raises(ValueError):
        preset("standard", 1.5)
    with pytest.raises(ValueError):
        ErrorModel(-0.1, 0, 0)


def test_single_qubit_sampler():
    # The window sampler's idle faults: at pI = 1 every data qubit idles
    # once in a one-round window, and noiseless cycles leave data bits
    # alone, so each data qubit's final bits are its idle Pauli.
    lat = build_lattice(3)
    circ = compile_circuit(lat, standard_schedule(lat))
    counts = np.zeros(4, dtype=np.int64)  # indexed 2x + z: I, Z, X, Y
    for i in range(300):
        res = simulate_window(circ, ErrorModel(0, 1, 0), trial_rng(0, i), rounds=1)
        x, z = res.frame.x[circ.data_idx], res.frame.z[circ.data_idx]
        counts += np.bincount(2 * x + z, minlength=4)
    assert counts[0] == 0
    n = 300 * len(circ.data_idx)
    chi2 = sum((k - n / 3) ** 2 / (n / 3) for k in counts[1:])
    # 2 degrees of freedom: P(chi2 > 13.8) = 0.001.
    assert chi2 < 13.8


def test_trial_rng_reproducible_and_independent():
    a = trial_rng(42, 7).random(16)
    b = trial_rng(42, 7).random(16)
    c = trial_rng(42, 8).random(16)
    d = trial_rng(43, 7).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
