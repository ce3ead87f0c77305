"""The compiled blossom kernel against the Python solver it was ported
from: the same mates, list for list, ties included."""

import ctypes
import random

import pytest

from surfacesim import matching
from surfacesim.harness import _setup
from surfacesim.noise import preset, trial_rng
from surfacesim.sim import simulate_window

from blossom_reference import max_weight_matching as reference
from candidate_reference import solver_rows


def _random_graph(rng, integer):
    """n = 2-80 vertices at density 0.1-0.5, a few of them isolated; integer
    weights 1-6 (tie-heavy) or float weights, with some zero weights."""
    n = rng.randint(2, 80)
    density = rng.uniform(0.1, 0.5)
    isolated = set(rng.sample(range(n), rng.randint(0, n // 8)))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u in isolated or v in isolated or rng.random() >= density:
                continue
            if rng.random() < 0.05:
                w = 0.0
            elif integer:
                w = float(rng.randint(1, 6))
            else:
                w = rng.random()
            edges.append((u, v, w))
    return n, edges


@pytest.mark.parametrize("integer", [True, False], ids=["integer-1-6", "float"])
def test_kernel_mates_equal_the_reference_on_random_graphs(integer):
    rng = random.Random(46)
    for trial in range(300):
        n, edges = _random_graph(rng, integer)
        assert matching._max_weight_matching(n, edges) == reference(n, edges), (trial, n)


# (d, metric, rounds, windows): standard model, p = 0.01, seed 1.
DECODER_WINDOWS = [(3, "d2", 30, 300), (5, "dmax", 50, 60),
                   (5, "manhattan", 50, 60), (7, "dmax", 28, 20)]


@pytest.mark.parametrize("key", DECODER_WINDOWS,
                         ids=[f"d{d}-{m}-T{t}" for d, m, t, _ in DECODER_WINDOWS])
def test_kernel_mates_equal_the_reference_on_decoder_components(key, monkeypatch):
    d, metric, rounds, windows = key
    model = preset("standard", 0.01)
    circuit, decoder = _setup(d, model, metric)
    kernel = matching._max_weight_matching
    solves = 0

    def solve(n, edges):
        nonlocal solves
        mate = kernel(n, edges)
        assert mate == reference(n, solver_rows(edges)), (solves, n, len(edges))
        solves += 1
        return mate

    monkeypatch.setattr(matching, "_max_weight_matching", solve)
    for i in range(windows):
        res = simulate_window(circuit, model, trial_rng(1, i), rounds)
        decoder.decode(res.history, res.frame, collect_matches=False)
    assert solves > 0


def test_kernel_builds_from_source_and_gives_the_same_mates(tmp_path):
    kernel = matching.load_kernel(tmp_path)
    (built,) = tmp_path.glob("_blossom-*.so")
    assert [p.name for p in tmp_path.iterdir()] == [built.name]  # no temp file left

    rng = random.Random(7)
    for _ in range(20):
        n, edges = _random_graph(rng, integer=True)
        mates = (ctypes.c_int * n)()
        flat = [x for edge in edges for x in edge]
        packed = (ctypes.c_double * len(flat))(*flat)
        assert kernel.max_weight_matching(n, len(edges), packed, mates) == 0
        assert list(mates) == matching._max_weight_matching(n, edges) == reference(n, edges)

    # A second load finds the build and does not compile again.
    stamp = built.stat().st_mtime_ns
    matching.load_kernel(tmp_path)
    assert built.stat().st_mtime_ns == stamp


def test_a_failed_build_raises_import_error_naming_the_command(tmp_path, monkeypatch):
    monkeypatch.setattr(matching, "_COMPILE", ("no-such-compiler", "-O2"))
    with pytest.raises(ImportError, match="no-such-compiler -O2 -o "):
        matching.load_kernel(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_kernel_refuses_a_vertex_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        matching._max_weight_matching(2, [(0, 2, 1.0)])
    assert matching._max_weight_matching(3, []) == [-1, -1, -1]
