"""Tests of the benchmark itself, at d = 3 with a handful of windows.

    python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import suite  # noqa: E402
from surfacesim.decoder import Decoder  # noqa: E402

pytest.importorskip("networkx")

TINY = suite.Workload("tiny-d3", 3, 0.01, "dmax", cold_windows=2, settle_windows=2,
                      batch_windows=2, steady_rate=100.0, oracle_windows=3, rounds=2,
                      fail_rates=(0.3, 0.3), reference_windows=1000)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _quiet(_line):
    pass


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    out = suite.run_untraced(TINY, seed=1, seconds=0.05, log=_quiet)
    assert {k: unit for k, (_, unit) in out["metrics"].items()} == _units("end_to_end")
    assert all(value > 0 for value, _ in out["metrics"].values())
    assert out["failed"] == 0 and out["attempted"] >= 1


def test_traced_run_emits_every_per_layer_metric_with_its_unit():
    out = suite.run_traced(TINY, seed=1, seconds=0.05, log=_quiet)
    assert {k: unit for k, (_, unit) in out["metrics"].items()} == _units("per_layer")
    assert out["failed"] == 0


def test_pathsum_metric_runs_through_the_oracle():
    w = replace(TINY, metric="d2", oracle_windows=1)
    assert suite.oracle_failures(w, 1, _quiet) == 0


def test_tracer_restores_every_wrapped_name():
    import importlib

    def resolve(module, path):
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    before = [resolve(m, p) for m, p, _ in layers.POINTS]
    with layers.Tracer() as tracer:
        assert all(resolve(m, p) is not b for (m, p, _), b in zip(layers.POINTS, before))
        suite.steady(TINY, seed=2, batches=1, timer=suite.Stopwatch())
    assert [resolve(m, p) for m, p, _ in layers.POINTS] == before
    assert tracer.absent == []
    assert tracer.count("sim.window") == TINY.batch_windows


def test_adjusted_time_scales_each_piece_by_the_reference_around_it():
    r = suite.REFERENCE_S
    phase = suite.Phase(walls=[1.0, 2.0], speeds=[[r], [r], [3 * r, 3 * r, 5 * r]])
    assert phase.wall == 3.0
    assert phase.pieces() == pytest.approx([1.0, 2.0 / 3.0])


def test_phase_samples_the_host_inside_a_long_piece_and_takes_it_off():
    phase = suite.Phase()
    phase.time(time.sleep, 3.5 * suite.SAMPLE_S)
    assert len(phase.speeds[1]) >= 3
    assert phase.walls[0] == pytest.approx(3.5 * suite.SAMPLE_S, rel=0.2)


def test_wrapper_cost_is_taken_off_enclosing_spans():
    tracer = layers.Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0)]
    assert tracer.durations(0.5) == [9.0, 2.5, 1.0]
    assert tracer.summary(0.5) == [("a", 1, 9.0, 6.5), ("b", 1, 2.5, 1.5), ("c", 1, 1.0, 1.0)]


def test_dropped_match_is_a_failed_operation(monkeypatch):
    original = Decoder.decode

    def drop_one(self, history, frame, verify=False, collect_matches=True):
        outcome = original(self, history, frame, verify, collect_matches)
        for graph in ("x", "z"):
            if outcome.matches[graph]:
                outcome.matches[graph] = outcome.matches[graph][1:]
                break
        return outcome

    monkeypatch.setattr(Decoder, "decode", drop_one)
    out = suite.run_untraced(TINY, seed=1, seconds=0.05, log=_quiet)
    assert out["failed"] >= 1


def test_band_rejects_a_wrong_failure_rate():
    assert checks.band_ok(250, 1000, 0.25, 20_000)
    assert not checks.band_ok(500, 1000, 0.25, 20_000)


def test_without_program_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-d5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
