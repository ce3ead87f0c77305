import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import surfacesim

from surfacesim import harness
from surfacesim.cli import main
from surfacesim.decoder import Decoder
from surfacesim.edge_analysis import derive_edge_classes
from surfacesim.harness import estimate_threshold
from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.noise import PRESET_NAMES, ErrorModel, preset
from surfacesim.sim import compile_circuit
from test_harness import _fake_stats


def test_dump_lattice(capsys):
    assert main(["--dump-lattice", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lattice"]["distance"] == 3
    assert list(doc["schedule"]) == ["cnot_steps"]
    assert len(doc["schedule"]["cnot_steps"]) == 4


def test_basic_run_to_stdout(capsys):
    rc = main(["--distance", "3", "--p", "0.02", "--trials", "40",
               "--rounds", "8", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("d,p,model")
    assert out.count("\n") == 2


def test_sweep_with_files(tmp_path, capsys):
    out = tmp_path / "res.json"
    svg = tmp_path / "res.svg"
    rc = main(["--distance", "3", "--p", "0.02,0.04", "--trials", "30",
               "--rounds", "6", "--format", "json", "--out", str(out),
               "--plot", str(svg)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 2
    assert svg.read_text().startswith("<svg")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("distance=3\np=0.02\ntrials=25\nrounds=6\nseed=4\n"
                   "# comment line\nmetric=manhattan\n")
    rc = main(["--config", str(cfg), "--trials", "10"])
    assert rc == 0
    header, line = capsys.readouterr().out.splitlines()[:2]
    row = dict(zip(header.split(","), line.split(",")))
    assert row["d"] == "3" and row["metric"] == "manhattan"
    assert row["N"] == "10"  # flag overrides file


def test_bad_config_returns_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=1\n")
    assert main(["--config", str(cfg)]) == 1
    cfg.write_text("distance\n")
    assert main(["--config", str(cfg)]) == 1
    assert main(["--distance", "4", "--p", "0.01", "--trials", "5"]) == 1
    assert main(["--metric", "dn", "--distance", "3", "--p", "0.01"]) == 1
    assert main(["--model", "custom", "--distance", "3", "--p", "0.01"]) == 1


def test_unwritable_out_returns_2(tmp_path):
    rc = main(["--distance", "3", "--p", "0.02", "--trials", "5",
               "--rounds", "6", "--out", str(tmp_path / "nodir" / "x.csv")])
    assert rc == 2


def test_custom_model_flags(capsys):
    rc = main(["--model", "custom", "--p2", "0.02", "--pI", "0.001",
               "--pM", "0.002", "--distance", "3", "--p", "0", "--trials",
               "20", "--rounds", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert ",custom," in out


def test_metric_d1_works(capsys):
    rc = main(["--metric", "d1", "--distance", "3", "--p", "0.02",
               "--trials", "15", "--rounds", "6"])
    assert rc == 0
    assert ",d1," in capsys.readouterr().out


def test_export_edges(tmp_path):
    path = tmp_path / "edges.json"
    rc = main(["--export-edges", str(path), "--distance", "3", "--p", "0.01"])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert [b["letter"] for b in doc["graphs"]["z"]["bulk"]] == list("ABCDEF")


@pytest.mark.parametrize("n", ["3", "-1"])
def test_metric_dn_out_of_range_returns_1(n, capsys):
    rc = main(["--distance", "3", "--metric", "dn", "--n", n, "--trials", "2"])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_config_file_unknown_metric_returns_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("distance=3\ntrials=2\nmetric=foo\n")
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "--metric" in err and "'foo'" in err


def test_rounds_zero_returns_1(capsys):
    assert main(["--distance", "3", "--trials", "2", "--rounds", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "rounds" in err


@pytest.fixture
def no_windows(monkeypatch):
    import surfacesim.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a window ran before the configuration was checked")

    monkeypatch.setattr(harness, "run_trials", no_trials)


@pytest.mark.parametrize("flag,values", [("--distance", "3,4"), ("--p", "0.01,1.5")])
def test_bad_later_sweep_point_returns_1(capsys, no_windows, flag, values):
    # Every point is checked before any runs: no window may be simulated.
    argv = ["--distance", "3", "--p", "0.01", "--trials", "2", flag, values]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


def test_export_edges_empty_path_returns_2(capsys, no_windows):
    assert main(["--export-edges", "", "--distance", "3", "--p", "0.01"]) == 2
    assert capsys.readouterr().err.startswith("I/O error:")


@pytest.mark.parametrize("sweep", [["--distance", "3,5"], ["--p", "0.01,0.02"]])
def test_export_edges_of_a_sweep_returns_1(tmp_path, capsys, no_windows, sweep):
    # One table per file: a list must not silently export its first point.
    path = tmp_path / "edges.json"
    assert main(["--export-edges", str(path), "--distance", "3", "--p", "0.01",
                 *sweep]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.out == "" and not path.exists()


def test_debug_events_go_to_stderr(capsys):
    rc = main(["--distance", "3", "--p", "0.02", "--trials", "3",
               "--rounds", "4", "--seed", "2", "--debug-events"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "# window 0" in captured.err
    assert "# window 2" in captured.err
    assert captured.out.startswith("d,p,model") and "#" not in captured.out


@pytest.mark.parametrize("line", ["format=xml", "schedule=foo", "metric=foo",
                                  "jobs=0", "pi=0.01", "dist=3", "p2=0.5",
                                  # Config files do not nest.
                                  "config=/nonexistent.cfg"])
def test_bad_config_file_value_returns_1(tmp_path, capsys, no_windows, line):
    # Config lines go through the flag parser: same checks, same spelling.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"distance=3\ntrials=2\n{line}\n")
    assert main(["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--metric", "foo"], ["--trials", "abc"],
                                  ["--distance", "3,x"], ["--jobs", "0"],
                                  ["--jobs", "-3"], ["--schedule", "interleaved"],
                                  # Custom rates need --model custom.
                                  ["--p2", "0.5"], ["--model", "standard", "--pM", "0.01"],
                                  # A falsy distance is still a dump request.
                                  ["--dump-lattice", "0"],
                                  ["--seed", "-1"],
                                  # A threshold fit needs 3 distances and 5 rates.
                                  ["--estimate-threshold", "--distance", "3,5",
                                   "--p", "0.01,0.011,0.012,0.013,0.014"],
                                  ["--estimate-threshold", "--distance", "3,5,7",
                                   "--p", "0.01,0.011,0.012,0.013"],
                                  # A readout more often wrong than right.
                                  ["--model", "custom", "--p2", "0", "--pI", "0.01",
                                   "--pM", "1"],
                                  # A custom model's row records p too.
                                  ["--model", "custom", "--p2", "0.01", "--pI", "0.01",
                                   "--pM", "0.01", "--p", "-5"],
                                  ["--model", "custom", "--p2", "0.01", "--pI", "0.01",
                                   "--pM", "0.01", "--p", "nan"]])
def test_bad_flag_value_returns_1(capsys, no_windows, argv):
    assert main(["--distance", "3", "--trials", "2", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.out == ""


def test_custom_model_sweep_over_p_returns_1(capsys, no_windows):
    # A custom model ignores --p, so a sweep over it would repeat one point.
    rc = main(["--model", "custom", "--p2", "0.01", "--pI", "0.002", "--pM", "0.003",
               "--distance", "3", "--trials", "2", "--p", "0.01,0.02"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and "--p" in captured.err
    assert captured.out == ""


FIT_ARGS = ["--estimate-threshold", "--distance", "3,5,7,9",
            "--p", "0.006,0.008,0.01,0.012,0.014", "--trials", "2"]


def test_threshold_fit_with_short_windows_returns_1(capsys, no_windows):
    # The fit needs windows of at least d rounds: --rounds 5 is too short
    # for d = 7, and that is known before any window runs.
    assert main([*FIT_ARGS, "--rounds", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and "T >= d" in captured.err
    assert captured.out == ""


@pytest.fixture
def fake_sweep(monkeypatch):
    """Make harness.run_trials return the given rows instead of running
    windows, with a short bootstrap."""
    import surfacesim.harness as harness

    monkeypatch.setattr(harness, "N_BOOTSTRAP", 20)

    def use(stats):
        monkeypatch.setattr(harness, "run_trials", lambda *args, **kwargs: stats)

    return use


def test_threshold_fit_report(capsys, fake_sweep):
    stats = _fake_stats(p_c=0.0095, distances=(3, 5, 7, 9))
    fake_sweep(stats)
    assert main(FIT_ARGS) == 0
    report = capsys.readouterr().err.splitlines()
    assert len(report) == 2
    pct = r"\d\.\d{4}%"
    for logical, line in zip("xz", report):
        crossing = f"(none|{pct})"
        assert re.fullmatch(
            rf"p_c \({logical}\) = {pct} \+/- {pct} \(failure-count bootstrap only\)  "
            rf"fit-model spread {pct}  nu = \d\.\d\d  "
            rf"\(per-round crossings: 3/5 {crossing}, 5/7 {crossing}, 7/9 {crossing}\)",
            line), line
        fit = estimate_threshold(stats, logical=logical)
        assert line.startswith(f"p_c ({logical}) = {fit['p_c']:.4%} +/- {fit['sigma']:.4%} "
                               f"(failure-count bootstrap only)  "
                               f"fit-model spread {fit['fit_spread']:.4%}  "
                               f"nu = {fit['nu']:.2f}  ")


def test_threshold_fit_failure_is_reported_not_an_error(capsys, fake_sweep):
    # Every swept rate lies above the crossing: the fit puts p_c on the
    # lowest rate and says so, and the run still succeeds.
    fake_sweep(_fake_stats(p_c=0.003))
    assert main(FIT_ARGS) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("d,p,model")
    line = captured.err.splitlines()[0]
    assert line.startswith("threshold fit (x) failed: fitted p_c = 0.6000% lies on the edge")


def test_sweep_opens_one_pool(capsys, pool_sizes):
    rc = main(["--distance", "3,5", "--p", "0.008,0.01,0.012,0.014",
               "--trials", "40", "--seed", "3", "--jobs", "2"])
    assert rc == 0
    assert pool_sizes == [2]
    assert capsys.readouterr().out.count("\n") == 9


def test_dead_worker_returns_1(capsys, monkeypatch):
    # A worker that dies loses its chunk: the sweep stops with exit code 1
    # and a message, and writes no rows.
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    import surfacesim.harness as harness

    class DeadExecutor:
        def __init__(self, max_workers, mp_context):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            raise BrokenProcessPool("a worker process was terminated")
            yield

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeadExecutor)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert main(["--distance", "3", "--trials", "4", "--seed", "1", "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sweep aborted: a worker process was terminated\n"


def test_config_file_custom_model_keys_keep_their_case(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=custom\np2=0.02\npI=0.001\npM=0.002\n"
                   "distance=3\np=0\ntrials=5\nrounds=4\n")
    assert main(["--config", str(cfg)]) == 0
    assert ",custom," in capsys.readouterr().out


def test_help_exits_0(capsys, monkeypatch):
    # The --rounds default in the help follows the harness constant.
    monkeypatch.setattr(harness, "DEFAULT_ROUNDS_FACTOR", 4)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--metric" in out and "(default 4*d)" in out


@pytest.mark.parametrize("p2,pI,pM", [("0", "0.01", "0.9999"), ("0", "1e-17", "0.01"),
                                      ("6e-17", "0", "0.01")])
def test_custom_models_that_cannot_decode_return_1_without_output(tmp_path, capsys,
                                                                  no_windows, p2, pI, pM):
    # A readout flip near certain would make pair tables of 10^5 rounds;
    # space links too improbable to survive rounding leave no boundary link
    # (the last: some space links survive, but not a path from every
    # stabilizer to a boundary).
    out = tmp_path / "run.csv"
    assert main(["--model", "custom", "--p2", p2, "--pI", pI, "--pM", pM, "--distance", "5",
                 "--p", "0", "--trials", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("model,p", [("standard", "4e-17"), ("iontrap", "8e-17")])
def test_presets_at_rates_too_small_to_decode_return_1_without_output(tmp_path, capsys,
                                                                      no_windows, model, p):
    # At d = 5 some stabilizers keep links but lose every path to a boundary.
    out = tmp_path / "run.csv"
    assert main(["--model", model, "--p", p, "--distance", "5", "--trials", "1",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and "no path" in captured.err
    assert captured.out == "" and not out.exists()


_TINY = [0.0, 2e-17, 6e-17, 1e-16, 4e-16]
DECODABILITY_GRID = (
    [(["--model", "custom", "--p2", repr(p2), "--pI", repr(pI), "--pM", repr(pM), "--p", "0"],
      ErrorModel(p2, pI, pM)) for p2 in _TINY for pI in _TINY for pM in (0.0, 0.01)]
    + [(["--model", name, "--p", repr(p)], preset(name, p))
       for name in PRESET_NAMES for p in (3e-17, 8e-17, 1e-15)])


@pytest.mark.parametrize("d", [3, 5])
def test_cli_refuses_exactly_the_models_the_decoder_build_refuses(d, capsys, monkeypatch):
    """Rates so small that only some links survive rounding: the command
    line's check before any window refuses exactly the models whose dmax
    decoder build raises, and that build raises nothing but ValueError."""
    monkeypatch.setattr(harness, "run_trials", lambda *configs, **kw: harness.SweepStats())
    lat = build_lattice(d)
    circuit = compile_circuit(lat, standard_schedule(lat))
    refused = 0
    for argv, model in DECODABILITY_GRID:
        try:
            Decoder(derive_edge_classes(circuit, model), "dmax")
        except ValueError:
            builds = False
        else:
            builds = True
        rc = main([*argv, "--distance", str(d), "--trials", "1"])
        err = capsys.readouterr().err
        assert rc == (0 if builds else 1), (argv, err)
        assert builds or err.startswith("configuration error:"), (argv, err)
        refused += not builds
    assert 0 < refused < len(DECODABILITY_GRID)


def test_readout_only_model_returns_1_without_hanging():
    # A model with only readout errors has no boundary links to decode
    # against.  The run must stop as a configuration error; a child process
    # with a timeout turns a hang into a failure instead of a stalled suite.
    src = str(Path(surfacesim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "surfacesim.cli", "--model", "custom",
            "--p2", "0", "--pI", "0", "--pM", "0.01", "--distance", "3",
            "--trials", "2"]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("readout-only model did not return within 60 s")
    assert proc.returncode == 1
    assert proc.stderr.startswith("configuration error:")
    assert proc.stdout == ""
