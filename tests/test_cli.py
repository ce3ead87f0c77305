import json

import pytest

from surfacesim.cli import main


def test_dump_lattice(capsys):
    assert main(["--dump-lattice", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lattice"]["distance"] == 3
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
    out = capsys.readouterr().out
    row = out.splitlines()[1].split(",")
    assert row[0] == "3" and row[3] == "manhattan"
    assert row[5] == "10"  # flag overrides file


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


def test_metric_dn_requires_n_and_works(capsys):
    rc = main(["--metric", "dn", "--n", "1", "--distance", "3", "--p", "0.02",
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
    assert "unknown metric 'foo'" in capsys.readouterr().err


def test_rounds_zero_returns_1(capsys):
    assert main(["--distance", "3", "--trials", "2", "--rounds", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "rounds" in err


@pytest.mark.parametrize("flag,values", [("--distance", "3,4"), ("--p", "0.01,1.5")])
def test_bad_later_sweep_point_returns_1(monkeypatch, capsys, flag, values):
    # Every point is checked before any runs: no window may be simulated.
    import surfacesim.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a sweep point ran before the configuration was checked")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    argv = ["--distance", "3", "--p", "0.01", "--trials", "2", flag, values]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


def test_debug_events_go_to_stderr(capsys):
    rc = main(["--distance", "3", "--p", "0.02", "--trials", "3",
               "--rounds", "4", "--seed", "2", "--debug-events"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "# window 0" in captured.err
    assert "# window 2" in captured.err
    assert captured.out.startswith("d,p,model") and "#" not in captured.out
