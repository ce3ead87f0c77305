"""The record driver `results/records.py` describes valid sweeps, and the
committed rows under `results/` are the rows of its plans.

The records take minutes to run and nothing imports the driver, so a
rename of a private name it uses (`harness._setup`, `sim._graph_events`)
would otherwise show only in a rerun.  It is loaded by path, which does
not run its `main`.  The grid check makes "fixed before the run"
checkable: a plan edited after its rows were written fails it.
"""

import csv
import importlib.util
import io
from dataclasses import replace
from pathlib import Path

import pytest

from surfacesim.harness import TrialConfig

RESULTS = Path(__file__).resolve().parents[1] / "results"


_spec = importlib.util.spec_from_file_location("results_records", RESULTS / "records.py")
records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(records)


@pytest.mark.parametrize("name", sorted(records.PLANS))
def test_plan_is_a_list_of_trial_configs(name):
    # TrialConfig checks every field when constructed.
    plan = records.PLANS[name]
    assert plan and all(isinstance(cfg, TrialConfig) for cfg in plan)


def test_tie_spread_patches_the_event_reader_the_decoder_calls():
    assert records.decoder_module._graph_events is records._graph_events


def test_every_record_csv_has_a_plan_and_every_plan_its_csv():
    found = {str(path.relative_to(RESULTS).with_suffix("")) for path in RESULTS.rglob("*.csv")}
    assert found - {records.TIE_SPREAD} == set(records.PLANS)


@pytest.mark.parametrize("name", sorted(records.PLANS))
def test_committed_rows_are_the_plans_grid(name):
    text = (RESULTS / f"{name}.csv").read_text()
    assert records.csv_keys(text) == records.plan_keys(records.PLANS[name])


def test_tie_spread_rows_are_the_headline_points():
    rows = csv.DictReader(io.StringIO((RESULTS / f"{records.TIE_SPREAD}.csv").read_text()))
    assert ([(int(r["d"]), float(r["p"]), int(r["windows"])) for r in rows]
            == [(cfg.distance, cfg.p, records.TIE_WINDOWS)
                for cfg in records.PLANS["headline/standard_dmax"]])


def _edit(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


CODE_CAPACITY = "calibration/code_capacity"


@pytest.mark.parametrize("mutate", [
    lambda text: _edit(text, 3, "N", "7999"),
    # pI = 1.5 * 0.1, the only column that holds this value.
    lambda text: text.replace(",0.15000000000000002,", ",0.15,", 1),
    lambda text: "".join(ln for i, ln in enumerate(text.splitlines(True)) if i != 5),
    lambda text: _edit(text, 7, "seed", "2"),
], ids=["N_changed", "pI_rounded", "row_dropped", "seed_changed"])
def test_grid_check_rejects_an_edited_record(mutate):
    text = (RESULTS / f"{CODE_CAPACITY}.csv").read_text()
    plan = records.plan_keys(records.PLANS[CODE_CAPACITY])
    assert records.csv_keys(text) == plan
    assert records.csv_keys(mutate(text)) != plan


def test_the_writers_csv_passes_the_grid_check():
    plan = [replace(records.PLANS["headline/standard_dmax"][0], trials=20, jobs=1)]
    assert records.csv_keys(records.sweep_csv(plan)) == records.plan_keys(plan)
