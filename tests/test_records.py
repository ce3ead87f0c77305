"""Every plan of `results/records.py` against its committed rows and its
README table.

Opt in, each plan under its record's marker: `python -m pytest -m
calibration` or `-m headline`.  The cheapest point of each plan (smallest
d, then lowest rate) is run again through the driver's writer and must
give the committed row in every column but `wall_time`; the rule was
fixed before the first rerun.
"""

import pytest

from test_results_scripts import RESULTS, records

MARKER = {"calibration": pytest.mark.calibration, "headline": pytest.mark.headline,
          "window_length": pytest.mark.headline}
RERECORD = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the tie order of 2c10f3a changed the d = 3, p = 0.5% X count from the "
    "committed 557 to 558; item 4's tie rule re-records the headline")


def _plans(rerecord=()):
    return [pytest.param(name, marks=[MARKER[name.split("/")[0]]]
                         + [RERECORD] * (name in rerecord))
            for name in sorted(records.PLANS)]


@pytest.mark.parametrize("name", _plans(rerecord={"headline/standard_dmax"}))
def test_cheapest_point_reproduces_its_committed_row(name):
    plan = records.PLANS[name]
    cfg = min(plan, key=lambda c: (c.distance, c.p))
    committed = (RESULTS / f"{name}.csv").read_text().splitlines()[1 + plan.index(cfg)]
    (fresh,) = records.sweep_csv([cfg]).splitlines()[1:]
    assert fresh.rsplit(",", 1)[0] == committed.rsplit(",", 1)[0]


@pytest.mark.parametrize("name", _plans())
def test_readme_holds_the_plans_report(name):
    assert records.report(name) in (RESULTS / "README.md").read_text()
