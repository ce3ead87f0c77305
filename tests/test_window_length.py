"""The window-length records under `results/window_length/` (T = d and
T = 2d) against the paper's claim that error-model-aware separations
reach a threshold of 1.1-1.4%.

Opt in: `python -m pytest -m headline`.  The tests only read the
committed rows, which `results/records.py` writes; the claims were fixed
before the run.
"""

from pathlib import Path

import pytest

from surfacesim.harness import csv_to_stats, estimate_threshold

pytestmark = pytest.mark.headline

RECORDS = Path(__file__).resolve().parents[1] / "results" / "window_length"


def _fit(length: str, logical: str) -> tuple[dict, list[float]]:
    stats = csv_to_stats((RECORDS / f"{length}.csv").read_text())
    return estimate_threshold(stats, logical=logical), sorted({r.p for r in stats.rows})


@pytest.mark.parametrize("logical", ["x", "z"])
@pytest.mark.parametrize("length", ["t1d", "t2d"])
def test_scaling_fit_finds_p_c_inside_the_swept_rates(length, logical):
    fit, rates = _fit(length, logical)
    assert rates[0] < fit["p_c"] < rates[-1], fit


CLAIM_MISSED = pytest.mark.xfail(
    strict=True, reason="the fitted T = d per-round 7/9 crossing reads 1.063% (X) and "
    "1.014% (Z), below the paper's 1.1-1.4% (results/README.md)")


@pytest.mark.parametrize("logical", ["x", "z"])
@CLAIM_MISSED
def test_largest_distances_cross_per_round_at_the_papers_threshold_at_t_equal_d(logical):
    fit, _ = _fit("t1d", logical)
    a, b = max(fit["per_round"])
    cross = fit["per_round"][(a, b)]
    assert cross is not None and 0.011 <= cross <= 0.014, fit
