"""The headline record under `results/headline/` against the paper's claim
that error-model-aware separations reach a threshold of 1.1-1.4%.

Opt in: `python -m pytest -m headline`.  The tests only read the
committed rows, which `results/records.py` writes; the claims were
fixed before the run.
"""

from pathlib import Path

import pytest

from surfacesim.harness import csv_to_stats, estimate_threshold

pytestmark = pytest.mark.headline

RECORDS = Path(__file__).resolve().parents[1] / "results" / "headline"


def _fit(logical: str) -> tuple[dict, list[float]]:
    stats = csv_to_stats((RECORDS / "standard_dmax.csv").read_text())
    return estimate_threshold(stats, logical=logical), sorted({r.p for r in stats.rows})


@pytest.mark.parametrize("logical", ["x", "z"])
def test_scaling_fit_finds_p_c_inside_the_swept_rates(logical):
    fit, rates = _fit(logical)
    assert rates[0] < fit["p_c"] < rates[-1], fit


@pytest.mark.parametrize("logical,shift", [("x", 0.00037), ("z", 0.00036)])
def test_fit_spread_covers_leaving_out_the_smallest_distance(logical, shift):
    # Leaving out d = 3 moves p_c by +0.037 (X) and +0.036 (Z) points
    # (results/README.md); the fit-model term must show at least that.
    fit, _ = _fit(logical)
    assert fit["fit_spread"] >= shift, fit


CLAIM_MISSED = pytest.mark.xfail(
    strict=True, reason="the fitted 7/9 per-round crossing reads 1.005% (X) and "
    "0.987% (Z), below the paper's 1.1-1.4% (results/README.md)")


@pytest.mark.parametrize("logical", ["x", "z"])
@CLAIM_MISSED
def test_largest_distances_cross_per_round_at_the_papers_threshold(logical):
    fit, _ = _fit(logical)
    a, b = max(fit["per_round"])
    cross = fit["per_round"][(a, b)]
    assert cross is not None and 0.011 <= cross <= 0.014, fit
