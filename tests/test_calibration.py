"""The calibration records under `results/calibration/` against the
literature MWPM thresholds of their noise models.

Opt in: `python -m pytest -m calibration`.  The tests only read the
committed rows, which `results/records.py` writes; the tolerances
were fixed before the first runs.
"""

from pathlib import Path

import pytest

from surfacesim.harness import csv_to_stats, estimate_threshold

pytestmark = pytest.mark.calibration

RECORDS = Path(__file__).resolve().parents[1] / "results" / "calibration"


def _rows(name: str):
    return csv_to_stats((RECORDS / f"{name}.csv").read_text())


@pytest.mark.parametrize("logical", ["x", "z"])
def test_phenomenological_threshold(logical):
    # 2.93%: Wang, Harrington & Preskill, Ann. Phys. 303, 31 (2003).
    fit = estimate_threshold(_rows("phenomenological"), logical=logical)
    assert abs(fit["p_c"] - 0.0293) <= 2 * fit["sigma"] + 0.003, fit


def _p_crossings(stats, logical: str, a: int, b: int) -> list[float]:
    """The rates where the failure-probability curves of distances a and b
    cross, each interpolated linearly between the two swept rates around
    a sign change of P_a - P_b."""
    curve = {}
    for r in stats.rows:
        curve.setdefault(r.d, {})[r.p] = getattr(r, f"fail_{logical}") / r.N
    ps = sorted(curve[a])
    gap = [curve[a][p] - curve[b][p] for p in ps]
    return [p0 + (p1 - p0) * g0 / (g0 - g1)
            for p0, p1, g0, g1 in zip(ps, ps[1:], gap, gap[1:])
            if g0 != 0 and (g0 > 0) != (g1 > 0)]


@pytest.mark.parametrize("logical", ["x", "z"])
@pytest.mark.parametrize("a,b", [(5, 7), (7, 9)])
def test_code_capacity_crossings(logical, a, b):
    # 10.3%: Dennis et al., J. Math. Phys. 43, 4452 (2002).
    roots = _p_crossings(_rows("code_capacity"), logical, a, b)
    assert roots and all(abs(p - 0.103) <= 0.010 for p in roots), roots
