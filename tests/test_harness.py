import json
import math
from dataclasses import replace

import pytest

from surfacesim.harness import (
    PointStats, SweepStats, ThresholdError, TrialConfig, csv_to_stats,
    emit_results, estimate_threshold, plot_svg, rounds_to_failure, run_trials,
    stats_to_csv, stats_to_json, wilson_interval,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(distance=4, p=0.01)
    with pytest.raises(ValueError):
        TrialConfig(distance=3, p=0.01, trials=0)
    with pytest.raises(ValueError, match="seed"):
        TrialConfig(distance=3, p=0.01, seed=-1)
    with pytest.raises(ValueError, match="metric"):
        TrialConfig(distance=3, p=0.01, metric="foo")
    with pytest.raises(ValueError, match="error model"):
        TrialConfig(distance=3, p=0.01, model="foo")
    cfg = TrialConfig(distance=5, p=0.01)
    assert cfg.window_rounds == 50
    assert TrialConfig(distance=5, p=0.01, rounds=20).window_rounds == 20


def test_jobs_must_be_positive():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            TrialConfig(distance=3, p=0.01, jobs=jobs)


def test_rounds_must_be_positive():
    for rounds in (0, -3):
        with pytest.raises(ValueError, match="rounds"):
            TrialConfig(distance=3, p=0.01, rounds=rounds)
    assert TrialConfig(distance=3, p=0.01, rounds=1).window_rounds == 1


def test_custom_model():
    cfg = TrialConfig(distance=3, p=0.0, model="custom",
                      custom_model=(0.01, 0.002, 0.003))
    m = cfg.error_model()
    assert (m.p2, m.pI, m.pM) == (0.01, 0.002, 0.003)
    with pytest.raises(ValueError):
        TrialConfig(distance=3, p=0.0, model="custom").error_model()
    with pytest.raises(ValueError, match="readout-only"):
        TrialConfig(distance=3, p=0.0, model="custom", custom_model=(0.0, 0.0, 0.01))


def test_zero_noise_run_has_no_failures():
    cfg = TrialConfig(distance=3, p=0.0, trials=50, seed=3)
    stats = run_trials(cfg)
    row = stats.rows[0]
    assert row.fail_x == 0 and row.fail_z == 0
    est = rounds_to_failure(row)
    assert math.isinf(est["x"]["estimate"])
    assert est["x"]["lo"] > 0 and math.isfinite(est["x"]["lo"])


def test_rounds_to_failure_examples():
    row = PointStats(d=3, p=0.01, model="standard", p2=0.01, pI=0.01, pM=0.01,
                     metric="dmax", T=100, N=10**6,
                     fail_x=int((1 - 1 / math.e) * 10**6), fail_z=10**4,
                     seed=0, wall_time=0.0)
    est = rounds_to_failure(row)
    assert est["x"]["estimate"] == pytest.approx(100, rel=1e-3)
    # P = 0.01 over T=100: -100/ln(0.99) ~ 9950
    assert est["z"]["estimate"] == pytest.approx(9950, rel=1e-2)
    assert est["z"]["lo"] < est["z"]["estimate"] < est["z"]["hi"]


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_reproducible_counts():
    cfg = TrialConfig(distance=3, p=0.02, trials=200, seed=11, rounds=10)
    a = run_trials(cfg).rows[0]
    b = run_trials(cfg).rows[0]
    assert (a.fail_x, a.fail_z) == (b.fail_x, b.fail_z)
    c = run_trials(TrialConfig(distance=3, p=0.02, trials=200, seed=12,
                               rounds=10)).rows[0]
    assert (a.fail_x, a.fail_z) != (c.fail_x, c.fail_z)


def test_csv_roundtrip_and_reproducibility():
    cfg = TrialConfig(distance=3, p=0.02, trials=100, seed=7, rounds=10)
    stats = run_trials(cfg)
    text = stats_to_csv(stats)
    back = csv_to_stats(text)
    row, orig = back.rows[0], stats.rows[0]
    assert (row.d, row.p, row.N, row.fail_x, row.fail_z, row.seed) == \
        (orig.d, orig.p, orig.N, orig.fail_x, orig.fail_z, orig.seed)
    # Identical config -> identical CSV modulo the wall-time column.
    text2 = stats_to_csv(run_trials(cfg))

    def strip_wall(t):
        return ["," .join(ln.split(",")[:-1]) for ln in t.splitlines()]

    assert strip_wall(text) == strip_wall(text2)


def test_custom_rows_record_their_rates():
    """Two custom points at the same p that differ only in (p2, pI, pM)
    give rows that tell them apart, and both survive a CSV round trip."""
    cfgs = [TrialConfig(distance=3, p=0.01, model="custom", custom_model=rates,
                        trials=20, rounds=3, seed=1)
            for rates in ((0.01, 0.002, 0.003), (0.0, 0.015, 0.01))]
    stats = SweepStats(rows=[run_trials(cfg).rows[0] for cfg in cfgs])
    lines = stats_to_csv(stats).splitlines()
    assert lines[1].split(",")[:-1] != lines[2].split(",")[:-1]
    back = csv_to_stats("\n".join(lines))
    for row, orig, cfg in zip(back.rows, stats.rows, cfgs):
        assert (row.model, row.p) == ("custom", 0.01)
        assert (row.p2, row.pI, row.pM) == cfg.custom_model
        assert replace(row, wall_time=0.0) == replace(orig, wall_time=0.0)
    doc = json.loads(stats_to_json(stats))
    assert [(r["p2"], r["pI"], r["pM"]) for r in doc["rows"]] == \
        [cfg.custom_model for cfg in cfgs]


def test_csv_to_stats_rejects_a_bad_header():
    good = stats_to_csv(SweepStats())
    with pytest.raises(ValueError, match="header"):
        csv_to_stats(good.replace("fail_x", "failx"))
    with pytest.raises(ValueError, match="header"):
        csv_to_stats("")
    assert csv_to_stats(good).rows == []


def test_empty_stats_csv_is_header_only():
    assert stats_to_csv(SweepStats()) == ",".join(
        stats_to_csv(SweepStats()).splitlines()) + "\n"
    assert stats_to_csv(SweepStats()).count("\n") == 1


def test_json_schema_validation():
    import jsonschema
    cfg = TrialConfig(distance=3, p=0.02, trials=60, seed=2, rounds=10)
    doc = json.loads(stats_to_json(run_trials(cfg)))
    with open("docs/results.schema.json") as fh:
        schema = json.load(fh)
    jsonschema.validate(doc, schema)


def test_emit_results_files(tmp_path):
    cfg = TrialConfig(distance=3, p=0.02, trials=60, seed=2, rounds=10)
    stats = run_trials(cfg)
    out = tmp_path / "r.csv"
    svg = tmp_path / "r.svg"
    emit_results(stats, fmt="csv", path=str(out), plot_path=str(svg))
    assert out.read_text().startswith("d,p,model")
    assert svg.read_text().startswith("<svg")
    with pytest.raises(ValueError):
        emit_results(stats, fmt="xml")


def _fake_stats(p_th=0.011, distances=(3, 5, 7), ps=(0.008, 0.009, 0.01, 0.011,
                                                     0.012, 0.013, 0.014),
                n=20000):
    # Synthetic curves: log mttf = base - s_d * (p - p_th), steeper for
    # larger d, all crossing exactly at p_th.
    rows = []
    for d in distances:
        T = 10 * d
        slope = 120.0 * d
        for p in ps:
            log_mttf = 5.0 - slope * (p - p_th)
            mttf = math.exp(log_mttf)
            p_fail = 1 - math.exp(-T / mttf)
            rows.append(PointStats(d=d, p=p, model="standard", p2=p, pI=p, pM=p,
                                   metric="dmax", T=T, N=n, fail_x=round(p_fail * n),
                                   fail_z=round(p_fail * n), seed=0,
                                   wall_time=0.0))
    return SweepStats(rows=rows)


def test_estimate_threshold_recovers_crossing():
    stats = _fake_stats(p_th=0.011)
    fit = estimate_threshold(stats, logical="x")
    assert fit["p_th"] == pytest.approx(0.011, abs=2e-4)
    assert fit["sigma"] < 5e-4
    assert len(fit["pairwise"]) == 3


def test_estimate_threshold_needs_bracketing():
    stats = _fake_stats(p_th=0.05)  # crossing far outside the swept range
    with pytest.raises(ThresholdError):
        estimate_threshold(stats, logical="x")


def test_estimate_threshold_requires_enough_curves():
    stats = _fake_stats(distances=(3, 5))
    with pytest.raises(ThresholdError):
        estimate_threshold(stats)
    stats = _fake_stats(ps=(0.01, 0.011, 0.012))
    with pytest.raises(ThresholdError):
        estimate_threshold(stats)


def _all_fail_row(d, p, n=500):
    return PointStats(d=d, p=p, model="standard", p2=p, pI=p, pM=p,
                      metric="dmax", T=10 * d,
                      N=n, fail_x=n, fail_z=n, seed=0, wall_time=0.0)


def _reject_constant(name):
    raise ValueError(f"invalid JSON constant {name}")


def test_all_fail_row_is_censored():
    row = _all_fail_row(5, 0.05)
    est = rounds_to_failure(row)
    for logical in ("x", "z"):
        assert math.isnan(est[logical]["estimate"])
        assert math.isnan(est[logical]["lo"])
        assert math.isfinite(est[logical]["hi"])
    text = stats_to_json(SweepStats(rows=[row]))
    doc = json.loads(text, parse_constant=_reject_constant)
    (out,) = doc["rows"]
    assert out["mttf_x_estimate"] is None and out["mttf_z_lo"] is None
    assert out["mttf_x_hi"] == pytest.approx(est["x"]["hi"])
    import jsonschema
    with open("docs/results.schema.json") as fh:
        jsonschema.validate(doc, json.load(fh))


def test_all_fail_rows_leave_threshold_unchanged():
    stats = _fake_stats(p_th=0.011)
    base = estimate_threshold(stats, logical="x")
    stats.rows.extend(_all_fail_row(d, 0.03) for d in (3, 5, 7))
    with_censored = estimate_threshold(stats, logical="x")
    assert with_censored["p_th"] == base["p_th"]
    assert with_censored["pairwise"] == base["pairwise"]


def test_plot_svg_contains_series():
    svg = plot_svg(_fake_stats())
    assert "<svg" in svg and "polyline" in svg and "d=7" in svg


def test_parallel_jobs_bit_identical():
    cfg1 = TrialConfig(distance=3, p=0.02, trials=120, seed=9, rounds=10, jobs=1)
    cfg2 = TrialConfig(distance=3, p=0.02, trials=120, seed=9, rounds=10, jobs=2)
    a = run_trials(cfg1).rows[0]
    b = run_trials(cfg2).rows[0]
    assert (a.fail_x, a.fail_z) == (b.fail_x, b.fail_z)


def test_debug_event_trace():
    cfg = TrialConfig(distance=3, p=0.05, trials=5, seed=1, rounds=6)
    sink: list = []
    run_trials(cfg, trace_sink=sink)
    assert len(sink) == 5
    assert sink[0].startswith("# window 0")


def test_debug_event_trace_in_window_order_with_jobs():
    cfg = TrialConfig(distance=3, p=0.05, trials=16, seed=1, rounds=6)
    serial: list = []
    parallel: list = []
    run_trials(cfg, trace_sink=serial)
    run_trials(replace(cfg, jobs=2), trace_sink=parallel)
    assert parallel == serial


# Verdicts pinned at seed 1, standard model, p = 0.01, T = 10d.  A change
# that alters verdicts on purpose updates these pins and says why.
GOLDEN_VERDICTS = [
    (3, "manhattan", 1000, (467, 497)),
    (3, "dmax", 1000, (349, 411)),
    (3, "d0", 1000, (351, 378)),
    (3, "d1", 1000, (345, 374)),
    (3, "d2", 1000, (345, 374)),
    (5, "dmax", 200, (82, 97)),
]


@pytest.mark.parametrize("d, metric, trials, fails", GOLDEN_VERDICTS,
                         ids=[f"d{d}-{m}" for d, m, _, _ in GOLDEN_VERDICTS])
def test_golden_verdicts(d, metric, trials, fails):
    cfg = TrialConfig(distance=d, p=0.01, metric=metric, trials=trials, seed=1)
    row = run_trials(cfg).rows[0]
    assert (row.fail_x, row.fail_z) == fails
