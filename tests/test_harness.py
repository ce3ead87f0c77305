import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import surfacesim
from surfacesim.harness import (
    CSV_COLUMNS, N_BOOTSTRAP, PointStats, SweepStats, ThresholdError, TrialConfig,
    check_fit_rounds, csv_to_stats, emit_results, estimate_threshold, flip_rate, plot_svg, run_trials,
    stats_to_csv, stats_to_json, wilson_interval,
)
from surfacesim.metric import METRICS
from surfacesim.noise import PRESET_NAMES


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
    # p2 = 0 with pM = 1 gives every time-like link probability 1, so
    # weight 0: the separation searches would never finish.
    for metric in METRICS:
        with pytest.raises(ValueError, match="probability 1"):
            TrialConfig(distance=3, p=0.0, model="custom", metric=metric,
                        custom_model=(0.0, 0.01, 1.0))


@pytest.mark.parametrize("model", PRESET_NAMES)
def test_custom_rates_under_a_preset_are_refused(model):
    # A preset takes its rates from p; custom rates given with it would
    # otherwise be dropped while the row records the preset's.
    with pytest.raises(ValueError, match="custom_model"):
        TrialConfig(distance=3, p=0.01, model=model, custom_model=(0.0, 0.15, 0.0))


def test_zero_noise_run_has_no_failures():
    cfg = TrialConfig(distance=3, p=0.0, trials=50, seed=3)
    stats = run_trials(cfg)
    row = stats.rows[0]
    assert row.fail_x == 0 and row.fail_z == 0
    est = flip_rate(row)
    assert est["eps_x"] == 0.0 and est["eps_x_lo"] == 0.0
    assert 0.0 < est["eps_x_hi"] < 0.5
    # No value is ever inf, and a zero rate is written as 0.0, not -0.0.
    assert stats_to_csv(stats).splitlines()[1].split(",")[11:13] == ["0.0", "0.0"]


def test_flip_rate_examples():
    # Per-round rate 0.001 over T = 100: P = (1 - 0.998^100) / 2.
    p_fail = (1 - 0.998 ** 100) / 2
    row = PointStats(d=3, p=0.01, model="standard", p2=0.01, pI=0.01, pM=0.01,
                     metric="dmax", T=100, N=10**6,
                     fail_x=round(p_fail * 10**6), fail_z=10**4,
                     seed=0, wall_time=0.0)
    est = flip_rate(row)
    assert est["eps_x"] == pytest.approx(0.001, rel=1e-3)
    # P = 0.01 over T = 100: (1 - 0.98^(1/100)) / 2 ~ 1.0101e-4
    assert est["eps_z"] == pytest.approx(1.0101e-4, rel=1e-3)
    assert est["eps_z_lo"] < est["eps_z"] < est["eps_z_hi"]


def test_flip_rate_covers_the_per_round_rate():
    """Windows of T independent per-round flips of rate eps fail when an
    odd number of flips land.  For P from 0.05 to 0.45 the flip-rate
    interval covers eps about 95% of the time over 200 repeated runs.
    The rate read from P as a first-failure time, -ln(1 - P) / T (the
    reciprocal of the mean rounds to failure -T / ln(1 - P)), ignores
    that two flips cancel and misses eps from P = 0.3 up."""
    rng = np.random.default_rng(1)
    T, n, repeats = 20, 2000, 200
    for p_fail in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45):
        eps = (1 - (1 - 2 * p_fail) ** (1 / T)) / 2
        covered = first_failure_covered = 0
        for fails in (rng.binomial(T, eps, size=(repeats, n)) % 2).sum(axis=1).tolist():
            row = PointStats(d=5, p=0.01, model="standard", p2=0.01, pI=0.01, pM=0.01,
                             metric="dmax", T=T, N=n, fail_x=fails, fail_z=fails,
                             seed=0, wall_time=0.0)
            est = flip_rate(row)
            covered += est["eps_x_lo"] <= eps <= est["eps_x_hi"]
            lo_p, hi_p = wilson_interval(fails, n)
            first_failure_covered += -math.log1p(-lo_p) / T <= eps <= -math.log1p(-hi_p) / T
        assert covered >= 0.9 * repeats, p_fail
        if p_fail >= 0.3:
            assert first_failure_covered < 0.1 * repeats, p_fail


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


def test_setup_is_built_once_per_distance_model_and_metric(monkeypatch):
    # Seed, trial count and rounds do not change the set-up, so repeated
    # run_trials calls that differ only there reuse one decoder.
    import surfacesim.harness as harness

    real_decoder = harness.Decoder
    builds = []

    def counting_decoder(table, metric):
        builds.append(metric)
        return real_decoder(table, metric)

    monkeypatch.setattr(harness, "Decoder", counting_decoder)
    harness._setup.cache_clear()
    for seed, trials, rounds in ((1, 3, None), (2, 5, None), (3, 2, 4)):
        run_trials(TrialConfig(distance=3, p=0.01, seed=seed, trials=trials,
                               rounds=rounds))
    assert builds == ["dmax"]
    run_trials(TrialConfig(distance=3, p=0.01, metric="manhattan", trials=2))
    assert builds == ["dmax", "manhattan"]


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
    stats = run_trials(*cfgs)
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


def test_preset_rows_read_back_their_exact_rates():
    """A preset's rates need not be short decimals (balanced pM = 8p/15);
    each row reads back the model's rates bit for bit."""
    cfgs = [TrialConfig(distance=3, p=0.01, model=name, trials=5, rounds=3, seed=1)
            for name in ("balanced", "iontrap")]
    stats = run_trials(*cfgs)
    back = csv_to_stats(stats_to_csv(stats))
    for row, cfg in zip(back.rows, cfgs):
        model = cfg.error_model()
        assert (row.p2, row.pI, row.pM) == (model.p2, model.pI, model.pM)


def test_csv_to_stats_rejects_a_bad_header():
    good = stats_to_csv(SweepStats())
    with pytest.raises(ValueError, match="header"):
        csv_to_stats(good.replace("fail_x", "failx"))
    v1 = good.replace("eps_", "mttf_")  # the v1 rate columns
    with pytest.raises(ValueError, match="per-round flip rates"):
        csv_to_stats(v1)
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


def _fake_stats(p_c=0.0095, nu=1.3, distances=(3, 5, 7),
                ps=(0.006, 0.007, 0.008, 0.009, 0.01, 0.011, 0.012, 0.013, 0.014),
                n=4000, seed=1):
    """Rows drawn from the per-round model: at T = 4d each window fails
    with the odd-parity probability of T flips at rate eps = F(x) / d,
    F(x) = 0.03 + 2 x + 60 x^2, x = (p - p_c) d^(1/nu)."""
    rng = np.random.default_rng(seed)
    rows = []
    for d in distances:
        T = 4 * d
        for p in ps:
            x = (p - p_c) * d ** (1 / nu)
            eps = (0.03 + 2.0 * x + 60.0 * x * x) / d
            fail_x, fail_z = rng.binomial(n, (1 - (1 - 2 * eps) ** T) / 2, size=2)
            rows.append(PointStats(d=d, p=p, model="standard", p2=p, pI=p, pM=p,
                                   metric="dmax", T=T, N=n, fail_x=int(fail_x),
                                   fail_z=int(fail_z), seed=0, wall_time=0.0))
    return SweepStats(rows=rows)


def test_estimate_threshold_recovers_crossing():
    stats = _fake_stats(p_c=0.0095)
    for logical in ("x", "z"):
        fit = estimate_threshold(stats, logical=logical)
        assert fit["bootstrap_samples"] >= 190
        assert 0 < fit["sigma"] < 5e-4
        assert abs(fit["p_c"] - 0.0095) <= 2 * fit["sigma"]
        assert 0.8 < fit["nu"] < 2.0
        assert list(fit["per_round"]) == [(3, 5), (5, 7)]


def test_per_round_crossing_solves_the_fitted_form(monkeypatch):
    """Each per-round crossing q satisfies F(x_a) / a = F(x_b) / b for the
    fitted F, and lies above p_c."""
    import surfacesim.harness as harness

    monkeypatch.setattr(harness, "N_BOOTSTRAP", 0)
    stats = _fake_stats(p_c=0.007, nu=1.0)
    fit = estimate_threshold(stats)
    p_c, _, (A, B, C), span, _ = harness._scaling_fit(stats.rows, "x")
    crossings = {pair: q for pair, q in fit["per_round"].items() if q is not None}
    assert crossings
    for (a, b), q in crossings.items():
        assert p_c < q <= 0.014

        def F(d):
            x = (q - p_c) / span * d ** (1 / fit["nu"])
            return (A + B * x + C * x * x) / d

        assert F(a) == pytest.approx(F(b), rel=1e-9)


def test_estimate_threshold_needs_bracketing():
    # Every swept rate lies above the crossing: the fit puts p_c on the
    # lowest swept rate.
    stats = _fake_stats(p_c=0.003)
    with pytest.raises(ThresholdError, match="edge"):
        estimate_threshold(stats, logical="x")


def test_bootstrap_keeps_resamples_on_the_edge():
    # p_c sits just above the lowest swept rate: the point estimate lies
    # inside the rates, but some resampled fits put p_c on the edge.  They
    # count at the edge value rather than dropping out of sigma.
    fit = estimate_threshold(_fake_stats(p_c=0.0065), logical="x")
    assert 0.006 < fit["p_c"] < 0.014
    assert fit["bootstrap_samples"] == N_BOOTSTRAP
    assert fit["sigma"] > 0


def test_estimate_threshold_requires_enough_curves():
    stats = _fake_stats(distances=(3, 5))
    with pytest.raises(ThresholdError):
        estimate_threshold(stats)
    stats = _fake_stats(ps=(0.01, 0.011, 0.012))
    with pytest.raises(ThresholdError):
        estimate_threshold(stats)


def test_estimate_threshold_refuses_windows_shorter_than_d():
    # eps_d = d * eps is scale-invariant only when a window spans at least
    # d rounds; at T = 1 the fit would read eps_d = d * P_fail, which grows
    # with d at every rate.
    stats = _fake_stats()
    with pytest.raises(ThresholdError, match="T >= d"):
        estimate_threshold(SweepStats(rows=[replace(r, T=1) for r in stats.rows]))
    # One short distance is enough to refuse the fit.
    with pytest.raises(ThresholdError, match=r"\(7, 6\)"):
        estimate_threshold(SweepStats(rows=[replace(r, T=6) if r.d == 7 else r
                                            for r in stats.rows]))
    check_fit_rounds([(3, 3), (5, 5), (7, 7)])  # T = d is long enough


@pytest.mark.parametrize("custom_model,warns", [
    ((0.0, 0.15, 0.0), False),   # code capacity: no time-like links
    ((0.01, 0.0, 0.0), True),
    ((0.0, 0.01, 0.01), True),
])
def test_short_window_warns_only_with_time_like_links(custom_model, warns):
    cfg = TrialConfig(distance=3, model="custom", custom_model=custom_model,
                      rounds=1, trials=2, seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_trials(cfg)
    messages = [str(w.message) for w in caught]
    if warns:
        assert any("under-sampled" in m for m in messages), messages
    else:
        assert messages == []


def _all_fail_row(d, p, n=500, fails=None):
    fails = n if fails is None else fails
    return PointStats(d=d, p=p, model="standard", p2=p, pI=p, pM=p,
                      metric="dmax", T=4 * d,
                      N=n, fail_x=fails, fail_z=fails, seed=0, wall_time=0.0)


def _reject_constant(name):
    raise ValueError(f"invalid JSON constant {name}")


def test_all_fail_row_is_censored():
    import jsonschema

    for fails in (500, 250, 300):  # every window fails; P = 0.5; P > 0.5
        row = _all_fail_row(5, 0.05, fails=fails)
        assert all(math.isnan(v) for v in flip_rate(row).values())
        text = stats_to_json(SweepStats(rows=[row]))
        doc = json.loads(text, parse_constant=_reject_constant)
        assert doc["schema"] == "surfacesim-results-v2"
        (out,) = doc["rows"]
        assert [out[c] for c in CSV_COLUMNS[11:-2]] == [None] * 6
        with open("docs/results.schema.json") as fh:
            jsonschema.validate(doc, json.load(fh))
    # Just below 0.5 the estimate stands and a Wilson bound above 0.5
    # maps to the largest per-round rate.
    est = flip_rate(_all_fail_row(5, 0.05, n=60, fails=29))
    assert 0 < est["eps_x_lo"] < est["eps_x"] < est["eps_x_hi"] == 0.5


def test_all_fail_rows_leave_threshold_unchanged():
    stats = _fake_stats(p_c=0.0095)
    base = estimate_threshold(stats, logical="x")
    stats.rows.extend(_all_fail_row(d, 0.03) for d in (3, 5, 7))
    stats.rows.extend(_all_fail_row(d, 0.012, fails=fails)
                      for d in (3, 5, 7) for fails in (250, 400))
    with_censored = estimate_threshold(stats, logical="x")
    for key in ("p_c", "nu", "per_round"):
        assert with_censored[key] == base[key]


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


SWEEP = [TrialConfig(distance=d, p=p, trials=10, seed=4, rounds=5)
         for d, p in ((3, 0.01), (3, 0.03), (5, 0.01))]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_matches_one_call_per_point(jobs):
    """One call over a sweep gives the rows (wall_time aside) and the
    event traces of one call per point, traces in (point, window) order."""
    alone_traces: list = []
    alone = [run_trials(cfg, trace_sink=alone_traces).rows[0] for cfg in SWEEP]
    swept_traces: list = []
    swept = run_trials(*(replace(cfg, jobs=jobs) for cfg in SWEEP),
                       trace_sink=swept_traces).rows
    assert [replace(r, wall_time=0.0) for r in swept] == \
        [replace(r, wall_time=0.0) for r in alone]
    assert all(r.wall_time > 0.0 for r in swept)
    assert swept_traces == alone_traces
    assert [t.split("\n", 1)[0] for t in swept_traces] == \
        [f"# window {i}" for cfg in SWEEP for i in range(cfg.trials)]


def test_sweep_with_mixed_jobs_raises(pool_sizes):
    with pytest.raises(ValueError, match="jobs"):
        run_trials(TrialConfig(distance=3, trials=2),
                   TrialConfig(distance=3, trials=2, jobs=2))
    assert pool_sizes == []


def test_dead_worker_fails_the_sweep_instead_of_hanging():
    # A script read from stdin has no __main__ module that a spawn worker
    # can import, so every worker dies at start-up.  The sweep must raise
    # rather than wait for the lost chunks; the timeout turns a hang into
    # a failure instead of a stalled suite.
    # The pool opens on a one-CPU machine too.
    script = ("import surfacesim.harness as harness\n"
              "harness._usable_cpus = lambda: 2\n"
              "harness.run_trials(harness.TrialConfig(distance=3, trials=20, rounds=3, "
              "seed=1, jobs=2))\n")
    src = str(Path(surfacesim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run([sys.executable, "-"], input=script, capture_output=True,
                              text=True, env=env, timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail("run_trials with a dead worker did not return within 120 s")
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr


def test_pool_is_sized_to_the_work(pool_sizes, monkeypatch):
    # 64 jobs over 2 windows make 2 one-window chunks: 2 workers, not 64.
    import surfacesim.harness as harness
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    row = run_trials(TrialConfig(distance=3, trials=2, rounds=3, jobs=64)).rows[0]
    assert pool_sizes == [2] and row.N == 2
    # One chunk needs no pool, and jobs == 1 never opens one.
    run_trials(TrialConfig(distance=3, trials=1, rounds=3, jobs=2))
    run_trials(*SWEEP)
    assert pool_sizes == [2]


def test_pool_is_capped_at_the_usable_cpus(pool_sizes, monkeypatch):
    # 1000 jobs on 3 usable CPUs start 3 workers, and the counts are those
    # of one process.
    import surfacesim.harness as harness
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    cfg = TrialConfig(distance=3, trials=40, rounds=3, seed=3, jobs=1000)
    row = run_trials(cfg).rows[0]
    assert pool_sizes == [3]
    alone = run_trials(replace(cfg, jobs=1)).rows[0]
    assert replace(row, wall_time=0.0) == replace(alone, wall_time=0.0)
    # One usable CPU opens no pool.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    run_trials(cfg)
    assert pool_sizes == [3]


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
