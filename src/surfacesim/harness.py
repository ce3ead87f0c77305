"""Monte Carlo driver, failure statistics and threshold estimation.

A trial simulates one window of T noisy rounds plus the noiseless
closure, decodes both graphs, and records the two logical failure bits.
Windows have counter-derived RNG streams, and a sweep runs them as one
queue of chunks (one pool per sweep), merged per point in chunk order,
so results are reproducible for a given configuration regardless of
scheduling.

Mean rounds-to-failure is estimated from the per-window failure
probability P as -T / ln(1 - P), which reduces to T/P in the small-P
limit.  The estimate treats P as the probability that a first failure
falls within T rounds at a constant per-round rate.  A window's verdict
is a parity, though: two flips cancel, so P saturates near 0.5 rather
than 1, and the estimate then reads about T / ln 2 whatever the error
rate.  Confidence intervals come
from the Wilson binomial interval.  The threshold is the crossing point
of rounds-to-failure curves for different distances, fitted log-linearly
in p, with uncertainty from a bootstrap over trial counts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .decoder import Decoder
from .edge_analysis import derive_edge_classes
from .lattice import build_lattice, standard_schedule
from .metric import METRICS
from .noise import ErrorModel, preset, trial_rng
from .sim import compile_circuit, detection_events, events_to_text, simulate_window

DEFAULT_ROUNDS_FACTOR = 10
WILSON_Z = 1.959963984540054  # two-sided 95%
# A threshold fit needs at least this many distinct distances and rates.
THRESHOLD_MIN_DISTANCES = 3
THRESHOLD_MIN_RATES = 5
# A point enters the fit with at least this many failures.
MIN_FAILURES = 3
N_BOOTSTRAP = 200
BOOTSTRAP_SEED = 1234

CSV_COLUMNS = [
    "d", "p", "model", "p2", "pI", "pM", "metric", "T", "N", "fail_x", "fail_z",
    "mttf_x", "mttf_x_lo", "mttf_x_hi", "mttf_z", "mttf_z_lo", "mttf_z_hi",
    "seed", "wall_time",
]


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo point: code distance, error model, decode metric.

    Valid once constructed: a bad value of any field raises ValueError
    here, before any window runs.  The field defaults are the run
    defaults of the command line too.
    """

    distance: int = 5
    p: float = 0.01
    model: str = "standard"
    metric: str = "dmax"
    rounds: int | None = None
    trials: int = 1000
    seed: int = 0
    custom_model: tuple[float, float, float] | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.distance < 3 or self.distance % 2 == 0:
            raise ValueError("distance must be odd and >= 3")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; choose from {METRICS}")
        self.error_model()

    @property
    def window_rounds(self) -> int:
        return self.rounds if self.rounds is not None else DEFAULT_ROUNDS_FACTOR * self.distance

    def error_model(self) -> ErrorModel:
        if self.model == "custom":
            if self.custom_model is None:
                raise ValueError("custom model requires a (p2, pI, pM) triple")
            model = ErrorModel(*self.custom_model)
            if model.p2 == model.pI == 0.0 < model.pM:
                # Readout errors alone make only time-like links: no error
                # chain can reach a boundary, so there is nothing to decode.
                raise ValueError("a readout-only model (p2 = pI = 0 < pM) "
                                 "has no boundary links")
            if model.p2 == 0.0 and model.pM == 1.0:
                # Every time-like link is then certain: weight 0, so a
                # separation search would walk the time axis for free.
                raise ValueError("a model with p2 = 0 and pM = 1 has time-like "
                                 "links of probability 1 (weight 0)")
            return model
        return preset(self.model, self.p)


@dataclass
class PointStats:
    """Aggregated counts and derived estimates for one sweep point."""

    d: int
    p: float
    model: str
    p2: float  # the error model's rates, custom or derived from p
    pI: float
    pM: float
    metric: str
    T: int
    N: int
    fail_x: int
    fail_z: int
    seed: int
    wall_time: float


@dataclass
class SweepStats:
    rows: list[PointStats] = field(default_factory=list)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% binomial confidence interval for k successes out of n."""
    if n == 0:
        return (0.0, 1.0)
    z = WILSON_Z
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return (lo, hi)


def _mttf(T: int, p_fail: float) -> float:
    if p_fail <= 0.0:
        return math.inf
    if p_fail >= 1.0:
        return math.nan  # every window fails: censored below one window
    return -T / math.log1p(-p_fail)


def rounds_to_failure(row: PointStats) -> dict[str, dict[str, float]]:
    """Per logical type: point estimate and 95% CI of rounds to failure.

    With zero observed failures the point estimate is unbounded (inf) and
    only the lower bound, from the Wilson upper limit on P, is reported.
    When every window fails the estimate and the lower bound are censored
    (nan): the failure time lies below one window and is not resolved.
    """
    out = {}
    for logical, k in (("x", row.fail_x), ("z", row.fail_z)):
        lo_p, hi_p = wilson_interval(k, row.N)
        out[logical] = {
            "estimate": _mttf(row.T, k / row.N),
            "lo": _mttf(row.T, hi_p),
            "hi": _mttf(row.T, lo_p),
        }
    return out


@functools.lru_cache(maxsize=1)
def _setup(distance: int, model: ErrorModel, metric: str):
    """The compiled circuit and decoder of one set-up.  Seed, trials and
    rounds do not change them, so each process keeps the last one built
    for its next chunks and runs."""
    lattice = build_lattice(distance)
    circuit = compile_circuit(lattice, standard_schedule(lattice))
    return circuit, Decoder(derive_edge_classes(circuit, model), metric)


def _run_chunk(args) -> tuple[int, int, float, list[str]]:
    _point, cfg, start, count, trace = args
    t0 = time.perf_counter()
    model = cfg.error_model()
    circuit, decoder = _setup(cfg.distance, model, cfg.metric)
    T = cfg.window_rounds
    fail_x = fail_z = 0
    traces: list[str] = []
    for idx in range(start, start + count):
        rng = trial_rng(cfg.seed, idx)
        res = simulate_window(circuit, model, rng, T)
        outcome = decoder.decode(res.history, res.frame, collect_matches=False)
        fail_x += outcome.logical_x_failed
        fail_z += outcome.logical_z_failed
        if trace:
            traces.append(f"# window {idx}\n"
                          + events_to_text(detection_events(res.history)))
    return fail_x, fail_z, time.perf_counter() - t0, traces


def run_trials(*configs: TrialConfig, trace_sink=None) -> SweepStats:
    """Run every point of a sweep; one row per config, in the order given.

    The points' windows form one queue of (point, cfg, start, count,
    trace) chunks, a point's chunks adjacent so that each process builds
    its set-up (`_setup`) once.  The configs share one jobs value: the
    chunks run in this process, or in one spawn pool of min(jobs,
    chunks) workers when that is more than one.  Counts merge per point
    in chunk order.  A row's wall_time is the seconds its chunks took,
    summed over workers, set-up included.  Given a trace_sink list, each
    window's detection events are appended to it as text, in (point,
    window) order."""
    jobs = {cfg.jobs for cfg in configs}
    if len(jobs) > 1:
        raise ValueError(f"the points of one sweep share one jobs value, got {sorted(jobs)}")
    jobs = max(jobs, default=1)
    chunks = []
    rows = []
    for point, cfg in enumerate(configs):
        if cfg.window_rounds < cfg.distance:
            warnings.warn(f"rounds={cfg.window_rounds} below distance {cfg.distance}; "
                          "time-like errors will be under-sampled")
        size = max(1, min(500, cfg.trials // (4 * jobs)))
        chunks += [(point, cfg, start, min(size, cfg.trials - start), trace_sink is not None)
                   for start in range(0, cfg.trials, size)]
        model = cfg.error_model()
        rows.append(PointStats(d=cfg.distance, p=cfg.p, model=cfg.model, p2=model.p2,
                               pI=model.pI, pM=model.pM, metric=cfg.metric,
                               T=cfg.window_rounds, N=cfg.trials, fail_x=0,
                               fail_z=0, seed=cfg.seed, wall_time=0.0))
    workers = min(jobs, len(chunks))
    with contextlib.ExitStack() as stack:
        results = map(_run_chunk, chunks)
        if workers > 1:
            import multiprocessing as mp
            pool = stack.enter_context(mp.get_context("spawn").Pool(workers))
            results = pool.imap(_run_chunk, chunks)
        for (point, *_), (fail_x, fail_z, seconds, traces) in zip(chunks, results):
            row = rows[point]
            row.fail_x += fail_x
            row.fail_z += fail_z
            row.wall_time += seconds
            if trace_sink is not None:
                trace_sink.extend(traces)
    return SweepStats(rows=rows)


class ThresholdError(ValueError):
    """No fit: too few distances or rates (a configuration error), or no crossing."""


def check_fit_grid(distances, ps) -> None:
    """Raise ThresholdError unless a fit has enough distinct distances and rates."""
    distances, ps = sorted(set(distances)), sorted(set(ps))
    if len(distances) < THRESHOLD_MIN_DISTANCES or len(ps) < THRESHOLD_MIN_RATES:
        raise ThresholdError(f"a threshold fit needs >= {THRESHOLD_MIN_DISTANCES} distances and "
                             f">= {THRESHOLD_MIN_RATES} rates, got {distances} and {ps}")


def estimate_threshold(stats: SweepStats, logical: str = "x") -> dict:
    """Crossing point of rounds-to-failure curves over >= 3 distances.

    For every pair of distances, log(mttf) difference is fitted linearly
    in p and its zero crossing located; the threshold is the mean of the
    pairwise crossings and the uncertainty is the bootstrap standard
    deviation over resampled failure counts.
    """
    distances = sorted({r.d for r in stats.rows})
    check_fit_grid(distances, (r.p for r in stats.rows))

    def crossings(curve) -> list[float]:
        roots = []
        for a in range(len(distances)):
            for b in range(a + 1, len(distances)):
                d1, d2 = distances[a], distances[b]
                shared = sorted(set(curve.get(d1, {})) & set(curve.get(d2, {})))
                if len(shared) < 2:
                    continue
                xs = np.array(shared)
                ys = np.array([curve[d2][p] - curve[d1][p] for p in shared])
                if not (ys.max() > 0 > ys.min()):
                    continue
                slope, intercept = np.polyfit(xs, ys, 1)
                if slope >= 0:
                    continue
                root = -intercept / slope
                if xs[0] <= root <= xs[-1]:
                    roots.append(float(root))
        return roots

    real = crossings(_curves(stats, logical))
    if not real:
        order = {}
        for r in stats.rows:
            order.setdefault(r.p, []).append(
                (r.d, r.fail_x if logical == "x" else r.fail_z, r.N))
        raise ThresholdError(
            "no bracketing crossing between distance curves; "
            f"counts by p: {order}")
    p_th = float(np.mean(real))

    rng = np.random.default_rng(BOOTSTRAP_SEED)
    boots = []
    for _ in range(N_BOOTSTRAP):
        resampled = SweepStats(rows=[
            replace(r, wall_time=0.0,
                    fail_x=int(rng.binomial(r.N, r.fail_x / r.N)),
                    fail_z=int(rng.binomial(r.N, r.fail_z / r.N)))
            for r in stats.rows
        ])
        got = crossings(_curves(resampled, logical))
        if got:
            boots.append(float(np.mean(got)))
    sigma = float(np.std(boots)) if len(boots) >= 10 else float("nan")
    return {"p_th": p_th, "sigma": sigma, "pairwise": real,
            "bootstrap_samples": len(boots), "logical": logical}


def _curves(stats: SweepStats, logical: str):
    """log(rounds to failure) per distance and p, over the rows whose
    estimate is resolved: at least MIN_FAILURES failures, and not every
    window failed."""
    out: dict[int, dict[float, float]] = {}
    for r in stats.rows:
        k = r.fail_x if logical == "x" else r.fail_z
        if MIN_FAILURES <= k < r.N:
            out.setdefault(r.d, {})[r.p] = math.log(_mttf(r.T, k / r.N))
    return out


def stats_to_csv(stats: SweepStats) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in stats.rows:
        mttf = rounds_to_failure(r)
        values = [r.d, r.p, r.model, r.p2, r.pI, r.pM, r.metric, r.T, r.N,
                  r.fail_x, r.fail_z,
                  mttf["x"]["estimate"], mttf["x"]["lo"], mttf["x"]["hi"],
                  mttf["z"]["estimate"], mttf["z"]["lo"], mttf["z"]["hi"],
                  r.seed, r.wall_time]
        # str() of a float is its shortest round-trip form, so every rate
        # reads back bit for bit.
        lines.append(",".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


def csv_to_stats(text: str) -> SweepStats:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",") if lines else []
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for ln in lines[1:]:
        vals = dict(zip(header, ln.split(",")))
        rows.append(PointStats(
            d=int(vals["d"]), p=float(vals["p"]), model=vals["model"],
            p2=float(vals["p2"]), pI=float(vals["pI"]), pM=float(vals["pM"]),
            metric=vals["metric"], T=int(vals["T"]), N=int(vals["N"]),
            fail_x=int(vals["fail_x"]), fail_z=int(vals["fail_z"]),
            seed=int(vals["seed"]), wall_time=float(vals["wall_time"])))
    return SweepStats(rows=rows)


def stats_to_json(stats: SweepStats) -> str:
    rows = []
    for r in stats.rows:
        d = asdict(r)
        mttf = rounds_to_failure(r)
        for logical in ("x", "z"):
            for key in ("estimate", "lo", "hi"):
                v = mttf[logical][key]
                d[f"mttf_{logical}_{key}"] = v if math.isfinite(v) else None
        rows.append(d)
    return json.dumps({"schema": "surfacesim-results-v1", "rows": rows}, indent=2)


def emit_results(stats: SweepStats, fmt: str = "csv", path: str | None = None,
                 plot_path: str | None = None) -> str:
    """Serialize results; optionally write files (CSV/JSON, SVG)."""
    if fmt == "csv":
        text = stats_to_csv(stats)
    elif fmt == "json":
        text = stats_to_json(stats)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    if plot_path is not None:
        with open(plot_path, "w") as fh:
            fh.write(plot_svg(stats))
    return text


def plot_svg(stats: SweepStats) -> str:
    """Minimal SVG: rounds to logical x failure vs p, one polyline per
    distance."""
    width, height = 640, 440
    pts = []
    for r in stats.rows:
        mttf = rounds_to_failure(r)["x"]["estimate"]
        if math.isfinite(mttf):
            pts.append((r.d, r.p, mttf))
    if not pts:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    ps = [p for _, p, _ in pts]
    ys = [math.log10(m) for _, _, m in pts]
    pmin, pmax = min(ps), max(ps)
    ymin, ymax = min(ys), max(ys)
    pspan = (pmax - pmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    margin = 50

    def sx(p):
        return margin + (p - pmin) / pspan * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - ymin) / yspan * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
             f"<rect width='{width}' height='{height}' fill='white'/>",
             f"<text x='{width//2}' y='{height-8}' text-anchor='middle' "
             f"font-size='12'>gate error rate p</text>",
             f"<text x='14' y='{height//2}' font-size='12' "
             f"transform='rotate(-90 14 {height//2})' text-anchor='middle'>"
             "log10 rounds to logical x failure</text>"]
    for ci, d in enumerate(sorted({d for d, _, _ in pts})):
        series = sorted((p, y) for dd, p, y in
                        ((dd, p, math.log10(m)) for dd, p, m in pts) if dd == d)
        path = " ".join(f"{sx(p):.1f},{sy(y):.1f}" for p, y in series)
        color = colors[ci % len(colors)]
        parts.append(f"<polyline points='{path}' fill='none' stroke='{color}' "
                     f"stroke-width='1.5'/>")
        if series:
            parts.append(f"<text x='{sx(series[-1][0])+4:.1f}' "
                         f"y='{sy(series[-1][1]):.1f}' font-size='11' "
                         f"fill='{color}'>d={d}</text>")
    parts.append("</svg>")
    return "\n".join(parts)
