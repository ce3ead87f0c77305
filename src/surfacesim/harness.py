"""Monte Carlo driver, failure statistics and threshold estimation.

A trial simulates one window of T noisy rounds plus the noiseless
closure, decodes both graphs, and records the two logical failure bits.
Windows have counter-derived RNG streams, and a sweep runs them as one
queue of chunks (one pool per sweep), merged per point in chunk order,
so results are reproducible for a given configuration regardless of
scheduling.

A window's verdict is a parity: two logical flips cancel, so the
failure probability P of a window saturates at 0.5, not 1.  Each row is
read as T independent per-round flips of rate eps whose parity is odd
with probability P, so eps = (1 - (1 - 2P)^(1/T)) / 2.  The Wilson 95%
bounds on P map through the same increasing function; P >= 0.5 is
censored (NaN).  The threshold comes from one finite-size-scaling fit
over every distance (Wang, Harrington & Preskill, Ann. Phys. 303, 31,
2003): the rate per d rounds, eps_d = d * eps, is fitted as
A + B x + C x^2 with x = (p - p_c) d^(1/nu), and the uncertainty of p_c
comes from a bootstrap over trial counts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
import typing
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
N_BOOTSTRAP = 200
BOOTSTRAP_SEED = 1234
# The scaling fit's (p_c, nu) grid: p_c spans the swept rates, nu
# NU_RANGE; each later pass spans two steps either side of the best point.
FIT_GRID = 21
FIT_PASSES = 4
NU_RANGE = (0.5, 3.0)

CSV_COLUMNS = [
    "d", "p", "model", "p2", "pI", "pM", "metric", "T", "N", "fail_x", "fail_z",
    "eps_x", "eps_x_lo", "eps_x_hi", "eps_z", "eps_z_lo", "eps_z_hi",
    "seed", "wall_time",
]


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo point: code distance, error model, decode metric.

    The model is a preset name, whose rates come from p, or an ErrorModel,
    whose rows record "custom".  Valid once constructed: a bad value of any
    field raises ValueError here, before any window runs; whether the
    model's graphs decode is `decoder.boundary_weights`'s rule, applied
    where they are built.  The field defaults are the run defaults of the
    command line too.
    """

    distance: int = 5
    p: float = 0.01
    model: str | ErrorModel = "standard"
    metric: str = "dmax"
    rounds: int | None = None
    trials: int = 1000
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            # A custom model ignores p, but its row still records it.
            raise ValueError(f"p={self.p} outside [0, 1]")
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
        model = self.error_model()  # an unknown preset name raises here
        if isinstance(self.model, ErrorModel) and model.pM > 0.5:
            # With pM <= 1/2 every link weighs at least ln 1.5, which
            # bounds the pair tables' reach; near pM = 1 it is 10^5 rounds.
            raise ValueError(f"pM = {model.pM} above 1/2: a readout more "
                             "often wrong than right")

    @property
    def window_rounds(self) -> int:
        return self.rounds if self.rounds is not None else DEFAULT_ROUNDS_FACTOR * self.distance

    def error_model(self) -> ErrorModel:
        if isinstance(self.model, ErrorModel):
            return self.model
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


def flip_rate(row: PointStats) -> dict[str, float]:
    """Per-round flip rate of each logical type and its 95% CI, keyed by
    result column: eps_x, eps_x_lo, eps_x_hi, then the same for z.

    Zero failures give 0.  A logical whose failure fraction is 0.5 or
    more is censored: rate and bounds are NaN.  Otherwise a Wilson upper
    bound on P above 0.5 maps to 0.5, the largest per-round rate.
    """
    out = {}
    for logical, k in (("x", row.fail_x), ("z", row.fail_z)):
        lo_p, hi_p = wilson_interval(k, row.N)
        ps = (k / row.N, lo_p, min(hi_p, 0.5)) if k / row.N < 0.5 else (math.nan,) * 3
        for suffix, P in zip(("", "_lo", "_hi"), ps):
            out[f"eps_{logical}{suffix}"] = (1 - (1 - 2 * P) ** (1 / row.T)) / 2
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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def run_trials(*configs: TrialConfig, trace_sink=None) -> SweepStats:
    """Run every point of a sweep; one row per config, in the order given.

    The points' windows form one queue of (point, cfg, start, count,
    trace) chunks, a point's chunks adjacent so that each process builds
    its set-up (`_setup`) once.  The configs share one jobs value, capped
    at the CPUs this process may use: the chunks run in this process, or
    in one spawn pool of min(jobs, chunks) workers when that is more than
    one; a worker that dies raises BrokenProcessPool instead of leaving
    its chunk unawaited.
    Counts merge per point in chunk order.  A row's wall_time is the
    seconds its chunks took, summed over workers, set-up included.  Given
    a trace_sink list, each window's detection events are appended to it
    as text, in (point, window) order."""
    jobs = {cfg.jobs for cfg in configs}
    if len(jobs) > 1:
        raise ValueError(f"the points of one sweep share one jobs value, got {sorted(jobs)}")
    # Streams are per window and chunks merge in order, so the cap (and
    # the chunk size it sets) leaves every count as it is.
    jobs = min(max(jobs, default=1), _usable_cpus())
    chunks = []
    rows = []
    for point, cfg in enumerate(configs):
        model = cfg.error_model()
        # Only CNOT and readout faults make time-like links.
        if cfg.window_rounds < cfg.distance and (model.p2 > 0.0 or model.pM > 0.0):
            warnings.warn(f"rounds={cfg.window_rounds} below distance {cfg.distance}; "
                          "time-like errors will be under-sampled")
        size = max(1, min(500, cfg.trials // (4 * jobs)))
        chunks += [(point, cfg, start, min(size, cfg.trials - start), trace_sink is not None)
                   for start in range(0, cfg.trials, size)]
        rows.append(PointStats(d=cfg.distance, p=cfg.p, p2=model.p2, pI=model.pI, pM=model.pM,
                               model="custom" if isinstance(cfg.model, ErrorModel) else cfg.model,
                               metric=cfg.metric, T=cfg.window_rounds, N=cfg.trials, fail_x=0,
                               fail_z=0, seed=cfg.seed, wall_time=0.0))
    workers = min(jobs, len(chunks))
    with contextlib.ExitStack() as stack:
        results = map(_run_chunk, chunks)
        if workers > 1:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, mp_context=mp.get_context("spawn")))
            results = pool.map(_run_chunk, chunks)
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
    """Raise ThresholdError unless a fit has enough distinct distances and
    rates: those swept, and then those of the uncensored rows."""
    distances, ps = sorted(set(distances)), sorted(set(ps))
    if len(distances) < THRESHOLD_MIN_DISTANCES or len(ps) < THRESHOLD_MIN_RATES:
        raise ThresholdError(f"a threshold fit needs >= {THRESHOLD_MIN_DISTANCES} distances and "
                             f">= {THRESHOLD_MIN_RATES} rates, got {distances} and {ps}")


def check_fit_rounds(points) -> None:
    """Raise ThresholdError unless every (d, T) point's window spans at
    least d rounds: eps_d = d * eps is scale-invariant only then (at T = 1
    it is d * P_fail, which grows with d at every rate)."""
    short = sorted({(d, T) for d, T in points if T < d})
    if short:
        raise ThresholdError(f"a threshold fit needs windows of T >= d rounds, got (d, T) = {short}")


def _scaling_fit(rows, logical: str):
    """Weighted least-squares fit of eps_d = F(x) = A + B x + C x^2,
    x = (p - p_c) d^(1/nu), over the uncensored rows.

    x is taken in units of the swept span of p, so the normal equations
    stay well conditioned.  Returns the grid optimum p_c, nu, (A, B, C) in
    those units, the span and the lowest swept rate; p_c may lie on the
    edge of the swept rates.  Raises ThresholdError when the uncensored
    rows fail check_fit_grid."""
    p, d, y, w = [], [], [], []
    for r in rows:
        rates = flip_rate(r)
        eps, eps_lo, eps_hi = (rates[f"eps_{logical}{s}"] for s in ("", "_lo", "_hi"))
        if not math.isnan(eps):
            p.append(r.p)
            d.append(r.d)
            y.append(r.d * eps)
            w.append((2 * WILSON_Z / (r.d * (eps_hi - eps_lo))) ** 2)
    check_fit_grid(d, p)
    p, d, y, w = map(np.array, (p, d, y, w))
    lo, span = p.min(), np.ptp(p)
    pc_range, nu_range = (lo, lo + span), NU_RANGE
    for _ in range(FIT_PASSES):
        pcs, nus = np.linspace(*pc_range, FIT_GRID), np.linspace(*nu_range, FIT_GRID)
        x = (p - pcs[:, None, None]) / span * d ** (1 / nus[:, None])  # (pc, nu, row)
        X = np.stack([np.ones_like(x), x, x * x], axis=-1)
        XtW = X.swapaxes(-1, -2) * w
        coef = np.linalg.solve(XtW @ X, XtW @ y[:, None])
        chi2 = (w * (y - (X @ coef)[..., 0]) ** 2).sum(axis=-1)
        i, j = np.unravel_index(np.argmin(chi2), chi2.shape)
        pc_step, nu_step = 2 * (pcs[1] - pcs[0]), 2 * (nus[1] - nus[0])
        pc_range = (max(lo, pcs[i] - pc_step), min(lo + span, pcs[i] + pc_step))
        nu_range = (max(NU_RANGE[0], nus[j] - nu_step), min(NU_RANGE[1], nus[j] + nu_step))
    return float(pcs[i]), float(nus[j]), coef[i, j, :, 0], span, lo


def estimate_threshold(stats: SweepStats, logical: str = "x") -> dict:
    """Threshold from one finite-size-scaling fit over every distance.

    The flip rate per d rounds of every uncensored row is fitted as
    F((p - p_c) d^(1/nu)), F quadratic, weighted by the Wilson width; sigma
    is the bootstrap standard deviation of p_c over resampled failure
    counts only.  It leaves out the error of the scaling form itself, which
    can be larger: dropping the smallest distance can move p_c by several
    sigma.  fit_spread reports that error apart from sigma: the spread
    (max - min) of p_c over the fits on the rows with d >= each swept
    distance, counting only those that pass check_fit_grid; None when
    fewer than two pass.  A p_c on the edge of the swept rates means no
    crossing inside them and raises ThresholdError; a resample's p_c on
    the edge counts at the edge value, and only resamples that fail
    check_fit_grid drop out.
    per_round maps each adjacent distance pair (a, b) to the
    rate where the fitted per-round rates cross, F(x_a) / a = F(x_b) / b:
    the lowest root from p_c up to the highest swept rate, or None.  At
    p_c the larger code flips less per round (A / b < A / a), so the
    curves can cross only above it.  Rows with T < d raise ThresholdError
    (check_fit_rounds).
    """
    check_fit_rounds((r.d, r.T) for r in stats.rows)
    p_c, nu, (A, B, C), span, lo = _scaling_fit(stats.rows, logical)
    if not lo < p_c < lo + span:
        raise ThresholdError(f"fitted p_c = {p_c:.4%} lies on the edge of the swept rates "
                             f"{lo:.4%}-{lo + span:.4%}: no crossing inside them")

    distances = sorted({r.d for r in stats.rows})
    per_round = {}
    for a, b in zip(distances, distances[1:]):
        sa, sb = a ** (1 / nu), b ** (1 / nu)
        roots = np.roots([C * (sa * sa / a - sb * sb / b), B * (sa / a - sb / b),
                          A * (1 / a - 1 / b)])
        cross = [p_c + u.real * span for u in roots if u.imag == 0]
        cross = [c for c in cross if p_c <= c <= lo + span]
        per_round[(a, b)] = float(min(cross)) if cross else None

    fits = [p_c]
    for low in distances[1:]:
        with contextlib.suppress(ThresholdError):
            fits.append(_scaling_fit([r for r in stats.rows if r.d >= low], logical)[0])
    fit_spread = float(np.ptp(fits)) if len(fits) >= 2 else None

    rng = np.random.default_rng(BOOTSTRAP_SEED)
    key = f"fail_{logical}"
    boots = []
    for _ in range(N_BOOTSTRAP):
        resampled = [replace(r, **{key: int(rng.binomial(r.N, getattr(r, key) / r.N))})
                     for r in stats.rows]
        with contextlib.suppress(ThresholdError):
            boots.append(_scaling_fit(resampled, logical)[0])
    sigma = float(np.std(boots)) if len(boots) >= 10 else float("nan")
    return {"p_c": p_c, "sigma": sigma, "fit_spread": fit_spread, "nu": nu,
            "bootstrap_samples": len(boots), "logical": logical, "per_round": per_round}


def _fields(r: PointStats) -> dict:
    """A row's values by CSV column, its flip rates included."""
    values = {**asdict(r), **flip_rate(r)}
    return {c: values[c] for c in CSV_COLUMNS}


def stats_to_csv(stats: SweepStats) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in stats.rows:
        # str() of a float is its shortest round-trip form, so every rate
        # reads back bit for bit.
        lines.append(",".join(str(v) for v in _fields(r).values()))
    return "\n".join(lines) + "\n"


def csv_to_stats(text: str) -> SweepStats:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",") if lines else []
    if header[:11] == CSV_COLUMNS[:11] and header != CSV_COLUMNS:
        raise ValueError(f"CSV header with rate columns {header[11:-2]}: results v2 replaced "
                         f"mean rounds to failure by the per-round flip rates {CSV_COLUMNS[11:-2]}")
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    types = typing.get_type_hints(PointStats)
    rows = []
    for ln in lines[1:]:
        vals = dict(zip(header, ln.split(",")))
        rows.append(PointStats(**{name: typ(vals[name]) for name, typ in types.items()}))
    return SweepStats(rows=rows)


def stats_to_json(stats: SweepStats) -> str:
    rows = [{k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in _fields(r).items()} for r in stats.rows]
    return json.dumps({"schema": "surfacesim-results-v2", "rows": rows}, indent=2)


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
    """Minimal SVG: logical x flip rate per d rounds vs p, one polyline
    per distance."""
    width, height = 640, 440
    pts = []
    for r in stats.rows:
        eps_d = r.d * flip_rate(r)["eps_x"]
        if eps_d > 0:  # neither censored (NaN) nor zero
            pts.append((r.d, r.p, eps_d))
    if not pts:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    ps = [p for _, p, _ in pts]
    ys = [math.log10(e) for _, _, e in pts]
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
             "log10 logical x flip rate per d rounds</text>"]
    for ci, d in enumerate(sorted({d for d, _, _ in pts})):
        series = sorted((p, y) for dd, p, y in
                        ((dd, p, math.log10(e)) for dd, p, e in pts) if dd == d)
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
