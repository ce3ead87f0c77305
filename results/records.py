"""Every results sweep as a plan: `PLANS` maps a record's name, its CSV
path under `results/`, to the `TrialConfig` list fixed before its run.
One writer makes any plan's CSV (one `run_trials` call), and the
tier-1 grid test holds every committed row to its plan.

* `calibration/phenomenological`: custom (0, 1.5q, q), T = 4d; an idle
  depolarization of 1.5q flips each data qubit's X (or Z) with
  probability q per round.  MWPM threshold 2.93% (Wang, Harrington &
  Preskill, Ann. Phys. 303, 31, 2003).
* `calibration/code_capacity`: custom (0, 1.5q, 0), T = 1.  MWPM
  threshold 10.3% (Dennis et al., J. Math. Phys. 43, 4452, 2002); the
  scaling fit refuses T < d, so `report` reads the P crossings.
  Calibration rows set p = q, the rate the fit reads, and pI = 1.5 * q
  in floating point: 1.5 * 0.1 = 0.15000000000000002 samples other
  windows than 0.15.
* `headline/standard_dmax`: the paper's 1.1-1.4% claim; standard
  model, `dmax`, seed 1, T = 4d, p = 0.5-1.3%.
* `window_length/t1d` and `t2d`: the same at T = d (seed 2) and T = 2d
  (seed 3), p = 0.6-1.6%.  At one seed window i of T = d would hold
  the first d rounds of faults of window i of T = 4d; a seed per length
  makes the three lengths' counts independent.

    PYTHONPATH=src python results/records.py [NAME ...]

runs the named records (`headline/tie_spread` too) and writes their
CSVs, then prints the README table of each named plan, or of every plan
when none is named (`report`, from the committed rows).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import multiprocessing as mp
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import surfacesim.decoder as decoder_module
from surfacesim.harness import (SweepStats, ThresholdError, TrialConfig, _setup, csv_to_stats,
                                estimate_threshold, flip_rate, run_trials, stats_to_csv)
from surfacesim.noise import ErrorModel, trial_rng
from surfacesim.sim import _graph_events, simulate_window

OUT = Path(__file__).resolve().parent
KEYS = ["d", "p", "model", "p2", "pI", "pM", "metric", "T", "N", "seed"]
TRIALS = {3: 10_000, 5: 8_000, 7: 4_000, 9: 3_000}
TIE_SPREAD = "headline/tie_spread"
TIE_WINDOWS = 200
TIE_COLUMNS = ["d", "p", "windows", "fail_x", "fail_z",
               "shuffled_fail_x", "shuffled_fail_z", "changed"]


def _rates(first: float, step: float, count: int, digits: int) -> list[float]:
    return [round(first + step * i, digits) for i in range(count)]


def standard_dmax(rounds_per_d: int, seed: int, rates: list[float]) -> list[TrialConfig]:
    return [TrialConfig(distance=d, p=p, model="standard", metric="dmax",
                        rounds=rounds_per_d * d, trials=n, seed=seed, jobs=2)
            for d, n in TRIALS.items() for p in rates]


PLANS = {
    "calibration/phenomenological": [
        TrialConfig(distance=d, p=q, model=ErrorModel(0.0, 1.5 * q, q), rounds=4 * d,
                    trials=2000, seed=1)
        for d in (3, 5, 7) for q in _rates(0.024, 0.002, 7, 3)],
    "calibration/code_capacity": [
        TrialConfig(distance=d, p=q, model=ErrorModel(0.0, 1.5 * q, 0.0), rounds=1,
                    trials=8000, seed=1)
        for d in (3, 5, 7, 9) for q in _rates(0.08, 0.01, 6, 2)],
    "headline/standard_dmax": standard_dmax(4, 1, _rates(0.005, 0.001, 9, 3)),
    "window_length/t1d": standard_dmax(1, 2, _rates(0.006, 0.001, 11, 3)),
    "window_length/t2d": standard_dmax(2, 3, _rates(0.006, 0.001, 11, 3)),
}


def plan_keys(plan: list[TrialConfig]) -> list[tuple]:
    """The key columns (`KEYS`) of the rows a plan writes, in order."""
    keys = []
    for cfg in plan:
        model = cfg.error_model()
        keys.append((cfg.distance, cfg.p,
                     "custom" if isinstance(cfg.model, ErrorModel) else cfg.model,
                     model.p2, model.pI, model.pM, cfg.metric, cfg.window_rounds,
                     cfg.trials, cfg.seed))
    return keys


def csv_keys(text: str) -> list[tuple]:
    """The key columns of a record's rows, read back bit for bit."""
    return [tuple(getattr(r, k) for k in KEYS) for r in csv_to_stats(text).rows]


def sweep_csv(plan: list[TrialConfig]) -> str:
    return stats_to_csv(run_trials(*plan))


def tie_spread(cfg: TrialConfig) -> dict:
    """Verdicts of the point's first TIE_WINDOWS windows in scan order
    and in a shuffled order seeded by the window index."""
    model = cfg.error_model()
    circuit, decoder = _setup(cfg.distance, model, cfg.metric)
    rng = random.Random()

    def shuffled_events(history, graph):
        stabs, ts = _graph_events(history, graph)
        order = rng.sample(range(len(stabs)), len(stabs))
        return [stabs[i] for i in order], [ts[i] for i in order]

    def verdict(res) -> tuple[bool, bool]:
        out = decoder.decode(res.history, res.frame, collect_matches=False)
        return out.logical_x_failed, out.logical_z_failed

    row = dict.fromkeys(TIE_COLUMNS[3:], 0)
    for idx in range(TIE_WINDOWS):
        res = simulate_window(circuit, model, trial_rng(cfg.seed, idx), cfg.window_rounds)
        plain = verdict(res)
        rng.seed(idx)
        decoder_module._graph_events = shuffled_events
        try:
            shuffled = verdict(res)
        finally:
            decoder_module._graph_events = _graph_events
        for key, failed in zip(TIE_COLUMNS[3:7], plain + shuffled):
            row[key] += failed
        row["changed"] += plain != shuffled
    return {"d": cfg.distance, "p": cfg.p, "windows": TIE_WINDOWS, **row}


def tie_spread_csv() -> str:
    with ProcessPoolExecutor(max_workers=2, mp_context=mp.get_context("spawn")) as pool:
        rows = list(pool.map(tie_spread, PLANS["headline/standard_dmax"]))
    text = io.StringIO()
    writer = csv.DictWriter(text, TIE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def write(name: str) -> None:
    text = tie_spread_csv() if name == TIE_SPREAD else sweep_csv(PLANS[name])
    path = OUT / f"{name}.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)


def raw_crossings(rows, value, a: int, b: int) -> list[float]:
    """The rates where value(row) of distances a and b cross, each
    interpolated linearly between the two swept rates around a sign
    change of value_a - value_b; rates where either value is NaN drop out."""
    curve = {}
    for r in rows:
        curve.setdefault(r.d, {})[r.p] = value(r)
    ps = [p for p in sorted(curve[a]) if not math.isnan(curve[a][p] - curve[b][p])]
    gap = [curve[a][p] - curve[b][p] for p in ps]
    return [p0 + (p1 - p0) * g0 / (g0 - g1)
            for p0, p1, g0, g1 in zip(ps, ps[1:], gap, gap[1:])
            if g0 != 0 and (g0 > 0) != (g1 > 0)]


def _percent(ps) -> str:
    return ", ".join(f"{p:.3%}" for p in ps) or "none"


def _fit(rows, logical: str) -> dict | None:
    with contextlib.suppress(ThresholdError):
        return estimate_threshold(SweepStats(rows=rows), logical=logical)
    return None


def _pc(fit: dict | None) -> str:
    if fit is None:
        return "no fit"
    return f"{100 * fit['p_c']:.3f} ± {100 * fit['sigma']:.3f}% ({fit['nu']:.2f})"


def _column(rows, logical: str) -> list[tuple[str, str]]:
    """(estimator, value) of one logical, in the order of the table."""
    ds = sorted({r.d for r in rows})
    pairs = list(zip(ds, ds[1:]))
    out = []
    if all(r.T >= r.d for r in rows):
        fit = _fit(rows, logical)
        spread = fit and fit["fit_spread"]
        crossings = fit["per_round"] if fit else {}
        out += [(f"scaling fit of ε_d = d·ε over d = {ds[0]}-{ds[-1]}, p_c ± σ (ν)", _pc(fit)),
                (f"the same fit without d = {ds[0]}",
                 _pc(_fit([r for r in rows if r.d > ds[0]], logical))),
                ("fit-model spread beside σ",
                 "none" if spread is None else f"{100 * spread:.3f} points")]
        out += [(f"fitted per-round crossing {a}/{b}",
                 _percent(filter(None, [crossings.get((a, b))]))) for a, b in pairs]
    else:
        out += [(f"P crossing {a}/{b}, linear interpolation",
                 _percent(raw_crossings(rows, lambda r: getattr(r, f"fail_{logical}") / r.N, a, b)))
                for a, b in pairs]
    out += [(f"raw per-round ε crossing {a}/{b}, linear interpolation",
             _percent(raw_crossings(rows, lambda r: flip_rate(r)[f"eps_{logical}"], a, b)))
            for a, b in pairs]
    return out


def report(name: str) -> str:
    """The README table of a plan, from its committed rows.

    Rows with T >= d everywhere are read by the scaling fit (p_c, the
    fit without the smallest distance, the fit-model spread and the
    fitted per-round crossings); others by the crossings of the failure
    probabilities.  Both get the raw per-round crossings, interpolated
    linearly."""
    rows = csv_to_stats((OUT / f"{name}.csv").read_text()).rows
    x, z = (_column(rows, logical) for logical in "xz")
    lines = ["| estimator | X | Z |", "| --- | --- | --- |"]
    lines += [f"| {label} | {cx} | {cz} |" for (label, cx), (_, cz) in zip(x, z)]
    return "\n".join(lines) + "\n"


def main() -> None:
    names = sys.argv[1:]
    for name in names:
        write(name)
    for name in names or PLANS:
        if name in PLANS:
            print(f"{name}\n\n{report(name)}")


if __name__ == "__main__":
    main()
