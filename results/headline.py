"""The headline record: the standard model decoded with `dmax`.

The paper puts the threshold of error-model-aware separations at
1.1-1.4%.  This sweep covers both what the scaling fit reads (p_c near
0.75% in earlier previews) and the per-round crossings of adjacent
distances (near 0.95-1.3%):

* standard model, metric `dmax`, seed 1, T = 4d;
* d = 3, 5, 7, 9 with N = 10 000, 8 000, 4 000, 3 000 windows;
* p = 0.5, 0.6, ..., 1.3%.

These settings were fixed before the first run.  The sweep is one
`run_trials` call on two workers and writes
`results/headline/standard_dmax.csv`.

Tie spread: the first `TIE_WINDOWS` windows of every point are decoded
again with each graph's detection events handed to the decoder in a
seeded random order instead of scan order (the relabelling of
`tests/test_decoder.py::test_verdicts_do_not_depend_on_event_labels`).
`results/headline/tie_spread.csv` gives, per point, the failures of
those windows under both orders and the number of changed verdicts.

    PYTHONPATH=src python results/headline.py

took 14 minutes on a 2-core machine.  `tests/test_headline.py`
(`python -m pytest -m headline`) checks the committed rows.
"""

from __future__ import annotations

import csv
import io
import multiprocessing as mp
import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import surfacesim.decoder as decoder_module
from surfacesim.harness import TrialConfig, _setup, run_trials, stats_to_csv
from surfacesim.noise import trial_rng
from surfacesim.sim import _graph_events, simulate_window

OUT = Path(__file__).resolve().parent / "headline"
SEED = 1
TRIALS = {3: 10_000, 5: 8_000, 7: 4_000, 9: 3_000}
RATES = [round(0.005 + 0.001 * i, 3) for i in range(9)]
TIE_WINDOWS = 200
TIE_COLUMNS = ["d", "p", "windows", "fail_x", "fail_z",
               "shuffled_fail_x", "shuffled_fail_z", "changed"]


def configs() -> list[TrialConfig]:
    return [TrialConfig(distance=d, p=p, model="standard", metric="dmax", rounds=4 * d,
                        trials=n, seed=SEED, jobs=2)
            for d, n in TRIALS.items() for p in RATES]


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


def main() -> None:
    OUT.mkdir(exist_ok=True)
    points = configs()
    (OUT / "standard_dmax.csv").write_text(stats_to_csv(run_trials(*points)))
    with ProcessPoolExecutor(max_workers=2, mp_context=mp.get_context("spawn")) as pool:
        rows = list(pool.map(tie_spread, points))
    text = io.StringIO()
    writer = csv.DictWriter(text, TIE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    (OUT / "tie_spread.csv").write_text(text.getvalue())


if __name__ == "__main__":
    main()
