"""Calibration sweeps: the whole pipeline on two noise models whose MWPM
threshold is known.

* Phenomenological: custom (p2, pI, pM) = (0, 1.5q, q).  With no CNOT
  noise, an idle depolarization of 1.5q flips each data qubit's X (or Z)
  with probability q per round, and each readout flips with probability
  q.  MWPM threshold 2.93% (Wang, Harrington & Preskill, Ann. Phys. 303,
  31, 2003).  T = 4d, read with `harness.estimate_threshold`.
* Code capacity: custom (0, 1.5q, 0) with T = 1, so measurement is
  perfect.  MWPM threshold 10.3% (Dennis et al., J. Math. Phys. 43, 4452,
  2002).  The scaling fit refuses T < d, so these rows are read by the
  crossing of each pair of failure-probability curves.

Every row sets p = q, since the fit reads the swept rate from `p`.  The
CLI refuses a `--p` sweep with `--model custom`, so each model is one
`run_trials` call of the Python API.  pI is 1.5 * q as computed in
floating point: a window's samples depend on every bit of a rate, and
1.5 * 0.1 = 0.15000000000000002 gives other counts than 0.15.

    python results/calibration.py

takes about 6 minutes on one core and writes
`results/calibration/{phenomenological,code_capacity}.csv`, which
`tests/test_calibration.py` (`python -m pytest -m calibration`) checks.
"""

from __future__ import annotations

from pathlib import Path

from surfacesim.harness import TrialConfig, run_trials, stats_to_csv

OUT = Path(__file__).resolve().parent / "calibration"
SEED = 1


def phenomenological() -> list[TrialConfig]:
    qs = [round(0.024 + 0.002 * i, 3) for i in range(7)]
    return [TrialConfig(distance=d, p=q, model="custom", rounds=4 * d, trials=2000,
                        seed=SEED, custom_model=(0.0, 1.5 * q, q))
            for d in (3, 5, 7) for q in qs]


def code_capacity() -> list[TrialConfig]:
    qs = [round(0.08 + 0.01 * i, 2) for i in range(6)]
    return [TrialConfig(distance=d, p=q, model="custom", rounds=1, trials=8000,
                        seed=SEED, custom_model=(0.0, 1.5 * q, 0.0))
            for d in (3, 5, 7, 9) for q in qs]


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for sweep in (phenomenological, code_capacity):
        stats = run_trials(*sweep())
        (OUT / f"{sweep.__name__}.csv").write_text(stats_to_csv(stats))


if __name__ == "__main__":
    main()
