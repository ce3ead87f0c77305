"""Workloads and measurement phases of the layered benchmark.

Every window of a run comes from the run's seed: cold-start window i uses
master seed `seed * SEED_STRIDE + COLD_OFFSET + i`, the settle windows
the last master seed of the run's range, and steady batch k uses
`seed * SEED_STRIDE + 1 + k`.  The steady windows are therefore new to
the decoder, while the harness's per-process state (lattice, link
classes, decoder and its lazy pair-weight cache) carries over, as in a
long sweep.

The machine this was tuned on (2 vCPUs of a shared host) runs a process
1.3-1.9x slower in episodes of seconds to minutes; CPU time slows with
wall time and steal time stays near zero, so the core itself is slower,
and an episode can cover a whole run.  Statistics over a run cannot
remove that, so the host's speed is sampled around and inside every
timed piece of work (one run_trials call, one step of the set-up chain)
with a fixed reference kernel that runs no program code, and the piece's
time is reported at reference host speed (`Phase.pieces`).  A slower program still reads slower; raw wall
times are logged next to the adjusted ones.  Each piece is timed once
per round, and a phase's time sums the pieces' medians over rounds.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from surfacesim import build_lattice, derive_edge_classes, preset, standard_schedule
from surfacesim.decoder import Decoder
from surfacesim.harness import TrialConfig, run_trials
from surfacesim.noise import trial_rng
from surfacesim.sim import compile_circuit, simulate_window

import checks
import layers

SEED_STRIDE = 100_000
COLD_OFFSET = SEED_STRIDE // 2
MODEL = "standard"  # p2 = pI = pM = p
# About the reference kernel's time on a quiet core of the tuning machine;
# only a scale, the same for every commit measured.
REFERENCE_S = 0.002
SAMPLE_S = 0.1  # host-speed sampling interval inside a timed piece


@dataclass(frozen=True)
class Workload:
    """One sweep point plus how the benchmark spends its run on it."""

    name: str
    distance: int
    p: float
    metric: str
    cold_windows: int     # windows of the cold start, one run_trials call each
    settle_windows: int   # untimed; builds the harness and fills its lazy cache
    batch_windows: int    # windows per timed steady run_trials call
    steady_rate: float    # nominal windows/s; sizes the steady set from --seconds
    oracle_windows: int   # steady windows re-decoded against the oracle
    rounds: int           # timings of every piece: cold start, set-up, steady pass
    fail_rates: tuple[float, float]  # reference per-window (x, z) failure rates
    reference_windows: int           # windows behind fail_rates

    def config(self, trials: int, seed: int) -> TrialConfig:
        return TrialConfig(distance=self.distance, p=self.p, model=MODEL,
                           metric=self.metric, trials=trials, seed=seed, jobs=1)

    def batches(self, seconds: float, passes: int) -> int:
        """Steady batches such that `passes` passes take about `seconds`
        at the nominal rate; fixed by the arguments, not by the clock."""
        return max(3, round(seconds * self.steady_rate / (passes * self.batch_windows)))


# Reference failure rates come from 20 000 (d = 3), 4 000 (d = 5) and 200
# (d = 7) steady windows at seed 424242.
WORKLOADS = {w.name: w for w in (
    Workload("pathsum-d3", 3, 0.010, "d2", cold_windows=20, settle_windows=100,
             batch_windows=10, steady_rate=230.0, oracle_windows=10, rounds=3,
             fail_rates=(0.3441, 0.3923), reference_windows=20_000),
    Workload("sweep-d5", 5, 0.010, "dmax", cold_windows=20, settle_windows=60,
             batch_windows=2, steady_rate=30.0, oracle_windows=4, rounds=3,
             fail_rates=(0.4198, 0.4423), reference_windows=4_000),
    Workload("target-d7", 7, 0.010, "dmax", cold_windows=1, settle_windows=8,
             batch_windows=1, steady_rate=1.7, oracle_windows=1, rounds=1,
             fail_rates=(0.405, 0.45), reference_windows=200),
)}


_REF_ARRAY = np.arange(256) % 11


def reference() -> float:
    """Wall time of a fixed kernel of small-object Python and small numpy
    calls, the mix the program spends its time in, with the cyclic
    collector paused; it runs no program code."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    counts, keys = {}, []
    for i in range(3000):
        key = (i & 63, i >> 6)
        counts[key] = counts.get(key, 0) + 1
        keys.append(key)
    keys.sort(key=lambda k: k[1])
    for _ in range(200):
        kept = _REF_ARRAY[_REF_ARRAY > 3]
        int(np.cumsum(kept)[-1])
    wall = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return wall


class Stopwatch:
    """Wall time of each timed piece of work."""

    def __init__(self, walls=()):
        self.walls = list(walls)

    def time(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.walls.append(time.perf_counter() - t0)
        return out

    @property
    def wall(self) -> float:
        return float(sum(self.walls))


class Phase(Stopwatch):
    """Timed pieces of work and the host's speed around and during each:
    the reference kernel runs before the first piece, after every piece,
    and every SAMPLE_S seconds inside a piece, from a SIGALRM handler
    whose time is taken off the piece's wall time."""

    def __init__(self, walls=(), speeds=None):
        super().__init__(walls)
        if speeds is None:
            reference()  # a process's first call runs slow
            speeds = [[reference()]]
        # speeds[0]: before the first piece; speeds[i + 1]: during and after piece i
        self.speeds = [list(s) for s in speeds]

    def time(self, fn, *args):
        inside: list[float] = []
        previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(reference()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.walls.append(wall - sum(inside))
        self.speeds.append(inside + [reference()])
        return out

    def pieces(self) -> list[float]:
        """Each piece's wall time at reference host speed: times REFERENCE_S
        over the mean reference time just before, during and just after it."""
        return [w * REFERENCE_S / statistics.fmean([before[-1], *during])
                for w, before, during in zip(self.walls, self.speeds, self.speeds[1:])]

    @property
    def adjusted(self) -> float:
        return float(sum(self.pieces()))


def adjusted_total(rounds: list[Phase]) -> float:
    """Sum over the pieces of a phase repeated in rounds of each piece's
    median adjusted time."""
    return float(sum(statistics.median(piece)
                     for piece in zip(*(ph.pieces() for ph in rounds))))


def cold_start(w: Workload, seed: int, timer: Stopwatch) -> Stopwatch:
    """The process's first run_trials calls, one per cold window: the first
    also builds the harness, and all of them fill the lazy metric cache."""
    for i in range(w.cold_windows):
        timer.time(run_trials, w.config(1, seed * SEED_STRIDE + COLD_OFFSET + i))
    return timer


def settle(w: Workload, seed: int) -> None:
    run_trials(w.config(w.settle_windows, seed * SEED_STRIDE + SEED_STRIDE - 1))


_CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import suite; "
          "w = suite.Workload(**json.loads(sys.argv[3])); "
          "print(json.dumps(vars(suite.cold_start(w, int(sys.argv[4]), suite.Phase()))))")


def cold_start_fresh(w: Workload, seed: int) -> Phase:
    """cold_start() in a new interpreter; waits for it to exit."""
    paths = [str(Path(sys.modules["surfacesim"].__file__).parent.parent),
             str(Path(__file__).parent)]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *paths, json.dumps(asdict(w)), str(seed)],
        capture_output=True, text=True, timeout=170, check=True)
    return Phase(**json.loads(proc.stdout.splitlines()[-1]))


def steady(w: Workload, seed: int, batches: int, timer: Stopwatch):
    """One timed pass over the first `batches` steady batches, one
    run_trials call each; returns the timer and each batch's
    (fail_x, fail_z)."""
    verdicts = []
    for k in range(batches):
        row = timer.time(run_trials, w.config(w.batch_windows, seed * SEED_STRIDE + 1 + k)).rows[0]
        verdicts.append((row.fail_x, row.fail_z))
    return timer, verdicts


def build_chain(w: Workload, timed=None):
    """The public set-up chain a sweep point needs before its first window.
    `timed(fn, *args)`, when given, makes each of its five calls."""
    call = timed or (lambda fn, *args: fn(*args))
    lattice = call(build_lattice, w.distance)
    schedule = call(standard_schedule, lattice)
    circuit = call(compile_circuit, lattice, schedule)
    table = call(derive_edge_classes, circuit, preset(MODEL, w.p))
    decoder = call(Decoder, table, w.metric)
    return circuit, table, decoder


def setup_times(w: Workload) -> Phase:
    """The set-up chain, each of its steps timed."""
    phase = Phase()
    build_chain(w, phase.time)
    return phase


def band_failures(w: Workload, verdicts: list[tuple[int, int]]) -> int:
    """All steady windows count as failed when either logical failure
    count leaves the band around the reference rate."""
    n = len(verdicts) * w.batch_windows
    rx, rz = w.fail_rates
    ok = (checks.band_ok(sum(x for x, _ in verdicts), n, rx, w.reference_windows)
          and checks.band_ok(sum(z for _, z in verdicts), n, rz, w.reference_windows))
    return 0 if ok else n


def verdict_failures(w: Workload, passes: list[list[tuple[int, int]]], log) -> int:
    """Decoding the same windows again must give the same verdicts."""
    failed = 0
    for again in passes[1:]:
        for a, b in zip(passes[0], again):
            if a != b:
                failed += w.batch_windows
                log("two decodes of the same windows gave different verdicts")
    return failed


def oracle_failures(w: Workload, seed: int, log) -> int:
    """Re-simulate the first steady windows and check each decode against
    the matching oracle and the residual syndrome."""
    circuit, table, decoder = build_chain(w)
    oracle = checks.MatchingOracle(table, w.metric)
    model = preset(MODEL, w.p)
    rounds = w.config(1, 0).window_rounds
    failed = 0
    for idx in range(w.oracle_windows):
        rng = trial_rng(seed * SEED_STRIDE + 1 + idx // w.batch_windows,
                        idx % w.batch_windows)
        res = simulate_window(circuit, model, rng, rounds)
        outcome = decoder.decode(res.history, res.frame, collect_matches=True)
        problems = oracle.check(res.history, outcome)
        if problems:
            failed += 1
            log(f"window {idx}: " + "; ".join(problems))
    return failed


def _counts(w: Workload, verdicts: list[tuple[int, int]]) -> dict:
    return {"cold_windows": w.cold_windows, "settle_windows": w.settle_windows,
            "steady_batches": len(verdicts),
            "steady_windows": len(verdicts) * w.batch_windows,
            "fail_x": sum(x for x, _ in verdicts),
            "fail_z": sum(z for _, z in verdicts),
            "oracle_windows": w.oracle_windows, "rounds": w.rounds}


def run_untraced(w: Workload, seed: int, seconds: float, log) -> dict:
    """End-to-end metrics; tracing is off.  Settling builds this process's
    harness; every round cold-starts a new interpreter.  Each time is the
    sum over its pieces of the piece's median adjusted time."""
    n = w.batches(seconds, w.rounds)
    colds, setups, passes, verdicts = [], [], [], []
    settle(w, seed)
    for _ in range(w.rounds):
        colds.append(cold_start_fresh(w, seed))
        setups.append(setup_times(w))
        phase, v = steady(w, seed, n, Phase())
        passes.append(phase)
        verdicts.append(v)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = (band_failures(w, verdicts[0]) + verdict_failures(w, verdicts, log)
              + oracle_failures(w, seed, log))
    for label, phases in (("cold start", colds), ("set-up", setups), ("steady pass", passes)):
        log(f"{label:12s} wall {[round(ph.wall, 3) for ph in phases]} s, "
            f"adjusted {[round(ph.adjusted, 3) for ph in phases]} s")
    windows = n * w.batch_windows
    return {
        "attempted": w.rounds * windows + w.oracle_windows,
        "failed": failed,
        "metrics": {
            "windows_per_s": (windows / adjusted_total(passes), "windows/s"),
            "cold_start_s": (adjusted_total(colds), "s"),
            "setup_s": (adjusted_total(setups), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        },
        "counts": _counts(w, verdicts[0]),
    }


def run_traced(w: Workload, seed: int, seconds: float, log) -> dict:
    """Per-layer metrics, in wall time.  The cold phase runs traced; the
    steady batches run once to fill the lazy cache, then untraced, then
    traced, so the ratio of the last two throughputs is the tracing
    overhead."""
    with layers.Tracer() as cold:
        cold_start(w, seed, Stopwatch())
    settle(w, seed)
    n = w.batches(seconds, 3)
    _, verdicts = steady(w, seed, n, Stopwatch())
    plain, verdicts_plain = steady(w, seed, n, Stopwatch())
    with layers.Tracer() as traced:
        again, verdicts_again = steady(w, seed, n, Stopwatch())

    failed = (band_failures(w, verdicts)
              + verdict_failures(w, [verdicts, verdicts_plain, verdicts_again], log)
              + oracle_failures(w, seed, log))
    lattice = build_lattice(w.distance)
    for tracer in (cold, traced):
        for i, s in enumerate(tracer.spans):
            if s[layers.NAME] == "decoder.decode" and \
                    not checks.residual_ok(lattice, tracer.notes[i].residual):
                failed += 1
                log(f"window {s[layers.WINDOW]}: residual syndrome is not trivial")

    cost = layers.wrapper_cost()
    metrics = {**layers.cold_metrics(cold, cost),
               **layers.steady_metrics(traced, cost, again.wall),
               "trace.overhead_ratio": (statistics.median(again.walls)
                                        / statistics.median(plain.walls), "ratio")}
    log(f"absent spans: {cold.absent or 'none'}; wrapper cost {cost * 1e6:.3f} us/call")
    for label, tracer in (("cold", cold), ("steady", traced)):
        for name, calls, total, own in tracer.summary(cost):
            log(f"  {label:6s} {name:24s} {calls:9d} calls {total:10.4f} s "
                f"{own:10.4f} s self")
    return {
        "attempted": w.cold_windows + 3 * n * w.batch_windows + w.oracle_windows,
        "failed": failed,
        "metrics": metrics,
        "counts": _counts(w, verdicts),
    }
