"""Spans around the program's module boundaries, recorded from outside.

A Tracer replaces a fixed set of names where the program looks them up
(module globals and class attributes) with wrappers that record a span
per call: name, start, end, parent span and window index.  Spans stay in
memory; `summary()`, `cold_metrics()` and `steady_metrics()` turn them
into numbers at the end of a run.  What a wrapper itself costs its caller
is measured once per run (`wrapper_cost`) and taken off the parent spans,
so self times describe the program rather than the tracing.  Leaving the `with` block puts every original back, so an
untraced measurement after it runs the unmodified program.

A name a later version of the program no longer has is listed in
`absent` and simply records no spans.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, attribute path, span name).  `_max_weight_matching` is imported
# inside `_solve_blossom` at call time, so patching the module attribute
# reaches it; the other functions are looked up as module globals.
POINTS = (
    ("surfacesim.harness", "simulate_window", "sim.window"),
    ("surfacesim.harness", "derive_edge_classes", "edge_analysis.derive"),
    ("surfacesim.harness", "Decoder", "decoder.build"),
    ("surfacesim.decoder", "Decoder.decode", "decoder.decode"),
    ("surfacesim.metric", "MetricCache.pair_weight", "metric.pair_weight"),
    ("surfacesim.metric", "MetricCache.boundary_weight", "metric.boundary_weight"),
    ("surfacesim.metric", "d_max", "metric.d_max"),
    ("surfacesim.metric", "path_sum", "metric.path_sum"),
    ("surfacesim.decoder", "_solve_dp", "decoder.dp"),
    ("surfacesim.matching", "_max_weight_matching", "matching.solve"),
)

NAME, START, END, PARENT, WINDOW = range(5)
NOTED = ("sim.window", "decoder.decode", "edge_analysis.derive", "matching.solve")


def _note(span: str, args, result):
    """What a span keeps of its call besides the timing."""
    if span == "sim.window":
        return result.history
    if span == "decoder.decode":
        return result
    if span == "edge_analysis.derive":
        return sum(len(result.pair_classes[g]) + len(result.boundary_classes[g])
                   for g in ("x", "z"))
    if span == "matching.solve":
        return (args[0], len(args[1]))  # (nodes, edges)
    return None


class Tracer:
    """Records spans while active; restores the program on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.notes: dict[int, object] = {}
        self.absent: list[str] = []
        self.window = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, path, span in POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            own = attr in vars(owner)
            self._patches.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _wrap(self, span: str, fn):
        spans, stack, notes = self.spans, self._stack, self.notes
        noted = span in NOTED
        new_window = span == "sim.window"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if new_window:
                self.window += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span, t0, t1, parent, self.window)
            if noted:
                notes[idx] = _note(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self, wrapper_cost: float) -> list[float]:
        """Span durations less `wrapper_cost` per span nested inside them,
        so a parent is not charged for the tracing of its children."""
        nested = [0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):  # children follow parents
            parent = self.spans[i][PARENT]
            if parent >= 0:
                nested[parent] += 1 + nested[i]
        return [s[END] - s[START] - wrapper_cost * n
                for s, n in zip(self.spans, nested)]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def summary(self, wrapper_cost: float) -> list[tuple[str, int, float, float]]:
        """(span name, calls, total s, self s) per span name."""
        dur = self.durations(wrapper_cost)
        own = list(dur)
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= d
        rows: dict[str, list] = {}
        for s, d, o in zip(self.spans, dur, own):
            row = rows.setdefault(s[NAME], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += o
        return [(name, *vals) for name, vals in sorted(rows.items())]


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds to its caller, measured on a no-op."""
    def noop():
        return None

    clock = time.perf_counter
    traced = Tracer()._wrap("noop", noop)
    best = {}
    for label, fn in (("bare", noop), ("traced", traced)):
        runs = []
        for _ in range(5):
            t0 = clock()
            for _ in range(calls):
                fn()
            runs.append(clock() - t0)
        best[label] = min(runs)
    return max(0.0, (best["traced"] - best["bare"]) / calls)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _events(history) -> int:
    return sum(int((s[:, 1:] != s[:, :-1]).sum()) for s in history.signs.values())


def _sum(tracer: Tracer, dur: list[float], name: str) -> float:
    return float(sum(d for s, d in zip(tracer.spans, dur) if s[NAME] == name))


def cold_metrics(cold: Tracer, cost: float) -> dict[str, tuple[float, str]]:
    """Set-up and lazy-fill numbers of the cold phase: the harness build
    plus the cold-start windows.  `cost` is wrapper_cost()."""
    spans = cold.spans
    dur = cold.durations(cost)
    pair_idx = {i for i, s in enumerate(spans) if s[NAME] == "metric.pair_weight"}
    missed = {s[PARENT] for s in spans
              if s[NAME] in ("metric.d_max", "metric.path_sum") and s[PARENT] in pair_idx}
    classes = [n for i, n in cold.notes.items() if spans[i][NAME] == "edge_analysis.derive"]
    return {
        "edge_analysis.derive_s": (_sum(cold, dur, "edge_analysis.derive"), "s"),
        "edge_analysis.link_classes": (float(sum(classes)), "count"),
        "metric.d_max_calls": (float(cold.count("metric.d_max")), "count"),
        "metric.d_max_s": (_sum(cold, dur, "metric.d_max"), "s"),
        "metric.cache_hit_ratio": (
            1.0 - len(missed) / len(pair_idx) if pair_idx else 1.0, "ratio"),
        "metric.path_sum_calls": (float(cold.count("metric.path_sum")), "count"),
        "metric.path_sum_s": (_sum(cold, dur, "metric.path_sum"), "s"),
        "metric.boundary_weight_s": (_sum(cold, dur, "metric.boundary_weight"), "s"),
        "decoder.build_s": (_sum(cold, dur, "decoder.build"), "s"),
    }


def steady_metrics(steady: Tracer, cost: float, wall: float) -> dict[str, tuple[float, str]]:
    """Per-window numbers of a traced steady phase whose run_trials calls
    took `wall` seconds.  `cost` is wrapper_cost()."""
    spans = steady.spans
    dur = steady.durations(cost)
    per = max(1, steady.window + 1)
    by_name: dict[str, list[float]] = {}
    for s, d in zip(spans, dur):
        by_name.setdefault(s[NAME], []).append(d)
    decode_idx = {i for i, s in enumerate(spans) if s[NAME] == "decoder.decode"}
    # Time of the decode spans' direct children, by child span name.
    in_decode: dict[str, float] = {}
    for s, d in zip(spans, dur):
        if s[PARENT] in decode_idx:
            in_decode[s[NAME]] = in_decode.get(s[NAME], 0.0) + d
    sizes = [steady.notes[i] for i, s in enumerate(spans) if s[NAME] == "matching.solve"]
    events = sum(_events(steady.notes[i]) for i, s in enumerate(spans)
                 if s[NAME] == "sim.window")
    sim = by_name.get("sim.window", [])
    decode = by_name.get("decoder.decode", [])
    solve = by_name.get("matching.solve", [])
    decode_s = sum(decode)
    metric_s = (in_decode.get("metric.pair_weight", 0.0)
                + in_decode.get("metric.boundary_weight", 0.0))
    top = sum(d for s, d in zip(spans, dur) if s[PARENT] < 0)
    ms = 1e3
    return {
        "sim.window_ms_p50": (_p50(sim) * ms, "ms"),
        "sim.window_ms_p90": (_p90(sim) * ms, "ms"),
        "sim.events_per_window": (events / per, "count/window"),
        "metric.pair_weight_calls": (steady.count("metric.pair_weight") / per, "count/window"),
        "metric.pair_weight_ms": (sum(by_name.get("metric.pair_weight", [])) * ms / per,
                                  "ms/window"),
        "decoder.decode_ms_p50": (_p50(decode) * ms, "ms"),
        "decoder.decode_ms_p90": (_p90(decode) * ms, "ms"),
        "decoder.self_ms": ((decode_s - metric_s - in_decode.get("matching.solve", 0.0))
                            * ms / per, "ms/window"),
        "decoder.dp_solves": (steady.count("decoder.dp") / per, "count/window"),
        "decoder.dp_ms": (sum(by_name.get("decoder.dp", [])) * ms / per, "ms/window"),
        "matching.solves": (len(solve) / per, "count/window"),
        "matching.solve_ms_p50": (_p50(solve) * ms, "ms"),
        "matching.solve_ms_p90": (_p90(solve) * ms, "ms"),
        "matching.nodes_max": (float(max((n for n, _ in sizes), default=0)), "count"),
        "matching.edges_max": (float(max((m for _, m in sizes), default=0)), "count"),
        "matching.decode_share": (in_decode.get("matching.solve", 0.0) / decode_s
                                  if decode_s else 0.0, "ratio"),
        "harness.overhead_ms": ((wall - top - cost * len(spans)) * ms / per, "ms/window"),
    }
