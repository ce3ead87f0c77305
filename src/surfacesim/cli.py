"""Command-line front end.

Examples:
    surfacesim --distance 5 --p 0.01 --trials 2000 --seed 1 --out run.csv
    surfacesim --distance 3,5,7 --p 0.008,0.01,0.012,0.014 --trials 30000 \
        --metric dmax --estimate-threshold --out sweep.csv --plot sweep.svg
    surfacesim --dump-lattice 5
    surfacesim --export-edges edges.json --distance 5 --p 0.01

A config file (--config) holds KEY=VALUE lines using the long flag names
without dashes (distance=5, p=0.01, model=balanced ...); command-line
flags override file values.  Exit codes: 0 success, 1 configuration
error, 2 resource or I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .edge_analysis import derive_edge_classes
from .harness import (
    ThresholdError, TrialConfig, emit_results, estimate_threshold, run_sweep,
    sweep_configs,
)
from .lattice import STEP_ORDERS, build_lattice, standard_schedule
from .metric import METRICS
from .sim import compile_circuit

CONFIG_KEYS = {
    "distance": str, "p": str, "model": str, "metric": str, "n": int,
    "trials": int, "rounds": int, "seed": int, "out": str, "format": str,
    "plot": str, "jobs": int, "p2": float, "pi": float, "pm": float,
    "schedule": str,
}


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = CONFIG_KEYS[key](val)
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="surfacesim",
        description="Surface-code Monte Carlo simulator and matching decoder")
    ap.add_argument("--config", help="KEY=VALUE config file; flags override")
    ap.add_argument("--distance", help="code distance, or comma list for a sweep")
    ap.add_argument("--p", help="gate error rate, or comma list for a sweep")
    ap.add_argument("--model", choices=["standard", "balanced", "iontrap", "custom"])
    ap.add_argument("--p2", type=float, help="custom model: CNOT error rate")
    ap.add_argument("--pI", type=float, dest="pi", help="custom model: idle rate")
    ap.add_argument("--pM", type=float, dest="pm", help="custom model: readout rate")
    ap.add_argument("--metric", choices=[*METRICS, "dn"])
    ap.add_argument("--n", type=int, help="extra path links when --metric dn")
    ap.add_argument("--trials", type=int, help="windows per sweep point")
    ap.add_argument("--rounds", type=int, help="noisy rounds per window (default 10*d)")
    ap.add_argument("--seed", type=int, help="master seed")
    ap.add_argument("--schedule", choices=sorted(STEP_ORDERS), help="CNOT step order")
    ap.add_argument("--jobs", type=int, help="parallel worker processes")
    ap.add_argument("--out", help="results file path")
    ap.add_argument("--format", choices=["csv", "json"], help="results format")
    ap.add_argument("--plot", help="write a minimal SVG of the curves here")
    ap.add_argument("--gnuplot", help="write gnuplot-ready curve data here")
    ap.add_argument("--estimate-threshold", action="store_true",
                    help="fit the crossing of rounds-to-failure curves")
    ap.add_argument("--debug-events", action="store_true",
                    help="print per-window detection events")
    ap.add_argument("--dump-lattice", type=int, metavar="D",
                    help="print lattice/schedule description for distance D and exit")
    ap.add_argument("--export-edges", metavar="PATH",
                    help="write the derived edge-class table as JSON and exit")
    return ap


DEFAULTS = {
    "distance": "5", "p": "0.01", "model": "standard", "metric": "dmax",
    "n": None, "trials": 1000, "rounds": None, "seed": 0, "jobs": 1,
    "format": "csv", "schedule": "interleaved",
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    try:
        settings = dict(DEFAULTS)
        if args.config:
            settings.update(_parse_config_file(args.config))
        for key in list(settings) + ["p2", "pi", "pm", "out", "plot", "gnuplot"]:
            cli_val = getattr(args, key, None)
            if cli_val is not None:
                settings[key] = cli_val

        if args.dump_lattice:
            import json as _json
            lat = build_lattice(args.dump_lattice)
            sched = standard_schedule(lat, order=settings["schedule"])
            print(_json.dumps({"lattice": lat.describe(),
                               "schedule": sched.describe()}, indent=2))
            return 0

        metric = settings["metric"]
        if metric == "dn":
            if settings.get("n") is None:
                raise ValueError("--metric dn requires --n")
            metric = f"d{settings['n']}"
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r} "
                             f"(choose from {', '.join(METRICS)}, or dn with --n 0-2)")

        distances = [int(tok) for tok in str(settings["distance"]).split(",")]
        ps = [float(tok) for tok in str(settings["p"]).split(",")]
        custom = None
        if settings["model"] == "custom":
            if any(settings.get(k) is None for k in ("p2", "pi", "pm")):
                raise ValueError("custom model requires --p2, --pI and --pM")
            custom = (settings["p2"], settings["pi"], settings["pm"])

        base = TrialConfig(
            distance=distances[0], p=ps[0], model=settings["model"],
            metric=metric, rounds=settings["rounds"], trials=settings["trials"],
            seed=settings["seed"], schedule_order=settings["schedule"],
            custom_model=custom, jobs=settings["jobs"],
            debug_events=args.debug_events)
        sweep_configs(base, distances, ps)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.export_edges:
            lat = build_lattice(base.distance)
            sched = standard_schedule(lat, order=base.schedule_order)
            table = derive_edge_classes(compile_circuit(lat, sched),
                                        base.error_model())
            with open(args.export_edges, "w") as fh:
                fh.write(table.to_json())
            print(f"edge table written to {args.export_edges}")
            return 0

        traces: list[str] = []
        stats = run_sweep(base, distances, ps, trace_sink=traces)
        if traces:
            # Event traces go to stderr so stdout stays pure CSV/JSON.
            print("\n".join(traces), file=sys.stderr)
        text = emit_results(stats, fmt=settings["format"],
                            path=settings.get("out"),
                            plot_path=settings.get("plot"),
                            gnuplot_path=settings.get("gnuplot"))
        if not settings.get("out"):
            print(text, end="")
        if args.estimate_threshold:
            for logical in ("x", "z"):
                try:
                    fit = estimate_threshold(stats, logical=logical)
                    print(f"p_th ({logical}) = {fit['p_th']:.4%} "
                          f"+/- {fit['sigma']:.4%}  "
                          f"(pairwise: {[f'{c:.4%}' for c in fit['pairwise']]})",
                          file=sys.stderr)
                except ThresholdError as exc:
                    print(f"threshold fit ({logical}) failed: {exc}",
                          file=sys.stderr)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2

    return 0


if __name__ == "__main__":
    sys.exit(main())
