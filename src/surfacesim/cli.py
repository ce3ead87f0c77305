"""Command-line front end.

Examples:
    surfacesim --distance 5 --p 0.01 --trials 2000 --seed 1 --out run.csv
    surfacesim --distance 3,5,7 --p 0.008,0.01,0.012,0.014 --trials 30000 \
        --metric dmax --estimate-threshold --out sweep.csv --plot sweep.svg
    surfacesim --dump-lattice 5
    surfacesim --export-edges edges.json --distance 5 --p 0.01

A config file (--config) holds KEY=VALUE lines whose keys are the long
flags that take a value, without the dashes and with their case
(distance=5, p=0.01, pI=0.002 ...).  Each line becomes a --KEY=VALUE
argument ahead of the command line, so one parser checks both and
command-line flags win.  Run defaults are those of harness.TrialConfig.
Exit codes: 0 success, 1 configuration error (bad flag values included),
2 resource or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import harness
from .edge_analysis import derive_edge_classes
from .harness import SweepStats, ThresholdError, TrialConfig, emit_results, estimate_threshold
from .lattice import build_lattice, standard_schedule
from .metric import METRICS
from .noise import PRESET_NAMES
from .sim import compile_circuit


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as ValueError rather than exiting with
    argparse's usage code 2: it is a configuration error like any other."""

    def error(self, message):
        raise ValueError(message)


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _config_args(path: str) -> list[str]:
    """The KEY=VALUE lines of a config file as --KEY=VALUE arguments."""
    args = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE")
            key, val = (part.strip() for part in line.split("=", 1))
            args.append(f"--{key}={val}")
    return args


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="surfacesim", allow_abbrev=False,
        description="Surface-code Monte Carlo simulator and matching decoder")
    ap.add_argument("--config", help="KEY=VALUE config file; flags override")
    ap.add_argument("--distance", type=_ints,
                    help="code distance, or comma list for a sweep")
    ap.add_argument("--p", type=_floats,
                    help="gate error rate, or comma list for a sweep")
    ap.add_argument("--model", choices=[*PRESET_NAMES, "custom"])
    ap.add_argument("--p2", type=float, help="custom model: CNOT error rate")
    ap.add_argument("--pI", type=float, dest="pi", help="custom model: idle rate")
    ap.add_argument("--pM", type=float, dest="pm", help="custom model: readout rate")
    ap.add_argument("--metric", choices=METRICS)
    ap.add_argument("--trials", type=int, help="windows per sweep point")
    ap.add_argument("--rounds", type=int, help="noisy rounds per window (default 10*d)")
    ap.add_argument("--seed", type=int, help="master seed")
    ap.add_argument("--jobs", type=int, help="parallel worker processes")
    ap.add_argument("--out", help="results file path")
    ap.add_argument("--format", choices=["csv", "json"], default="csv",
                    help="results format")
    ap.add_argument("--plot", help="write a minimal SVG of the curves here")
    ap.add_argument("--estimate-threshold", action="store_true",
                    help="fit the crossing of rounds-to-failure curves")
    ap.add_argument("--debug-events", action="store_true",
                    help="print per-window detection events")
    ap.add_argument("--dump-lattice", type=int, metavar="D",
                    help="print lattice/schedule description for distance D and exit")
    ap.add_argument("--export-edges", metavar="PATH",
                    help="write the derived edge-class table as JSON and exit")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()

    try:
        args = ap.parse_args(argv)
        if args.config:
            args = ap.parse_args(_config_args(args.config) + argv)

        if args.dump_lattice is not None:
            lat = build_lattice(args.dump_lattice)
            print(json.dumps({"lattice": lat.describe(),
                              "schedule": standard_schedule(lat).describe()},
                             indent=2))
            return 0

        run = {f.name: getattr(args, f.name) for f in fields(TrialConfig)
               if getattr(args, f.name, None) is not None}
        distances = run.pop("distance", [TrialConfig.distance])
        ps = run.pop("p", [TrialConfig.p])
        rates = (args.p2, args.pi, args.pm)
        if args.model == "custom":
            if None in rates:
                raise ValueError("custom model requires --p2, --pI and --pM")
            run["custom_model"] = rates
        elif rates != (None, None, None):
            raise ValueError("--p2, --pI and --pM need --model custom")
        configs = [TrialConfig(distance=d, p=p, **run) for d in distances for p in ps]
        if args.export_edges is not None and len(configs) > 1:
            raise ValueError("--export-edges writes one table: give one distance and one rate")
        if args.estimate_threshold and (len(set(distances)) < harness.THRESHOLD_MIN_DISTANCES
                                        or len(set(ps)) < harness.THRESHOLD_MIN_RATES):
            raise ValueError(f"--estimate-threshold needs >= {harness.THRESHOLD_MIN_DISTANCES} "
                             f"distances and >= {harness.THRESHOLD_MIN_RATES} rates")
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.export_edges is not None:
            (cfg,) = configs
            lat = build_lattice(cfg.distance)
            table = derive_edge_classes(
                compile_circuit(lat, standard_schedule(lat)), cfg.error_model())
            with open(args.export_edges, "w") as fh:
                fh.write(table.to_json())
            print(f"edge table written to {args.export_edges}")
            return 0

        traces: list[str] | None = [] if args.debug_events else None
        stats = SweepStats(rows=[row for cfg in configs
                                 for row in harness.run_trials(cfg, traces).rows])
        if traces:
            # Event traces go to stderr so stdout stays pure CSV/JSON.
            print("\n".join(traces), file=sys.stderr)
        text = emit_results(stats, fmt=args.format, path=args.out,
                            plot_path=args.plot)
        if not args.out:
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
