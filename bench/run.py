"""Layered Monte Carlo benchmark for surfacesim.

    python3 bench/run.py --workload sweep-d5 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  Human-readable lines
and a provenance record come first; the last line of standard output is
the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="pathsum-d3, sweep-d5 or target-d7")
    ap.add_argument("--seed", type=int, default=1,
                    help="seeds every window; 9001 is held out for confirming claims")
    ap.add_argument("--seconds", type=float, default=6.0,
                    help="steady-phase measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "surfacesim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    from suite import MODEL
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "workload": workload.name, "distance": workload.distance, "p": workload.p,
        "metric": workload.metric, "model": MODEL,
        "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba_imports": has_numba,
        "route": "numba" if has_numba and not os.environ.get("SURFACESIM_NO_NUMBA")
                 else "pure-python",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "surfacesim" / "__init__.py").is_file():
        print(f"bench: program source not found under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    workload = suite.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    run = suite.run_traced if args.trace else suite.run_untraced
    out = run(workload, args.seed, args.seconds, log)
    prov = provenance(workload, args.seed, args.seconds, args.trace)
    prov.update(out["counts"])
    for name, (value, unit) in out["metrics"].items():
        log(f"{name:28s} {value:14.6g} {unit}")
    log(json.dumps({"provenance": prov}))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
