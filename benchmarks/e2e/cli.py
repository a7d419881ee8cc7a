"""Command line of the end-to-end benchmark.

One workload, one run (what ``BENCHMARK.json``'s command invokes)::

    python3 benchmarks/e2e/__main__.py --workload scan_cold --seed 7 \\
        --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.

All four workloads, each run in a fresh subprocess so peak RSS and
caches never leak from one into the next::

    python -m benchmarks.e2e --runs 3 --out bench_e2e_out

writes ``report.json`` (per-metric median, min and max over the runs,
plus one traced run per workload and its ``trace_<workload>.json``), and
``--compare A.json B.json`` diffs two such reports against the fixed
bounds.  ``--selftest`` runs the whole thing at tiny sizes in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import compare, metrics
from .common import REPO_ROOT
from .harness import WORKLOADS, run_workload

DEFAULT_SEED = 7
DEFAULT_SECONDS = 20
#: what the contract line prints for a metric whose probe target is gone
MISSING_VALUE = -1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--out", help="directory for report.json and trace_<workload>.json")
    parser.add_argument("--tiny", action="store_true", help="tiny data sizes (smoke runs)")
    parser.add_argument("--selftest", action="store_true", help="all workloads, tiny, < 20 s")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--full", action="store_true",
        help="last line is the whole result document (what the suite runner reads)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.selftest:
        args.tiny, args.runs, args.seconds = True, 1, 0.5
    if args.workload:
        return _single(args)
    return _suite(args)


# ---------------------------------------------------------------------------
# one workload, this process
# ---------------------------------------------------------------------------


def _single(args) -> int:
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.out
    )
    print(
        f"# {result['workload']} seed={result['seed']} rounds={result['rounds']} "
        f"ops/round={result['ops_per_round']} attempted={result['attempted']} "
        f"failed={result['failed']} reference_s={result['reference_seconds']:.3f}"
    )
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>14s} {entry['unit']}")
    for key in (
        "classes", "class_drift", "root_check", "probes_missing", "repeat_failures", "notes",
    ):
        if result.get(key):
            print(f"# {key}: {json.dumps(result[key])}")
    if args.full:
        print(json.dumps(result))
        return 0
    contract = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {
                "value": MISSING_VALUE if entry["value"] is None else entry["value"],
                "unit": entry["unit"],
            }
            for name, entry in result["metrics"].items()
        },
    }
    print(json.dumps(contract))
    return 0


# ---------------------------------------------------------------------------
# all workloads, one subprocess per run
# ---------------------------------------------------------------------------


def _child(workload: str, args, trace: int) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).with_name("__main__.py")),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--full",
    ]
    if args.tiny:
        command.append("--tiny")
    if args.out and trace:
        command += ["--out", args.out]
    done = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} (trace={trace}) exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summarise(runs: List[dict]) -> Dict[str, dict]:
    summary: Dict[str, dict] = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        known = [value for value in values if value is not None]
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(known) if known else None,
            "min": min(known) if known else None,
            "max": max(known) if known else None,
            "values": values,
        }
    return summary


def _suite(args) -> int:
    report = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "tiny": args.tiny,
        "workloads": {},
    }
    all_correct = True
    for workload in WORKLOADS:
        plain = [_child(workload, args, 0) for _ in range(args.runs)]
        traced = _child(workload, args, 1)
        attempted = sum(run["attempted"] for run in plain + [traced])
        failed = sum(run["failed"] for run in plain + [traced])
        correct = all(run["correct"] for run in plain + [traced])
        all_correct = all_correct and correct
        entry = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": _summarise(plain),
            "per_layer": _summarise([traced]),
            "classes": traced.get("classes"),
            "root_check": traced.get("root_check"),
            "probes_missing": traced.get("probes_missing", []),
            "repeat_failures": [f for run in plain + [traced] for f in run["repeat_failures"]],
            "notes": sorted({note for run in plain + [traced] for note in run["notes"]}),
        }
        report["workloads"][workload] = entry
        print(f"== {workload}: correct={correct} attempted={attempted} failed={failed}")
        for section in ("end_to_end", "per_layer"):
            for name, stat in entry[section].items():
                if stat["median"] is None:
                    print(f"  {name:36s} {'null':>14s} {stat['unit']}")
                else:
                    print(
                        f"  {name:36s} {stat['median']:14.6g} {stat['unit']:6s}"
                        f" [{stat['min']:.6g} .. {stat['max']:.6g}]"
                    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(Path(args.out) / "report.json", "w") as handle:
            json.dump(report, handle, indent=1)
    known = {name for name, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    emitted = set()
    for entry in report["workloads"].values():
        emitted |= set(entry["end_to_end"]) | set(entry["per_layer"])
    if emitted != known:
        print(f"metric names drifted: {sorted(emitted ^ known)}", file=sys.stderr)
        return 1
    return 0 if all_correct else 1
