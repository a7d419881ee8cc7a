"""Runs one workload in this process and reduces it to named metrics.

A run is: set up ``SETUP_REPEATS`` times (``setup_s`` is the median),
compute the reference answers, then repeat the workload's fixed op list
— a *round* — until ``--seconds`` of wall time have passed.  Rounds make
the work counters comparable: every round does the same ops from the
same state, so a counter that differs between two rounds of one run is
a determinism failure, not noise.

End-to-end numbers come from untraced rounds only.  With ``--trace 1``
rounds alternate untraced / traced: the probes in :mod:`.probes` are
installed for the traced ones (and for the last set-up repeat), the
per-layer numbers come from those, and the ratio of the two round times
is the tracing overhead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from . import metrics
from .common import Round
from .nav_index import NavIndex
from .probes import Tracer, own_seconds
from .scan_cold import ScanCold
from .serve_mixed import ServeMixed
from .session_cache import SessionCache

#: ``setup_s`` is the median of this many set-ups
SETUP_REPEATS = 5

WORKLOADS = {
    "scan_cold": ScanCold,
    "nav_index": NavIndex,
    "session_cache": SessionCache,
    "serve_mixed": ServeMixed,
}

def _matcher_dispatch() -> Optional[Dict[str, int]]:
    try:
        from repro.core.matcher import matcher_dispatch_counts
    except ImportError:
        return None
    return matcher_dispatch_counts()


def _repeat_failures(keys, rounds: List[Round]) -> List[str]:
    """Counters in *keys* that differ between round 0 and a later round."""
    first = rounds[0].exact
    return [
        f"round {index}: {key} = {round_.exact.get(key, 0)}, "
        f"round 0 had {first.get(key, 0)}"
        for index, round_ in enumerate(rounds[1:], start=1)
        for key in keys
        if round_.exact.get(key, 0) != first.get(key, 0)
    ]


def _class_drift(rounds: List[Round]) -> float:
    """Largest move of an answer-class count between rounds, as a share of ops."""
    ops = len(rounds[0].samples)
    return max(
        (
            max(r.exact.get(key, 0) for r in rounds)
            - min(r.exact.get(key, 0) for r in rounds)
        )
        / ops
        for key in ("answer_exact", "answer_derived", "answer_miss")
    )


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    out_dir: Optional[str] = None,
) -> dict:
    """One run of one workload; returns the result document."""
    tracer = Tracer() if trace else None
    workload = WORKLOADS[name](seed, tiny)
    try:
        return _run(workload, seconds, tracer, out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()


def _run(workload, seconds: float, tracer: Optional[Tracer], out_dir) -> dict:
    name = workload.name
    setup_seconds: List[float] = []
    for repeat in range(SETUP_REPEATS):
        workload.teardown()
        traced_setup = tracer is not None and repeat == SETUP_REPEATS - 1
        if traced_setup:
            tracer.phase = "setup"
            tracer.install()
            handle = tracer.open("setup")
        start = perf_counter()
        workload.setup()
        setup_seconds.append(perf_counter() - start)
        if traced_setup:
            tracer.close(handle)
            tracer.uninstall()
            tracer.phase = "run"
    start = perf_counter()
    workload.prepare()
    reference_seconds = perf_counter() - start

    untraced: List[Round] = []
    traced: List[Round] = []
    dispatch_before = _matcher_dispatch()
    deadline = perf_counter() + seconds
    while True:
        workload.tracer = None
        untraced.append(workload.run_round())
        if tracer is not None:
            tracer.install()
            workload.tracer = tracer
            traced.append(workload.run_round())
            tracer.uninstall()
        if perf_counter() >= deadline:
            break
    dispatch_after = _matcher_dispatch()

    rounds = untraced + traced
    samples = [sample for round_ in rounds for sample in round_.samples]
    failed = sum(1 for sample in samples if not sample.ok)
    notes = [note for round_ in rounds for note in round_.notes]
    repeat_failures = _repeat_failures(workload.exact_repeat, untraced)
    if traced:
        repeat_failures += _repeat_failures(workload.exact_repeat, traced)
    result = {
        "workload": name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": tracer is not None,
        "correct": failed == 0 and not repeat_failures,
        "attempted": len(samples),
        "failed": failed,
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0].samples),
        "reference_seconds": reference_seconds,
        "setup_seconds": setup_seconds,
        "repeat_failures": repeat_failures,
        "class_drift": _class_drift(untraced),
        "notes": sorted(set(notes))[:20],
    }
    if tracer is None:
        values = metrics.end_to_end(untraced, setup_seconds)
        result["classes"] = _class_report(untraced)
    else:
        records = tracer.records()
        extras: Dict[str, float] = {
            "storage_bytes": getattr(workload, "storage_bytes", 0),
            "events": getattr(workload, "events", 0),
        }
        if dispatch_before is not None and dispatch_after is not None:
            # traced and untraced rounds run the same ops, so the share over
            # the whole timed phase is the share of the traced rounds
            made = {
                kind: count - dispatch_before.get(kind, 0)
                for kind, count in dispatch_after.items()
            }
            extras["matcher_compiled_share"] = made.get("compiled", 0) / max(
                1, sum(made.values())
            )
        values = metrics.per_layer(traced, untraced, records, tracer.dead_spans(), extras)
        result["probes_missing"] = list(tracer.missing)
        result["classes"] = _class_report(traced)
        result["root_check"] = _root_check(records)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            with open(Path(out_dir) / f"trace_{name}.json", "w") as handle:
                json.dump({"workload": name, "spans": records}, handle)
    result["metrics"] = {
        key: {"value": value, "unit": metrics.UNITS[key]}
        for key, value in values.items()
    }
    return result


def _class_report(rounds: List[Round]) -> dict:
    """Answer-class shares and where ranks 50 / 95 fall among them.

    In sorted-latency order the classes come exact < derived < miss; the
    50th and 95th percentile ranks should each sit at least ten points
    from a class boundary, or p50/p95 flip between modes from run to run.
    """
    counts = {"exact": 0, "derived": 0, "miss": 0}
    for round_ in rounds:
        for key in counts:
            counts[key] += round_.exact.get(f"answer_{key}", 0)
    total = sum(counts.values())
    if not total:
        return {}
    shares = {key: value / total for key, value in counts.items()}
    inner = [
        edge
        for edge in (shares["exact"], shares["exact"] + shares["derived"])
        if 0.0 < edge < 1.0
    ]
    margins = {
        f"p{round(rank * 100)}": min((abs(rank - edge) for edge in inner), default=1.0)
        for rank in (0.50, 0.95)
    }
    return {"shares": shares, "rank_margin": margins}


def _root_check(records: List[dict]) -> dict:
    """Self times under each root must add up to the root's duration."""
    by_id = {record["id"]: record for record in records}
    root_of: Dict[int, int] = {}
    totals: Dict[int, float] = {}
    for record in records:  # a thread's spans come parents first
        root = root_of.get(record["parent"], record["id"])
        root_of[record["id"]] = root
        totals[root] = totals.get(root, 0.0) + own_seconds(record)
    duration = sum(
        by_id[root]["end"] - by_id[root]["start"] for root in totals
    )
    self_sum = sum(totals.values())
    return {
        "root_seconds": duration,
        "self_seconds": self_sum,
        "relative_gap": abs(self_sum - duration) / duration if duration else 0.0,
    }
