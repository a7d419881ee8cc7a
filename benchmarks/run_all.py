#!/usr/bin/env python
"""Unified benchmark runner: one machine-readable ``BENCH_<date>.json``.

Executes the repository's benchmark workloads (the same drivers the
``bench_*`` pytest modules exercise) against pinned synthetic datasets
with fixed seeds, repeats each several times, and emits a
schema-versioned JSON document with per-benchmark p50/p95 wall times,
deterministic work counters (sequences scanned, index bytes built), the
CB-vs-II crossover summary for the iterative QuerySet A chain, and a
machine fingerprint.  ``benchmarks/compare.py`` diffs two such files and
gates CI on regressions.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --quick --out BENCH_ci.json
    PYTHONPATH=src python benchmarks/run_all.py            # full sizes

The ``--quick`` profile is sized for CI (< ~1 minute); the full profile
matches the pytest benchmark suite's dataset sizes.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pickle
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent
if not any(
    (Path(entry) / "repro").is_dir() for entry in sys.path if entry
):  # pragma: no cover - convenience for bare invocations
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro import build_sequence_groups  # noqa: E402
from repro.bench.workloads import (  # noqa: E402
    run_clickstream_exploration,
    run_queryset_a,
    run_queryset_b,
    run_queryset_c,
)
from repro.core.matcher import make_matcher  # noqa: E402
from repro.datagen import (  # noqa: E402
    ClickstreamConfig,
    SyntheticConfig,
    generate_clickstream,
    generate_event_database,
    remove_crawler_sessions,
)
from repro.datagen.synthetic import base_spec  # noqa: E402
from repro.index.inverted import (  # noqa: E402
    build_index,
    join_indices,
    pair_template,
    prefix_template,
)
from repro import SOLAPEngine  # noqa: E402
from repro.storage import StorageManager  # noqa: E402

#: bump when the emitted document's shape changes incompatibly
#: (2: added matcher_kernel_* / join_intersect_* micro-bench sections;
#:  3: added storage_attach_* segment-store sections;
#:  4: added shards_scatter_gather_n* sections;
#:  5: added tracing_overhead_* sections;
#:  6: added cache_replay_{lru,semantic} sections)
BENCH_SCHEMA = 6


class BenchCase:
    """One named benchmark: a driver over a pinned dataset."""

    def __init__(
        self,
        name: str,
        module: str,
        dataset: str,
        runner: Callable[[object], List[object]],
    ):
        self.name = name
        self.module = module
        self.dataset = dataset
        self.runner = runner


def _steps_of(result):
    """Drivers return either [steps] or ([steps], precompute_stats)."""
    if isinstance(result, tuple):
        return result[0]
    return result


def build_cases(quick: bool) -> List[BenchCase]:
    n_queries = 4 if quick else 5
    return [
        BenchCase(
            "table1_clickstream_cb",
            "benchmarks/bench_table1_clickstream.py",
            "clickstream",
            lambda db: _steps_of(run_clickstream_exploration(db, "cb")),
        ),
        BenchCase(
            "table1_clickstream_ii",
            "benchmarks/bench_table1_clickstream.py",
            "clickstream",
            lambda db: _steps_of(run_clickstream_exploration(db, "ii")),
        ),
        BenchCase(
            "queryset_a_cb",
            "benchmarks/bench_fig16_queryset_a_varying_d.py",
            "synthetic",
            lambda db: _steps_of(run_queryset_a(db, "cb", n_queries=n_queries)),
        ),
        BenchCase(
            "queryset_a_ii",
            "benchmarks/bench_fig16_queryset_a_varying_d.py",
            "synthetic",
            lambda db: _steps_of(run_queryset_a(db, "ii", n_queries=n_queries)),
        ),
        BenchCase(
            "queryset_b_cb",
            "benchmarks/bench_queryset_b_rollup_drilldown.py",
            "synthetic",
            lambda db: _steps_of(run_queryset_b(db, "cb")),
        ),
        BenchCase(
            "queryset_b_ii",
            "benchmarks/bench_queryset_b_rollup_drilldown.py",
            "synthetic",
            lambda db: _steps_of(run_queryset_b(db, "ii")),
        ),
        BenchCase(
            "queryset_c_cb",
            "benchmarks/bench_queryset_c_restricted.py",
            "synthetic",
            lambda db: _steps_of(run_queryset_c(db, "cb")),
        ),
        BenchCase(
            "queryset_c_ii",
            "benchmarks/bench_queryset_c_restricted.py",
            "synthetic",
            lambda db: _steps_of(run_queryset_c(db, "ii")),
        ),
    ]


def build_datasets(quick: bool) -> Dict[str, object]:
    """The pinned (fixed-seed) benchmark datasets."""
    synthetic = generate_event_database(
        SyntheticConfig(I=100, L=20, theta=0.9, D=500 if quick else 2000)
    )
    clickstream = remove_crawler_sessions(
        generate_clickstream(
            ClickstreamConfig(
                n_sessions=1200 if quick else 5000,
                seed=2000,
                p_start_assortment=0.18,
                p_assortment_to_legwear=0.28,
            )
        )
    )
    return {"synthetic": synthetic, "clickstream": clickstream}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 1]) of a small sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def run_case(case: BenchCase, db, repeats: int) -> dict:
    """Run one case *repeats* times; wall time per run, counters once."""
    runs_ms: List[float] = []
    counters: Optional[dict] = None
    for __ in range(repeats):
        start = time.perf_counter()
        steps = case.runner(db)
        runs_ms.append((time.perf_counter() - start) * 1000.0)
        if counters is None:
            counters = {
                "steps": len(steps),
                "sequences_scanned": sum(s.sequences_scanned for s in steps),
                "index_bytes_built": sum(s.index_bytes_built for s in steps),
                "cells": sum(s.cells for s in steps),
            }
    return {
        "module": case.module,
        "dataset": case.dataset,
        "runs_ms": [round(ms, 3) for ms in runs_ms],
        "p50_ms": round(percentile(runs_ms, 0.50), 3),
        "p95_ms": round(percentile(runs_ms, 0.95), 3),
        "mean_ms": round(statistics.fmean(runs_ms), 3),
        "counters": counters,
    }


def build_micro_benches(datasets: Dict[str, object]) -> Dict[str, tuple]:
    """Kernel micro-benchmarks isolating the matcher and join inner loops.

    ``matcher_kernel_compiled`` times one full scan of the synthetic
    sequences through the matcher; ``join_intersect_*`` times one L2 ⋈ L2
    join with the intersection kernel pinned to sorted galloping vs bitmap
    AND.  The sequence pipeline and index builds happen outside the timed
    region so the sections measure exactly the kernels.

    Returns ``name -> (dataset, fn)`` where ``fn()`` performs one timed
    run and returns its deterministic counters.
    """
    synthetic = datasets["synthetic"]
    spec = base_spec(("X", "Y", "Z"))
    groups = build_sequence_groups(
        synthetic, None, list(spec.cluster_by), list(spec.sequence_by)
    )
    sequences = list(groups.all_sequences())

    def matcher_scan() -> dict:
        matcher = make_matcher(spec.template, synthetic)
        cells = 0
        for sequence in sequences:
            cells += len(matcher.assignments(sequence))
        return {"sequences_scanned": len(sequences), "cells": cells}

    group = groups.single_group()
    left = build_index(group, prefix_template(spec.template, 2), synthetic.schema)
    pair = build_index(group, pair_template(spec.template, 1), synthetic.schema)
    target = prefix_template(spec.template, 3)

    def join_run(kernel: str):
        def run() -> dict:
            joined = join_indices(
                left, pair, target, synthetic.schema, kernel=kernel
            )
            return {
                "cells": len(joined),
                "index_bytes_built": joined.size_bytes(),
            }

        return run

    return {
        "matcher_kernel_compiled": ("synthetic", matcher_scan),
        "join_intersect_sorted": ("synthetic", join_run("sorted")),
        "join_intersect_bitmap": ("synthetic", join_run("bitmap")),
    }


def run_micro(fn, dataset: str, repeats: int) -> dict:
    """Time one micro-bench *repeats* times (same shape as ``run_case``)."""
    runs_ms: List[float] = []
    counters: Optional[dict] = None
    for __ in range(repeats):
        start = time.perf_counter()
        result = fn()
        runs_ms.append((time.perf_counter() - start) * 1000.0)
        if counters is None:
            counters = result
    return {
        "module": "benchmarks/run_all.py",
        "dataset": dataset,
        "runs_ms": [round(ms, 3) for ms in runs_ms],
        "p50_ms": round(percentile(runs_ms, 0.50), 3),
        "p95_ms": round(percentile(runs_ms, 0.95), 3),
        "mean_ms": round(statistics.fmean(runs_ms), 3),
        "counters": counters,
    }


def build_storage_benches(quick: bool, root: Path) -> Dict[str, tuple]:
    """Segment-store benchmarks: worker cold-start and steady-state scans.

    ``storage_attach_pickle_ship`` is the cost a spawn-started process
    worker pays today for an in-memory database: serialise every column,
    ship the blob, rebuild it on the other side (measured in-process as
    ``pickle.dumps`` + ``pickle.loads`` — the IPC copy only adds to it).
    ``storage_attach_mmap`` is the same readiness milestone for a segment
    store: open the manifest, validate two fixed-size records per segment
    and ``mmap`` the columns — O(1) in the data size.  The quick profile
    uses D=2000 sequences; the full profile D=100000 (the issue's 10^5
    acceptance point).

    ``storage_scan_memory`` / ``storage_scan_segment`` run the identical
    CB query over both representations; their deterministic counters must
    match exactly (zero work-counter drift) and the wall times bound the
    steady-state price of reading through the mapped columns.
    """
    config = SyntheticConfig(I=100, L=10, theta=0.9, D=2000 if quick else 100_000)
    db = generate_event_database(config)
    spec = base_spec(("X", "Y"))
    store_root = root / "store"
    manager = StorageManager.write(
        db,
        store_root,
        cluster_by=spec.cluster_by,
        sequence_by=spec.sequence_by,
    )
    manager.attach()  # touch every column once so mmap pages are warm

    def pickle_ship() -> dict:
        blob = pickle.dumps(db)
        shipped = pickle.loads(blob)
        return {"events": len(shipped), "blob_bytes": len(blob)}

    def mmap_attach() -> dict:
        # a fresh manager each run: the per-process memo would otherwise
        # reduce this to a dict lookup and measure nothing
        attached_manager = StorageManager.open(store_root)
        attached = attached_manager.attach()
        return {
            "events": len(attached),
            "blob_bytes": len(pickle.dumps(attached)),
        }

    def scan(database):
        def run() -> dict:
            cuboid, stats = SOLAPEngine(database).execute(spec, "cb")
            return {
                "sequences_scanned": stats.sequences_scanned,
                "cells": len(cuboid),
            }

        return run

    return {
        "storage_attach_pickle_ship": ("storage_synthetic", pickle_ship),
        "storage_attach_mmap": ("storage_synthetic", mmap_attach),
        "storage_scan_memory": ("storage_synthetic", scan(db)),
        "storage_scan_segment": ("storage_synthetic", scan(manager.attach())),
    }


def build_shard_benches(datasets: Dict[str, object]) -> Dict[str, tuple]:
    """Scatter-gather benchmarks at fan-outs 1/2/4/8 (inline execution).

    Each section runs the same CB query through a
    :class:`~repro.shard.ScatterGatherCoordinator` with N logical shards
    on the serial (inline) backend — fan-out 1 installs no coordinator:
    it is the bare kernel — so the wall times isolate the
    plan/scatter/merge overhead from pool parallelism and the
    deterministic counters prove zero work drift: every fan-out scans
    exactly the sequences the single-shard scan does and produces the
    same cell count.  ``benchmarks/bench_shards.py`` is the companion
    that measures actual multi-core speedup on the process backend.
    """
    from repro.service import SerialExecutorBackend
    from repro.shard import ScatterGatherCoordinator

    synthetic = datasets["synthetic"]
    spec = base_spec(("X", "Y"))

    def sharded_scan(shards: int):
        def run() -> dict:
            engine = SOLAPEngine(synthetic, use_repository=False)
            if shards >= 2:
                engine.scatter_gather = ScatterGatherCoordinator(
                    shards, SerialExecutorBackend(), min_sequences=1
                )
            cuboid, stats = engine.execute(spec, "cb")
            return {
                "sequences_scanned": stats.sequences_scanned,
                "cells": len(cuboid),
                "fanout": stats.extra.get("shard_fanout", 1),
            }

        return run

    return {
        f"shards_scatter_gather_n{n}": ("synthetic", sharded_scan(n))
        for n in (1, 2, 4, 8)
    }


def build_tracing_benches(datasets: Dict[str, object]) -> Dict[str, tuple]:
    """Tracing overhead on the hot query path, at three levels.

    ``tracing_overhead_disabled`` runs a CB query with no tracer active —
    each instrumented site costs one context-var read plus an identity
    check; ``tracing_overhead_spans`` runs the same query under
    ``analyze=True`` so every stage span is recorded;
    ``tracing_overhead_recorder`` additionally records the finished
    trace (trace JSON + resource profile + plan) into a
    :class:`~repro.obs.recorder.FlightRecorder` ring, the full
    always-on flight-recorder cost.  Comparing the three p50s bounds
    what permanent instrumentation costs a query; the deterministic
    counters pin that tracing never changes the work done.
    """
    from repro.obs.recorder import FlightRecorder

    synthetic = datasets["synthetic"]
    spec = base_spec(("X", "Y"))

    def traced_query(analyze: bool, record: bool):
        def run() -> dict:
            engine = SOLAPEngine(synthetic, use_repository=False)
            cuboid, stats = engine.execute(spec, "cb", analyze=analyze)
            counters = {
                "sequences_scanned": stats.sequences_scanned,
                "cells": len(cuboid),
                "spans": (
                    sum(1 for __ in stats.trace.walk()) if stats.trace else 0
                ),
            }
            if record:
                recorder = FlightRecorder(capacity=4)
                counters["recorded"] = int(
                    recorder.record(stats=stats, query_id="bench") is not None
                )
            return counters

        return run

    return {
        "tracing_overhead_disabled": (
            "synthetic", traced_query(False, False),
        ),
        "tracing_overhead_spans": ("synthetic", traced_query(True, False)),
        "tracing_overhead_recorder": ("synthetic", traced_query(True, True)),
    }


def build_cache_replay_benches() -> Dict[str, tuple]:
    """Iterative-exploration replay: semantic cuboid cache vs plain LRU.

    Replays the pinned-seed session from
    :mod:`repro.bench.cache_replay` on a fresh engine per run, once with
    the exact-key LRU repository only and once with the semantic cache
    (derivations from cached cuboids) enabled.  The deterministic
    counters pin the hit mix (``exact_hits`` / ``derived_hits``) and the
    total scan work; ``work_drift`` must stay 0 — cache answers never
    touch base data.  The wall-time comparison between the two sections
    is the hit-rate/p50 story; the hard bit-identity gate lives in
    ``benchmarks/bench_cache_replay.py --check``.
    """
    from repro.bench.cache_replay import build_replay_db, replay_counters

    replay_db = build_replay_db(120)
    return {
        "cache_replay_lru": (
            "cache_replay", lambda: replay_counters(replay_db, semantic=False),
        ),
        "cache_replay_semantic": (
            "cache_replay", lambda: replay_counters(replay_db, semantic=True),
        ),
    }


def crossover_summary(db, n_queries: int) -> dict:
    """Cumulative CB-vs-II runtimes along QuerySet A and the crossover step.

    The paper's Figure 16 story: CB's cumulative cost grows linearly with
    the chain while II amortises its index builds, so past some step the
    II curve dips below CB.  Reported per-step so the comparator can
    check the *shape*, not just a scalar.
    """
    cb_steps = _steps_of(run_queryset_a(db, "cb", n_queries=n_queries))
    ii_steps = _steps_of(run_queryset_a(db, "ii", n_queries=n_queries))

    def cumulative(steps):
        total = 0.0
        out = []
        for step in steps:
            total += step.runtime_ms
            out.append(round(total, 3))
        return out

    cb_cum = cumulative(cb_steps)
    ii_cum = cumulative(ii_steps)
    crossover_step = None
    for index, (cb, ii) in enumerate(zip(cb_cum, ii_cum)):
        if ii < cb:
            crossover_step = index + 1
            break
    return {
        "labels": [step.label for step in cb_steps],
        "cb_cumulative_ms": cb_cum,
        "ii_cumulative_ms": ii_cum,
        "crossover_step": crossover_step,
    }


def machine_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_all(quick: bool, repeats: int, crossover_queries: int) -> dict:
    datasets = build_datasets(quick)
    document = {
        "bench_schema": BENCH_SCHEMA,
        "generated_by": "benchmarks/run_all.py",
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "quick": quick,
        "repeats": repeats,
        "machine": machine_fingerprint(),
        "benchmarks": {},
    }
    for case in build_cases(quick):
        print(f"  running {case.name} ...", flush=True)
        document["benchmarks"][case.name] = run_case(
            case, datasets[case.dataset], repeats
        )
    for name, (dataset, fn) in build_micro_benches(datasets).items():
        print(f"  running {name} ...", flush=True)
        document["benchmarks"][name] = run_micro(fn, dataset, repeats)
    for name, (dataset, fn) in build_shard_benches(datasets).items():
        print(f"  running {name} ...", flush=True)
        document["benchmarks"][name] = run_micro(fn, dataset, repeats)
    for name, (dataset, fn) in build_tracing_benches(datasets).items():
        print(f"  running {name} ...", flush=True)
        document["benchmarks"][name] = run_micro(fn, dataset, repeats)
    for name, (dataset, fn) in build_cache_replay_benches().items():
        print(f"  running {name} ...", flush=True)
        document["benchmarks"][name] = run_micro(fn, dataset, repeats)
    with tempfile.TemporaryDirectory(prefix="solap-bench-store-") as tmp:
        for name, (dataset, fn) in build_storage_benches(
            quick, Path(tmp)
        ).items():
            print(f"  running {name} ...", flush=True)
            document["benchmarks"][name] = run_micro(fn, dataset, repeats)
    print("  running crossover summary ...", flush=True)
    document["crossover"] = {
        "queryset_a": crossover_summary(
            datasets["synthetic"], crossover_queries
        )
    }
    return document


def default_output_path() -> Path:
    stamp = datetime.date.today().isoformat()
    return Path(f"BENCH_{stamp}.json")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI profile: smaller pinned datasets and fewer repeats",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="runs per benchmark (default: 3 quick, 5 full)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output file (default: ./BENCH_<date>.json)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (3 if args.quick else 5)
    out = args.out or default_output_path()

    started = time.perf_counter()
    document = run_all(args.quick, repeats, crossover_queries=4)
    elapsed = time.perf_counter() - started
    document["runner_seconds"] = round(elapsed, 3)

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    print(
        f"wrote {out} ({len(document['benchmarks'])} benchmarks, "
        f"{elapsed:.1f}s total)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
