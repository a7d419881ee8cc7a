"""``solap`` — command-line front end for the S-OLAP library.

Subcommands:

* ``generate`` — produce a self-describing dataset directory from one of
  the built-in generators (synthetic / transit / clickstream);
* ``info`` — summarise a dataset (schema, hierarchies, event count), with
  optional probe queries to exercise and report the engine caches;
* ``query`` — run an S-OLAP query file against a dataset through the
  query service (deadline-aware) and print the tabulated cuboid plus
  execution statistics;
* ``advise`` — recommend which inverted indices to materialise offline
  for a workload of query files;
* ``service-stats`` — run a workload through the concurrent query
  service and print its metrics report (latency histogram, cache hit
  ratios, session/eviction counters) as text, JSON, or Prometheus text
  format (``--format prom``);
* ``serve`` — serve queries over HTTP+JSON (sessions, async jobs,
  streamed results) together with ``/metrics`` (Prometheus),
  ``/healthz``, ``/varz`` and ``/debug/traces`` on the same port,
  optionally warmed by a workload of query files, with structured JSON
  query logging and slow-query capture;
* ``segment`` — manage mmap-attachable columnar segment stores
  (``write`` a dataset into segments, ``info`` a store, ``verify``
  checksums and structure).

Every command that takes a dataset accepts either a ``schema.json`` +
``events.jsonl`` directory or a segment-store directory (detected by its
``MANIFEST.json``); segment stores attach zero-copy via ``mmap``.

Example::

    solap generate transit --out data/transit --cards 300 --days 5
    solap query data/transit examples/q1.solap --strategy ii --limit 10
    solap segment write data/transit data/transit-seg
    solap query data/transit-seg examples/q1.solap --backend process --shards 4 --workers 4
    solap service-stats data/transit examples/q1.solap --repeat 3
    solap serve data/transit examples/q1.solap --port 8080 --repeat 2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.engine import SOLAPEngine
from repro.datagen import (
    ClickstreamConfig,
    SyntheticConfig,
    TransitConfig,
    generate_clickstream,
    generate_event_database,
    generate_transit,
    remove_crawler_sessions,
)
from repro.errors import ServiceError, SOLAPError, StorageError
from repro.io import load_dataset, save_cuboid, save_dataset
from repro.optimizer import advise_for_workload
from repro.ql import parse_query
from repro.service import QueryService, ServiceConfig
from repro.storage import StorageManager, attach_store, is_segment_store


def _positive_seconds(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("timeout must be > 0 seconds")
    return value


def _load_db(path: str):
    """A dataset directory *or* a segment store, by sniffing the manifest.

    Segment stores attach by ``mmap`` (lazy, zero-copy); plain dataset
    directories load eagerly via :func:`load_dataset`.
    """
    if is_segment_store(path):
        return attach_store(path)
    return load_dataset(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solap",
        description="Pattern-based OLAP on sequence data (SIGMOD 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset directory")
    gen.add_argument(
        "kind", choices=("synthetic", "transit", "clickstream"),
        help="which built-in generator to use",
    )
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--sequences", type=int, default=1000,
                     help="synthetic: D (number of sequences)")
    gen.add_argument("--length", type=int, default=20,
                     help="synthetic: L (mean sequence length)")
    gen.add_argument("--symbols", type=int, default=100,
                     help="synthetic: I (domain size)")
    gen.add_argument("--theta", type=float, default=0.9,
                     help="synthetic: Zipf skew")
    gen.add_argument("--cards", type=int, default=200, help="transit: cards")
    gen.add_argument("--days", type=int, default=7, help="transit: days")
    gen.add_argument("--sessions", type=int, default=5000,
                     help="clickstream: sessions")

    info = sub.add_parser("info", help="summarise a dataset directory")
    info.add_argument("dataset", help="dataset directory")
    info.add_argument(
        "--queries",
        nargs="*",
        default=(),
        metavar="FILE",
        help="probe query files to execute; their cache behaviour "
        "(sequence-cache hits/misses, index-registry bytes) is reported",
    )

    query = sub.add_parser("query", help="run a query file against a dataset")
    query.add_argument("dataset", help="dataset directory")
    query.add_argument("queryfile", help="file containing one S-OLAP query")
    query.add_argument(
        "--strategy", choices=("auto", "cb", "ii", "cost"), default="auto"
    )
    query.add_argument("--limit", type=int, default=20,
                       help="rows of the tabulation to print")
    query.add_argument("--save", help="also write the cuboid as JSON")
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the execution plan instead of running the query",
    )
    query.add_argument(
        "--analyze",
        action="store_true",
        help="run the query under tracing and print the EXPLAIN ANALYZE "
        "plan (per-stage wall times, row flow, cache outcomes) after "
        "the result",
    )
    query.add_argument(
        "--od-matrix",
        action="store_true",
        help="render the result as an origin-destination matrix "
        "(requires exactly two pattern dimensions)",
    )
    query.add_argument(
        "--timeout",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="per-query deadline; the scan is cancelled cooperatively "
        "once the budget is spent",
    )
    query.add_argument(
        "--workers",
        type=int,
        default=1,
        help="size of the shard-task pool (only used with --shards >= 2)",
    )
    query.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="execution backend for shard tasks: inline, or a process "
        "pool for true multi-core matching",
    )
    query.add_argument(
        "--shards",
        type=int,
        default=0,
        help="logical shards for scatter-gather execution (partial "
        "S-cuboids merged under the aggregate algebra); 0 or 1 runs "
        "the serial kernel",
    )

    advise = sub.add_parser(
        "advise",
        help="recommend indices and cuboid materializations for a workload",
    )
    advise.add_argument("dataset", help="dataset directory")
    advise.add_argument("queryfiles", nargs="*", help="workload query files")
    advise.add_argument(
        "--budget-mb", type=float, default=64.0, help="index byte budget"
    )
    advise.add_argument(
        "--log",
        default=None,
        metavar="FILE",
        help="mine a JSON-lines query log (obs.logging stream) into "
        "per-spec stats and advise cuboid materializations by "
        "benefit-per-byte under the budget",
    )

    stats = sub.add_parser(
        "service-stats",
        help="run a workload through the query service and print metrics",
    )
    stats.add_argument("dataset", help="dataset directory")
    stats.add_argument("queryfiles", nargs="+", help="workload query files")
    stats.add_argument(
        "--strategy", choices=("auto", "cb", "ii", "cost"), default="auto"
    )
    stats.add_argument(
        "--repeat", type=int, default=2,
        help="passes over the workload (>1 shows cache hit ratios)",
    )
    stats.add_argument(
        "--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
        help="per-query deadline for every workload query",
    )
    stats.add_argument(
        "--workers", type=int, default=4,
        help="size of the shard-task pool (only used with --shards >= 2)",
    )
    stats.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="execution backend for shard tasks",
    )
    stats.add_argument(
        "--shards",
        type=int,
        default=0,
        help="logical shards for scatter-gather execution "
        "(0 or 1 runs the serial kernel)",
    )
    stats.add_argument(
        "--format",
        choices=("text", "json", "prom"),
        default="text",
        help="report format: human text, JSON snapshot, or Prometheus "
        "text exposition (scrapeable without the HTTP endpoint)",
    )

    serve_api = sub.add_parser(
        "serve",
        help="serve S-OLAP queries over HTTP+JSON (sessions, async "
        "submit/poll/cancel, streamed progressive results)",
    )
    serve_api.add_argument("dataset", help="dataset directory")
    serve_api.add_argument(
        "queryfiles",
        nargs="*",
        help="workload query files run through the service once the "
        "server is up (optional)",
    )
    serve_api.add_argument(
        "--repeat", type=int, default=1,
        help="passes over the workload before settling into serving",
    )
    serve_api.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 binds an ephemeral port, printed at start)",
    )
    serve_api.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_api.add_argument(
        "--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
        help="default per-query deadline (requests may override)",
    )
    serve_api.add_argument(
        "--max-concurrent", type=int, default=4,
        help="execution slots; the admission queue sheds beyond "
        "max-concurrent + queue-depth with HTTP 429",
    )
    serve_api.add_argument(
        "--job-history", type=int, default=256,
        help="finished async jobs kept pollable before pruning",
    )
    serve_api.add_argument(
        "--slow-query",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="emit a slow_query log record (with the EXPLAIN ANALYZE "
        "plan) for queries slower than this",
    )
    serve_api.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON request/query-lifecycle logs on stderr",
    )
    serve_api.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve this long, then exit (default: until interrupted)",
    )

    segment = sub.add_parser(
        "segment",
        help="manage mmap-attachable columnar segment stores",
    )
    seg_sub = segment.add_subparsers(dest="segment_command", required=True)
    seg_write = seg_sub.add_parser(
        "write", help="write a dataset into a new segment store"
    )
    seg_write.add_argument("dataset", help="source dataset directory")
    seg_write.add_argument("out", help="segment-store directory to create")
    seg_write.add_argument(
        "--cluster-by",
        action="append",
        default=[],
        metavar="ATTR[:LEVEL]",
        help="freeze the sequence pipeline into the store: CLUSTER BY "
        "attribute (repeatable; LEVEL defaults to the base level)",
    )
    seg_write.add_argument(
        "--sequence-by",
        action="append",
        default=[],
        metavar="ATTR[:asc|desc]",
        help="SEQUENCE BY ordering key for the frozen pipeline "
        "(repeatable; default ascending)",
    )
    seg_write.add_argument(
        "--group-by",
        action="append",
        default=[],
        metavar="ATTR[:LEVEL]",
        help="SEQUENCE GROUP BY attribute for the frozen pipeline "
        "(repeatable)",
    )
    seg_info = seg_sub.add_parser(
        "info", help="summarise a segment store (segments, bytes, layout)"
    )
    seg_info.add_argument("store", help="segment-store directory")
    seg_verify = seg_sub.add_parser(
        "verify",
        help="full integrity check: checksums, dictionaries, layout",
    )
    seg_verify.add_argument(
        "store", help="segment-store directory or a single .seg file"
    )

    trace = sub.add_parser(
        "trace",
        help="run a query under tracing and export the span tree as JSON, "
        "or browse a running service's flight recorder",
    )
    trace.add_argument("dataset", nargs="?", help="dataset directory")
    trace.add_argument(
        "queryfile", nargs="?", help="file containing one S-OLAP query"
    )
    trace.add_argument(
        "--strategy", choices=("auto", "cb", "ii", "cost"), default="auto"
    )
    trace.add_argument(
        "--out",
        help="write the JSON trace to this file (default: stdout)",
    )
    trace.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the query N times (>1 exercises the warm/cached paths); "
        "every run is a child of the exported trace",
    )
    trace.add_argument(
        "--workers",
        type=int,
        default=1,
        help="size of the shard-task pool (only used with --shards >= 2)",
    )
    trace.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="execution backend for shard tasks; worker-side spans are "
        "grafted into the exported trace",
    )
    trace.add_argument(
        "--shards",
        type=int,
        default=0,
        help="logical shards for scatter-gather execution "
        "(0 or 1 runs the serial kernel)",
    )
    trace.add_argument(
        "--recent",
        action="store_true",
        help="list recent traces from a running service's flight "
        "recorder instead of executing a query",
    )
    trace.add_argument(
        "--id",
        dest="trace_id",
        default=None,
        metavar="TRACE_ID",
        help="fetch one recorded trace by id from a running service",
    )
    trace.add_argument(
        "--server",
        default="http://127.0.0.1:8080",
        help="base URL of a running `solap serve` (for --recent / --id)",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=20,
        help="entries to list with --recent",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "synthetic":
        db = generate_event_database(
            SyntheticConfig(
                I=args.symbols,
                L=args.length,
                theta=args.theta,
                D=args.sequences,
                seed=args.seed,
            )
        )
    elif args.kind == "transit":
        db = generate_transit(
            TransitConfig(n_cards=args.cards, n_days=args.days, seed=args.seed)
        )
    else:
        db = remove_crawler_sessions(
            generate_clickstream(
                ClickstreamConfig(n_sessions=args.sessions, seed=args.seed)
            )
        )
    directory = save_dataset(db, args.out)
    print(f"wrote {len(db)} events to {directory}")
    return 0


def _print_cache_stats(engine: SOLAPEngine) -> None:
    """The engine's cache counters (shared by ``info`` and ``query``)."""
    stats = engine.cache_stats()
    seq = stats["sequence_cache"]
    repo = stats["repository"]
    sem = stats["semantic_cache"]
    registry = stats["index_registry"]
    print("caches:")
    print(
        f"  sequence cache: {seq['entries']}/{seq['capacity']} entries, "
        f"hits={seq['hits']}, misses={seq['misses']}, "
        f"hit-ratio={seq['hit_ratio']:.2f}"
    )
    print(
        f"  cuboid repository: {repo['entries']}/{repo['capacity']} cuboids, "
        f"{repo['bytes'] / 1e6:.3f} MB, hits={repo['hits']}, "
        f"misses={repo['misses']}, policy={repo['policy']}"
    )
    if sem["enabled"]:
        derived = ", ".join(
            f"{op}={n}" for op, n in sorted(sem["derivations"].items())
        )
        print(
            f"  semantic cache: hits={sem['hits_total']}, "
            f"derivations={sem['derivations_total']}"
            + (f" ({derived})" if derived else "")
            + f", rejects={sem['rejects_total']}"
        )
    print(
        f"  index registries: {registry['indices']} indices over "
        f"{registry['pipelines']} pipeline(s), "
        f"{registry['bytes'] / 1e6:.3f} MB"
    )


def _cmd_info(args: argparse.Namespace) -> int:
    db = _load_db(args.dataset)
    print(f"dataset: {args.dataset}")
    print(f"events:  {len(db)}")
    print("dimensions:")
    for dimension in db.schema.dimensions.values():
        levels = " -> ".join(dimension.hierarchy.levels)
        print(f"  {dimension.name}: {levels}")
    if db.schema.measures:
        print(f"measures: {', '.join(db.schema.measures)}")
    engine = SOLAPEngine(db)
    for path in args.queries:
        spec = parse_query(Path(path).read_text(), db.schema)
        engine.execute(spec)
    _print_cache_stats(engine)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    db = _load_db(args.dataset)
    text = Path(args.queryfile).read_text()
    spec = parse_query(text, db.schema)
    engine = SOLAPEngine(db)
    if args.explain:
        from repro.core.explain import explain

        print(explain(engine, spec).render())
        return 0
    with QueryService(
        engine,
        ServiceConfig(
            max_workers=max(args.workers, 1),
            default_timeout_seconds=args.timeout,
            executor_backend=args.backend,
            shards=max(args.shards, 0),
        ),
    ) as service:
        cuboid, stats = service.execute(
            spec, args.strategy, analyze=args.analyze
        )
    if args.od_matrix:
        from repro.reports import od_matrix_from_cuboid

        group_keys = cuboid.group_keys() or ((),)
        for group_key in group_keys:
            if group_key:
                print(f"group {group_key}:")
            print(od_matrix_from_cuboid(cuboid, group_key).render())
            print()
    else:
        print(cuboid.tabulate(limit=args.limit))
        print()
    print(stats.summary())
    if args.analyze and stats.plan is not None:
        print()
        print(stats.plan.render())
    if args.save:
        save_cuboid(cuboid, args.save)
        print(f"cuboid written to {args.save}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    db = _load_db(args.dataset)
    budget = int(args.budget_mb * 1024 * 1024)
    if not args.queryfiles and not args.log:
        print("advise: provide workload query files and/or --log FILE")
        return 2
    workload = [
        parse_query(Path(path).read_text(), db.schema)
        for path in args.queryfiles
    ]
    if args.log:
        from repro.optimizer.advisor import advise_cuboid_materializations
        from repro.optimizer.workload import mine_workload, replay_specs

        mined = mine_workload(args.log)
        print(
            f"query log: {mined.queries} queries over "
            f"{len(mined.by_spec)} distinct spec(s) "
            f"({mined.skipped_events} non-query events, "
            f"{mined.skipped_lines} unparseable lines skipped)"
        )
        cuboid_recs = advise_cuboid_materializations(
            mined, byte_budget=budget, schema=db.schema
        )
        if cuboid_recs:
            print(f"{len(cuboid_recs)} advised cuboid materialization(s):")
            for rec in cuboid_recs:
                print(f"  {rec}")
        else:
            print("no cuboid materializations advised within the budget")
        # Replayable specs join the index workload below so the index
        # advisor sees logged traffic too.
        workload.extend(spec for __, spec in replay_specs(args.log, db.schema))
    if not workload:
        return 0
    engine = SOLAPEngine(db)
    recommendations = advise_for_workload(
        engine, workload, byte_budget=budget
    )
    if not recommendations:
        print("no indices recommended within the budget")
        return 0
    print(f"{len(recommendations)} recommended index(es):")
    for rec in recommendations:
        print(f"  {rec}")
    return 0


def _cmd_service_stats(args: argparse.Namespace) -> int:
    db = _load_db(args.dataset)
    specs = [
        parse_query(Path(path).read_text(), db.schema)
        for path in args.queryfiles
    ]
    config = ServiceConfig(
        max_workers=max(args.workers, 1),
        default_timeout_seconds=args.timeout,
        executor_backend=args.backend,
        shards=max(args.shards, 0),
    )
    with QueryService(db, config) as service:
        sessions = [service.open_session(spec, args.strategy) for spec in specs]
        for __ in range(max(args.repeat, 1)):
            for session_id in sessions:
                service.session_run(session_id)
        if args.format == "json":
            import json

            print(json.dumps(service.snapshot(), indent=2, default=repr))
        elif args.format == "prom":
            print(service.registry.render_prometheus(), end="")
        else:
            print(service.render_report())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    db = _load_db(args.dataset)
    specs = [
        parse_query(Path(path).read_text(), db.schema)
        for path in args.queryfiles
    ]
    if args.log_json:
        from repro.obs.logging import configure_logging

        configure_logging(stream=sys.stderr)
    config = ServiceConfig(
        default_timeout_seconds=args.timeout,
        slow_query_seconds=args.slow_query,
        max_concurrent=max(args.max_concurrent, 1),
    )
    with QueryService(db, config) as service:
        from repro.serve import SolapServer

        server = SolapServer(
            service,
            host=args.host,
            port=args.port,
            job_history_limit=max(args.job_history, 1),
        ).start()
        # The URL line is machine-readable on purpose: with --port 0 it
        # is how scripts (and the CI smoke job) discover the real port.
        print(
            f"serving S-OLAP queries on {server.url} "
            "(/v1/sessions /v1/queries /v1/stream /metrics)",
            flush=True,
        )
        try:
            for __ in range(max(args.repeat, 1)):
                for spec in specs:
                    service.execute(spec, "auto")
            if specs:
                print(
                    f"workload done: {service.metrics['queries_ok']} ok, "
                    f"{service.metrics['queries_failed']} failed",
                    flush=True,
                )
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                print("serving until interrupted (Ctrl-C to exit)", flush=True)
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    return 0


def _parse_attr_level(text: str, schema) -> tuple:
    """``attr`` or ``attr:level`` → an (attribute, level) pair."""
    attr, sep, level = text.partition(":")
    if not sep:
        level = schema.hierarchy(attr).base_level
    return (attr, level)


def _parse_order_key(text: str) -> tuple:
    """``attr``, ``attr:asc`` or ``attr:desc`` → an (attribute, asc) pair."""
    attr, sep, direction = text.partition(":")
    if not sep or direction == "asc":
        return (attr, True)
    if direction == "desc":
        return (attr, False)
    raise StorageError(
        f"bad --sequence-by {text!r}: direction must be 'asc' or 'desc'"
    )


def _cmd_segment(args: argparse.Namespace) -> int:
    if args.segment_command == "write":
        db = _load_db(args.dataset)
        if bool(args.cluster_by) != bool(args.sequence_by):
            raise StorageError(
                "--cluster-by and --sequence-by must be given together "
                "(both define the frozen pipeline layout)"
            )
        cluster_by = tuple(
            _parse_attr_level(text, db.schema) for text in args.cluster_by
        )
        sequence_by = tuple(_parse_order_key(text) for text in args.sequence_by)
        group_by = tuple(
            _parse_attr_level(text, db.schema) for text in args.group_by
        )
        manager = StorageManager.write(
            db, args.out,
            cluster_by=cluster_by,
            sequence_by=sequence_by,
            group_by=group_by,
        )
        layout = " + pipeline layout" if cluster_by else ""
        print(
            f"wrote {manager.n_events} events into "
            f"{manager.segments_open} segment(s) at {args.out}{layout}"
        )
        return 0
    if args.segment_command == "info":
        manager = StorageManager.open(args.store)
        from repro.storage import FORMAT_VERSION

        print(f"segment store: {args.store}")
        print(f"format version: {FORMAT_VERSION}")
        print(
            f"events: {manager.n_events} across "
            f"{manager.segments_open} segment(s), "
            f"{manager.bytes_mapped} bytes mapped"
        )
        for name, reader in zip(manager.segment_names, manager._segments):
            layout = reader.layout()
            extra = (
                f", layout: {layout.n_sequences} sequences"
                if layout is not None
                else ""
            )
            print(
                f"  {name}: {reader.n_events} events, "
                f"{reader.bytes_mapped} bytes, "
                f"{len(reader.sections)} sections{extra}"
            )
        print("dictionaries:")
        for attr in manager.schema.dimensions:
            print(f"  {attr}: {len(manager.dictionary_values(attr))} values")
        return 0
    # verify: a store directory, or one bare segment file
    target = Path(args.store)
    if target.is_file():
        from repro.storage import SegmentReader

        with SegmentReader(target) as reader:
            reader.verify()
        print(f"segment ok: {target} ({reader.n_events} events)")
        return 0
    manager = StorageManager.open(target)
    manager.verify()
    print(
        f"store ok: {manager.n_events} events, "
        f"{manager.segments_open} segment(s), checksums verified"
    )
    return 0


def _fetch_json(url: str):
    """GET *url* and parse the JSON body (also on HTTP error responses)."""
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=10.0) as response:
            return json.loads(response.read().decode("utf-8")), 200
    except HTTPError as error:
        try:
            return json.loads(error.read().decode("utf-8")), error.code
        except ValueError:
            return {"error": str(error)}, error.code
    except (URLError, OSError) as error:
        raise ServiceError(
            f"cannot reach the service at {url}: {error}"
        ) from error


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.spans import Tracer, trace_to_dict

    if args.recent or args.trace_id:
        base = args.server.rstrip("/")
        if args.trace_id:
            doc, status = _fetch_json(f"{base}/debug/traces/{args.trace_id}")
            if status != 200:
                print(f"error: {doc.get('error', status)}", file=sys.stderr)
                return 2
            print(json.dumps(doc, indent=2))
            return 0
        doc, status = _fetch_json(
            f"{base}/debug/traces?limit={max(args.limit, 1)}"
        )
        if status != 200:
            print(f"error: {doc.get('error', status)}", file=sys.stderr)
            return 2
        traces = doc.get("traces", [])
        if not traces:
            print("no recorded traces")
            return 0
        for entry in traces:
            sampled = " (sampled)" if entry.get("sampled") else ""
            print(
                f"{entry.get('id', '?')}  {entry.get('trace_id', '?'):>12}  "
                f"{entry.get('template', '?'):<24} "
                f"{entry.get('strategy', '?'):<4} "
                f"{entry.get('wall_ms', 0.0):>9.3f} ms  "
                f"{entry.get('backend', 'serial')}"
                f"/{entry.get('shard_fanout', 0)} shard(s){sampled}"
            )
        return 0

    if not args.dataset or not args.queryfile:
        print(
            "error: dataset and queryfile are required unless "
            "--recent or --id is given",
            file=sys.stderr,
        )
        return 2
    db = _load_db(args.dataset)
    spec = parse_query(Path(args.queryfile).read_text(), db.schema)
    stats = None
    config = ServiceConfig(
        max_workers=max(args.workers, 1),
        executor_backend=args.backend,
        shards=max(args.shards, 0),
    )
    with QueryService(db, config) as service:
        with Tracer("request") as tracer:
            for __ in range(max(args.repeat, 1)):
                __cuboid, stats = service.execute(
                    spec, args.strategy, analyze=True
                )
    doc = trace_to_dict(tracer.root, stats)
    payload = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        print(f"trace written to {args.out}")
    else:
        print(payload)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "query": _cmd_query,
    "advise": _cmd_advise,
    "service-stats": _cmd_service_stats,
    "serve": _cmd_serve,
    "segment": _cmd_segment,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SOLAPError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
