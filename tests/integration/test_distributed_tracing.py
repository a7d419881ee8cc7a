"""Integration tests: one query-wide trace across workers and shards.

The coordinator ships a SpanContext in every task payload; workers record
their stage spans under a RemoteSpanCollector and the coordinator grafts
the returned subtrees (origin-marked) under its scan span.  These tests
pin the end-to-end contract on every backend: worker spans from every
shard, per-query resource profiles, no double-counted stage time, zero
work-counter drift, and bit-identical results with tracing on.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import SOLAPEngine
from repro.obs.analyze import stage_timings
from repro.obs.spans import trace_to_json
from repro.service import QueryService, ServiceConfig
from tests.conftest import figure8_spec, make_figure8_db


def run_traced(backend, shards, **config_kwargs):
    config = ServiceConfig(
        max_workers=2,
        shards=shards,
        executor_backend=backend,
        **config_kwargs,
    )
    with QueryService(make_figure8_db(), config) as service:
        cuboid, stats = service.execute(
            figure8_spec(("X", "Y")), "cb", analyze=True
        )
    return cuboid, stats


def remote_roots(root):
    return [node for node in root.walk() if node.origin is not None]


class TestScatterGatherTracing:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_worker_spans_from_every_shard(self, backend):
        __, stats = run_traced(backend, shards=2)
        grafted = remote_roots(stats.trace)
        fanout = stats.extra["shard_fanout"]
        assert len(grafted) == fanout
        assert sorted(node.origin["shard"] for node in grafted) == list(
            range(fanout)
        )
        for node in grafted:
            assert node.origin["backend"] == backend
            assert node.origin["pid"]
            for stage in ("attach", "rebuild", "match", "fold"):
                assert node.find(f"worker.{stage}") is not None, stage

    def test_process_backend_worker_spans(self):
        __, stats = run_traced("process", shards=2)
        grafted = remote_roots(stats.trace)
        assert len(grafted) == stats.extra["shard_fanout"]
        for node in grafted:
            assert node.origin["backend"] == "process"
            for stage in ("attach", "rebuild", "match", "fold"):
                assert node.find(f"worker.{stage}") is not None, stage
        # the kernel's own spans ride under worker.match
        assert any(
            node.find("cb.scan") is not None for node in grafted
        )

    def test_resource_profile_in_stats_extra(self):
        __, stats = run_traced("serial", shards=2)
        profile = stats.extra["resource_profile"]
        fanout = stats.extra["shard_fanout"]
        assert profile["backend"] == "serial"
        assert profile["fanout"] == fanout
        assert len(profile["workers"]) == fanout
        assert profile["sequences_scanned"] == stats.sequences_scanned
        assert profile["rows_scanned"] > 0
        assert profile["bytes_scanned"] > 0
        assert profile["cells_merged"] > 0
        for worker in profile["workers"]:
            assert worker["match_s"] >= 0.0
            assert worker["sequences_scanned"] >= 1
        json.dumps(profile)

    def test_plan_renders_distributed_breakdown(self):
        __, stats = run_traced("serial", shards=2)
        rendered = stats.plan.render()
        assert "distributed execution:" in rendered
        assert "shard 0" in rendered and "shard 1" in rendered
        assert "rebuild" in rendered and "match" in rendered
        assert stats.plan.to_dict()["extra"]["resource_profile"]

    def test_accounted_excludes_remote_stage_time(self):
        __, stats = run_traced("serial", shards=2)
        root = stats.trace
        local = stage_timings(root)
        # no stage is counted twice: local stages are unique by name here
        names = [name for name, __s, __d in local]
        assert len(names) == len(set(names))
        accounted = sum(duration for __n, __s, duration in local)
        total = root.duration_seconds
        assert accounted <= total * 1.01
        # accounted% stays meaningful (the scatter wall time lives in
        # the local aggregation span, not only in worker subtrees)
        assert accounted >= total * 0.5

    def test_trace_exports_to_json_with_origin(self):
        __, stats = run_traced("serial", shards=2)
        doc = json.loads(trace_to_json(stats.trace, stats))
        assert doc["trace_schema"] == 2

        def walk(node):
            yield node
            for child in node.get("children", ()):
                yield from walk(child)

        origins = [
            node["origin"] for node in walk(doc["root"]) if "origin" in node
        ]
        assert len(origins) == stats.extra["shard_fanout"]
        assert all("pid" in origin for origin in origins)

    def test_results_bit_identical_and_counters_undrifted(self):
        spec = figure8_spec(("X", "Y"))
        baseline, base_stats = SOLAPEngine(make_figure8_db()).execute(
            spec, "cb"
        )
        for backend in ("serial", "process"):
            traced, stats = run_traced(backend, shards=2)
            assert traced.cells == baseline.cells, backend
            assert (
                stats.sequences_scanned == base_stats.sequences_scanned
            ), backend

    def test_untraced_query_has_no_trace_or_profile(self):
        config = ServiceConfig(
            max_workers=2,
            shards=2,
            executor_backend="serial",
            flight_recorder_capacity=0,  # no sampling promotion
        )
        with QueryService(make_figure8_db(), config) as service:
            __, stats = service.execute(figure8_spec(("X", "Y")), "cb")
        assert stats.trace is None
        assert "resource_profile" not in stats.extra


class TestFlightRecorderService:
    def test_sampling_promotes_untraced_queries(self):
        config = ServiceConfig(flight_recorder_capacity=8)
        with QueryService(make_figure8_db(), config) as service:
            __, stats = service.execute(figure8_spec(("X", "Y")), "cb")
            # the bucket starts full, so the first query is promoted
            assert stats.trace is not None
            assert len(service.recorder) == 1
            summary = service.recorder.recent()[0]
            assert summary["sampled"] is True
            assert summary["trace_id"]

    def test_explicit_analyze_recorded_not_sampled(self):
        config = ServiceConfig(flight_recorder_capacity=8)
        with QueryService(make_figure8_db(), config) as service:
            service.execute(figure8_spec(("X", "Y")), "cb", analyze=True)
            summary = service.recorder.recent()[0]
            assert summary["sampled"] is False

    def test_recorded_entry_carries_profile_for_sharded_query(self):
        config = ServiceConfig(
            max_workers=2,
            shards=2,
            executor_backend="serial",
            flight_recorder_capacity=8,
        )
        with QueryService(make_figure8_db(), config) as service:
            service.execute(figure8_spec(("X", "Y")), "cb", analyze=True)
            entry = service.recorder.get(service.recorder.recent()[0]["id"])
        assert entry["profile"]["fanout"] == entry["summary"]["shard_fanout"]
        assert entry["plan"] is not None
        json.dumps(entry)
