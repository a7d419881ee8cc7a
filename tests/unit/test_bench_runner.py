"""Unit tests for the BENCH_*.json harness (benchmarks/run_all + compare)."""

from __future__ import annotations

import json

import pytest

from benchmarks.compare import compare, load
from benchmarks.run_all import BENCH_SCHEMA, machine_fingerprint, percentile


def make_document(p50_by_name, counters=None):
    """A minimal but schema-valid BENCH document for comparator tests."""
    return {
        "bench_schema": BENCH_SCHEMA,
        "benchmarks": {
            name: {
                "p50_ms": p50,
                "p95_ms": p50 * 1.2,
                "counters": dict(counters or {}),
            }
            for name, p50 in p50_by_name.items()
        },
    }


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([42.0], 0.95) == 42.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_p95_of_twenty(self):
        values = [float(i) for i in range(1, 21)]
        assert percentile(values, 0.95) == pytest.approx(19.05)


class TestMachineFingerprint:
    def test_has_required_keys(self):
        fingerprint = machine_fingerprint()
        assert set(fingerprint) >= {"platform", "python", "machine", "cpu_count"}
        assert fingerprint["cpu_count"] >= 1


class TestCompare:
    def test_identical_documents_are_clean(self):
        doc = make_document({"a": 10.0, "b": 50.0}, {"sequences_scanned": 7})
        lines, regressions, drifts = compare(doc, doc, 0.25, 2.0)
        assert regressions == []
        assert drifts == []
        assert any("a" in line for line in lines)

    def test_regression_past_threshold_flagged(self):
        base = make_document({"slow": 100.0})
        cand = make_document({"slow": 150.0})
        __, regressions, __d = compare(base, cand, 0.25, 2.0)
        assert regressions == ["slow"]

    def test_regression_within_threshold_passes(self):
        base = make_document({"slow": 100.0})
        cand = make_document({"slow": 120.0})
        __, regressions, __d = compare(base, cand, 0.25, 2.0)
        assert regressions == []

    def test_noise_floor_not_gated(self):
        base = make_document({"tiny": 0.5})
        cand = make_document({"tiny": 5.0})  # 10x slower but sub-floor
        lines, regressions, __d = compare(base, cand, 0.25, 2.0)
        assert regressions == []
        assert any("below noise floor" in line for line in lines)

    def test_counter_drift_detected_even_when_fast(self):
        base = make_document({"a": 100.0}, {"sequences_scanned": 10})
        cand = make_document({"a": 99.0}, {"sequences_scanned": 11})
        lines, regressions, drifts = compare(base, cand, 0.25, 2.0)
        assert regressions == []
        assert drifts == ["a"]
        assert any("counter drift" in line for line in lines)

    def test_missing_benchmark_is_a_drift(self):
        base = make_document({"a": 10.0, "gone": 10.0})
        cand = make_document({"a": 10.0})
        __, __r, drifts = compare(base, cand, 0.25, 2.0)
        assert drifts == ["gone"]

    def test_new_benchmark_is_reported_not_gated(self):
        base = make_document({"a": 10.0})
        cand = make_document({"a": 10.0, "fresh": 10.0})
        lines, regressions, drifts = compare(base, cand, 0.25, 2.0)
        assert regressions == [] and drifts == []
        assert any("new benchmark" in line for line in lines)


class TestLoad:
    def test_load_round_trips(self, tmp_path):
        doc = make_document({"a": 10.0})
        path = tmp_path / "BENCH_test.json"
        path.write_text(json.dumps(doc))
        assert load(path)["benchmarks"]["a"]["p50_ms"] == 10.0

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"bench_schema": 999, "benchmarks": {}}))
        with pytest.raises(SystemExit):
            load(path)

    def test_missing_benchmarks_section_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"bench_schema": BENCH_SCHEMA}))
        with pytest.raises(SystemExit):
            load(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            load(tmp_path / "nope.json")

    def test_committed_baseline_is_valid(self):
        from pathlib import Path

        baseline = Path(__file__).parents[2] / (
            "benchmarks/baselines/BENCH_baseline.json"
        )
        doc = load(baseline)
        assert doc["quick"] is True
        # 8 workload sections + the schema-2 micro-bench sections
        # (matcher_kernel_compiled and join_intersect_*) + the schema-3
        # segment-store sections (storage_attach_* / storage_scan_*)
        # + the schema-4 scatter-gather sections (shards_scatter_gather_n*)
        # + the schema-5 tracing sections (tracing_overhead_*)
        # + the schema-6 semantic-cache sections (cache_replay_*)
        assert len(doc["benchmarks"]) == 24
        for name, record in doc["benchmarks"].items():
            assert record["p50_ms"] >= 0
            if name.startswith(("join_intersect_", "storage_attach_")):
                continue
            assert record["counters"]["sequences_scanned"] >= 0
        # zero work-counter drift between the two representations
        assert (
            doc["benchmarks"]["storage_scan_segment"]["counters"]
            == doc["benchmarks"]["storage_scan_memory"]["counters"]
        )
        assert "queryset_a" in doc["crossover"]
