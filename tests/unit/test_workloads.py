"""Unit tests for the experiment drivers (QuerySets A/B/C, clickstream)."""

import pytest

from repro.datagen import (
    ClickstreamConfig,
    SyntheticConfig,
    generate_clickstream,
    generate_event_database,
)
from tests.paper_workloads import (
    run_clickstream_exploration,
    run_queryset_a,
    run_queryset_b,
    run_queryset_c,
)


@pytest.fixture(scope="module")
def db():
    return generate_event_database(SyntheticConfig(D=80, L=10, seed=99))


class TestQuerySetA:
    def test_labels_and_count(self, db):
        steps, __ = run_queryset_a(db, "cb", n_queries=3)
        assert [s.label for s in steps] == ["QA1", "QA2", "QA3"]

    def test_template_grows_by_slice_and_append(self, db):
        steps, __ = run_queryset_a(db, "cb", n_queries=3)
        # each follow-up query slices to one cell then appends one free
        # symbol, so cell counts after QA1 stay small
        assert steps[0].cells > steps[1].cells or steps[1].cells <= steps[0].cells

    def test_precompute_only_with_ii(self, db):
        __, pre_cb = run_queryset_a(db, "cb", n_queries=2, precompute=True)
        assert pre_cb.sequences_scanned == 0
        __, pre_ii = run_queryset_a(db, "ii", n_queries=2, precompute=True)
        assert pre_ii.sequences_scanned == 80

    def test_stops_on_empty_cuboid(self):
        empty = generate_event_database(SyntheticConfig(D=2, L=1, seed=1))
        steps, __ = run_queryset_a(empty, "cb", n_queries=5)
        assert len(steps) <= 5

    def test_coarse_level_runs(self, db):
        steps, __ = run_queryset_a(db, "cb", n_queries=2, level="group")
        assert len(steps) == 2


class TestQuerySetB:
    def test_three_steps_with_labels(self, db):
        steps, __ = run_queryset_b(db, "cb")
        assert [s.label for s in steps] == [
            "QB1",
            "QB2 (drill-down X)",
            "QB3 (roll-up Y)",
        ]

    def test_precompute_scans_once(self, db):
        __, pre = run_queryset_b(db, "ii")
        assert pre.sequences_scanned == 80


class TestQuerySetC:
    def test_template_chain(self, db):
        steps, __ = run_queryset_c(db, "cb")
        assert [s.label for s in steps] == [
            "QC1 (X,Y)",
            "QC2 (X,Y,Y)",
            "QC3 (X,Y,Y,X)",
        ]

    def test_cells_shrink_along_chain(self, db):
        steps, __ = run_queryset_c(db, "cb")
        assert steps[0].cells >= steps[1].cells >= steps[2].cells


class TestClickstreamExploration:
    def test_three_queries(self):
        db = generate_clickstream(ClickstreamConfig(n_sessions=200, seed=9))
        steps = run_clickstream_exploration(db, "cb")
        assert [s.label for s in steps] == ["Qa", "Qb", "Qc"]
        assert all(s.strategy == "CB" for s in steps)

    def test_qb_restricted_to_legwear_pages(self):
        db = generate_clickstream(ClickstreamConfig(n_sessions=300, seed=10))
        from repro import SOLAPEngine
        from repro.core import operations as ops
        from repro.datagen import two_step_spec

        qa = two_step_spec()
        qb = ops.p_drill_down(
            ops.slice_pattern(
                ops.slice_pattern(qa, "X", "Assortment"), "Y", "Legwear"
            ),
            "Y",
            db.schema,
        )
        cuboid, __ = SOLAPEngine(db).execute(qb, "cb")
        hierarchy = db.schema.hierarchy("page")
        for __g, (x, y), __v in cuboid:
            assert x == "Assortment"
            assert hierarchy.map_value(y, "page-category") == "Legwear"
