"""Integration: the synthetic query sets (A, B, C) under both strategies."""

import pytest

from repro.datagen import SyntheticConfig, generate_event_database
from tests.paper_workloads import run_queryset_a, run_queryset_b, run_queryset_c


@pytest.fixture(scope="module")
def db():
    return generate_event_database(SyntheticConfig(D=250, L=12, seed=61))


class TestQuerySetA:
    def test_five_queries_and_cells_agree(self, db):
        cb, __ = run_queryset_a(db, "cb", n_queries=5)
        ii, __ = run_queryset_a(db, "ii", n_queries=5)
        assert len(cb) == len(ii) == 5
        for a, b in zip(cb, ii):
            assert a.cells == b.cells, a.label

    def test_cb_scans_whole_dataset_every_query(self, db):
        cb, __ = run_queryset_a(db, "cb", n_queries=4)
        assert all(step.sequences_scanned == 250 for step in cb)

    def test_ii_scans_nothing_on_precomputed_first_query(self, db):
        ii, pre = run_queryset_a(db, "ii", n_queries=4)
        assert pre.sequences_scanned == 250  # the offline precompute
        assert ii[0].sequences_scanned == 0  # QA1 answered from L2

    def test_ii_scans_few_on_followups(self, db):
        ii, __ = run_queryset_a(db, "ii", n_queries=5)
        followup_scans = sum(step.sequences_scanned for step in ii[1:])
        assert followup_scans < 250  # far below one CB rescan

    def test_without_precompute_first_query_scans_once(self, db):
        ii, pre = run_queryset_a(db, "ii", n_queries=2, precompute=False)
        assert pre.sequences_scanned == 0
        assert ii[0].sequences_scanned == 250


class TestQuerySetB:
    def test_cells_agree(self, db):
        cb, __ = run_queryset_b(db, "cb")
        ii, __ = run_queryset_b(db, "ii")
        for a, b in zip(cb, ii):
            assert a.cells == b.cells, a.label

    def test_rollup_is_scan_free_under_ii(self, db):
        ii, __ = run_queryset_b(db, "ii")
        by_label = {step.label: step for step in ii}
        assert by_label["QB3 (roll-up Y)"].sequences_scanned == 0

    def test_drilldown_scans_only_subcube_under_ii(self, db):
        cb, __ = run_queryset_b(db, "cb")
        ii, __ = run_queryset_b(db, "ii")
        cb_by = {s.label: s for s in cb}
        ii_by = {s.label: s for s in ii}
        label = "QB2 (drill-down X)"
        assert ii_by[label].sequences_scanned <= cb_by[label].sequences_scanned


class TestQuerySetC:
    def test_cells_agree(self, db):
        cb, __ = run_queryset_c(db, "cb")
        ii, __ = run_queryset_c(db, "ii")
        for a, b in zip(cb, ii):
            assert a.cells == b.cells, a.label

    def test_repeated_symbol_chain_reuses_indices(self, db):
        ii, __ = run_queryset_c(db, "ii")
        # QC2/QC3 reuse QC1's L2 plus join results: total follow-up scans
        # stay below one full rescan.
        assert sum(s.sequences_scanned for s in ii[1:]) < 250

    def test_subsequence_variant(self, db):
        from repro.core.spec import PatternKind

        cb, __ = run_queryset_c(db, "cb", kind=PatternKind.SUBSEQUENCE)
        ii, __ = run_queryset_c(db, "ii", kind=PatternKind.SUBSEQUENCE)
        for a, b in zip(cb, ii):
            assert a.cells == b.cells, a.label
