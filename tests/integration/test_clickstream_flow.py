"""Integration: the Table-1 clickstream exploration (Qa -> Qb -> Qc)."""

import pytest

from repro.datagen import (
    ClickstreamConfig,
    generate_clickstream,
    remove_crawler_sessions,
)
from tests.paper_workloads import run_clickstream_exploration


@pytest.fixture(scope="module")
def db():
    raw = generate_clickstream(ClickstreamConfig(n_sessions=1200, seed=51))
    return remove_crawler_sessions(raw)


@pytest.fixture(scope="module")
def runs(db):
    return {
        "cb": run_clickstream_exploration(db, "cb"),
        "ii": run_clickstream_exploration(db, "ii"),
    }


class TestTable1Shape:
    def test_three_queries_each(self, runs):
        assert [s.label for s in runs["cb"]] == ["Qa", "Qb", "Qc"]
        assert [s.label for s in runs["ii"]] == ["Qa", "Qb", "Qc"]

    def test_cell_counts_agree(self, runs):
        for cb, ii in zip(runs["cb"], runs["ii"]):
            assert cb.cells == ii.cells, cb.label

    def test_cb_rescans_everything_each_query(self, runs, db):
        n_sessions = len(set(db.column("session-id")))
        for step in runs["cb"]:
            assert step.sequences_scanned == n_sessions

    def test_ii_scans_less_after_slice(self, runs):
        """The paper's key observation: Qb and Qc scan far fewer sequences
        under II than under CB (2,201 and 842 vs 50,524)."""
        cb = {s.label: s for s in runs["cb"]}
        ii = {s.label: s for s in runs["ii"]}
        assert ii["Qb"].sequences_scanned < cb["Qb"].sequences_scanned / 2
        assert ii["Qc"].sequences_scanned < cb["Qc"].sequences_scanned / 2

    def test_ii_builds_indices_cb_does_not(self, runs):
        assert sum(s.index_bytes_built for s in runs["cb"]) == 0
        assert sum(s.index_bytes_built for s in runs["ii"]) > 0

    def test_qb_scan_count_equals_sliced_cell_size(self, runs, db):
        """II's Qb scans exactly the sessions listed under the sliced
        (Assortment, Legwear) cell — the paper's 2,201."""
        from repro import SOLAPEngine
        from repro.datagen import two_step_spec

        qa_cuboid, __ = SOLAPEngine(db).execute(two_step_spec(), "cb")
        cell_count = qa_cuboid.count(("Assortment", "Legwear"))
        ii = {s.label: s for s in runs["ii"]}
        assert ii["Qb"].sequences_scanned == cell_count
