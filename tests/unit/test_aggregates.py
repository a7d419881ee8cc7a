"""Unit tests for aggregate accumulation."""

from repro import AggregateScope, AggregateSpec, build_sequence_groups
from repro.core.aggregates import CellAccumulator, needs_contents
from tests.conftest import make_figure8_db


def setup_sequence():
    db = make_figure8_db()
    groups = build_sequence_groups(db, None, [("card", "card")], [("time", True)])
    by_card = {s.cluster_key[0]: s for s in groups.single_group()}
    return db, by_card[688]  # 6 events, amounts alternating 0.0 / -2.0


class TestCellAccumulator:
    def test_count(self):
        db, sequence = setup_sequence()
        acc = CellAccumulator((AggregateSpec("COUNT"),))
        acc.add_assignment(db, sequence, sequence.rows[:2])
        acc.add_assignment(db, sequence, sequence.rows[2:4])
        assert acc.results() == {"COUNT(*)": 2}

    def test_sum_matched_scope(self):
        db, sequence = setup_sequence()
        acc = CellAccumulator((AggregateSpec("SUM", "amount"),))
        acc.add_assignment(db, sequence, sequence.rows[:2])
        # amounts alternate 0.0 / -2.0 starting at "in"
        assert acc.results()["SUM(amount)"] == -2.0

    def test_sum_sequence_scope(self):
        db, sequence = setup_sequence()
        acc = CellAccumulator(
            (AggregateSpec("SUM", "amount", AggregateScope.SEQUENCE),)
        )
        acc.add_assignment(db, sequence, sequence.rows[:2])
        assert acc.results()["SUM(amount)"] == -6.0  # three "out" events

    def test_first_event_scope(self):
        db, sequence = setup_sequence()
        acc = CellAccumulator(
            (AggregateSpec("SUM", "amount", AggregateScope.FIRST_EVENT),)
        )
        acc.add_assignment(db, sequence, sequence.rows[1:3])
        assert acc.results()["SUM(amount)"] == -2.0  # first content event only

    def test_avg_min_max(self):
        db, sequence = setup_sequence()
        acc = CellAccumulator(
            (
                AggregateSpec("AVG", "amount"),
                AggregateSpec("MIN", "amount"),
                AggregateSpec("MAX", "amount"),
            )
        )
        acc.add_assignment(db, sequence, sequence.rows[:2])  # 0.0, -2.0
        results = acc.results()
        assert results["AVG(amount)"] == -1.0
        assert results["MIN(amount)"] == -2.0
        assert results["MAX(amount)"] == 0.0

    def test_avg_of_nothing_is_none(self):
        acc = CellAccumulator((AggregateSpec("AVG", "amount"),))
        assert acc.results()["AVG(amount)"] is None

    def test_none_measures_skipped(self):
        db, sequence = setup_sequence()
        db.column("amount")[sequence.rows[0]] = None
        acc = CellAccumulator((AggregateSpec("SUM", "amount"),))
        acc.add_assignment(db, sequence, sequence.rows[:1])
        assert acc.results()["SUM(amount)"] == 0.0

    def test_multiple_aggregates_together(self):
        db, sequence = setup_sequence()
        acc = CellAccumulator(
            (AggregateSpec("COUNT"), AggregateSpec("SUM", "amount"))
        )
        acc.add_assignment(db, sequence, sequence.rows[:2])
        results = acc.results()
        assert results["COUNT(*)"] == 1
        assert results["SUM(amount)"] == -2.0


class TestHelpers:
    def test_needs_contents(self):
        assert not needs_contents((AggregateSpec("COUNT"),))
        assert needs_contents((AggregateSpec("COUNT"), AggregateSpec("SUM", "amount")))
