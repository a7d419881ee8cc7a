"""Unit tests for the pattern matcher (occurrences, restrictions, predicates)."""


from repro import (
    CellRestriction,
    Comparison,
    Literal,
    MatchingPredicate,
    PatternSymbol,
    PlaceholderField,
    build_sequence_groups,
)
from tests.conftest import (
    location_template,
    make_figure8_db,
)
from tests.reference_matcher import TemplateMatcher


def get_sequences(db=None):
    db = db or make_figure8_db()
    groups = build_sequence_groups(db, None, [("card", "card")], [("time", True)])
    by_card = {seq.cluster_key[0]: seq for seq in groups.single_group()}
    return db, by_card


def matcher_for(positions, db, kind="substring", restriction=None, predicate=None):
    template = location_template(positions, kind)
    return TemplateMatcher(
        template,
        db.schema,
        restriction or CellRestriction.LEFT_MAXIMALITY,
        predicate,
    )


class TestSubstringOccurrences:
    def test_simple_windows(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y"), db)
        occurrences = list(matcher.iter_occurrences(seqs[1012]))
        assert occurrences == [(("Clarendon", "Pentagon"), (0, 1))]

    def test_left_to_right_order(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y"), db)
        starts = [indices[0] for __, indices in matcher.iter_occurrences(seqs[688])]
        assert starts == sorted(starts)

    def test_repeated_symbol_equality(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "X"), db)
        # s1 contains (Pentagon, Pentagon) and (Wheaton, Wheaton)
        values = [v for v, __ in matcher.iter_occurrences(seqs[688])]
        assert values == [
            ("Pentagon", "Pentagon"),
            ("Wheaton", "Wheaton"),
        ]

    def test_too_short_sequence(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y", "Y", "X"), db)
        assert list(matcher.iter_occurrences(seqs[1012])) == []

    def test_xyyx_occurrence(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y", "Y", "X"), db)
        values = [v for v, __ in matcher.iter_occurrences(seqs[23456])]
        assert values == [("Pentagon", "Wheaton", "Wheaton", "Pentagon")]

    def test_fixed_symbol_restriction(self):
        db, seqs = get_sequences()
        template = location_template(("X", "Y")).replace_symbol(
            "X", PatternSymbol("X", "location", "station", fixed="Wheaton")
        )
        matcher = TemplateMatcher(template, db.schema)
        values = [v for v, __ in matcher.iter_occurrences(seqs[688])]
        assert values == [("Wheaton", "Wheaton"), ("Wheaton", "Pentagon")]

    def test_within_constraint(self):
        db, seqs = get_sequences()
        template = location_template(("X", "Y")).replace_symbol(
            "X",
            PatternSymbol("X", "location", "station", within=("district", "D10")),
        )
        matcher = TemplateMatcher(template, db.schema)
        values = [v[0] for v, __ in matcher.iter_occurrences(seqs[688])]
        assert values == ["Pentagon", "Pentagon"]  # both Pentagon starts

    def test_district_level_matching(self):
        db, seqs = get_sequences()
        template = location_template(("X", "X")).replace_symbol(
            "X", PatternSymbol("X", "location", "district")
        )
        matcher = TemplateMatcher(template, db.schema)
        values = [v for v, __ in matcher.iter_occurrences(seqs[23456])]
        # Pentagon(D10),Wheaton(D20),Wheaton(D20),Pentagon(D10)
        assert values == [("D20", "D20")]


class TestSubsequenceOccurrences:
    def test_gapped_match(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y"), db, kind="subsequence")
        values = {v for v, __ in matcher.iter_occurrences(seqs[77])}
        # <Wheaton, Clarendon, Deanwood, Wheaton> subsequences include the
        # gapped (Wheaton, Deanwood) and (Clarendon, Wheaton).
        assert ("Wheaton", "Deanwood") in values
        assert ("Clarendon", "Wheaton") in values

    def test_lexicographic_index_order(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y"), db, kind="subsequence")
        indices = [i for __, i in matcher.iter_occurrences(seqs[1012])]
        assert indices == [(0, 1)]
        indices4 = [i for __, i in matcher.iter_occurrences(seqs[77])]
        assert indices4 == sorted(indices4)

    def test_substring_occurrences_are_subsequence_occurrences(self):
        db, seqs = get_sequences()
        sub = matcher_for(("X", "Y", "Y"), db)
        subseq = matcher_for(("X", "Y", "Y"), db, kind="subsequence")
        for seq in seqs.values():
            substring_values = {v for v, __ in sub.iter_occurrences(seq)}
            subsequence_values = {v for v, __ in subseq.iter_occurrences(seq)}
            assert substring_values <= subsequence_values

    def test_repeated_symbol_subsequence(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "X"), db, kind="subsequence")
        values = {v for v, __ in matcher.iter_occurrences(seqs[77])}
        assert values == {("Wheaton", "Wheaton")}


class TestCellRestrictions:
    def test_left_maximality_one_assignment_per_cell(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y"), db)
        assignments = matcher.assignments(seqs[688])
        assert all(len(contents) == 1 for contents in assignments.values())
        # (Pentagon, Wheaton) occurs once at window 2-3 within s1's rows.
        content = assignments[("Pentagon", "Wheaton")][0]
        assert len(content) == 2

    def test_all_matched_counts_every_occurrence(self):
        db, seqs = get_sequences()
        # aabaa-style: (X, X) on <...Pentagon,Pentagon...Wheaton,Wheaton...>
        matcher = matcher_for(
            ("X", "Y"), db, restriction=CellRestriction.ALL_MATCHED
        )
        assignments = matcher.assignments(seqs[688])
        total = sum(len(c) for c in assignments.values())
        assert total == 5  # five windows in a 6-event sequence

    def test_data_go_assigns_whole_sequence(self):
        db, seqs = get_sequences()
        matcher = matcher_for(
            ("X", "Y"), db, restriction=CellRestriction.LEFT_MAXIMALITY_DATA
        )
        assignments = matcher.assignments(seqs[688])
        for contents in assignments.values():
            assert contents == [tuple(seqs[688].rows)]

    def test_left_maximality_picks_first_qualifying(self):
        db, seqs = get_sequences()
        # Predicate: first event action must be "out" — for s1 the first
        # (Pentagon, Wheaton) window starts at an "in" event (pos 2)?  Use
        # a simpler check: require x1.action = "in"; first (Pentagon,
        # Pentagon) window starts at position 1 ("out"), so it must be
        # skipped and the cell gets no assignment.
        predicate = MatchingPredicate(
            ("x1", "y1"),
            Comparison(PlaceholderField("x1", "action"), "=", Literal("in")),
        )
        matcher = matcher_for(("X", "X"), db, predicate=predicate)
        assignments = matcher.assignments(seqs[688])
        # (Pentagon, Pentagon) window is at positions (1, 2): action "out"
        # at position 1 -> disqualified.  (Wheaton, Wheaton) at (3, 4)?
        # position 3 is "out" too -> disqualified.
        assert assignments == {}


class TestPredicates:
    def test_in_out_predicate(self):
        db, seqs = get_sequences()
        predicate = MatchingPredicate(
            ("x1", "y1"),
            Comparison(PlaceholderField("x1", "action"), "=", Literal("in"))
            & Comparison(PlaceholderField("y1", "action"), "=", Literal("out")),
        )
        matcher = matcher_for(("X", "Y"), db, predicate=predicate)
        # s2 <Pentagon,Wheaton,Wheaton,Pentagon>: windows at 0 and 2 qualify.
        assignments = matcher.assignments(seqs[23456])
        assert set(assignments) == {
            ("Pentagon", "Wheaton"),
            ("Wheaton", "Pentagon"),
        }

    def test_cross_placeholder_predicate(self):
        db, seqs = get_sequences()
        predicate = MatchingPredicate(
            ("x1", "y1"),
            Comparison(
                PlaceholderField("x1", "location"),
                "!=",
                PlaceholderField("y1", "location"),
            ),
        )
        matcher = matcher_for(("X", "Y"), db, predicate=predicate)
        assignments = matcher.assignments(seqs[688])
        assert ("Pentagon", "Pentagon") not in assignments
        assert ("Glenmont", "Pentagon") in assignments


class TestPerCellQueries:
    def test_contains_instantiation(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y", "Y", "X"), db)
        assert matcher.contains_instantiation(
            seqs[23456], ("Pentagon", "Wheaton", "Wheaton", "Pentagon")
        )
        assert not matcher.contains_instantiation(
            seqs[23456], ("Wheaton", "Pentagon", "Pentagon", "Wheaton")
        )

    def test_cell_contents_respects_predicate(self):
        db, seqs = get_sequences()
        predicate = MatchingPredicate(
            ("x1", "y1"),
            Comparison(PlaceholderField("x1", "action"), "=", Literal("in")),
        )
        matcher = matcher_for(("X", "Y"), db, predicate=predicate)
        ok = matcher.cell_contents(seqs[1012], ("Clarendon", "Pentagon"))
        assert len(ok) == 1
        # (Pentagon, Pentagon) in s1 starts on an "out" event.
        none = matcher.cell_contents(seqs[688], ("Pentagon", "Pentagon"))
        assert none == []

    def test_unique_instantiations_no_duplicates(self):
        db, seqs = get_sequences()
        matcher = matcher_for(("X", "Y"), db)
        patterns = matcher.unique_instantiations(seqs[688])
        assert len(patterns) == len(set(patterns))
        assert ("Pentagon", "Pentagon") in patterns

    def test_cell_key_positions_key_roundtrip(self):
        db, __ = get_sequences()
        matcher = matcher_for(("X", "Y", "Y", "X"), db)
        cell = matcher.cell_key(("a", "b", "b", "a"))
        assert cell == ("a", "b")
        assert matcher.positions_key(cell) == ("a", "b", "b", "a")
