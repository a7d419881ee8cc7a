"""Properties of the pattern matcher and the cell restrictions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CellRestriction, build_sequence_groups
from repro.core.spec import PatternKind
from tests.property.conftest import (
    make_db,
    sequences_strategy,
    shape_strategy,
    template_from,
)
from tests.reference_matcher import TemplateMatcher


def single_sequences(db):
    groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
    return list(groups.single_group())


@settings(max_examples=100, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_substring_occurrences_are_subsequence_occurrences(sequences, shape):
    db = make_db(sequences)
    substring = TemplateMatcher(
        template_from(shape, PatternKind.SUBSTRING), db.schema
    )
    subsequence = TemplateMatcher(
        template_from(shape, PatternKind.SUBSEQUENCE), db.schema
    )
    for sequence in single_sequences(db):
        sub = {occ for occ in substring.iter_occurrences(sequence)}
        sup = {occ for occ in subsequence.iter_occurrences(sequence)}
        assert sub <= sup


@settings(max_examples=100, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_left_maximality_is_first_of_all_matched(sequences, shape):
    db = make_db(sequences)
    template = template_from(shape, PatternKind.SUBSTRING)
    left = TemplateMatcher(template, db.schema, CellRestriction.LEFT_MAXIMALITY)
    every = TemplateMatcher(template, db.schema, CellRestriction.ALL_MATCHED)
    for sequence in single_sequences(db):
        left_cells = left.assignments(sequence)
        all_cells = every.assignments(sequence)
        assert set(left_cells) == set(all_cells)
        for cell, contents in left_cells.items():
            assert len(contents) == 1
            assert contents[0] == all_cells[cell][0]  # the first occurrence
            assert len(all_cells[cell]) >= 1


@settings(max_examples=100, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_data_go_assigns_whole_sequence(sequences, shape):
    db = make_db(sequences)
    template = template_from(shape, PatternKind.SUBSTRING)
    matcher = TemplateMatcher(
        template, db.schema, CellRestriction.LEFT_MAXIMALITY_DATA
    )
    for sequence in single_sequences(db):
        for contents in matcher.assignments(sequence).values():
            assert contents == [tuple(sequence.rows)]


@settings(max_examples=100, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_occurrences_instantiate_template(sequences, shape):
    """Every reported occurrence satisfies symbol equality and the values
    really sit at the reported positions."""
    db = make_db(sequences)
    template = template_from(shape, PatternKind.SUBSEQUENCE)
    matcher = TemplateMatcher(template, db.schema)
    symbol_ids = template.symbol_ids()
    for sequence in single_sequences(db):
        symbols = sequence.symbols("symbol", "symbol")
        for values, indices in matcher.iter_occurrences(sequence):
            assert len(values) == len(indices) == template.length
            assert list(indices) == sorted(set(indices))
            for offset, index in enumerate(indices):
                assert symbols[index] == values[offset]
            # equal symbols bind equal values
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    if symbol_ids[i] == symbol_ids[j]:
                        assert values[i] == values[j]


@settings(max_examples=100, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_contains_instantiation_consistent_with_enumeration(sequences, shape):
    db = make_db(sequences)
    template = template_from(shape, PatternKind.SUBSTRING)
    matcher = TemplateMatcher(template, db.schema)
    for sequence in single_sequences(db):
        listed = set(matcher.unique_instantiations(sequence))
        for values in listed:
            assert matcher.contains_instantiation(sequence, values)
        # a pattern over foreign symbols is never contained
        assert not matcher.contains_instantiation(
            sequence, tuple("z" for __ in range(template.length))
        )


@settings(max_examples=80, deadline=None)
@given(
    sequences=sequences_strategy,
    shape=shape_strategy,
    kind=st.sampled_from([PatternKind.SUBSTRING, PatternKind.SUBSEQUENCE]),
)
def test_group_level_occurrences_cover_symbol_level(sequences, shape, kind):
    """Every symbol-level occurrence maps up to a group-level occurrence
    when the template has no repeated symbols (the roll-up soundness
    argument)."""
    if len(set(shape)) != len(shape):
        return  # property only claimed for repeat-free templates
    db = make_db(sequences)
    fine = TemplateMatcher(template_from(shape, kind, "symbol"), db.schema)
    coarse = TemplateMatcher(template_from(shape, kind, "group"), db.schema)
    hierarchy = db.schema.hierarchy("symbol")
    for sequence in single_sequences(db):
        coarse_cells = {
            tuple(values) for values, __ in coarse.iter_occurrences(sequence)
        }
        for values, __ in fine.iter_occurrences(sequence):
            mapped = tuple(hierarchy.map_value(v, "group") for v in values)
            assert mapped in coarse_cells
