"""Property: the matcher agrees with a brute-force reference oracle.

The oracle re-implements pattern grouping from the paper's definitions in
the most naive possible way — enumerate every window (substring) or every
index combination (subsequence) with itertools, apply symbol equality and
restrictions by hand, and fold the cell restriction directly.  Any
divergence between the product matcher (compiled into code space by
:func:`~repro.core.matcher.make_matcher`) and this oracle is a semantics
bug, independent of the CB/II cross-check (which could in principle share
a bug through the common matcher).
"""

import itertools
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CellRestriction, build_sequence_groups
from repro.core.matcher import make_matcher
from repro.core.spec import PatternKind, PatternTemplate
from tests.property.conftest import (
    GROUP_OF,
    make_db,
    sequences_strategy,
    shape_strategy,
    template_from,
)


def oracle_assignments(
    symbols: List[str],
    template: PatternTemplate,
    restriction: CellRestriction,
) -> Dict[Tuple, List[Tuple[int, ...]]]:
    """Reference implementation of cell assignment (indices as content)."""
    m = template.length
    n_events = len(symbols)
    position_symbols = template.position_symbols()
    symbol_ids = template.symbol_ids()

    def mapped(value: str, level: str) -> str:
        return GROUP_OF[value] if level == "group" else value

    def occurrence_values(indices: Tuple[int, ...]):
        values = []
        for offset, index in enumerate(indices):
            symbol = position_symbols[offset]
            values.append(mapped(symbols[index], symbol.level))
        # symbol equality
        for i in range(m):
            for j in range(i + 1, m):
                if symbol_ids[i] == symbol_ids[j] and values[i] != values[j]:
                    return None
        return tuple(values)

    if template.kind is PatternKind.SUBSTRING:
        candidates = [
            tuple(range(start, start + m)) for start in range(n_events - m + 1)
        ]
    else:
        candidates = sorted(itertools.combinations(range(n_events), m))

    assignments: Dict[Tuple, List[Tuple[int, ...]]] = {}
    for indices in candidates:
        values = occurrence_values(indices)
        if values is None:
            continue
        first_positions = []
        seen = set()
        for position, dim in enumerate(symbol_ids):
            if dim not in seen:
                seen.add(dim)
                first_positions.append(position)
        cell = tuple(values[p] for p in first_positions)
        if restriction is CellRestriction.ALL_MATCHED:
            assignments.setdefault(cell, []).append(indices)
        elif cell not in assignments:
            assignments[cell] = [indices]
    return assignments


RESTRICTIONS = st.sampled_from(
    [CellRestriction.LEFT_MAXIMALITY, CellRestriction.ALL_MATCHED]
)
KINDS = st.sampled_from([PatternKind.SUBSTRING, PatternKind.SUBSEQUENCE])
LEVELS = st.sampled_from(["symbol", "group"])


@settings(max_examples=150, deadline=None)
@given(
    sequences=sequences_strategy,
    shape=shape_strategy,
    kind=KINDS,
    level=LEVELS,
    restriction=RESTRICTIONS,
)
def test_matcher_agrees_with_oracle(sequences, shape, kind, level, restriction):
    db = make_db(sequences)
    template = template_from(shape, kind, level)
    matcher = make_matcher(template, db=db, restriction=restriction)
    groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
    for sequence in groups.all_sequences():
        raw_symbols = list(sequence.symbols("symbol", "symbol"))
        expected = oracle_assignments(raw_symbols, template, restriction)
        actual = matcher.assignments(sequence)
        # compare cells and, for each cell, the event positions assigned
        assert set(actual) == set(expected)
        for cell, contents in actual.items():
            actual_positions = [
                tuple(sequence.rows.index(row) for row in content)
                for content in contents
            ]
            assert actual_positions == expected[cell], (cell, template.positions)


@settings(max_examples=80, deadline=None)
@given(
    sequences=sequences_strategy,
    shape=shape_strategy,
    kind=KINDS,
)
def test_data_go_contents_are_whole_sequences(sequences, shape, kind):
    """Data-go agrees with left-maximality on cells, differs on contents."""
    db = make_db(sequences)
    template = template_from(shape, kind)
    left = make_matcher(template, db=db)
    data = make_matcher(
        template, db=db, restriction=CellRestriction.LEFT_MAXIMALITY_DATA
    )
    groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
    for sequence in groups.all_sequences():
        left_cells = left.assignments(sequence)
        data_cells = data.assignments(sequence)
        assert set(left_cells) == set(data_cells)
        for contents in data_cells.values():
            assert contents == [tuple(sequence.rows)]
