"""The value-space reference matcher the test suites compare against.

:class:`TemplateMatcher` enumerates occurrences and cell assignments over
the level-mapped *values* of each sequence, position by position, with no
dictionary encoding, accept-sets or fast paths: a direct restatement of
the paper's pattern-grouping definitions (Section 3.2).  The property
suites fold with it (``fold(..., TemplateMatcher(...), ...)``) to check
every answer path of the product's code-space
:class:`~repro.core.matcher.CompiledMatcher`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.matcher import (
    Content,
    _symbol_value_ok,
    get_default_occurrence_limit,
)
from repro.core.spec import (
    CellRestriction,
    MatchingPredicate,
    PatternKind,
    PatternTemplate,
)
from repro.errors import MatchLimitExceeded
from repro.events.expression import BindingContext
from repro.events.schema import Schema
from repro.events.sequence import Sequence

#: An occurrence: the instantiated value at each template position plus the
#: (0-based, increasing) event positions within the sequence it occupies.
Occurrence = Tuple[Tuple[object, ...], Tuple[int, ...]]


class TemplateMatcher:
    """Occurrence enumeration and cell assignment for one template.

    A matcher is constructed once per (template, restriction, predicate)
    triple and reused across sequences; it precomputes per-position symbol
    metadata so the per-sequence work is a tight loop.
    """

    def __init__(
        self,
        template: PatternTemplate,
        schema: Schema,
        restriction: CellRestriction = CellRestriction.LEFT_MAXIMALITY,
        predicate: Optional[MatchingPredicate] = None,
        occurrence_cap: Optional[int] = None,
    ):
        self.template = template
        self.schema = schema
        self.restriction = restriction
        self.predicate = predicate
        #: per-sequence enumeration cap (falls back to the process default)
        self.occurrence_cap = occurrence_cap
        self._position_symbols = template.position_symbols()
        self._symbol_ids = template.symbol_ids()
        self._m = template.length
        #: number of distinct symbols (wildcards included; binding array size)
        self._n = len(template.symbols)
        #: first position at which each symbol appears, in symbol order
        self._first_position: List[int] = []
        seen: Dict[int, int] = {}
        for position, dim in enumerate(self._symbol_ids):
            if dim not in seen:
                seen[dim] = position
                self._first_position.append(position)
        #: first positions of the *cell* (non-wildcard) dimensions only
        self._cell_first_positions: List[int] = [
            self._first_position[dim]
            for dim, symbol in enumerate(template.symbols)
            if not symbol.wildcard
        ]
        #: interned key tuples: equal cell / positions keys produced across
        #: sequences share one tuple object, cutting aggregation-dict
        #: hashing (hash cached per object) and key memory.  ``setdefault``
        #: is atomic under the GIL, so a matcher shared across threads is
        #: safe.
        self._interned_keys: Dict[Tuple[object, ...], Tuple[object, ...]] = {}
        #: per symbol dimension: the cell-key slot its value comes from, or
        #: None for wildcards (which reconstruct as None)
        dim_to_cell: Dict[int, int] = {}
        for dim, symbol in enumerate(template.symbols):
            if not symbol.wildcard:
                dim_to_cell[dim] = len(dim_to_cell)
        self._positions_plan: Tuple[Optional[int], ...] = tuple(
            None if template.symbols[dim].wildcard else dim_to_cell[dim]
            for dim in self._symbol_ids
        )

    # ------------------------------------------------------------------
    # Symbol extraction
    # ------------------------------------------------------------------
    def symbol_tuples(self, sequence: Sequence) -> List[Tuple[object, ...]]:
        """Level-mapped symbol values per template position for *sequence*.

        Wildcard positions yield ``None`` everywhere: they bind no value,
        so every comparison against them is vacuous by construction.
        """
        none_row: Optional[Tuple[object, ...]] = None
        rows: List[Tuple[object, ...]] = []
        for symbol in self._position_symbols:
            if symbol.wildcard:
                if none_row is None:
                    none_row = (None,) * len(sequence)
                rows.append(none_row)
            else:
                rows.append(sequence.symbols(symbol.attribute, symbol.level))
        return rows

    # ------------------------------------------------------------------
    # Occurrence enumeration
    # ------------------------------------------------------------------
    def iter_occurrences(self, sequence: Sequence) -> Iterator[Occurrence]:
        """All template occurrences in *sequence*, in left-to-right order.

        An occurrence satisfies symbol-equality (repeated symbols bind the
        same value) and every symbol restriction (fixed / within), but is
        **not** yet checked against the matching predicate.
        """
        if len(sequence) < self._m:
            return
        if self.template.kind is PatternKind.SUBSTRING:
            source = self._iter_substring(sequence)
        else:
            source = self._iter_subsequence(sequence)
        cap = (
            self.occurrence_cap
            if self.occurrence_cap is not None
            else get_default_occurrence_limit()
        )
        if cap is None:
            yield from source
            return
        count = 0
        for occurrence in source:
            count += 1
            if count > cap:
                raise MatchLimitExceeded(
                    f"sequence sid={sequence.sid} exceeded the occurrence cap "
                    f"of {cap} for template {self.template.positions} "
                    f"({self.template.kind.value}); raise the cap or use a "
                    "more selective template"
                )
            yield occurrence

    def _iter_substring(self, sequence: Sequence) -> Iterator[Occurrence]:
        symbol_tuples = self.symbol_tuples(sequence)
        m = self._m
        n_events = len(sequence)
        position_symbols = self._position_symbols
        symbol_ids = self._symbol_ids
        schema = self.schema
        for start in range(n_events - m + 1):
            bound: List[object] = [None] * self._n
            bound_set = [False] * self._n
            ok = True
            for offset in range(m):
                value = symbol_tuples[offset][start + offset]
                dim = symbol_ids[offset]
                if bound_set[dim]:
                    if bound[dim] != value:
                        ok = False
                        break
                else:
                    if not _symbol_value_ok(position_symbols[offset], value, schema):
                        ok = False
                        break
                    bound[dim] = value
                    bound_set[dim] = True
            if ok:
                values = tuple(
                    symbol_tuples[offset][start + offset] for offset in range(m)
                )
                yield values, tuple(range(start, start + m))

    def _iter_subsequence(self, sequence: Sequence) -> Iterator[Occurrence]:
        symbol_tuples = self.symbol_tuples(sequence)
        m = self._m
        n_events = len(sequence)
        symbol_ids = self._symbol_ids
        position_symbols = self._position_symbols
        schema = self.schema
        indices: List[int] = [0] * m
        values: List[object] = [None] * m

        def extend(offset: int, start: int) -> Iterator[Occurrence]:
            if offset == m:
                yield tuple(values), tuple(indices)
                return
            # Prune: not enough events left for the remaining positions.
            for index in range(start, n_events - (m - offset - 1)):
                value = symbol_tuples[offset][index]
                dim = symbol_ids[offset]
                earlier = self._first_occurrence_offset(offset, dim)
                if earlier is not None:
                    if values[earlier] != value:
                        continue
                elif not _symbol_value_ok(position_symbols[offset], value, schema):
                    continue
                indices[offset] = index
                values[offset] = value
                yield from extend(offset + 1, index + 1)

        yield from extend(0, 0)

    def _first_occurrence_offset(self, offset: int, dim: int) -> Optional[int]:
        """The earlier position binding *dim*, or None if *offset* is first."""
        first = self._first_position[dim]
        return first if first < offset else None

    # ------------------------------------------------------------------
    # Predicate evaluation
    # ------------------------------------------------------------------
    def occurrence_qualifies(self, sequence: Sequence, occurrence: Occurrence) -> bool:
        """Evaluate the matching predicate over the occurrence's events."""
        if self.predicate is None:
            return True
        __, indices = occurrence
        bindings = {
            placeholder: sequence.event(index)
            for placeholder, index in zip(self.predicate.placeholders, indices)
        }
        return self.predicate.expr.evaluate(BindingContext(bindings))

    # ------------------------------------------------------------------
    # Cell keys
    # ------------------------------------------------------------------
    def cell_key(self, values: Tuple[object, ...]) -> Tuple[object, ...]:
        """Pattern-dimension key (n values) from per-position values (m).

        Wildcard positions carry no dimension and are dropped.
        """
        key = tuple(values[position] for position in self._cell_first_positions)
        return self._interned_keys.setdefault(key, key)

    def positions_key(self, cell_key: Tuple[object, ...]) -> Tuple[object, ...]:
        """Per-position values (m) from a pattern-dimension key (n).

        Wildcard positions reconstruct as ``None`` — exactly the value the
        matcher records for them, so keys round-trip.
        """
        key = tuple(
            None if slot is None else cell_key[slot]
            for slot in self._positions_plan
        )
        return self._interned_keys.setdefault(key, key)

    # ------------------------------------------------------------------
    # Cell assignment under a restriction
    # ------------------------------------------------------------------
    def assignments(self, sequence: Sequence) -> Dict[Tuple[object, ...], List[Content]]:
        """Cell → assigned contents for *sequence* under the restriction.

        Keys are pattern-dimension tuples (length n); values are lists of
        assigned contents (database row tuples).  Under left-maximality the
        list has exactly one entry per cell.
        """
        result: Dict[Tuple[object, ...], List[Content]] = {}
        all_matched = self.restriction is CellRestriction.ALL_MATCHED
        data_go = self.restriction is CellRestriction.LEFT_MAXIMALITY_DATA
        for values, indices in self.iter_occurrences(sequence):
            key = self.cell_key(values)
            if not all_matched and key in result:
                continue
            if not self.occurrence_qualifies(sequence, (values, indices)):
                continue
            if data_go:
                content: Content = tuple(sequence.rows)
            else:
                content = tuple(sequence.rows[index] for index in indices)
            result.setdefault(key, []).append(content)
        return result

    # ------------------------------------------------------------------
    # Per-cell queries (used by the inverted-index strategy)
    # ------------------------------------------------------------------
    def contains_instantiation(
        self, sequence: Sequence, position_values: Tuple[object, ...]
    ) -> bool:
        """Template-only containment of a *specific* instantiation.

        Used by the join-verification step: the predicate is deliberately
        not applied here (the paper verifies σ and ρ only at counting time).
        """
        return self._first_pattern_occurrence(sequence, position_values) is not None

    def cell_contents(
        self, sequence: Sequence, position_values: Tuple[object, ...]
    ) -> List[Content]:
        """Assigned contents of *sequence* for one specific cell.

        Applies the matching predicate and the cell restriction, exactly as
        :meth:`assignments` does, but only for the given instantiation.
        """
        contents: List[Content] = []
        all_matched = self.restriction is CellRestriction.ALL_MATCHED
        data_go = self.restriction is CellRestriction.LEFT_MAXIMALITY_DATA
        for occurrence in self._iter_pattern_occurrences(sequence, position_values):
            if not self.occurrence_qualifies(sequence, occurrence):
                continue
            __, indices = occurrence
            if data_go:
                contents.append(tuple(sequence.rows))
            else:
                contents.append(tuple(sequence.rows[i] for i in indices))
            if not all_matched:
                break
        return contents

    def _iter_pattern_occurrences(
        self, sequence: Sequence, position_values: Tuple[object, ...]
    ) -> Iterator[Occurrence]:
        """Occurrences of one fixed instantiation, left-to-right."""
        if len(sequence) < self._m:
            return
        symbol_tuples = self.symbol_tuples(sequence)
        m = self._m
        n_events = len(sequence)
        if self.template.kind is PatternKind.SUBSTRING:
            for start in range(n_events - m + 1):
                if all(
                    symbol_tuples[offset][start + offset] == position_values[offset]
                    for offset in range(m)
                ):
                    yield position_values, tuple(range(start, start + m))
            return

        indices: List[int] = [0] * m

        def extend(offset: int, start: int) -> Iterator[Occurrence]:
            if offset == m:
                yield position_values, tuple(indices)
                return
            for index in range(start, n_events - (m - offset - 1)):
                if symbol_tuples[offset][index] != position_values[offset]:
                    continue
                indices[offset] = index
                yield from extend(offset + 1, index + 1)

        yield from extend(0, 0)

    def _first_pattern_occurrence(
        self, sequence: Sequence, position_values: Tuple[object, ...]
    ) -> Optional[Occurrence]:
        for occurrence in self._iter_pattern_occurrences(sequence, position_values):
            return occurrence
        return None

    # ------------------------------------------------------------------
    # Index support: unique instantiations (BuildIndex, Figure 9, line 4)
    # ------------------------------------------------------------------
    def unique_instantiations(self, sequence: Sequence) -> List[Tuple[object, ...]]:
        """Distinct per-position value tuples of template occurrences.

        This is the BuildIndex enumeration: template-only (no σ, no ρ).
        """
        seen: Dict[Tuple[object, ...], None] = {}
        for values, __ in self.iter_occurrences(sequence):
            seen.setdefault(values, None)
        return list(seen)
