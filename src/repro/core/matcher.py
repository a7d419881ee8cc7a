"""Pattern matching: occurrences, cell restrictions, matching predicates.

This module implements step 5 of S-cuboid construction (*pattern grouping*,
Section 3.2).  Given a data sequence and a pattern template it enumerates
*occurrences* — positions whose level-mapped symbol values instantiate the
template — and turns them into *cell assignments* under the three cell
restrictions:

* ``LEFT-MAXIMALITY`` (matched-go): per cell, only the first occurrence that
  matches the template **and** satisfies the matching predicate is assigned.
  This makes COUNT a per-cell sequence count and is the semantics both the
  counter-based and the inverted-index strategies must agree on.
* ``LEFT-MAXIMALITY-DATA`` (data-go): as above, but the assigned content is
  the whole data sequence.
* ``ALL-MATCHED``: every qualifying occurrence is assigned.

Occurrences are enumerated in left-to-right order: contiguous windows for
``SUBSTRING`` templates, depth-first index selection (lexicographic index
order) for ``SUBSEQUENCE`` templates.  Subsequence enumeration is
exponential in the worst case — the paper's prototype shares this property —
but template lengths in practice are small (≤ 6).

Matching runs in *code space*: :func:`make_matcher` compiles a template
against the database's dictionary (:mod:`repro.events.encoding`) into a
:class:`CompiledMatcher`, which compares integer codes over flat code rows
and decodes cell keys back to values once per distinct cell.  There is no
other matcher; a template that cannot be compiled is a
:class:`~repro.errors.SchemaError` at compile time.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.spec import (
    CellRestriction,
    MatchingPredicate,
    PatternKind,
    PatternSymbol,
    PatternTemplate,
)
from repro.errors import MatchLimitExceeded, SchemaError
from repro.events.expression import BindingContext
from repro.events.schema import Schema
from repro.events.sequence import Sequence
from repro.obs.spans import span

#: process-wide default cap on occurrences enumerated per sequence
#: (None = unlimited).  Subsequence enumeration is combinatorial; set a
#: cap to fail fast on pathological data instead of hanging.
_default_occurrence_limit: Optional[int] = None


def set_default_occurrence_limit(limit: Optional[int]) -> Optional[int]:
    """Set the process-wide per-sequence occurrence cap; returns the old one."""
    global _default_occurrence_limit
    previous = _default_occurrence_limit
    _default_occurrence_limit = limit
    return previous


def get_default_occurrence_limit() -> Optional[int]:
    """The process-wide per-sequence occurrence cap (None = unlimited).

    Scan coordinators read this to replicate the cap on worker processes,
    which do not share this module's global (spawn starts fresh
    interpreters; fork freezes the value at pool-creation time).
    """
    return _default_occurrence_limit


class occurrence_limit:
    """Context manager scoping the default occurrence cap.

    >>> with occurrence_limit(10_000):
    ...     engine.execute(spec)
    """

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self._previous: Optional[int] = None

    def __enter__(self) -> "occurrence_limit":
        self._previous = set_default_occurrence_limit(self.limit)
        return self

    def __exit__(self, *exc_info) -> None:
        set_default_occurrence_limit(self._previous)


#: Assigned cell content: the database row indices of the assigned events.
Content = Tuple[int, ...]


def _symbol_value_ok(symbol: PatternSymbol, value: object, schema: Schema) -> bool:
    """Check a candidate symbol value against fixed / within restrictions."""
    if symbol.wildcard:
        return True
    if symbol.fixed is not None and value != symbol.fixed:
        return False
    if symbol.within is not None:
        ancestor_level, ancestor_value = symbol.within
        hierarchy = schema.hierarchy(symbol.attribute)
        # ``value`` is at symbol.level; map a representative base value up.
        # Levels map from the base, so we need a base value; here we rely on
        # symbol tuples being computed from base values, hence we re-map via
        # the hierarchy's children only when level == base.  For non-base
        # symbol levels we test by comparing the ancestor of the value's
        # children; in practice within-constraints are produced by
        # P-DRILL-DOWN, which always lands on a finer level, and the check
        # below covers the common dict-mapped case.
        if symbol.level == hierarchy.base_level:
            return hierarchy.map_value(value, ancestor_level) == ancestor_value
        children = hierarchy.children(symbol.level, value)
        if not children:
            return False
        return hierarchy.map_value(children[0], ancestor_level) == ancestor_value
    return True


class CompiledMatcher:
    """Occurrence enumeration and cell assignment for one template, in code space.

    Built by :meth:`compile` from a template plus a database, once per
    (template, restriction, predicate) triple and reused across sequences:
    every symbol restriction (fixed / within) is translated once into an
    *accept-set* of integer codes, placeholder equality becomes an int
    compare, and the substring / subsequence automaton runs over flat
    ``array('I')`` rows from the database's
    :class:`~repro.events.encoding.EncodedSequenceStore`.  Cell keys are
    aggregated in code space and decoded (then interned) once per distinct
    cell.  The matcher holds no per-sequence scratch state, so one instance
    may be shared across threads.
    """

    def __init__(
        self,
        template: PatternTemplate,
        schema: Schema,
        restriction: CellRestriction,
        predicate: Optional[MatchingPredicate],
        occurrence_cap: Optional[int],
        *,
        store,
        row_domains: Tuple[Optional[Tuple[str, str]], ...],
        accepts: Tuple[Optional[frozenset], ...],
    ):
        self.template = template
        self.schema = schema
        self.restriction = restriction
        self.predicate = predicate
        #: per-sequence enumeration cap (falls back to the process default)
        self.occurrence_cap = occurrence_cap
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
        self._store = store
        #: per template position: the (attribute, level) domain of its code
        #: row, or None for wildcard positions (which match any event)
        self._row_domains = row_domains
        #: per template position: frozenset of accepted codes for restricted
        #: symbols, or None when every code is acceptable
        self._accepts = accepts
        #: live code → value decode list per cell-key component
        self._cell_decoders = [
            store.dictionary.decoder(row_domains[position])
            for position in self._cell_first_positions
        ]
        #: code cell key → interned decoded key, shared across sequences so
        #: recurring patterns decode exactly once per query
        self._decoded_codes: Dict[Tuple[int, ...], Tuple[object, ...]] = {}
        #: code cell key → interned positions key (decode + wildcard
        #: expansion fused), for the instantiation-listing path
        self._positions_by_code: Dict[Tuple[int, ...], Tuple[object, ...]] = {}
        #: the dominant template shape — substring, all symbols distinct,
        #: no wildcards, no predicate — admits a windowed ``zip``
        #: enumeration with no per-position Python loop; when accept-sets
        #: are present the windows are filtered by per-position membership
        simple_shape = (
            template.kind is PatternKind.SUBSTRING
            and predicate is None
            and all(domain is not None for domain in row_domains)
            and list(self._cell_first_positions) == list(range(self._m))
            and len(self._symbol_ids) == len(set(self._symbol_ids))
        )
        self._accept_checks = [
            (offset, accept)
            for offset, accept in enumerate(accepts)
            if accept is not None
        ]
        self._simple_substring = simple_shape and not self._accept_checks
        self._filtered_substring = simple_shape and bool(self._accept_checks)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        template: PatternTemplate,
        db,
        restriction: CellRestriction = CellRestriction.LEFT_MAXIMALITY,
        predicate: Optional[MatchingPredicate] = None,
        occurrence_cap: Optional[int] = None,
    ) -> "CompiledMatcher":
        """Translate *template* into code space against *db*'s dictionary.

        Raises :class:`~repro.errors.SchemaError`, naming the symbol's
        attribute and level, when a symbol cannot be encoded: an unknown
        level, a stored value the hierarchy cannot map to the level, a
        ``within`` restriction on a callable-mapped level, or an unhashable
        stored value.
        """
        schema = db.schema
        store = db.encoding_store()
        row_domains: List[Optional[Tuple[str, str]]] = []
        accepts: List[Optional[frozenset]] = []
        for symbol in template.position_symbols():
            if symbol.wildcard:
                row_domains.append(None)
                accepts.append(None)
                continue
            try:
                schema.check_level(symbol.attribute, symbol.level)
                # Interning the full base-data domain up front makes the
                # accept-sets sound (no value can appear later and bypass
                # them) and surfaces any encoding problem here.
                store.ensure_domain_complete(db, symbol.attribute, symbol.level)
                if symbol.fixed is None and symbol.within is None:
                    accept = None
                else:
                    accept = store.accept_codes(db, symbol)
            except (SchemaError, TypeError) as exc:
                raise SchemaError(
                    f"pattern symbol {symbol.name!r} cannot be matched on "
                    f"{symbol.attribute!r} AT {symbol.level!r}: {exc}"
                ) from exc
            row_domains.append((symbol.attribute, symbol.level))
            accepts.append(accept)
        return cls(
            template,
            schema,
            restriction,
            predicate,
            occurrence_cap,
            store=store,
            row_domains=tuple(row_domains),
            accepts=tuple(accepts),
        )

    # ------------------------------------------------------------------
    # Predicate evaluation and cell keys
    # ------------------------------------------------------------------
    def occurrence_qualifies(
        self, sequence: Sequence, indices: Tuple[int, ...]
    ) -> bool:
        """Evaluate the matching predicate over the occurrence's events."""
        if self.predicate is None:
            return True
        bindings = {
            placeholder: sequence.event(index)
            for placeholder, index in zip(self.predicate.placeholders, indices)
        }
        return self.predicate.expr.evaluate(BindingContext(bindings))

    def cell_key(self, values: Tuple[object, ...]) -> Tuple[object, ...]:
        """Pattern-dimension key (n values) from per-position values (m).

        Wildcard positions carry no dimension and are dropped.
        """
        key = tuple(values[position] for position in self._cell_first_positions)
        return self._interned_keys.setdefault(key, key)

    def positions_key(self, cell_key: Tuple[object, ...]) -> Tuple[object, ...]:
        """Per-position values (m) from a pattern-dimension key (n).

        Wildcard positions reconstruct as ``None``, so keys round-trip.
        """
        key = tuple(
            None if slot is None else cell_key[slot]
            for slot in self._positions_plan
        )
        return self._interned_keys.setdefault(key, key)

    # ------------------------------------------------------------------
    # Code-space enumeration
    # ------------------------------------------------------------------
    def _code_rows(self, sequence: Sequence) -> List[Optional[object]]:
        store = self._store
        return [
            None if domain is None else store.row(sequence, domain[0], domain[1])
            for domain in self._row_domains
        ]

    def _iter_code_occurrences(
        self, sequence: Sequence
    ) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """(code cell key, event indices) per occurrence, left-to-right.

        An occurrence satisfies symbol equality (repeated symbols bind the
        same code) and every accept-set, but is **not** yet checked against
        the matching predicate.  Each occurrence counts against the
        occurrence cap.
        """
        if len(sequence) < self._m:
            return
        if self.template.kind is PatternKind.SUBSTRING:
            source = self._iter_code_substring(sequence)
        else:
            source = self._iter_code_subsequence(sequence)
        cap = self._effective_cap()
        if cap is None:
            yield from source
            return
        count = 0
        for occurrence in source:
            count += 1
            if count > cap:
                self._raise_cap(sequence, cap)
            yield occurrence

    def _iter_code_substring(self, sequence: Sequence):
        rows = self._code_rows(sequence)
        m = self._m
        n = self._n
        n_events = len(sequence)
        symbol_ids = self._symbol_ids
        accepts = self._accepts
        cell_positions = self._cell_first_positions
        for start in range(n_events - m + 1):
            bound = [-1] * n
            ok = True
            codes_at = [0] * m
            for offset in range(m):
                row = rows[offset]
                if row is None:
                    continue
                code = row[start + offset]
                dim = symbol_ids[offset]
                prev = bound[dim]
                if prev >= 0:
                    if prev != code:
                        ok = False
                        break
                else:
                    accept = accepts[offset]
                    if accept is not None and code not in accept:
                        ok = False
                        break
                    bound[dim] = code
                codes_at[offset] = code
            if ok:
                yield (
                    tuple(codes_at[position] for position in cell_positions),
                    tuple(range(start, start + m)),
                )

    def _iter_code_subsequence(self, sequence: Sequence):
        rows = self._code_rows(sequence)
        m = self._m
        n_events = len(sequence)
        symbol_ids = self._symbol_ids
        first_position = self._first_position
        accepts = self._accepts
        cell_positions = self._cell_first_positions
        # Per-call scratch keeps a matcher shared across threads safe.
        indices: List[int] = [0] * m
        codes_at: List[int] = [0] * m

        def extend(offset: int, start: int):
            if offset == m:
                yield (
                    tuple(codes_at[position] for position in cell_positions),
                    tuple(indices),
                )
                return
            row = rows[offset]
            dim = symbol_ids[offset]
            first = first_position[dim]
            earlier = first if first < offset else -1
            accept = accepts[offset]
            for index in range(start, n_events - (m - offset - 1)):
                if row is None:
                    code = 0
                else:
                    code = row[index]
                    if earlier >= 0:
                        if codes_at[earlier] != code:
                            continue
                    elif accept is not None and code not in accept:
                        continue
                indices[offset] = index
                codes_at[offset] = code
                yield from extend(offset + 1, index + 1)

        yield from extend(0, 0)

    def _decode_cell_key(self, key: Tuple[int, ...]) -> Tuple[object, ...]:
        found = self._decoded_codes.get(key)
        if found is not None:
            return found
        decoded = tuple(
            decoder[code] for decoder, code in zip(self._cell_decoders, key)
        )
        decoded = self._interned_keys.setdefault(decoded, decoded)
        self._decoded_codes[key] = decoded
        return decoded

    # ------------------------------------------------------------------
    # Simple-substring fast path: windowed zip over the code rows
    # ------------------------------------------------------------------
    def _window_keys(self, sequence: Sequence):
        """Code cell keys of every window, as a C-speed ``zip`` iterator.

        Valid only for ``_simple_substring`` templates: the cell key of the
        window at *start* is exactly ``(row_0[start], row_1[start+1], ...)``
        and every window matches, so zipping the position rows at their
        offsets enumerates all occurrences in left-to-right order with no
        per-position Python loop.
        """
        store = self._store
        rows = [
            store.row(sequence, attribute, level)
            for attribute, level in self._row_domains
        ]
        return zip(*(row[offset:] if offset else row for offset, row in enumerate(rows)))

    def _effective_cap(self) -> Optional[int]:
        return (
            self.occurrence_cap
            if self.occurrence_cap is not None
            else _default_occurrence_limit
        )

    def _raise_cap(self, sequence: Sequence, cap: int) -> None:
        raise MatchLimitExceeded(
            f"sequence sid={sequence.sid} exceeded the occurrence cap "
            f"of {cap} for template {self.template.positions} "
            f"({self.template.kind.value}); raise the cap or use a "
            "more selective template"
        )

    def _check_window_cap(self, sequence: Sequence, n_windows: int) -> None:
        """The occurrence cap, applied to the (pre-known) window count.

        On the simple-substring path every window is an occurrence, so the
        cap can be tested before enumeration; the error is the one the
        generic path raises at the (cap+1)-th occurrence.
        """
        cap = self._effective_cap()
        if cap is not None and n_windows > cap:
            self._raise_cap(sequence, cap)

    # ------------------------------------------------------------------
    # Cell assignment under a restriction
    # ------------------------------------------------------------------
    def assignments(self, sequence: Sequence) -> Dict[Tuple[object, ...], List[Content]]:
        """Cell → assigned contents for *sequence* under the restriction.

        Keys are pattern-dimension value tuples (length n); values are lists
        of assigned contents (database row tuples).  Under left-maximality
        the list has exactly one entry per cell.
        """
        all_matched = self.restriction is CellRestriction.ALL_MATCHED
        data_go = self.restriction is CellRestriction.LEFT_MAXIMALITY_DATA
        predicate = self.predicate
        rows = sequence.rows
        by_code: Dict[Tuple[int, ...], List[Content]] = {}
        if self._simple_substring:
            m = self._m
            n_windows = len(sequence) - m + 1
            if n_windows <= 0:
                return {}
            self._check_window_cap(sequence, n_windows)
            if all_matched:
                for start, key in enumerate(self._window_keys(sequence)):
                    bucket = by_code.get(key)
                    if bucket is None:
                        bucket = by_code[key] = []
                    bucket.append(rows[start : start + m])
            elif data_go:
                for key in self._window_keys(sequence):
                    if key not in by_code:
                        by_code[key] = [rows]
            else:
                for start, key in enumerate(self._window_keys(sequence)):
                    if key not in by_code:
                        by_code[key] = [rows[start : start + m]]
            decode = self._decode_cell_key
            return {decode(key): contents for key, contents in by_code.items()}
        if self._filtered_substring:
            m = self._m
            if len(sequence) < m:
                return {}
            cap = self._effective_cap()
            count = 0
            checks = self._accept_checks
            for start, key in enumerate(self._window_keys(sequence)):
                matched = True
                for offset, accept in checks:
                    if key[offset] not in accept:
                        matched = False
                        break
                if not matched:
                    continue
                count += 1
                if cap is not None and count > cap:
                    self._raise_cap(sequence, cap)
                if all_matched:
                    bucket = by_code.get(key)
                    if bucket is None:
                        bucket = by_code[key] = []
                    bucket.append(rows[start : start + m])
                elif key not in by_code:
                    by_code[key] = [rows] if data_go else [rows[start : start + m]]
            decode = self._decode_cell_key
            return {decode(key): contents for key, contents in by_code.items()}
        for key, indices in self._iter_code_occurrences(sequence):
            if not all_matched and key in by_code:
                continue
            if predicate is not None and not self.occurrence_qualifies(
                sequence, indices
            ):
                continue
            if data_go:
                content: Content = rows
            else:
                content = tuple(rows[index] for index in indices)
            by_code.setdefault(key, []).append(content)
        if not by_code:
            return {}
        decode = self._decode_cell_key
        return {decode(key): contents for key, contents in by_code.items()}

    def _positions_for_code(self, key: Tuple[int, ...]) -> Tuple[object, ...]:
        """Interned positions key for a code cell key (decode fused in)."""
        found = self._positions_by_code.get(key)
        if found is None:
            found = self._positions_by_code[key] = self.positions_key(
                self._decode_cell_key(key)
            )
        return found

    # ------------------------------------------------------------------
    # Index support: unique instantiations (BuildIndex, Figure 9, line 4)
    # ------------------------------------------------------------------
    def unique_instantiations(self, sequence: Sequence) -> List[Tuple[object, ...]]:
        """Distinct per-position value tuples of template occurrences.

        This is the BuildIndex enumeration: template-only (no σ, no ρ).
        """
        if self._simple_substring:
            n_windows = len(sequence) - self._m + 1
            if n_windows <= 0:
                return []
            self._check_window_cap(sequence, n_windows)
            positions = self._positions_for_code
            return [
                positions(key)
                for key in dict.fromkeys(self._window_keys(sequence))
            ]
        if self._filtered_substring:
            if len(sequence) < self._m:
                return []
            cap = self._effective_cap()
            count = 0
            checks = self._accept_checks
            seen_keys: Dict[Tuple[int, ...], None] = {}
            for key in self._window_keys(sequence):
                matched = True
                for offset, accept in checks:
                    if key[offset] not in accept:
                        matched = False
                        break
                if not matched:
                    continue
                count += 1
                if cap is not None and count > cap:
                    self._raise_cap(sequence, cap)
                if key not in seen_keys:
                    seen_keys[key] = None
            positions = self._positions_for_code
            return [positions(key) for key in seen_keys]
        seen: Dict[Tuple[int, ...], None] = {}
        for key, __ in self._iter_code_occurrences(sequence):
            if key not in seen:
                seen[key] = None
        # The full per-position tuple is a function of the cell key (repeated
        # symbols share one binding; wildcards are always None), so deduping
        # on cell keys preserves both the set and the first-seen order.
        positions = self._positions_for_code
        return [positions(key) for key in seen]


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

_dispatch_lock = threading.Lock()
#: process-local count of matchers built by make_matcher, exported as the
#: ``solap_matcher_dispatch_total{kind="compiled"}`` metric family
_dispatch_counts: Dict[str, int] = {"compiled": 0}


def matcher_dispatch_counts() -> Dict[str, int]:
    """Snapshot of make_matcher outcome counts (process-local, monotonic)."""
    with _dispatch_lock:
        return dict(_dispatch_counts)


def make_matcher(
    template: PatternTemplate,
    db,
    restriction: CellRestriction = CellRestriction.LEFT_MAXIMALITY,
    predicate: Optional[MatchingPredicate] = None,
    occurrence_cap: Optional[int] = None,
) -> CompiledMatcher:
    """The matcher for *template* over *db*, compiled into code space.

    Raises :class:`~repro.errors.SchemaError` when the template cannot be
    compiled (see :meth:`CompiledMatcher.compile`).
    """
    with span("match.compile"):
        matcher = CompiledMatcher.compile(
            template, db, restriction, predicate, occurrence_cap
        )
    with _dispatch_lock:
        _dispatch_counts["compiled"] += 1
    return matcher
