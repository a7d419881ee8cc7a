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
and decodes cell keys back to values once per distinct cell.  The matcher
enumerates with the first kernel of :data:`KERNELS` that accepts the
template (``windows``, then ``enumerate``).  There is no other matcher; a
template that cannot be compiled is a :class:`~repro.errors.SchemaError`
at compile time.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
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


@contextmanager
def occurrence_limit(limit: Optional[int]) -> Iterator[None]:
    """Context manager scoping the default occurrence cap.

    >>> with occurrence_limit(10_000):
    ...     engine.execute(spec)
    """
    previous = set_default_occurrence_limit(limit)
    try:
        yield
    finally:
        set_default_occurrence_limit(previous)


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


def _raise_cap(template: PatternTemplate, sequence: Sequence, cap: int) -> None:
    raise MatchLimitExceeded(
        f"sequence sid={sequence.sid} exceeded the occurrence cap "
        f"of {cap} for template {template.positions} "
        f"({template.kind.value}); raise the cap or use a "
        "more selective template"
    )


class CompiledMatcher:
    """Occurrence enumeration and cell assignment for one template, in code space.

    Built by :meth:`compile` from a template plus a database, once per
    (template, restriction, predicate) triple and reused across sequences:
    every symbol restriction (fixed / within) is translated once into an
    *accept-set* of integer codes, placeholder equality becomes an int
    compare, and the occurrences are enumerated over flat ``array('I')``
    rows from the database's
    :class:`~repro.events.encoding.EncodedSequenceStore` by the first
    kernel in :data:`KERNELS` that accepts the template.  Cell keys are
    aggregated in code space and decoded (then interned) once per distinct
    cell.  The matcher holds no per-sequence scratch state, so one instance
    may be shared across threads.
    """

    def __init__(
        self,
        template: PatternTemplate,
        restriction: CellRestriction,
        predicate: Optional[MatchingPredicate],
        *,
        store,
        row_domains: Tuple[Optional[Tuple[str, str]], ...],
        accepts: Tuple[Optional[frozenset], ...],
    ):
        self.template = template
        self.restriction = restriction
        self.predicate = predicate
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
        #: the enumeration kernel: the first in KERNELS that accepts
        self.kernel = next(kernel for kernel in KERNELS if kernel.accepts(self))(self)

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
            restriction,
            predicate,
            store=store,
            row_domains=tuple(row_domains),
            accepts=tuple(accepts),
        )

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

        Wildcard positions reconstruct as ``None``, so keys round-trip.
        """
        key = tuple(
            None if slot is None else cell_key[slot]
            for slot in self._positions_plan
        )
        return self._interned_keys.setdefault(key, key)

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

    def _positions_for_code(self, key: Tuple[int, ...]) -> Tuple[object, ...]:
        """Interned positions key for a code cell key (decode fused in)."""
        found = self._positions_by_code.get(key)
        if found is None:
            found = self._positions_by_code[key] = self.positions_key(
                self._decode_cell_key(key)
            )
        return found

    # ------------------------------------------------------------------
    # Kernel calls: cell assignment under the restriction, and the unique
    # instantiations BuildIndex lists (Figure 9, line 4)
    # ------------------------------------------------------------------
    def assignments(self, sequence: Sequence) -> Dict[Tuple[object, ...], List[Content]]:
        """Cell → assigned contents for *sequence* under the restriction.

        Keys are pattern-dimension value tuples (length n); values are lists
        of assigned contents (database row tuples).  Under left-maximality
        the list has exactly one entry per cell.
        """
        by_code = self.kernel.cells(sequence)
        if not by_code:
            return {}
        decode = self._decode_cell_key
        return {decode(key): contents for key, contents in by_code.items()}

    def unique_instantiations(self, sequence: Sequence) -> List[Tuple[object, ...]]:
        """Distinct per-position value tuples of template occurrences.

        This is the BuildIndex enumeration: template-only (no σ, no ρ).
        The full per-position tuple is a function of the cell key (repeated
        symbols share one binding; wildcards are always None), so the
        kernel's first-seen code keys give both the set and the order.
        """
        keys = self.kernel.instantiations(sequence)
        if not keys:
            return []
        positions = self._positions_for_code
        return [positions(key) for key in keys]


class _Kernel:
    """An enumeration kernel: ``cells(sequence)`` maps code cell key →
    contents under the restriction, ``instantiations(sequence)`` gives the
    distinct code cell keys first-seen first; both count occurrences
    against the cap.  It copies its matcher's plan and keeps no reference
    to the matcher: that cycle would hold every finished query's matcher
    and decode caches until the cyclic garbage collector runs.
    """

    _PLAN = (
        "template", "restriction", "predicate", "_store", "_row_domains", "_accepts",
        "_symbol_ids", "_first_position", "_cell_first_positions", "_m", "_n",
    )

    def __init__(self, matcher: CompiledMatcher):
        for name in self._PLAN:
            setattr(self, name, getattr(matcher, name))


class WindowsKernel(_Kernel):
    """Substring templates of distinct, non-wildcard symbols, no predicate.

    For these the window at *start* is an occurrence exactly when each of
    its codes passes its position's accept-set, and its cell key is
    ``(row_0[start], row_1[start + 1], ...)``: zipping the position rows
    at their offsets enumerates every window, left to right, at C speed
    with no per-position Python loop.
    """

    name = "windows"

    @staticmethod
    def accepts(matcher: CompiledMatcher) -> bool:
        return (
            matcher.template.kind is PatternKind.SUBSTRING
            and matcher.predicate is None
            and all(domain is not None for domain in matcher._row_domains)
            and matcher._cell_first_positions == list(range(matcher._m))
            and len(set(matcher._symbol_ids)) == matcher._m
        )

    def __init__(self, matcher: CompiledMatcher):
        super().__init__(matcher)
        #: (offset, accept-set) per restricted position; a window failing
        #: one is not an occurrence and does not count against the cap
        self._filters = [
            (offset, accept)
            for offset, accept in enumerate(self._accepts)
            if accept is not None
        ]

    def _keys(self, sequence: Sequence):
        """Code cell keys of every window, as a ``zip`` iterator.

        Without accept-sets every window is an occurrence, so the cap is
        tested on the window count up front; the error is the one an
        enumerator raises at the (cap+1)-th occurrence.
        """
        cap = _default_occurrence_limit
        if not self._filters and cap is not None and len(sequence) - self._m + 1 > cap:
            _raise_cap(self.template, sequence, cap)
        store = self._store
        rows = [
            store.row(sequence, attribute, level)
            for attribute, level in self._row_domains
        ]
        return zip(*(row[offset:] if offset else row for offset, row in enumerate(rows)))

    def _filtered(self, sequence: Sequence):
        """(start, code key) of every window passing the accept-sets."""
        cap = _default_occurrence_limit
        filters = self._filters
        count = 0
        for start, key in enumerate(self._keys(sequence)):
            for offset, accept in filters:
                if key[offset] not in accept:
                    break
            else:
                count += 1
                if cap is not None and count > cap:
                    _raise_cap(self.template, sequence, cap)
                yield start, key

    def cells(self, sequence: Sequence) -> Dict[Tuple[int, ...], List[Content]]:
        m = self._m
        if len(sequence) < m:
            return {}
        windows = self._filtered(sequence) if self._filters else enumerate(self._keys(sequence))
        rows = sequence.rows
        by_code: Dict[Tuple[int, ...], List[Content]] = {}
        if self.restriction is CellRestriction.ALL_MATCHED:
            for start, key in windows:
                bucket = by_code.get(key)
                if bucket is None:
                    bucket = by_code[key] = []
                bucket.append(rows[start : start + m])
        elif self.restriction is CellRestriction.LEFT_MAXIMALITY_DATA:
            for __, key in windows:
                if key not in by_code:
                    by_code[key] = [rows]
        else:
            for start, key in windows:
                if key not in by_code:
                    by_code[key] = [rows[start : start + m]]
        return by_code

    def instantiations(self, sequence: Sequence):
        if len(sequence) < self._m:
            return ()
        if self._filters:
            return dict.fromkeys(key for __, key in self._filtered(sequence))
        return dict.fromkeys(self._keys(sequence))


class EnumerateKernel(_Kernel):
    """Every template: code-space backtracking over the positions.

    Covers what :class:`WindowsKernel` declines — repeated symbols,
    wildcards, SUBSEQUENCE templates and matching predicates.  Substring
    occurrences are enumerated window by window, subsequence occurrences
    by depth-first index selection (lexicographic index order).
    """

    name = "enumerate"

    @staticmethod
    def accepts(matcher: CompiledMatcher) -> bool:
        return True

    def cells(self, sequence: Sequence) -> Dict[Tuple[int, ...], List[Content]]:
        all_matched = self.restriction is CellRestriction.ALL_MATCHED
        data_go = self.restriction is CellRestriction.LEFT_MAXIMALITY_DATA
        predicate = self.predicate
        rows = sequence.rows
        by_code: Dict[Tuple[int, ...], List[Content]] = {}
        for key, indices in self._iter_code_occurrences(sequence):
            if not all_matched and key in by_code:
                continue
            if predicate is not None and not self._qualifies(sequence, indices):
                continue
            if data_go:
                content: Content = rows
            else:
                content = tuple(rows[index] for index in indices)
            by_code.setdefault(key, []).append(content)
        return by_code

    def instantiations(self, sequence: Sequence):
        seen: Dict[Tuple[int, ...], None] = {}
        for key, __ in self._iter_code_occurrences(sequence):
            seen[key] = None
        return seen

    def _qualifies(self, sequence: Sequence, indices: Tuple[int, ...]) -> bool:
        """Evaluate the matching predicate over the occurrence's events."""
        bindings = {
            placeholder: sequence.event(index)
            for placeholder, index in zip(self.predicate.placeholders, indices)
        }
        return self.predicate.expr.evaluate(BindingContext(bindings))

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
        cap = _default_occurrence_limit
        if cap is None:
            yield from source
            return
        count = 0
        for occurrence in source:
            count += 1
            if count > cap:
                _raise_cap(self.template, sequence, cap)
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


#: the enumeration kernels, most specialised first; a matcher keeps the
#: first whose ``accepts`` holds, and the last accepts every template
KERNELS = (WindowsKernel, EnumerateKernel)


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

_kernel_lock = threading.Lock()
#: process-local count of matchers built by make_matcher, per kernel,
#: exported as the ``solap_matcher_kernel_total{kernel}`` metric family
_kernel_counts: Dict[str, int] = {kernel.name: 0 for kernel in KERNELS}


def matcher_kernel_counts() -> Dict[str, int]:
    """Snapshot of matchers built per kernel (process-local, monotonic)."""
    with _kernel_lock:
        return dict(_kernel_counts)


def make_matcher(
    template: PatternTemplate,
    db,
    restriction: CellRestriction = CellRestriction.LEFT_MAXIMALITY,
    predicate: Optional[MatchingPredicate] = None,
) -> CompiledMatcher:
    """The matcher for *template* over *db*, compiled into code space.

    Raises :class:`~repro.errors.SchemaError` when the template cannot be
    compiled (see :meth:`CompiledMatcher.compile`).
    """
    with span("match.compile"):
        matcher = CompiledMatcher.compile(template, db, restriction, predicate)
    with _kernel_lock:
        _kernel_counts[matcher.kernel.name] += 1
    return matcher
