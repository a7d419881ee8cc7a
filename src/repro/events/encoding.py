"""Dictionary encoding of pattern-dimension values (Section 6, Performance).

Classic OLAP engines make their inner loops cheap by *dictionary encoding*:
each (attribute, level) domain's values are interned to dense integer codes
once, and everything downstream — pattern matching, equality tests, list
keys — operates on machine integers instead of arbitrary Python objects.
This module provides that layer for the sequence engine:

* :class:`DimensionDictionary` interns the (level-mapped) values of each
  pattern-dimension domain to dense ``uint32`` codes, append-only, so a
  code assigned once never changes meaning;
* :class:`EncodedSequenceStore` materialises each sequence as flat
  ``array('I')`` *code rows* — one row per (attribute, level) domain the
  matcher needs — built once per sequence and cached on the sequence
  object itself, so rows live exactly as long as the sequence-cache entry
  that owns the sequence.

Codes are **process-local**: the matcher decodes cell keys back
to values before results leave the kernel, so worker processes only need
internally-consistent dictionaries, never a shared global one.  The store
travels with the :class:`~repro.events.database.EventDatabase` through the
process-backend pool initializer; its lock is dropped on pickling and
recreated on load.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, List, Optional, Tuple

#: an (attribute, level) pair naming one encodable domain
Domain = Tuple[str, str]

#: a sequence's per-event codes for one domain
CodeRow = array


class DimensionDictionary:
    """Append-only interning of domain values to dense ``uint32`` codes.

    Reads are lock-free (a dict lookup under the GIL); interning a *new*
    value takes a short lock so racing threads can never assign two codes
    to one value.  Decoding is indexing into the per-domain value list,
    which only ever grows — a reference to it stays valid forever.
    """

    def __init__(self) -> None:
        self._codes: Dict[Domain, Dict[object, int]] = {}
        self._values: Dict[Domain, List[object]] = {}
        self._lock = threading.Lock()

    # -- pickling: locks cannot cross process boundaries -----------------
    def __getstate__(self) -> dict:
        return {"codes": self._codes, "values": self._values}

    def __setstate__(self, state: dict) -> None:
        self._codes = state["codes"]
        self._values = state["values"]
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _domain_codes(self, domain: Domain) -> Dict[object, int]:
        codes = self._codes.get(domain)
        if codes is None:
            with self._lock:
                codes = self._codes.get(domain)
                if codes is None:
                    codes = {}
                    self._values[domain] = []
                    self._codes[domain] = codes
        return codes

    def _intern(self, domain: Domain, value: object) -> int:
        with self._lock:
            codes = self._codes[domain]
            code = codes.get(value)
            if code is None:
                values = self._values[domain]
                code = len(values)
                values.append(value)
                # Publish the code last: a lock-free reader either misses
                # (and falls into this locked path) or sees a fully
                # decodable code.
                codes[value] = code
            return code

    def seed(self, domain: Domain, values: List[object]) -> None:
        """Adopt an existing code → value table for *domain*.

        The segment store persists its dictionary tables on disk; on
        attach they become the starting state of the process-local
        dictionary so stored code columns decode without re-interning.
        Only valid before the domain has interned anything — seeded
        tables must own the low codes.
        """
        with self._lock:
            if self._values.get(domain):
                raise ValueError(f"domain {domain!r} already holds codes")
            self._values[domain] = list(values)
            self._codes[domain] = {
                value: code for code, value in enumerate(values)
            }

    def encode_row(self, domain: Domain, values) -> CodeRow:
        """Codes for a run of values of one domain, interning new ones."""
        codes = self._domain_codes(domain)
        out = array("I")
        append = out.append
        get = codes.get
        for value in values:
            code = get(value)
            if code is None:
                code = self._intern(domain, value)
            append(code)
        return out

    def encode_value(self, domain: Domain, value: object) -> int:
        """The code of one value, interning it if new."""
        codes = self._domain_codes(domain)
        code = codes.get(value)
        if code is None:
            code = self._intern(domain, value)
        return code

    def lookup(self, domain: Domain, value: object) -> Optional[int]:
        """The code of *value* if already interned, else None."""
        codes = self._codes.get(domain)
        if codes is None:
            return None
        return codes.get(value)

    def items(self, domain: Domain):
        """Snapshot of (value, code) pairs interned for *domain*."""
        with self._lock:
            codes = self._codes.get(domain)
            return list(codes.items()) if codes else []

    def decoder(self, domain: Domain) -> List[object]:
        """The live code → value list for *domain* (index by code).

        The list is append-only; holding a reference is always safe.
        """
        self._domain_codes(domain)
        return self._values[domain]

    def domain_size(self, domain: Domain) -> int:
        values = self._values.get(domain)
        return len(values) if values else 0

    def __repr__(self) -> str:
        return (
            f"DimensionDictionary({len(self._codes)} domains, "
            f"{sum(len(v) for v in self._values.values())} values)"
        )


class EncodedSequenceStore:
    """Per-database home of the dictionary and the sequence code rows.

    One store hangs off each :class:`~repro.events.database.EventDatabase`
    (see ``EventDatabase.encoding_store``), so every pipeline built over
    that database shares one dictionary.  The rows themselves are cached
    in each sequence's ``_code_cache`` slot — alongside the object-level
    ``_symbol_cache`` — which keys them to the sequence *object*, not the
    sid: sids are reused across pipelines, sequence objects are not.
    """

    def __init__(self) -> None:
        self.dictionary = DimensionDictionary()
        #: domains whose full base-data value set has been interned —
        #: required before accept-sets can be precomputed for restricted
        #: symbols (a lazily-interned value must never bypass a check)
        self._complete_domains: set = set()
        #: per non-base domain: base code → level code translation list,
        #: extended as new base values are interned
        self._level_maps: Dict[Domain, List[int]] = {}
        #: accept-sets memoised per (attribute, level, fixed, within):
        #: sound because the domain is closed before the set is built and
        #: event data is immutable, so a restriction always accepts the
        #: same codes no matter which query compiles it
        self._accept_sets: Dict[Tuple, frozenset] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {
            "dictionary": self.dictionary,
            "complete": self._complete_domains,
            "level_maps": self._level_maps,
            "accept_sets": self._accept_sets,
        }

    def __setstate__(self, state: dict) -> None:
        self.dictionary = state["dictionary"]
        self._complete_domains = state["complete"]
        self._level_maps = state.get("level_maps", {})
        self._accept_sets = state.get("accept_sets", {})
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def row(self, sequence, attribute: str, level: str) -> CodeRow:
        """The code row of *sequence* for one domain (built once, cached).

        Base-level rows encode the stored column values directly; coarser
        levels translate the base row through a code → code level map, so
        hierarchy mapping runs once per distinct *value*, not once per
        event."""
        domain = (attribute, level)
        cache = sequence._code_cache
        row = cache.get(domain)
        if row is None:
            db = sequence.db
            base_level = db.schema.hierarchy(attribute).base_level
            if level == base_level:
                row = self.dictionary.encode_row(
                    domain, sequence.symbols(attribute, level)
                )
            else:
                base_row = self.row(sequence, attribute, base_level)
                level_map = self._level_map(db, attribute, base_level, level)
                row = array("I", map(level_map.__getitem__, base_row))
            cache[domain] = row
        return row

    def _level_map(
        self, db, attribute: str, base_level: str, level: str
    ) -> List[int]:
        """The base-code → level-code list for one non-base domain.

        Extended (append-only, under the store lock) to cover every base
        code currently interned; callers translate base rows whose codes
        were interned before this call, so the returned list always covers
        them even if another thread keeps extending it."""
        domain = (attribute, level)
        base_domain = (attribute, base_level)
        dictionary = self.dictionary
        level_map = self._level_maps.get(domain)
        base_decoder = dictionary.decoder(base_domain)
        if level_map is not None and len(level_map) >= len(base_decoder):
            return level_map
        hierarchy = db.schema.hierarchy(attribute)
        with self._lock:
            level_map = self._level_maps.setdefault(domain, [])
            while len(level_map) < len(base_decoder):
                value = hierarchy.map_value(base_decoder[len(level_map)], level)
                level_map.append(dictionary.encode_value(domain, value))
        return level_map

    def accept_codes(self, db, symbol) -> frozenset:
        """Codes of *symbol*'s domain passing its fixed / within restriction.

        Requires :meth:`ensure_domain_complete` to have closed the domain
        first.  The set is cached per restriction: index-heavy workloads
        compile the same sliced symbols query after query, and rescanning
        the domain each time dominates compile cost.  A benign double-build
        under races stores the same value twice.
        """
        key = (symbol.attribute, symbol.level, symbol.fixed, symbol.within)
        found = self._accept_sets.get(key)
        if found is None:
            from repro.core.matcher import _symbol_value_ok

            schema = db.schema
            domain = (symbol.attribute, symbol.level)
            found = frozenset(
                code
                for value, code in self.dictionary.items(domain)
                if _symbol_value_ok(symbol, value, schema)
            )
            self._accept_sets[key] = found
        return found

    def ensure_domain_complete(self, db, attribute: str, level: str) -> None:
        """Intern every value the base data can produce for one domain.

        Restricted template symbols precompute *accept-sets* of codes; the
        set is only sound if no new value of the domain can appear after it
        is built.  Event data is immutable during query execution, so one
        pass over the (level-mapped) column closes the domain.  Raises
        :class:`~repro.errors.SchemaError` when a stored value has no
        mapping at *level*, which fails the template's compilation.
        """
        domain = (attribute, level)
        if domain in self._complete_domains:
            return
        for value in db.distinct(attribute, level):
            self.dictionary.encode_value(domain, value)
        with self._lock:
            self._complete_domains.add(domain)

    def __repr__(self) -> str:
        return f"EncodedSequenceStore({self.dictionary!r})"
