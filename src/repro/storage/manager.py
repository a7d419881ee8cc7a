"""The segment store: a directory of segments behaving like a database.

:class:`StorageManager` owns a store directory — a ``MANIFEST.json``
naming an ordered list of immutable segment files — and exposes it to
the rest of the engine as :class:`SegmentBackedDatabase`, a read-only
:class:`~repro.events.database.EventDatabase` whose columns materialise
lazily from the mapped segments.  The pieces that make queries run
unchanged on top of it:

* **Zero-copy code rows.**  :class:`SegmentEncodedStore` subclasses
  :class:`~repro.events.encoding.EncodedSequenceStore` so the compiled
  matcher, the CB/II kernels and every executor backend see the exact
  interface they already use — but base-level code rows are gathered
  straight out of the mapped uint32 columns instead of being re-encoded
  from Python values, and domains arrive pre-closed from the on-disk
  dictionary tables (``ensure_domain_complete`` never scans events).

* **Attach by path.**  ``SegmentBackedDatabase.__reduce__`` pickles as
  ``attach_store(root)`` — a worker process receives a short path
  string, maps the shared pages in O(1), and never deserialises the
  event data.  The per-process memo keeps one manager per store, so a
  pool of tasks attaches once.

* **Append-only growth.**  :meth:`StorageManager.append_events` writes a
  *new* segment whose dictionary tables are seeded with the cumulative
  tables of its predecessors — a code means the same value in every
  segment, so columns concatenate without remapping.
  :meth:`StorageManager.compact` rewrites the set into one segment,
  restoring single-file zero-copy reads.

The manager also keeps its own attach telemetry (count, latency
histogram, bytes mapped) which :func:`register_storage_metrics` exposes
on a :class:`~repro.obs.metrics.MetricsRegistry` as the
``solap_storage_*`` family.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence as Seq, Tuple

from repro.errors import StorageError
from repro.events.database import EventDatabase
from repro.events.encoding import EncodedSequenceStore
from repro.events.sequence import (
    Sequence,
    SequenceGroup,
    SequenceGroupSet,
    build_sequence_groups,
)
from repro.io.events_io import schema_to_dict
from repro.obs.metrics import BucketHistogram, MetricsRegistry
from repro.obs.spans import span
from repro.storage import format as fmt
from repro.storage.segment import (
    SEGMENT_SUFFIX,
    SegmentLayout,
    SegmentReader,
    SegmentWriter,
)

MANIFEST_NAME = "MANIFEST.json"

#: an (attribute, level) CLUSTER BY / GROUP BY pair and a SEQUENCE BY key,
#: mirroring repro.events.sequence
AttrLevel = Tuple[str, str]
OrderKey = Tuple[str, bool]


def is_segment_store(path) -> bool:
    """Whether *path* is a segment-store directory (has a manifest)."""
    return (Path(path) / MANIFEST_NAME).is_file()


def _read_manifest(root: Path) -> dict:
    path = root / MANIFEST_NAME
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"no segment store at {root}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StorageError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("segments"), list):
        raise StorageError(f"manifest {path} is malformed")
    version = data.get("format_version")
    if version != fmt.FORMAT_VERSION:
        raise StorageError(
            f"manifest {path} has format version {version!r}; this reader "
            f"understands version {fmt.FORMAT_VERSION}"
        )
    if not data["segments"]:
        raise StorageError(f"manifest {path} lists no segments")
    return data


def _write_manifest(root: Path, names: Seq[str]) -> None:
    payload = json.dumps(
        {"format_version": fmt.FORMAT_VERSION, "segments": list(names)},
        indent=2,
    )
    # tmp + rename so a crash mid-write never leaves a torn manifest
    tmp = root / (MANIFEST_NAME + ".tmp")
    tmp.write_text(payload, encoding="utf-8")
    os.replace(tmp, root / MANIFEST_NAME)


def _segment_name(index: int) -> str:
    return f"segment-{index:06d}{SEGMENT_SUFFIX}"


def _segment_index(name: str) -> int:
    stem = name[: -len(SEGMENT_SUFFIX)]
    try:
        return int(stem.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return -1


def build_layout(
    db,
    cluster_by: Seq[AttrLevel],
    sequence_by: Seq[OrderKey],
    group_by: Seq[AttrLevel] = (),
) -> SegmentLayout:
    """Run the sequence pipeline and freeze the result as a stored layout.

    The layout records each sequence's row slice (offsets + flattened
    rows), its cluster key, and its group key, in sid order — enough for
    :meth:`SegmentBackedDatabase.stored_groups` to rebuild the
    :class:`SequenceGroupSet` without selecting, clustering or sorting.
    """
    groups = build_sequence_groups(db, None, cluster_by, sequence_by, group_by)
    sequences = sorted(groups.all_sequences(), key=lambda seq: seq.sid)
    group_key_by_sid: Dict[int, Tuple[object, ...]] = {}
    for group in groups:
        for sequence in group:
            group_key_by_sid[sequence.sid] = group.key
    rows = array("I")
    offsets = array("I", [0])
    cluster_keys: List[List[object]] = []
    group_keys: List[List[object]] = []
    for sequence in sequences:
        rows.extend(sequence.rows)
        offsets.append(len(rows))
        cluster_keys.append(list(sequence.cluster_key))
        group_keys.append(list(group_key_by_sid[sequence.sid]))
    meta = {
        "cluster_by": [[attr, level] for attr, level in cluster_by],
        "sequence_by": [[attr, bool(asc)] for attr, asc in sequence_by],
        "group_by": [[attr, level] for attr, level in group_by],
        "cluster_keys": cluster_keys,
        "group_keys": group_keys,
    }
    return SegmentLayout(meta, rows, offsets)


class _LazyColumns(dict):
    """Column map that decodes segment columns on first access.

    ``EventDatabase.column`` indexes ``_columns`` and converts
    ``KeyError`` to ``SchemaError``; ``__missing__`` keeps that contract
    by raising ``KeyError`` for attributes the schema does not declare.
    """

    def __init__(self, db: "SegmentBackedDatabase"):
        super().__init__()
        self._db = db

    def __missing__(self, attribute: str):
        column = self._db._materialise_column(attribute)  # raises KeyError
        self[attribute] = column
        return column


class SegmentEncodedStore(EncodedSequenceStore):
    """An encoding store whose base domains come from the segment files.

    Differences from the in-memory store, all invisible to callers:

    * base-level dictionaries are **seeded** from the on-disk tables at
      construction, so codes match the stored columns exactly;
    * base-level code rows are **gathered** from the mapped uint32
      columns (``codes[row]`` per event) instead of hashing Python
      values — the matcher's hot path never touches decoded objects;
    * ``ensure_domain_complete`` is O(|domain|): base domains are closed
      by construction (every stored code has a dictionary entry), and
      coarser levels close by mapping the dictionary's values, never by
      scanning events.
    """

    def __init__(self, manager: "StorageManager"):
        super().__init__()
        self._manager = manager
        schema = manager.schema
        for attribute in schema.dimensions:
            base_level = schema.hierarchy(attribute).base_level
            self.dictionary.seed(
                (attribute, base_level), manager.dictionary_values(attribute)
            )

    # the store is rebuilt from the segment files on attach, never pickled
    def __getstate__(self):  # pragma: no cover - guarded by __reduce__
        raise TypeError(
            "SegmentEncodedStore does not pickle; the owning database "
            "re-attaches by path"
        )

    def row(self, sequence, attribute: str, level: str):
        domain = (attribute, level)
        cache = sequence._code_cache
        row = cache.get(domain)
        if row is None:
            db = sequence.db
            base_level = db.schema.hierarchy(attribute).base_level
            if level == base_level:
                codes = self._manager.codes(attribute)
                row = array("I", map(codes.__getitem__, sequence.rows))
            else:
                base_row = self.row(sequence, attribute, base_level)
                level_map = self._level_map(db, attribute, base_level, level)
                row = array("I", map(level_map.__getitem__, base_row))
            cache[domain] = row
        return row

    def ensure_domain_complete(self, db, attribute: str, level: str) -> None:
        domain = (attribute, level)
        if domain in self._complete_domains:
            return
        base_level = db.schema.hierarchy(attribute).base_level
        if level != base_level:
            # Building the level map interns the mapped value of every
            # dictionary entry — and raises SchemaError on unmapped
            # values, exactly like the in-memory scan would.
            self._level_map(db, attribute, base_level, level)
        with self._lock:
            self._complete_domains.add(domain)


class SegmentBackedDatabase(EventDatabase):
    """A read-only :class:`EventDatabase` over a mapped segment store.

    Lazy everywhere: attaching maps the files and decodes nothing; a
    column materialises the first time something indexes it (predicates,
    measure aggregates, sequence ordering), while the encoded hot path
    reads the uint32 columns directly and may never decode at all.

    Pickling is attach-by-path: workers receive the store's root and
    ``mmap`` the same pages instead of deserialising event data.
    """

    def __init__(self, manager: "StorageManager"):
        self.schema = manager.schema
        self._manager = manager
        self._columns = _LazyColumns(self)
        self._length = manager.n_events

    @property
    def storage(self) -> "StorageManager":
        """The managing :class:`StorageManager` (segment store handle)."""
        return self._manager

    def __reduce__(self):
        return (attach_store, (str(self._manager.root),))

    # -- read-only: growth goes through StorageManager.append_events -----
    def append(self, event) -> int:
        raise StorageError(
            "segment-backed databases are read-only; append events with "
            "StorageManager.append_events (writes a new segment)"
        )

    def extend(self, events) -> None:
        raise StorageError(
            "segment-backed databases are read-only; append events with "
            "StorageManager.append_events (writes a new segment)"
        )

    # ------------------------------------------------------------------
    def _materialise_column(self, attribute: str) -> List[object]:
        manager = self._manager
        if self.schema.is_dimension(attribute):
            decoder = manager.dictionary_values(attribute)
            return list(map(decoder.__getitem__, manager.codes(attribute)))
        if attribute in self.schema.measures:
            return manager.measure_column(attribute)
        raise KeyError(attribute)

    def distinct(
        self, attribute: str, level: Optional[str] = None
    ) -> Tuple[object, ...]:
        """Sorted distinct values — read from the dictionary, not the data.

        Store-level dictionaries hold exactly the values witnessed by
        stored events (appends seed cumulatively, compaction re-interns
        from live data), so this matches the in-memory scan in
        O(|domain|) instead of O(events).
        """
        if self.schema.is_dimension(attribute):
            hierarchy = self.schema.hierarchy(attribute)
            values = set(self._manager.dictionary_values(attribute))
            if level is not None and level != hierarchy.base_level:
                values = {hierarchy.map_value(value, level) for value in values}
            return tuple(sorted(values, key=repr))
        return super().distinct(attribute, level)

    def encoding_store(self):
        store = getattr(self, "_encoding", None)
        if store is None:
            store = SegmentEncodedStore(self._manager)
            self._encoding = store
        return store

    # ------------------------------------------------------------------
    def stored_groups(
        self,
        where,
        cluster_by: Seq[AttrLevel],
        sequence_by: Seq[OrderKey],
        group_by: Seq[AttrLevel] = (),
    ) -> Optional[SequenceGroupSet]:
        """The stored sequence layout as a group set, if it answers the spec.

        Returns ``None`` (caller falls back to the live pipeline) unless
        the store has a single segment carrying a layout whose pipeline
        spec matches exactly and the query has no WHERE predicate.  Sids
        and ordering reproduce :func:`build_sequence_groups` bit for bit:
        the layout was frozen from that very pipeline in sid order.
        """
        if where is not None:
            return None
        layout = self._manager.stored_layout()
        if layout is None:
            return None
        meta = layout.meta
        if (
            meta.get("cluster_by") != [[a, lv] for a, lv in cluster_by]
            or meta.get("sequence_by")
            != [[a, bool(asc)] for a, asc in sequence_by]
            or meta.get("group_by") != [[a, lv] for a, lv in group_by]
        ):
            return None
        cluster_keys = meta["cluster_keys"]
        sequences = [
            Sequence(
                index,
                self,
                tuple(layout.sequence_rows(index)),
                cluster_key=tuple(cluster_keys[index]),
            )
            for index in range(layout.n_sequences)
        ]
        grouped: Dict[Tuple[object, ...], List[Sequence]] = {}
        for sequence, key in zip(sequences, meta["group_keys"]):
            grouped.setdefault(tuple(key), []).append(sequence)
        return SequenceGroupSet(
            global_dims=tuple((a, lv) for a, lv in group_by),
            groups={
                key: SequenceGroup(key, members)
                for key, members in grouped.items()
            },
        )

    def __repr__(self) -> str:
        return (
            f"SegmentBackedDatabase({self._length} events, "
            f"{self._manager.segments_open} segments at "
            f"{self._manager.root})"
        )


class StorageManager:
    """Owner of one segment-store directory.

    Thread-safe for the operations the service layer performs
    concurrently (attach, metric reads); writes (append, compact) take
    the manager lock and are expected to be single-writer, matching the
    daily-append maintenance model of the paper's §6.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._segments: List[SegmentReader] = []
        self._names: List[str] = []
        self._db: Optional[SegmentBackedDatabase] = None
        self._codes_cache: Dict[str, object] = {}
        #: attach telemetry, exposed via register_storage_metrics
        self.attach_count = 0
        #: latency of this manager's last attach(), read by traced workers
        #: to report attach cost that predates their task tracer
        self.last_attach_seconds = 0.0
        self.attach_hist = BucketHistogram()
        self._extra_hists: List[object] = []
        start = time.monotonic()
        manifest = _read_manifest(self.root)
        for name in manifest["segments"]:
            self._open_segment(name)
        self._open_seconds = time.monotonic() - start
        self.schema = self._segments[-1].schema

    @classmethod
    def open(cls, root) -> "StorageManager":
        return cls(root)

    @classmethod
    def write(
        cls,
        db,
        root,
        cluster_by: Seq[AttrLevel] = (),
        sequence_by: Seq[OrderKey] = (),
        group_by: Seq[AttrLevel] = (),
    ) -> "StorageManager":
        """Materialise *db* as a fresh single-segment store at *root*.

        Pass *cluster_by*/*sequence_by* (and optionally *group_by*) to
        also freeze the sequence pipeline's result into the segment, so
        matching queries skip sequence formation entirely.
        """
        root = Path(root)
        if is_segment_store(root):
            raise StorageError(
                f"{root} already holds a segment store; attach and append, "
                "or choose an empty directory"
            )
        root.mkdir(parents=True, exist_ok=True)
        with span("storage.write") as sp:
            writer = SegmentWriter(db.schema)
            writer.add_database(db)
            layout = None
            if cluster_by and sequence_by:
                layout = build_layout(db, cluster_by, sequence_by, group_by)
            name = _segment_name(0)
            writer.write(root / name, layout)
            _write_manifest(root, [name])
            sp.set("events", writer.n_events)
            sp.set("segments", 1)
        return cls(root)

    @classmethod
    def create(cls, schema, root) -> "StorageManager":
        """An empty store (one zero-event segment) ready for appends."""
        return cls.write(EventDatabase(schema), root)

    # ------------------------------------------------------------------
    def _open_segment(self, name: str) -> SegmentReader:
        reader = SegmentReader(self.root / name)
        self._segments.append(reader)
        self._names.append(name)
        return reader

    @property
    def segments_open(self) -> int:
        return len(self._segments)

    @property
    def segment_names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    @property
    def n_events(self) -> int:
        return sum(segment.n_events for segment in self._segments)

    @property
    def bytes_mapped(self) -> int:
        return sum(segment.bytes_mapped for segment in self._segments)

    def dictionary_values(self, attribute: str) -> List[object]:
        """The cumulative code → value table (the newest segment's copy).

        Appended segments seed their dictionaries with every predecessor
        value, so the last segment's table decodes the whole store.
        """
        return self._segments[-1].dictionary(attribute)

    def codes(self, attribute: str):
        """The store-wide uint32 code column for one dimension.

        A single-segment store returns the zero-copy mapped view; a
        multi-segment store concatenates into a process-local
        ``array('I')`` once and caches it (compaction restores the
        zero-copy read).
        """
        cached = self._codes_cache.get(attribute)
        if cached is None:
            if len(self._segments) == 1:
                cached = self._segments[0].codes(attribute)
            else:
                combined = array("I")
                for segment in self._segments:
                    combined.extend(segment.codes(attribute))
                cached = combined
            self._codes_cache[attribute] = cached
        return cached

    def measure_column(self, attribute: str) -> List[object]:
        column: List[object] = []
        for segment in self._segments:
            column.extend(segment.measure_column(attribute))
        return column

    def stored_layout(self) -> Optional[SegmentLayout]:
        """The stored pipeline layout — only valid for single-segment
        stores (appended events are not in an old layout)."""
        if len(self._segments) != 1:
            return None
        return self._segments[0].layout()

    # ------------------------------------------------------------------
    def attach(self) -> SegmentBackedDatabase:
        """The (cached) database view of this store.

        The first attach is the one that pays: manifest read + per-file
        ``mmap`` (already done in the constructor, included in the
        recorded latency) plus construction of the lazy views.
        """
        with self._lock:
            if self._db is None:
                start = time.monotonic()
                with span("storage.attach") as sp:
                    self._db = SegmentBackedDatabase(self)
                    sp.set("segments", self.segments_open)
                    sp.set("events", self._db._length)
                    sp.set("bytes_mapped", self.bytes_mapped)
                elapsed = self._open_seconds + (time.monotonic() - start)
                self._open_seconds = 0.0
                self.attach_count += 1
                self.last_attach_seconds = elapsed
                self._observe_attach(elapsed)
            return self._db

    def _observe_attach(self, seconds: float) -> None:
        self.attach_hist.observe(seconds)
        for hist in self._extra_hists:
            hist.observe(seconds)

    # ------------------------------------------------------------------
    def append_events(self, events: Iterable[Mapping[str, object]]) -> int:
        """Write *events* as a new segment; returns the number appended.

        The new segment's dictionaries are seeded with the cumulative
        tables, keeping codes store-consistent.  The attached database
        and caches are invalidated — callers re-attach to see the data.
        """
        with self._lock, span("storage.write") as sp:
            writer = SegmentWriter(
                self.schema,
                dictionaries={
                    attr: self.dictionary_values(attr)
                    for attr in self.schema.dimensions
                },
            )
            count = writer.add_events(events)
            next_index = max(_segment_index(n) for n in self._names) + 1
            name = _segment_name(next_index)
            path = writer.write(self.root / name)
            reader = SegmentReader(path)
            self._segments.append(reader)
            self._names.append(name)
            _write_manifest(self.root, self._names)
            self._invalidate()
            sp.set("events", count)
            sp.set("segments", len(self._segments))
        return count

    def compact(
        self,
        cluster_by: Seq[AttrLevel] = (),
        sequence_by: Seq[OrderKey] = (),
        group_by: Seq[AttrLevel] = (),
    ) -> int:
        """Rewrite all segments into one; returns the segment count folded.

        Restores single-file zero-copy column reads after a run of
        appends.  Pass a pipeline spec to freeze a fresh layout into the
        compacted segment; with no spec, the spec of the first segment's
        stored layout (if any) carries over, rebuilt to cover the
        appended events.  Old files are deleted only after the new
        manifest is durably in place.
        """
        with self._lock:
            folded = len(self._segments)
            if folded == 1 and not (cluster_by and sequence_by):
                return folded
            if not (cluster_by and sequence_by):
                old_layout = self._segments[0].layout()
                if old_layout is not None:
                    meta = old_layout.meta
                    cluster_by = tuple(
                        (a, lv) for a, lv in meta.get("cluster_by", ())
                    )
                    sequence_by = tuple(
                        (a, bool(asc))
                        for a, asc in meta.get("sequence_by", ())
                    )
                    group_by = tuple(
                        (a, lv) for a, lv in meta.get("group_by", ())
                    )
            db = self._db or SegmentBackedDatabase(self)
            with span("storage.write") as sp:
                writer = SegmentWriter(self.schema)
                writer.add_database(db)
                layout = None
                if cluster_by and sequence_by:
                    layout = build_layout(db, cluster_by, sequence_by, group_by)
                next_index = max(_segment_index(n) for n in self._names) + 1
                name = _segment_name(next_index)
                writer.write(self.root / name, layout)
                old_names = list(self._names)
                _write_manifest(self.root, [name])
                for segment in self._segments:
                    segment.close()
                self._segments = []
                self._names = []
                self._open_segment(name)
                for old in old_names:
                    try:
                        (self.root / old).unlink()
                    except OSError:
                        pass  # stale file; manifest no longer references it
                self._invalidate()
                sp.set("events", writer.n_events)
                sp.set("segments", 1)
            return folded

    def _invalidate(self) -> None:
        self._db = None
        self._codes_cache = {}

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Full store check: every segment plus the cross-segment rules.

        Raises :class:`~repro.errors.StorageError` on the first
        violation: a failed per-segment CRC/structure check, diverging
        schemas, or a dictionary that is not a prefix of its successor's
        (the append-only guarantee that makes codes store-consistent).
        """
        reference = None
        for segment in self._segments:
            segment.verify()
            described = schema_to_dict(segment.schema)
            if reference is None:
                reference = described
            elif described != reference:
                raise StorageError(
                    f"segment {segment.path} schema diverges from the "
                    "store's first segment"
                )
        for earlier, later in zip(self._segments, self._segments[1:]):
            for attribute in self.schema.dimensions:
                prefix = earlier.dictionary(attribute)
                full = later.dictionary(attribute)
                if full[: len(prefix)] != prefix:
                    raise StorageError(
                        f"dictionary for {attribute!r} in {later.path} does "
                        f"not extend {earlier.path}'s — codes would decode "
                        "differently across segments"
                    )

    def close(self) -> None:
        with self._lock:
            for segment in self._segments:
                segment.close()
            self._invalidate()
        # A closed manager must not be handed out again by attach_store:
        # its mmaps are released and the next scan would fault.
        key = os.path.realpath(str(self.root))
        with _ATTACH_LOCK:
            entry = _ATTACH_MEMO.get(key)
            if entry is not None and entry[1] is self:
                del _ATTACH_MEMO[key]

    def __repr__(self) -> str:
        return (
            f"StorageManager({self.root}, {self.segments_open} segments, "
            f"{self.n_events} events)"
        )


# --------------------------------------------------------------------------
# Attach-by-path (the pickle target of SegmentBackedDatabase)
# --------------------------------------------------------------------------

_ATTACH_MEMO: Dict[str, Tuple[Tuple[str, ...], StorageManager]] = {}
_ATTACH_LOCK = threading.Lock()


def attach_store(root) -> SegmentBackedDatabase:
    """Attach the segment store at *root*, memoised per process.

    This is what a spawn/fork worker executes when a
    :class:`SegmentBackedDatabase` "arrives" in a task: map the store's
    pages and share one manager across every task in the process.  The
    memo key includes the manifest's segment list, so an append (which
    changes the manifest) transparently re-attaches.
    """
    key = os.path.realpath(str(root))
    names = tuple(_read_manifest(Path(key))["segments"])
    with _ATTACH_LOCK:
        entry = _ATTACH_MEMO.get(key)
        if entry is None or entry[0] != names:
            entry = (names, StorageManager(key))
            _ATTACH_MEMO[key] = entry
        manager = entry[1]
    return manager.attach()


def register_storage_metrics(
    registry: MetricsRegistry, manager: StorageManager
) -> None:
    """Expose a manager's storage telemetry as ``solap_storage_*`` metrics.

    Gauges are pull-based (evaluated at scrape time); the attach
    histogram merges what the manager already observed and receives
    future observations directly.
    """
    registry.gauge(
        "solap_storage_segments_open",
        "Segment files currently mapped by the store",
    ).set_function(lambda: manager.segments_open)
    registry.gauge(
        "solap_storage_bytes_mapped",
        "Total bytes of segment files currently mapped",
    ).set_function(lambda: manager.bytes_mapped)
    registry.counter(
        "solap_storage_attaches_total",
        "Store attachments performed by this process",
    ).attach_callback(lambda: manager.attach_count)
    hist = registry.histogram(
        "solap_storage_attach_seconds",
        "Latency of attaching the segment store (mmap + lazy view setup)",
    ).labels()
    hist.merge(manager.attach_hist)
    manager._extra_hists.append(hist)
