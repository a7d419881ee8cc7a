"""Unit tests for the mmap-backed columnar segment store."""

import pickle
from array import array

import pytest

from repro import Dimension, EventDatabase, Hierarchy, Measure, Schema, SOLAPEngine
from repro.cli import main
from repro.errors import StorageError
from repro.events.sequence import build_sequence_groups
from repro.obs.metrics import MetricsRegistry
from repro.service import QueryService, ServiceConfig
from repro.storage import (
    FORMAT_VERSION,
    MAGIC,
    SegmentReader,
    SegmentWriter,
    StorageManager,
    attach_store,
    is_segment_store,
    register_storage_metrics,
)
from repro.storage import format as fmt

GROUP_OF = {"a": "G1", "b": "G1", "c": "G2", "d": "G2"}

CLUSTER_BY = (("seq", "seq"),)
SEQUENCE_BY = (("ts", True),)


def make_schema(with_measure: bool = False) -> Schema:
    measures = [Measure("amount")] if with_measure else []
    return Schema(
        [
            Dimension("seq"),
            Dimension("ts"),
            Dimension(
                "symbol",
                Hierarchy("symbol", ("symbol", "group"), {"group": GROUP_OF}),
            ),
        ],
        measures,
    )


def make_db(sequences, with_measure: bool = False) -> EventDatabase:
    db = EventDatabase(make_schema(with_measure))
    for seq_id, symbols in enumerate(sequences):
        for position, symbol in enumerate(symbols):
            event = {"seq": seq_id, "ts": position, "symbol": symbol}
            if with_measure:
                event["amount"] = float(seq_id * 10 + position)
            db.append(event)
    return db


SEQUENCES = [["a", "b", "a"], ["c", "d"], ["b", "b", "c", "a"]]


@pytest.fixture
def store(tmp_path):
    db = make_db(SEQUENCES, with_measure=True)
    manager = StorageManager.write(
        db, tmp_path / "store", cluster_by=CLUSTER_BY, sequence_by=SEQUENCE_BY
    )
    yield db, manager
    manager.close()


# ---------------------------------------------------------------------------
# format layer
# ---------------------------------------------------------------------------


class TestFormat:
    def test_header_round_trip(self):
        raw = fmt.pack_header(648, 4096, 512, flags=3)
        assert raw[:8] == MAGIC
        header = fmt.unpack_header(raw)
        assert header.version == FORMAT_VERSION
        assert header.flags == 3
        assert header.n_events == 648
        assert header.directory_offset == 4096
        assert header.directory_length == 512

    def test_header_rejects_bad_magic(self):
        raw = b"NOTASEG1" + fmt.pack_header(1, 2, 3)[8:]
        with pytest.raises(StorageError, match="bad magic"):
            fmt.unpack_header(raw)

    def test_header_rejects_unknown_version(self):
        raw = fmt.pack_header(1, 2, 3, version=FORMAT_VERSION + 9)
        with pytest.raises(StorageError, match="version"):
            fmt.unpack_header(raw)

    def test_header_rejects_truncation(self):
        with pytest.raises(StorageError, match="too short"):
            fmt.unpack_header(fmt.pack_header(1, 2, 3)[:10])

    def test_footer_round_trip_and_checksum(self):
        payload = b"payload bytes"
        crc = fmt.payload_crc32(payload)
        raw = fmt.pack_footer(crc, 1234)
        read_crc, read_length = fmt.unpack_footer(raw)
        assert read_crc == crc
        assert read_length == 1234
        assert fmt.payload_crc32(payload + b"x") != crc

    def test_footer_rejects_bad_magic(self):
        raw = b"XXXXXXXX" + fmt.pack_footer(0, 0)[8:]
        with pytest.raises(StorageError, match="truncated"):
            fmt.unpack_footer(raw)

    def test_u32_round_trip_is_little_endian_on_disk(self):
        values = [0, 1, 0xDEADBEEF, 2**32 - 1]
        raw = fmt.encode_u32(values)
        assert raw[:4] == (0).to_bytes(4, "little")
        assert raw[4:8] == (1).to_bytes(4, "little")
        decoded = fmt.decode_u32(raw, little_endian_host=True)
        assert list(decoded) == values
        assert isinstance(decoded, memoryview)  # zero-copy path

    def test_u32_big_endian_host_branch(self):
        """The byteswap branch, forced on a little-endian machine: feed it
        the same little-endian disk bytes and it must still decode the
        original values (as a copied array, not a view)."""
        values = [7, 0x01020304, 42]
        swapped = array("I", values)
        swapped.byteswap()  # simulate how LE disk bytes look to a BE host
        decoded = fmt.decode_u32(swapped.tobytes(), little_endian_host=False)
        assert isinstance(decoded, array)
        assert list(decoded) == values

    def test_u32_rejects_ragged_length(self):
        with pytest.raises(StorageError, match="multiple of 4"):
            fmt.decode_u32(b"\x00" * 5)

    def test_directory_rejects_duplicates_and_unknown_kinds(self):
        entry = fmt.SectionEntry("codes:x", "u32", 40, 8, 2)
        raw = fmt.encode_directory([entry, entry])
        with pytest.raises(StorageError, match="duplicate"):
            fmt.decode_directory(raw)
        with pytest.raises(StorageError, match="unknown kind"):
            fmt.SectionEntry.from_json(
                {"name": "x", "kind": "wat", "offset": 0, "length": 0, "count": 0}
            )


# ---------------------------------------------------------------------------
# segment + store behaviour
# ---------------------------------------------------------------------------


class TestSegmentStore:
    def test_columns_and_distinct_round_trip(self, store):
        db, manager = store
        attached = manager.attach()
        assert len(attached) == len(db)
        for attr in ("seq", "ts", "symbol"):
            assert attached.column(attr) == db.column(attr)
            assert attached.distinct(attr) == db.distinct(attr)
        assert attached.distinct("symbol", "group") == db.distinct("symbol", "group")

    def test_measures_round_trip(self, store):
        db, manager = store
        attached = manager.attach()
        assert attached.column("amount") == db.column("amount")

    def test_attached_store_is_read_only(self, store):
        __, manager = store
        attached = manager.attach()
        with pytest.raises(StorageError, match="read-only"):
            attached.append({"seq": 99, "ts": 0, "symbol": "a", "amount": 0.0})
        with pytest.raises(StorageError, match="read-only"):
            attached.extend([{"seq": 99, "ts": 0, "symbol": "a", "amount": 0.0}])

    def test_verify_passes_on_clean_store(self, store):
        __, manager = store
        manager.verify()

    def test_corrupted_section_fails_verify_with_typed_error(self, store, tmp_path):
        __, manager = store
        path = tmp_path / "store" / "segment-000000.seg"
        with SegmentReader(path) as probe:
            offset = probe.sections["codes:symbol"].offset
        manager.close()
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0xFF  # flip one code-column byte
        path.write_bytes(bytes(raw))
        reopened = StorageManager.open(tmp_path / "store")
        try:
            with pytest.raises(StorageError, match="checksum mismatch"):
                reopened.verify()
        finally:
            reopened.close()

    def test_truncated_segment_fails_attach_in_o1(self, store, tmp_path):
        __, manager = store
        manager.close()
        path = tmp_path / "store" / "segment-000000.seg"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(StorageError):
            StorageManager.open(tmp_path / "store")

    def test_append_grows_store_with_cumulative_dictionaries(self, store):
        db, manager = store
        before = manager.n_events
        manager.append_events(
            [
                {"seq": 90, "ts": 0, "symbol": "d", "amount": 1.0},
                {"seq": 90, "ts": 1, "symbol": "a", "amount": 2.0},
            ]
        )
        assert manager.segments_open == 2
        assert manager.n_events == before + 2
        manager.verify()  # includes the dictionary prefix property
        # newest segment's dictionary decodes the whole store
        old_values = set(db.distinct("symbol"))
        assert old_values <= set(manager.dictionary_values("symbol"))
        attached = manager.attach()
        assert attached.column("symbol") == db.column("symbol") + ["d", "a"]
        assert attached.column("amount") == db.column("amount") + [1.0, 2.0]

    def test_compact_folds_segments_preserving_contents(self, store, tmp_path):
        __, manager = store
        manager.append_events([{"seq": 91, "ts": 0, "symbol": "b", "amount": 3.0}])
        expected = manager.attach().column("symbol")
        folded = manager.compact()
        assert folded == 2
        assert manager.segments_open == 1
        manager.verify()
        assert manager.attach().column("symbol") == expected

    def test_stored_layout_matches_live_pipeline(self, store):
        db, manager = store
        attached = manager.attach()
        live = build_sequence_groups(db, None, CLUSTER_BY, SEQUENCE_BY)
        stored = attached.stored_groups(None, CLUSTER_BY, SEQUENCE_BY, ())
        assert stored is not None
        assert set(stored.groups) == set(live.groups)
        for key, want in live.groups.items():
            got = stored.groups[key]
            assert got.key == want.key
            assert [s.sid for s in got.sequences] == [s.sid for s in want.sequences]
            assert [tuple(s.rows) for s in got.sequences] == [
                tuple(s.rows) for s in want.sequences
            ]
        # a spec mismatch falls back to the live pipeline (returns None)
        assert attached.stored_groups(None, CLUSTER_BY, (("ts", False),), ()) is None

    def test_pickle_round_trips_by_path_and_memoises(self, store):
        __, manager = store
        attached = manager.attach()
        blob = pickle.dumps(attached)
        assert len(blob) < 500  # a path, not the columns
        first = pickle.loads(blob)
        second = pickle.loads(blob)
        assert first is second
        assert first.column("symbol") == attached.column("symbol")

    def test_attach_store_detection(self, store, tmp_path):
        assert is_segment_store(tmp_path / "store")
        assert not is_segment_store(tmp_path)
        first = attach_store(str(tmp_path / "store"))
        assert first is attach_store(str(tmp_path / "store"))

    def test_write_refuses_existing_store(self, store, tmp_path):
        db, __ = store
        with pytest.raises(StorageError, match="already holds"):
            StorageManager.write(db, tmp_path / "store")

    def test_single_segment_verify_via_reader(self, store, tmp_path):
        __, manager = store
        manager.close()
        with SegmentReader(tmp_path / "store" / "segment-000000.seg") as reader:
            reader.verify()
            assert reader.n_events == len(make_db(SEQUENCES))

    def test_writer_preserves_row_order(self, tmp_path):
        db = make_db(SEQUENCES)
        writer = SegmentWriter(db.schema)
        writer.add_database(db)
        writer.write(tmp_path / "one.seg")
        with SegmentReader(tmp_path / "one.seg") as reader:
            dictionary = reader.dictionary("symbol")
            codes = reader.codes("symbol")
            assert [dictionary[c] for c in codes] == db.column("symbol")


# ---------------------------------------------------------------------------
# engine / service integration
# ---------------------------------------------------------------------------


def _spec():
    from repro import CuboidSpec, PatternTemplate
    from repro.core.spec import PatternKind

    template = PatternTemplate.build(
        PatternKind.SUBSTRING, ("X", "Y"), {"X": ("symbol", "symbol"), "Y": ("symbol", "symbol")}
    )
    return CuboidSpec(template=template, cluster_by=CLUSTER_BY, sequence_by=SEQUENCE_BY)


class TestIntegration:
    def test_engine_runs_unchanged_over_attached_store(self, store):
        db, manager = store
        spec = _spec()
        memory, __ = SOLAPEngine(db).execute(spec, "cb")
        segment, __ = SOLAPEngine(manager.attach()).execute(spec, "cb")
        assert segment.to_dict() == memory.to_dict()

    def test_attach_store_after_close_reopens(self, store, tmp_path):
        # close() must drop the attach memo: a memoised manager with
        # released mmaps fails the next scan ("operation forbidden on
        # released memoryview object").
        db, __ = store
        spec = _spec()
        expected, __ = SOLAPEngine(db).execute(spec, "cb")
        first = attach_store(tmp_path / "store")
        first.storage.close()
        second = attach_store(tmp_path / "store")
        try:
            assert second.storage is not first.storage
            cuboid, __ = SOLAPEngine(second).execute(spec, "cb")
            assert cuboid.to_dict() == expected.to_dict()
        finally:
            second.storage.close()

    def test_worker_init_histogram_populated(self, store):
        __, manager = store
        svc = QueryService(
            manager.attach(),
            ServiceConfig(max_workers=2, shards=2, executor_backend="process"),
        )
        try:
            snapshot = svc.metrics.snapshot()
        finally:
            svc.close()
        assert snapshot["worker_init"]["count"] == 2
        assert snapshot["worker_init"]["max_seconds"] >= 0.0

    def test_storage_metrics_registered(self, store):
        __, manager = store
        manager.attach()
        registry = MetricsRegistry()
        register_storage_metrics(registry, manager)
        text = registry.render_prometheus()
        assert "solap_storage_segments_open 1" in text
        assert "solap_storage_bytes_mapped" in text
        assert "solap_storage_attaches_total 1" in text
        assert "solap_storage_attach_seconds" in text

    def test_incremental_maintainer_mirrors_into_store(self, tmp_path):
        """PartitionedIndexMaintainer(storage=...) lands every ingested
        batch as one appended segment, keeping disk and memory in step."""
        from repro import PatternTemplate
        from repro.core.spec import PatternKind
        from repro.extensions.incremental import PartitionedIndexMaintainer

        schema = make_schema()
        db = EventDatabase(schema)
        manager = StorageManager.create(schema, tmp_path / "store")
        template = PatternTemplate.build(
            PatternKind.SUBSTRING,
            ("X", "Y"),
            {"X": ("symbol", "symbol"), "Y": ("symbol", "symbol")},
        )
        maintainer = PartitionedIndexMaintainer(
            db,
            template,
            cluster_by=CLUSTER_BY,
            sequence_by=SEQUENCE_BY,
            partition_of=lambda e: int(e["seq"]),
            storage=manager,
        )
        try:
            maintainer.ingest(
                [{"seq": 0, "ts": t, "symbol": s} for t, s in enumerate("aba")]
            )
            maintainer.ingest(
                [{"seq": 1, "ts": t, "symbol": s} for t, s in enumerate("cd")]
            )
            manager.verify()
            assert manager.segments_open == 3  # empty seed + two batches
            attached = manager.attach()
            assert attached.column("symbol") == db.column("symbol")
            assert attached.column("seq") == db.column("seq")
        finally:
            manager.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    @pytest.fixture
    def dataset(self, tmp_path):
        out = tmp_path / "ds"
        assert (
            main(
                [
                    "generate",
                    "synthetic",
                    "--out",
                    str(out),
                    "--sequences",
                    "30",
                    "--length",
                    "6",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        return out

    def test_segment_write_info_verify(self, dataset, tmp_path, capsys):
        seg = tmp_path / "seg"
        assert (
            main(
                [
                    "segment",
                    "write",
                    str(dataset),
                    str(seg),
                    "--cluster-by",
                    "seq",
                    "--sequence-by",
                    "ts",
                ]
            )
            == 0
        )
        assert is_segment_store(seg)
        assert main(["segment", "info", str(seg)]) == 0
        out = capsys.readouterr().out
        assert "format version: 1" in out
        assert main(["segment", "verify", str(seg)]) == 0
        assert "store ok" in capsys.readouterr().out
        # the generic commands auto-detect segment stores
        assert main(["info", str(seg)]) == 0

    def test_segment_verify_corrupted_exits_2(self, dataset, tmp_path, capsys):
        seg = tmp_path / "seg"
        assert main(["segment", "write", str(dataset), str(seg)]) == 0
        victim = seg / "segment-000000.seg"
        with SegmentReader(victim) as probe:
            offset = probe.sections["codes:symbol"].offset
        raw = bytearray(victim.read_bytes())
        raw[offset] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert main(["segment", "verify", str(seg)]) == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_segment_write_requires_full_layout_spec(self, dataset, tmp_path, capsys):
        code = main(
            [
                "segment",
                "write",
                str(dataset),
                str(tmp_path / "seg"),
                "--cluster-by",
                "seq",
            ]
        )
        assert code == 2
