"""Property: segment-backed execution is invisible.

A cuboid computed over an mmap-attached segment store must be
bit-identical to one computed over the in-memory :class:`EventDatabase`
it was written from — for every template, both strategies, all three
cell restrictions, every scan backend, and after incremental appends.
Segment stores assign dictionary codes in their own (store) order, so
these tests are also the proof that code-assignment order never leaks
into results.

The process-backend test honours ``SOLAP_STORAGE_START_METHOD``
(``fork``/``spawn``) so CI can exercise both worker start paths.
"""

import os
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CellRestriction, SOLAPEngine
from repro.service import QueryService, ServiceConfig
from repro.storage import StorageManager, attach_store
from tests.property.conftest import (
    ALPHABET,
    make_db,
    sequences_strategy,
    spec_for,
    template_from,
    template_strategy,
)
from repro.core.spec import PatternKind

RESTRICTIONS = st.sampled_from(
    [
        CellRestriction.LEFT_MAXIMALITY,
        CellRestriction.LEFT_MAXIMALITY_DATA,
        CellRestriction.ALL_MATCHED,
    ]
)

CLUSTER_BY = (("seq", "seq"),)
SEQUENCE_BY = (("ts", True),)


def _run(db, spec, strategy):
    cuboid, stats = SOLAPEngine(db).execute(spec, strategy)
    return cuboid, stats


def _write_store(db, root):
    return StorageManager.write(
        db, root, cluster_by=CLUSTER_BY, sequence_by=SEQUENCE_BY
    )


@settings(max_examples=80, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
)
def test_segment_cb_equals_memory_cb(sequences, template, restriction):
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    memory, __ = _run(db, spec, "cb")
    with tempfile.TemporaryDirectory() as tmp:
        manager = _write_store(db, Path(tmp) / "store")
        try:
            segment, __ = _run(manager.attach(), spec, "cb")
        finally:
            manager.close()
    assert segment.to_dict() == memory.to_dict()


@settings(max_examples=50, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
)
def test_segment_ii_equals_memory_ii(sequences, template, restriction):
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    memory, __ = _run(db, spec, "ii")
    with tempfile.TemporaryDirectory() as tmp:
        manager = _write_store(db, Path(tmp) / "store")
        try:
            segment, __ = _run(manager.attach(), spec, "ii")
        finally:
            manager.close()
    assert segment.to_dict() == memory.to_dict()


@settings(max_examples=50, deadline=None)
@given(
    sequences=sequences_strategy,
    appended=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
)
def test_segment_append_equals_memory(sequences, appended, template, restriction):
    """After an incremental append the multi-segment store still matches
    an in-memory database rebuilt from the full event stream."""
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    with tempfile.TemporaryDirectory() as tmp:
        manager = _write_store(db, Path(tmp) / "store")
        try:
            offset = len(sequences)
            new_events = [
                {"seq": offset + seq_id, "ts": position, "symbol": symbol}
                for seq_id, symbols in enumerate(appended)
                for position, symbol in enumerate(symbols)
            ]
            manager.append_events(new_events)
            manager.verify()
            full = make_db(sequences)
            for event in new_events:
                full.append(event)
            memory, __ = _run(full, spec, "cb")
            segment, __ = _run(manager.attach(), spec, "cb")
        finally:
            manager.close()
    assert segment.to_dict() == memory.to_dict()


def _backend_dataset():
    rng = random.Random(13)
    return [
        [rng.choice(ALPHABET) for __ in range(rng.randint(3, 10))]
        for __ in range(40)
    ]


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("level", ["symbol", "group"])
def test_segment_scan_backends_equal_memory(backend, level, tmp_path):
    """Service scans over an attached store match in-memory execution on
    every backend.  The process backend ships the database to workers by
    *path* (``SegmentBackedDatabase.__reduce__``), so each worker mmaps
    the store instead of unpickling columns — this is the test that the
    O(1) attach path is semantics-preserving."""
    sequences = _backend_dataset()
    template = template_from((0, 1), PatternKind.SUBSTRING, level)
    spec = spec_for(template)
    db = make_db(sequences)
    manager = _write_store(db, tmp_path / "store")
    config = ServiceConfig(max_workers=2, shards=2, executor_backend=backend)
    if backend == "process":
        method = os.environ.get("SOLAP_STORAGE_START_METHOD")
        if method:
            config = replace(config, process_start_method=method)
    svc = QueryService(manager.attach(), config)
    try:
        cuboid, __ = svc.execute(spec, "cb")
        snapshot = svc.metrics.snapshot()
    finally:
        svc.close()
        manager.close()
    memory, __ = _run(db, spec, "cb")
    assert cuboid.to_dict() == memory.to_dict()
    if backend != "serial":
        assert snapshot["worker_init"]["count"] >= 1


def test_attach_store_memoised_per_process(tmp_path):
    """``attach_store`` returns one shared database per (path, manifest),
    so N workers in one interpreter share a single mmap attachment."""
    db = make_db(_backend_dataset())
    root = tmp_path / "store"
    _write_store(db, root).close()
    first = attach_store(str(root))
    second = attach_store(str(root))
    assert first is second
