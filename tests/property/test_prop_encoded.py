"""Property: every answer path equals the reference fold.

The product folds cell assignments produced by the code-space
:class:`~repro.core.matcher.CompiledMatcher`.  The reference here folds the
same sequences, with the same :func:`~repro.core.counter_based.fold`, over
the value-space legacy matcher kept in :mod:`tests.reference_matcher` —
``SCuboid(spec, finish(fold(..., TemplateMatcher(...), ...)))`` — and each
path must produce a bit-identical cuboid under all three cell
restrictions: CB, II, the service's sharded scan on every executor
backend, and the final frame of the online-aggregation stream.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CellRestriction, SCuboid, SOLAPEngine
from repro.core.counter_based import finish, fold, selected_sequences
from repro.core.spec import PatternKind
from repro.core.stats import QueryStats
from repro.extensions import online_cuboid
from repro.service import QueryService, ServiceConfig
from tests.property.conftest import (
    ALPHABET,
    make_db,
    sequences_strategy,
    spec_for,
    template_from,
    template_strategy,
)
from tests.reference_matcher import TemplateMatcher

ALL_RESTRICTIONS = [
    CellRestriction.LEFT_MAXIMALITY,
    CellRestriction.LEFT_MAXIMALITY_DATA,
    CellRestriction.ALL_MATCHED,
]
RESTRICTIONS = st.sampled_from(ALL_RESTRICTIONS)


def _reference(db, spec, pairs=None):
    """The reference cuboid: the shared fold over the legacy matcher."""
    if pairs is None:
        groups = SOLAPEngine(db).sequence_groups(spec)
        pairs = selected_sequences(groups, spec.sliced_groups())
    matcher = TemplateMatcher(
        spec.template, db.schema, spec.restriction, spec.predicate
    )
    cells = fold(db, spec.aggregates, matcher, pairs, QueryStats())
    return SCuboid(spec, finish(cells)).to_dict()


def _run(db, spec, strategy):
    cuboid, __ = SOLAPEngine(db).execute(spec, strategy)
    return cuboid.to_dict()


@settings(max_examples=100, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
)
def test_encoded_cb_equals_legacy_cb(sequences, template, restriction):
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    assert _run(db, spec, "cb") == _reference(db, spec)


@settings(max_examples=60, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
)
def test_encoded_ii_equals_legacy_ii(sequences, template, restriction):
    """BuildIndex + join + verify + counting agree with the reference."""
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    assert _run(db, spec, "ii") == _reference(db, spec)


@settings(max_examples=60, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
    chunk_size=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=5),
)
def test_online_partials_equal_fold_of_chunk_prefix(
    sequences, template, restriction, chunk_size, seed
):
    """After chunk k the online partial is the reference fold of the first
    k chunks of the same seeded shuffle; the final frame is the whole
    answer."""
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    groups = SOLAPEngine(db).sequence_groups(spec)
    work = list(selected_sequences(groups, spec.sliced_groups()))
    random.Random(seed).shuffle(work)
    estimates = list(
        online_cuboid(db, groups, spec, chunk_size=chunk_size, seed=seed)
    )
    for k, estimate in enumerate(estimates, start=1):
        prefix = work[: k * chunk_size]
        assert estimate.processed == len(prefix)
        assert estimate.partial.to_dict() == _reference(db, spec, prefix)
    assert estimates[-1].is_final
    assert estimates[-1].partial.to_dict() == _reference(db, spec)


def _backend_dataset():
    rng = random.Random(7)
    return [
        [rng.choice(ALPHABET) for __ in range(rng.randint(3, 10))]
        for __ in range(40)
    ]


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("level", ["symbol", "group"])
def test_encoded_scan_backends_equal_legacy(backend, level):
    """Sharded service scans on every execution backend equal the reference.

    The process backend re-creates the encoded store (and its level maps)
    in worker interpreters via pickling, so this is the test that the
    codes never leak across process boundaries: each worker decodes with
    its own dictionary and the merged cuboid must still be bit-identical
    to a serial reference fold.
    """
    sequences = _backend_dataset()
    template = template_from((0, 1), PatternKind.SUBSTRING, level)
    svc = QueryService(
        make_db(sequences),
        ServiceConfig(max_workers=2, shards=2, executor_backend=backend),
    )
    try:
        for restriction in ALL_RESTRICTIONS:
            spec = replace(spec_for(template), restriction=restriction)
            cuboid, stats = svc.execute(spec, "cb")
            assert stats.extra.get("shard_fanout") == 2
            assert cuboid.to_dict() == _reference(make_db(sequences), spec)
    finally:
        svc.close()
