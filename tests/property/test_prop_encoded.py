"""Property: the dictionary-encoded matcher kernel is invisible.

The compiled (code-space) matcher must produce bit-identical cuboids to
the legacy value-space matcher for every template, strategy, and cell
restriction — the encoded path is a pure performance substitution, never
a semantic one.  The A/B runs force the legacy kernel via
:func:`repro.core.matcher.kernel_mode`.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CellRestriction, SOLAPEngine
from repro.core.matcher import kernel_mode
from repro.core.spec import PatternKind
from repro.service import QueryService, ServiceConfig
from tests.property.conftest import (
    ALPHABET,
    make_db,
    sequences_strategy,
    spec_for,
    template_from,
    template_strategy,
)

RESTRICTIONS = st.sampled_from(
    [
        CellRestriction.LEFT_MAXIMALITY,
        CellRestriction.LEFT_MAXIMALITY_DATA,
        CellRestriction.ALL_MATCHED,
    ]
)


def _run(db, spec, strategy):
    cuboid, stats = SOLAPEngine(db).execute(spec, strategy)
    return cuboid, stats


@settings(max_examples=100, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
)
def test_encoded_cb_equals_legacy_cb(sequences, template, restriction):
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    encoded, stats = _run(db, spec, "cb")
    # these templates are always compilable — the A/B must not be vacuous
    assert stats.extra.get("matcher") == "compiled"
    with kernel_mode("legacy"):
        legacy, legacy_stats = _run(db, spec, "cb")
    assert legacy_stats.extra.get("matcher") == "legacy"
    assert encoded.to_dict() == legacy.to_dict()


@settings(max_examples=60, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
)
def test_encoded_ii_equals_legacy_ii(sequences, template, restriction):
    """BuildIndex + join + verify through the compiled kernel agree with
    the all-legacy chain."""
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    encoded, __ = _run(db, spec, "ii")
    with kernel_mode("legacy"):
        legacy, __ = _run(db, spec, "ii")
    assert encoded.to_dict() == legacy.to_dict()


@settings(max_examples=60, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
)
def test_encoded_cb_equals_legacy_ii(sequences, template, restriction):
    """Cross-check across both axes at once: compiled CB vs legacy II."""
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    encoded, __ = _run(db, spec, "cb")
    with kernel_mode("legacy"):
        legacy, __ = _run(db, spec, "ii")
    assert encoded.to_dict() == legacy.to_dict()


def _backend_dataset():
    rng = random.Random(7)
    return [
        [rng.choice(ALPHABET) for __ in range(rng.randint(3, 10))]
        for __ in range(40)
    ]


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("level", ["symbol", "group"])
def test_encoded_scan_backends_equal_legacy(backend, level):
    """Service scans on every execution backend match the legacy kernel.

    The process backend re-creates the encoded store (and its level maps)
    in worker interpreters via pickling, so this is the test that the
    codes never leak across process boundaries: each worker decodes with
    its own dictionary and the folded cuboid must still be bit-identical
    to a serial legacy-matcher run.
    """
    sequences = _backend_dataset()
    template = template_from((0, 1), PatternKind.SUBSTRING, level)
    spec = spec_for(template)
    svc = QueryService(
        make_db(sequences),
        ServiceConfig(max_workers=2, shards=2, executor_backend=backend),
    )
    try:
        cuboid, __ = svc.execute(spec, "cb")
    finally:
        svc.close()
    with kernel_mode("legacy"):
        legacy, legacy_stats = _run(make_db(sequences), spec, "cb")
    assert legacy_stats.extra.get("matcher") == "legacy"
    assert cuboid.to_dict() == legacy.to_dict()
