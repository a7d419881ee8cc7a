"""Properties of inverted indices: builds, joins, merges, refinements."""

from hypothesis import given, settings

from repro import build_sequence_groups
from repro.core.spec import PatternKind
from repro.index.inverted import (
    build_index,
    join_indices,
    prefix_template,
    pair_template,
    union_indices,
    verify_index,
)
from tests.property.conftest import (
    make_db,
    sequences_strategy,
    shape_strategy,
    template_from,
)
from tests.reference_matcher import TemplateMatcher


def single_group(db):
    groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
    return groups.single_group()


@settings(max_examples=100, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_build_index_is_exact_containment(sequences, shape):
    db = make_db(sequences)
    group = single_group(db)
    template = template_from(shape, PatternKind.SUBSTRING)
    index = build_index(group, template, db.schema)
    matcher = TemplateMatcher(template, db.schema)
    for sequence in group:
        contained = set(matcher.unique_instantiations(sequence))
        for values, sids in index.lists.items():
            assert (sequence.sid in sids) == (values in contained)


@settings(max_examples=80, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_join_verify_equals_direct_build(sequences, shape):
    if len(shape) < 3:
        return
    db = make_db(sequences)
    group = single_group(db)
    template = template_from(shape, PatternKind.SUBSTRING)
    truth = build_index(group, template, db.schema)

    current = build_index(group, prefix_template(template, 2), db.schema)
    for length in range(2, template.length):
        pair = build_index(group, pair_template(template, length - 1), db.schema)
        candidate = join_indices(
            current, pair, prefix_template(template, length + 1), db.schema
        )
        current = verify_index(candidate, group, db.schema)
    assert {k: set(v) for k, v in current.lists.items()} == {
        k: set(v) for k, v in truth.lists.items()
    }


@settings(max_examples=80, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_join_candidates_superset_of_truth(sequences, shape):
    if len(shape) < 3:
        return
    db = make_db(sequences)
    group = single_group(db)
    template = template_from(shape, PatternKind.SUBSTRING)
    truth = build_index(group, template, db.schema)
    current = build_index(group, prefix_template(template, 2), db.schema)
    for length in range(2, template.length):
        pair = build_index(group, pair_template(template, length - 1), db.schema)
        current = join_indices(
            current, pair, prefix_template(template, length + 1), db.schema
        )
        # do NOT verify: candidates only ever over-approximate
    for values, sids in truth.lists.items():
        assert set(sids) <= set(current.get(values))


@settings(max_examples=80, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_rollup_merge_equals_coarse_build_for_repeat_free(sequences, shape):
    if len(set(shape)) != len(shape):
        return  # merge only claimed sound for repeat-free templates
    db = make_db(sequences)
    group = single_group(db)
    fine_template = template_from(shape, PatternKind.SUBSTRING, "symbol")
    coarse_template = template_from(shape, PatternKind.SUBSTRING, "group")
    fine = build_index(group, fine_template, db.schema)
    merged = fine.rollup(
        tuple(("symbol", "group") for __ in shape), db.schema, coarse_template
    )
    truth = build_index(group, coarse_template, db.schema)
    assert {k: set(v) for k, v in merged.lists.items()} == {
        k: set(v) for k, v in truth.lists.items()
    }


@settings(max_examples=60, deadline=None)
@given(sequences=sequences_strategy, shape=shape_strategy)
def test_union_of_sid_partition_is_whole(sequences, shape):
    db = make_db(sequences)
    group = single_group(db)
    template = template_from(shape, PatternKind.SUBSTRING)
    whole = build_index(group, template, db.schema)
    sids = [s.sid for s in group]
    half = len(sids) // 2
    parts = [
        build_index(group, template, db.schema, restrict_sids=sids[:half]),
        build_index(group, template, db.schema, restrict_sids=sids[half:]),
    ]
    union = union_indices(parts, template)
    assert {k: set(v) for k, v in union.lists.items()} == {
        k: set(v) for k, v in whole.lists.items()
    }
