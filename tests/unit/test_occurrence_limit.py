"""Unit tests for the per-sequence occurrence enumeration cap.

Every case runs three enumerations of a sequence: the reference matcher's
``iter_occurrences`` and the product matcher's ``assignments`` and
``unique_instantiations``, which enumerate every occurrence too and so
count each one against the cap.
"""

import pytest

from repro import CellRestriction, SOLAPEngine, build_sequence_groups
from repro.core.matcher import (
    make_matcher,
    occurrence_limit,
    set_default_occurrence_limit,
)
from repro.core.spec import PatternKind
from repro.errors import MatchLimitExceeded
from tests.conftest import figure8_spec, location_template, make_figure8_db
from tests.property.conftest import make_db, template_from
from tests.reference_matcher import TemplateMatcher


@pytest.fixture(autouse=True)
def reset_limit():
    yield
    set_default_occurrence_limit(None)


def pathological_db():
    """One all-identical sequence: subsequence (X, Y) has C(20, 2) = 190
    occurrences."""
    return make_db([["a"] * 20])


def enumerations(db, cap=None, template=None):
    """name -> call enumerating one sequence's occurrences, returning how
    many it saw (``unique_instantiations`` sees only distinct ones)."""
    if template is None:
        template = template_from((0, 1), PatternKind.SUBSEQUENCE)
    reference = TemplateMatcher(template, db.schema, occurrence_cap=cap)
    product = make_matcher(
        template, db, CellRestriction.ALL_MATCHED, occurrence_cap=cap
    )
    return {
        "reference": lambda s: len(list(reference.iter_occurrences(s))),
        "assignments": lambda s: sum(
            len(contents) for contents in product.assignments(s).values()
        ),
        "unique_instantiations": lambda s: len(product.unique_instantiations(s)),
    }


def counts(db, sequence, **kwargs):
    return {name: run(sequence) for name, run in enumerations(db, **kwargs).items()}


#: what the three enumerations see on the pathological sequence
FULL = {"reference": 190, "assignments": 190, "unique_instantiations": 1}


def assert_all_capped(db, sequence, **kwargs):
    for run in enumerations(db, **kwargs).values():
        with pytest.raises(MatchLimitExceeded):
            run(sequence)


def the_sequence(db):
    groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
    return next(iter(groups.all_sequences()))


class TestExplicitCap:
    def test_under_cap_enumerates_fully(self):
        db = pathological_db()
        assert counts(db, the_sequence(db), cap=200) == FULL

    def test_over_cap_raises(self):
        db = pathological_db()
        for name, run in enumerations(db, cap=50).items():
            with pytest.raises(MatchLimitExceeded) as info:
                run(the_sequence(db))
            assert "cap of 50" in str(info.value), name

    def test_cap_is_per_sequence(self):
        db = make_db([["a"] * 5, ["b"] * 5])
        groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
        totals = dict.fromkeys(FULL, 0)
        for sequence in groups.all_sequences():
            for name, seen in counts(db, sequence, cap=10).items():
                totals[name] += seen
        # 10 per sequence, neither exceeding the cap
        assert totals == {
            "reference": 20,
            "assignments": 20,
            "unique_instantiations": 2,
        }


class TestProcessDefault:
    def test_default_applies_without_explicit_cap(self):
        db = pathological_db()
        set_default_occurrence_limit(50)
        assert_all_capped(db, the_sequence(db))

    def test_explicit_cap_overrides_default(self):
        db = pathological_db()
        set_default_occurrence_limit(50)
        assert counts(db, the_sequence(db), cap=500) == FULL

    def test_context_manager_scopes_and_restores(self):
        db = pathological_db()
        with occurrence_limit(50):
            assert_all_capped(db, the_sequence(db))
        assert counts(db, the_sequence(db)) == FULL

    def test_engine_execution_respects_limit(self):
        db = make_figure8_db()
        spec = figure8_spec(("X", "Y"), kind="subsequence")
        with occurrence_limit(2):
            with pytest.raises(MatchLimitExceeded):
                SOLAPEngine(db).execute(spec, "cb")
        cuboid, __ = SOLAPEngine(db).execute(spec, "cb")
        assert len(cuboid) > 0

    def test_substring_templates_also_capped(self):
        db = make_figure8_db()
        groups = build_sequence_groups(db, None, [("card", "card")], [("time", True)])
        long_sequence = max(groups.all_sequences(), key=len)
        assert_all_capped(
            db, long_sequence, cap=1, template=location_template(("X", "Y"))
        )
