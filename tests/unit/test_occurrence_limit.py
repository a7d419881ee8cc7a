"""Unit tests for the per-sequence occurrence enumeration cap.

Most cases run three enumerations of a sequence: the reference matcher's
``iter_occurrences`` and the product matcher's ``assignments`` and
``unique_instantiations``, which enumerate every occurrence too and so
count each one against the cap.  ``TestGreedyEmbeddingCap`` pins the
kernel that enumerates none: it counts them only when a cap is set.  The
cap is the process-wide one, set directly or scoped with
``occurrence_limit``; the reference matcher falls back to it too.
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


def enumerations(db, template=None):
    """name -> call enumerating one sequence's occurrences, returning how
    many it saw (``unique_instantiations`` sees only distinct ones)."""
    if template is None:
        template = template_from((0, 1), PatternKind.SUBSEQUENCE)
    reference = TemplateMatcher(template, db.schema)
    product = make_matcher(template, db, CellRestriction.ALL_MATCHED)
    return {
        "reference": lambda s: len(list(reference.iter_occurrences(s))),
        "assignments": lambda s: sum(
            len(contents) for contents in product.assignments(s).values()
        ),
        "unique_instantiations": lambda s: len(product.unique_instantiations(s)),
    }


def counts(db, sequence):
    return {name: run(sequence) for name, run in enumerations(db).items()}


#: what the three enumerations see on the pathological sequence
FULL = {"reference": 190, "assignments": 190, "unique_instantiations": 1}


def assert_all_capped(db, sequence, template=None):
    for run in enumerations(db, template).values():
        with pytest.raises(MatchLimitExceeded):
            run(sequence)


def the_sequence(db):
    groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
    return next(iter(groups.all_sequences()))


class TestExplicitCap:
    def test_under_cap_enumerates_fully(self):
        db = pathological_db()
        with occurrence_limit(200):
            assert counts(db, the_sequence(db)) == FULL

    def test_over_cap_raises(self):
        db = pathological_db()
        with occurrence_limit(50):
            for name, run in enumerations(db).items():
                with pytest.raises(MatchLimitExceeded) as info:
                    run(the_sequence(db))
                assert "cap of 50" in str(info.value), name

    def test_cap_is_per_sequence(self):
        db = make_db([["a"] * 5, ["b"] * 5])
        groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
        totals = dict.fromkeys(FULL, 0)
        with occurrence_limit(10):
            for sequence in groups.all_sequences():
                for name, seen in counts(db, sequence).items():
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
        with occurrence_limit(500):
            assert counts(db, the_sequence(db)) == FULL

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
        with occurrence_limit(1):
            assert_all_capped(
                db, long_sequence, template=location_template(("X", "Y"))
            )


class TestGreedyEmbeddingCap:
    """SUBSEQUENCE under left-maximality compiles to the greedy-embedding
    kernel, which finds each cell's first occurrence without enumerating
    the others.  The cap still counts every occurrence: with one set, the
    kernel counts them first, so it decides and words the error exactly
    as the enumerator does."""

    def matchers(self, db):
        template = template_from((0, 1), PatternKind.SUBSEQUENCE)
        greedy = make_matcher(template, db)
        enumerator = make_matcher(template, db, CellRestriction.ALL_MATCHED)
        assert greedy.kernel.name == "greedy_embedding"
        assert enumerator.kernel.name == "enumerate"
        return greedy, enumerator

    def test_over_cap_raises_the_enumerators_error(self):
        db = pathological_db()
        greedy, enumerator = self.matchers(db)
        sequence = the_sequence(db)
        with occurrence_limit(50):
            with pytest.raises(MatchLimitExceeded) as expected:
                enumerator.assignments(sequence)
            for run in (greedy.assignments, greedy.unique_instantiations):
                with pytest.raises(MatchLimitExceeded) as info:
                    run(sequence)
                assert str(info.value) == str(expected.value)
        assert "cap of 50" in str(expected.value)

    def test_under_cap_returns_one_cell(self):
        db = pathological_db()
        greedy, __ = self.matchers(db)
        sequence = the_sequence(db)
        with occurrence_limit(200):
            assert greedy.assignments(sequence) == {("a", "a"): [(0, 1)]}
            assert greedy.unique_instantiations(sequence) == [("a", "a")]
