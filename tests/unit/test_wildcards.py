"""Unit tests for wildcard (ANY) template positions — the paper's
regular-expression extension direction (Section 3.2)."""

import pytest

from repro import (
    Comparison,
    Literal,
    MatchingPredicate,
    OperationError,
    PlaceholderField,
    SOLAPEngine,
    SpecError,
    build_sequence_groups,
)
from repro.core import operations as ops
from repro.core.spec import (
    CuboidSpec,
    PatternKind,
    PatternSymbol,
    PatternTemplate,
)
from repro.ql import format_spec, parse_query
from tests.conftest import figure8_spec, make_figure8_db
from tests.reference_matcher import TemplateMatcher


def x_any_y_template(kind=PatternKind.SUBSTRING) -> PatternTemplate:
    return PatternTemplate(
        kind=kind,
        positions=("X", "_w1", "Y"),
        symbols=(
            PatternSymbol("X", "location", "station"),
            PatternSymbol.any("_w1"),
            PatternSymbol("Y", "location", "station"),
        ),
    )


def x_any_y_spec(**kwargs) -> CuboidSpec:
    return CuboidSpec(
        template=x_any_y_template(),
        cluster_by=(("card", "card"),),
        sequence_by=(("time", True),),
        **kwargs,
    )


class TestWildcardSymbols:
    def test_any_factory(self):
        symbol = PatternSymbol.any("_w1")
        assert symbol.wildcard
        assert not symbol.is_restricted
        assert "ANY" in str(symbol)

    def test_wildcard_cannot_be_restricted(self):
        with pytest.raises(SpecError):
            PatternSymbol("_w1", "*", "*", fixed="x", wildcard=True)

    def test_template_dims_exclude_wildcards(self):
        template = x_any_y_template()
        assert template.length == 3
        assert template.n_dims == 2
        assert [s.name for s in template.cell_symbols] == ["X", "Y"]
        assert template.has_wildcards

    def test_validate_skips_wildcard_domains(self):
        db = make_figure8_db()
        x_any_y_template().validate(db.schema)

    def test_signature_distinguishes_wildcards(self):
        plain = figure8_spec(("X", "Z", "Y")).template  # needs Z binding
        assert x_any_y_template().signature() != plain.signature()


class TestWildcardMatching:
    def get(self, card):
        db = make_figure8_db()
        groups = build_sequence_groups(db, None, [("card", "card")], [("time", True)])
        by_card = {s.cluster_key[0]: s for s in groups.single_group()}
        return db, by_card[card]

    def test_substring_skips_one_event(self):
        db, s2 = self.get(23456)  # <Pentagon, Wheaton, Wheaton, Pentagon>
        matcher = TemplateMatcher(x_any_y_template(), db.schema)
        cells = set(matcher.assignments(s2))
        assert cells == {("Pentagon", "Wheaton"), ("Wheaton", "Pentagon")}

    def test_wildcard_values_are_none(self):
        db, s2 = self.get(23456)
        matcher = TemplateMatcher(x_any_y_template(), db.schema)
        for values, __ in matcher.iter_occurrences(s2):
            assert values[1] is None

    def test_positions_key_roundtrip(self):
        db, __ = self.get(23456)
        matcher = TemplateMatcher(x_any_y_template(), db.schema)
        cell = matcher.cell_key(("a", None, "b"))
        assert cell == ("a", "b")
        assert matcher.positions_key(cell) == ("a", None, "b")

    def test_predicate_can_constrain_wildcard_event(self):
        db, s2 = self.get(23456)
        predicate = MatchingPredicate(
            ("x1", "w1", "y1"),
            Comparison(PlaceholderField("w1", "action"), "=", Literal("out")),
        )
        matcher = TemplateMatcher(
            x_any_y_template(), db.schema, predicate=predicate
        )
        cells = set(matcher.assignments(s2))
        # the middle event must be an "out": only position 1 (Wheaton out)
        assert cells == {("Pentagon", "Wheaton")}

    def test_subsequence_with_wildcard(self):
        db, s4 = self.get(77)  # <Wheaton, Clarendon, Deanwood, Wheaton>
        matcher = TemplateMatcher(
            x_any_y_template(PatternKind.SUBSEQUENCE), db.schema
        )
        cells = set(matcher.assignments(s4))
        assert ("Wheaton", "Wheaton") in cells


class TestWildcardExecution:
    def test_cb_equals_ii(self):
        db = make_figure8_db()
        spec = x_any_y_spec()
        cb, __ = SOLAPEngine(db).execute(spec, "cb")
        ii, __ = SOLAPEngine(db).execute(spec, "ii")
        assert cb.to_dict() == ii.to_dict()
        assert len(cb) > 0

    def test_cuboid_header_omits_wildcards(self):
        db = make_figure8_db()
        cuboid, __ = SOLAPEngine(db).execute(x_any_y_spec(), "cb")
        assert cuboid.header() == (
            "X(location@station)",
            "Y(location@station)",
            "COUNT(*)",
        )

    def test_warm_engine_with_wildcards(self):
        db = make_figure8_db()
        engine = SOLAPEngine(db)
        spec = x_any_y_spec()
        first, __ = engine.execute(spec, "ii")
        second, stats = engine.execute(spec, "ii")
        assert stats.cuboid_cache_hit
        assert first.to_dict() == second.to_dict()


class TestWildcardOperations:
    def test_append_wildcard(self):
        spec = figure8_spec(("X", "Y"))
        grown = ops.append_wildcard(spec)
        assert grown.template.positions == ("X", "Y", "_w1")
        assert grown.template.n_dims == 2
        assert grown.template.has_wildcards

    def test_prepend_wildcard(self):
        spec = figure8_spec(("X", "Y"))
        grown = ops.prepend_wildcard(spec)
        assert grown.template.positions == ("_w1", "X", "Y")

    def test_fresh_names_do_not_collide(self):
        spec = ops.append_wildcard(figure8_spec(("X", "Y")))
        again = ops.append_wildcard(spec)
        assert again.template.positions == ("X", "Y", "_w1", "_w2")

    def test_de_tail_removes_wildcard(self):
        spec = figure8_spec(("X", "Y"))
        assert ops.de_tail(ops.append_wildcard(spec)) == spec

    def test_wildcard_cannot_repeat(self):
        spec = ops.append_wildcard(figure8_spec(("X", "Y")))
        with pytest.raises(OperationError):
            ops.append(spec, "_w1")

    def test_wildcard_rejects_level_ops_and_slices(self):
        db = make_figure8_db()
        spec = ops.append_wildcard(figure8_spec(("X", "Y")))
        with pytest.raises(OperationError):
            ops.p_roll_up(spec, "_w1", db.schema)
        with pytest.raises(OperationError):
            ops.p_drill_down(spec, "_w1", db.schema)
        with pytest.raises(OperationError):
            ops.slice_pattern(spec, "_w1", "x")

    def test_wildcard_predicate_via_append(self):
        spec = figure8_spec(("X", "Y"))
        extra = Comparison(PlaceholderField("w1", "action"), "=", Literal("out"))
        grown = ops.append_wildcard(
            spec, placeholder="w1", extra_predicate=extra
        )
        assert grown.predicate is not None
        assert grown.predicate.placeholders[-1] == "w1"


class TestWildcardQL:
    def test_parse_any_positions(self):
        db = make_figure8_db()
        text = """
        SELECT COUNT(*) FROM Event
        CLUSTER BY card AT card
        SEQUENCE BY time ASCENDING
        CUBOID BY SUBSTRING (X, ANY, Y)
          WITH X AS location AT station, Y AS location AT station
        LEFT-MAXIMALITY (x1, w1, y1)
        """
        spec = parse_query(text, db.schema)
        assert spec.template.has_wildcards
        assert spec.template.n_dims == 2

    def test_roundtrip(self):
        spec = x_any_y_spec()
        assert parse_query(format_spec(spec)) == spec

    def test_all_wildcards_roundtrip(self):
        template = PatternTemplate(
            kind=PatternKind.SUBSTRING,
            positions=("_w1", "_w2"),
            symbols=(PatternSymbol.any("_w1"), PatternSymbol.any("_w2")),
        )
        spec = CuboidSpec(
            template=template,
            cluster_by=(("card", "card"),),
            sequence_by=(("time", True),),
        )
        assert parse_query(format_spec(spec)) == spec

    def test_bindings_still_required_for_real_symbols(self):
        text = """
        SELECT COUNT(*) FROM Event
        CLUSTER BY card AT card
        SEQUENCE BY time ASCENDING
        CUBOID BY SUBSTRING (X, ANY)
        LEFT-MAXIMALITY (x1, w1)
        """
        with pytest.raises(Exception):
            parse_query(text)
