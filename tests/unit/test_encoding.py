"""Unit tests for dictionary encoding and the compiled matcher."""

import pickle

import pytest

from repro import (
    CellRestriction,
    Dimension,
    EventDatabase,
    Hierarchy,
    PatternSymbol,
    SOLAPEngine,
    SOLAPError,
    Schema,
    SchemaError,
    build_sequence_groups,
)
from repro.core.matcher import CompiledMatcher, make_matcher, matcher_dispatch_counts
from repro.core.spec import PatternKind
from repro.events.encoding import DimensionDictionary, EncodedSequenceStore
from tests.conftest import location_template, make_figure8_db
from tests.property.conftest import GROUP_OF, make_db, spec_for, template_from
from tests.reference_matcher import TemplateMatcher

DOMAIN = ("location", "station")


class TestDimensionDictionary:
    def test_codes_are_dense_and_stable(self):
        d = DimensionDictionary()
        first = d.encode_value(DOMAIN, "Pentagon")
        second = d.encode_value(DOMAIN, "Wheaton")
        assert (first, second) == (0, 1)
        # re-encoding returns the same code
        assert d.encode_value(DOMAIN, "Pentagon") == first

    def test_domains_are_independent(self):
        d = DimensionDictionary()
        a = d.encode_value(("x", "base"), "v")
        b = d.encode_value(("y", "base"), "v")
        assert a == b == 0
        assert d.domain_size(("x", "base")) == 1

    def test_encode_row_and_decoder_roundtrip(self):
        d = DimensionDictionary()
        values = ["a", "b", "a", "c", "b"]
        row = d.encode_row(DOMAIN, values)
        decoder = d.decoder(DOMAIN)
        assert [decoder[code] for code in row] == values

    def test_lookup_without_interning(self):
        d = DimensionDictionary()
        assert d.lookup(DOMAIN, "missing") is None
        d.encode_value(DOMAIN, "present")
        assert d.lookup(DOMAIN, "present") == 0
        assert d.lookup(DOMAIN, "missing") is None

    def test_items_snapshot(self):
        d = DimensionDictionary()
        d.encode_row(DOMAIN, ["a", "b"])
        assert sorted(d.items(DOMAIN)) == [("a", 0), ("b", 1)]
        assert d.items(("no", "such")) == []

    def test_pickle_roundtrip_drops_and_recreates_lock(self):
        d = DimensionDictionary()
        d.encode_row(DOMAIN, ["a", "b", "c"])
        clone = pickle.loads(pickle.dumps(d))
        assert clone.lookup(DOMAIN, "b") == 1
        # the clone can keep interning (its lock was recreated)
        assert clone.encode_value(DOMAIN, "d") == 3


class TestEncodedSequenceStore:
    def _sequences(self):
        db = make_figure8_db()
        groups = build_sequence_groups(
            db, None, [("card", "card")], [("time", True)]
        )
        return db, list(groups.single_group())

    def test_rows_cached_per_sequence_object(self):
        db, sequences = self._sequences()
        store = db.encoding_store()
        seq = sequences[0]
        row = store.row(seq, "location", "station")
        assert store.row(seq, "location", "station") is row
        decoder = store.dictionary.decoder(DOMAIN)
        assert [decoder[c] for c in row] == list(
            seq.symbols("location", "station")
        )

    def test_store_is_per_database_singleton(self):
        db, __ = self._sequences()
        assert db.encoding_store() is db.encoding_store()

    def test_ensure_domain_complete_interns_whole_domain(self):
        db, __ = self._sequences()
        store = db.encoding_store()
        store.ensure_domain_complete(db, "location", "station")
        for value in db.distinct("location", "station"):
            assert store.dictionary.lookup(DOMAIN, value) is not None

    def test_store_pickles_with_data(self):
        db, sequences = self._sequences()
        store = db.encoding_store()
        store.row(sequences[0], "location", "station")
        store.ensure_domain_complete(db, "location", "station")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.dictionary.lookup(DOMAIN, "Pentagon") is not None
        clone.ensure_domain_complete(db, "location", "station")  # no-op, no error


def _figure8_sequences(db):
    groups = build_sequence_groups(
        db, None, [("card", "card")], [("time", True)]
    )
    return list(groups.single_group())


def _callable_within_db():
    """A three-level hierarchy whose middle level maps by a callable."""
    schema = Schema(
        [
            Dimension("seq"),
            Dimension("ts"),
            Dimension(
                "symbol",
                Hierarchy(
                    "symbol",
                    ("symbol", "group", "super"),
                    {
                        "group": GROUP_OF.__getitem__,
                        "super": {value: "S" for value in GROUP_OF},
                    },
                ),
            ),
        ]
    )
    db = EventDatabase(schema)
    for position, value in enumerate("abc"):
        db.append({"seq": 0, "ts": position, "symbol": value})
    return db


def _xy(level="symbol"):
    return template_from((0, 1), PatternKind.SUBSTRING, level)


#: every template / data combination the code-space matcher cannot compile
UNCOMPILABLE = {
    "unknown-level": lambda: (
        make_db([["a", "b"]]),
        _xy().replace_symbol("X", PatternSymbol("X", "symbol", "galaxy")),
    ),
    "unmapped-value": lambda: (make_db([["a", "z"]]), _xy("group")),
    "callable-within": lambda: (
        _callable_within_db(),
        _xy("group").replace_symbol(
            "X", PatternSymbol("X", "symbol", "group", within=("super", "S"))
        ),
    ),
    "unhashable-value": lambda: (make_db([["a", ["b"], "c"]]), _xy()),
}


class TestCompiledMatcherDispatch:
    def test_make_matcher_compiles_plain_template(self):
        db = make_figure8_db()
        matcher = make_matcher(location_template(("X", "Y")), db)
        assert isinstance(matcher, CompiledMatcher)

    def test_dispatch_counter_advances(self):
        db = make_figure8_db()
        before = matcher_dispatch_counts()["compiled"]
        make_matcher(location_template(("X", "Y")), db)
        assert matcher_dispatch_counts()["compiled"] == before + 1

    @pytest.mark.parametrize("strategy", ["cb", "ii"])
    @pytest.mark.parametrize("case", sorted(UNCOMPILABLE))
    def test_uncompilable_template_is_a_typed_error(self, case, strategy):
        """Every template the matcher cannot compile fails the query with
        a SOLAPError naming the symbol's attribute and level — never a
        raw TypeError from deep inside the scan.  make_matcher itself
        raises SchemaError for each case, even the unknown level that
        spec validation catches first on the engine path."""
        db, template = UNCOMPILABLE[case]()
        level = repr(template.position_symbols()[0].level)
        with pytest.raises(SOLAPError) as info:
            SOLAPEngine(db).execute(spec_for(template), strategy)
        assert "'symbol'" in str(info.value) and level in str(info.value)
        with pytest.raises(SchemaError) as info:
            make_matcher(template, db)
        assert "'symbol'" in str(info.value) and level in str(info.value)

    def test_compiled_results_match_legacy(self):
        db = make_figure8_db()
        template = location_template(("X", "Y", "X"))
        compiled = make_matcher(template, db)
        legacy = TemplateMatcher(template, db.schema)
        for sequence in _figure8_sequences(db):
            assert compiled.assignments(sequence) == legacy.assignments(sequence)
            assert compiled.unique_instantiations(
                sequence
            ) == legacy.unique_instantiations(sequence)

    def test_compiled_respects_restrictions(self):
        db = make_figure8_db()
        template = location_template(("X", "Y"))
        for restriction in CellRestriction:
            compiled = make_matcher(template, db, restriction)
            legacy = TemplateMatcher(template, db.schema, restriction)
            for sequence in _figure8_sequences(db):
                assert compiled.assignments(sequence) == legacy.assignments(
                    sequence
                )


class TestKeyInterning:
    def test_cell_key_returns_identical_object(self):
        db = make_figure8_db()
        matcher = make_matcher(location_template(("X", "Y")), db)
        first = matcher.cell_key(("Pentagon", "Wheaton"))
        second = matcher.cell_key(("Pentagon", "Wheaton"))
        assert first is second

    def test_positions_key_returns_identical_object(self):
        db = make_figure8_db()
        matcher = make_matcher(location_template(("X", "Y", "X")), db)
        first = matcher.positions_key(("Pentagon", "Wheaton"))
        second = matcher.positions_key(("Pentagon", "Wheaton"))
        assert first is second
        assert first == ("Pentagon", "Wheaton", "Pentagon")
