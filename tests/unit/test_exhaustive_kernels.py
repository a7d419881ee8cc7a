"""Exhaustive equivalence of the product matcher with the reference.

Every sequence of length 1-5 over {a, b, c} (363 sequences; a and b map
to group G1, c to G2) is matched by the code-space
:class:`~repro.core.matcher.CompiledMatcher` and by the value-space
reference in ``tests/reference_matcher.py`` under each template
configuration below.  The two must agree exactly on every sequence: the
contents assigned to every cell (in order), the BuildIndex unique
instantiations, and, under an occurrence cap, whether the enumeration
raises and with which message.  The configurations reach every kernel in
:data:`~repro.core.matcher.KERNELS`.

Where the property suites sample, this module enumerates, so a kernel
fast path that diverges on one short sequence cannot pass unseen.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro import (
    CellRestriction,
    Comparison,
    Literal,
    MatchingPredicate,
    PlaceholderField,
    build_sequence_groups,
)
from repro.core.matcher import KERNELS, make_matcher, occurrence_limit
from repro.core.spec import PatternKind, PatternSymbol, PatternTemplate
from repro.errors import MatchLimitExceeded
from tests.property.conftest import _shapes, make_db, template_from
from tests.reference_matcher import TemplateMatcher

ALPHABET = ("a", "b", "c")
SHAPES = _shapes(3)
KINDS = (PatternKind.SUBSTRING, PatternKind.SUBSEQUENCE)
LEVELS = ("symbol", "group")
RESTRICTIONS = tuple(CellRestriction)
#: the other families fold under all-matched, which assigns every
#: qualifying occurrence and so exposes the most of the enumeration
ALL = CellRestriction.ALL_MATCHED


@pytest.fixture(scope="module")
def corpus():
    """Every sequence of length 1-5 over the alphabet, in one database."""
    db = make_db(
        [
            list(symbols)
            for length in range(1, 6)
            for symbols in product(ALPHABET, repeat=length)
        ]
    )
    groups = build_sequence_groups(db, None, [("seq", "seq")], [("ts", True)])
    return db, list(groups.all_sequences())


def _outcome(call, sequence):
    try:
        return call(sequence)
    except MatchLimitExceeded as error:
        return ("raised", str(error))


def _mismatches(corpus, template, restriction, predicate=None, cap=None):
    """Sequences on which product and reference disagree (first three)."""
    db, sequences = corpus
    compiled = make_matcher(template, db, restriction, predicate)
    reference = TemplateMatcher(template, db.schema, restriction, predicate, cap)
    # BuildIndex's enumeration is template-only: compare it once per
    # template, under all-matched
    methods = ("assignments",)
    if restriction is ALL and predicate is None:
        methods += ("unique_instantiations",)
    found = []
    for sequence in sequences:
        for method in methods:
            with occurrence_limit(cap):
                got = _outcome(getattr(compiled, method), sequence)
            want = _outcome(getattr(reference, method), sequence)
            if got != want:
                found.append((sequence.sid, method, got, want))
        if len(found) >= 3:
            break
    return found


def _check(corpus, configs):
    failures = [
        (config, found)
        for config in configs
        for found in [_mismatches(corpus, *config)]
        if found
    ]
    assert failures == [], f"{len(failures)} configurations diverge"


def _plain_configs(kind):
    return [
        (template_from(shape, kind, level), restriction)
        for shape, level, restriction in product(SHAPES, LEVELS, RESTRICTIONS)
    ]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_plain_templates(corpus, kind):
    _check(corpus, _plain_configs(kind))


#: restricted domains for symbol X: a slice at each level, and the
#: ancestor constraint P-DRILL-DOWN leaves on a sliced symbol
ACCEPT_SETS = (
    PatternSymbol("X", "symbol", "symbol", fixed="a"),
    PatternSymbol("X", "symbol", "group", fixed="G2"),
    PatternSymbol("X", "symbol", "symbol", within=("group", "G1")),
)


def _accept_set_configs(kind):
    return [
        (template_from(shape, kind).replace_symbol("X", symbol), ALL)
        for shape, symbol in product(SHAPES, ACCEPT_SETS)
    ]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_accept_sets(corpus, kind):
    _check(corpus, _accept_set_configs(kind))


def _wildcard_template(positions, kind, level):
    """A template over X / Y with ``_`` positions as ANY wildcards."""
    names, symbols = [], {}
    for index, name in enumerate(positions):
        if name == "_":
            name = f"_w{index}"
            symbols[name] = PatternSymbol.any(name)
        else:
            symbols.setdefault(name, PatternSymbol(name, "symbol", level))
        names.append(name)
    return PatternTemplate(
        kind=kind, positions=tuple(names), symbols=tuple(symbols.values())
    )


WILDCARD_SHAPES = (
    ("X", "_"),
    ("_", "X"),
    ("X", "_", "X"),
    ("X", "_", "Y"),
    ("_", "X", "_"),
)


def _wildcard_configs(kind):
    return [
        (_wildcard_template(positions, kind, level), ALL)
        for positions, level in product(WILDCARD_SHAPES, LEVELS)
    ]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_wildcards(corpus, kind):
    _check(corpus, _wildcard_configs(kind))


def _predicates(length):
    """One single-placeholder and (for m >= 2) one cross-placeholder
    predicate over a length-*length* template."""
    names = tuple(f"p{index}" for index in range(length))
    first = PlaceholderField(names[0], "symbol")
    yield MatchingPredicate(names, Comparison(first, "!=", Literal("b")))
    if length >= 2:
        last = PlaceholderField(names[-1], "symbol")
        yield MatchingPredicate(names, Comparison(first, "!=", last))


def _predicate_configs(kind):
    return [
        (template_from(shape, kind), ALL, predicate)
        for shape in SHAPES
        for predicate in _predicates(len(shape))
    ]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_predicates(corpus, kind):
    _check(corpus, _predicate_configs(kind))


def _cap_configs(kind, cap):
    plain = [template_from(shape, kind) for shape in SHAPES]
    restricted = [
        template.replace_symbol("X", symbol)
        for template, symbol in product(plain, ACCEPT_SETS)
    ]
    return [
        (template, CellRestriction.LEFT_MAXIMALITY, None, cap) for template in plain
    ] + [(template, ALL, None, cap) for template in plain + restricted]


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_occurrence_caps(corpus, kind, cap):
    """Left-maximality keeps one occurrence per cell but must still count
    every occurrence it enumerates against the cap, and accept-sets count
    only the occurrences they let through."""
    _check(corpus, _cap_configs(kind, cap))


def test_axes_reach_every_kernel(corpus):
    """Every kernel in KERNELS answers some configuration above, so none
    can diverge from the reference unseen."""
    db, __ = corpus
    configs = [
        config
        for kind in KINDS
        for configs_of in (
            _plain_configs,
            _accept_set_configs,
            _wildcard_configs,
            _predicate_configs,
            lambda kind: _cap_configs(kind, 1),
        )
        for config in configs_of(kind)
    ]
    reached = {
        type(make_matcher(config[0], db, *config[1:3]).kernel) for config in configs
    }
    assert reached == set(KERNELS)
