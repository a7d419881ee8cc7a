"""Cross-vendor sequence analysis without sharing base data (Section 6(3)).

"A few vendors may share portions of their data to perform sequence data
analysis together ... the subway company collaborates with a local bus
company and offer a subway-bus-transit package ... how to integrate the
two separately-owned sequence databases in order to perform such a
high-level sequence data analysis (without disclosing the base data to
each other) is a challenging research topic."

This module implements the natural inverted-index answer to that
challenge.  Each vendor keeps its event database private and exposes a
:class:`VendorSite` that answers only *pattern-list* requests: for a
pattern template over the vendor's own events, it returns lists of
**salted-hash pseudonyms** of the shared join key (e.g. card-id) instead
of raw identifiers.  A :class:`FederationCoordinator` holding no base
data intersects pseudonym lists across vendors to count cross-vendor
behaviours ("took subway trip X→Y, then a bus ride the same day"), seeing
only:

* pattern values at whatever abstraction level the vendors agree on, and
* pseudonym intersections — never the events, amounts or raw card ids.

The pseudonym salt is shared by the vendors but not derivable by the
coordinator, so the coordinator cannot dictionary-attack the ids; and a
minimum-count threshold (k-anonymity style) suppresses small cells.
This is the standard salted-hash private-set-intersection compromise:
vendors learn nothing new, the coordinator learns only thresholded
aggregate counts.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Tuple

from repro.core.matcher import make_matcher
from repro.core.spec import PatternTemplate
from repro.errors import EngineError, SchemaError
from repro.events.database import EventDatabase
from repro.events.sequence import build_sequence_groups

PatternValues = Tuple[object, ...]
Pseudonym = str


def pseudonymize(value: object, salt: str) -> Pseudonym:
    """Salted-hash pseudonym of a shared join-key value."""
    digest = hashlib.sha256(f"{salt}|{value!r}".encode("utf-8")).hexdigest()
    return digest[:16]


class VendorSite:
    """One vendor's private warehouse with a pattern-list interface.

    The vendor controls which attribute is the shared join key (e.g. the
    payment card) and which clustering defines a "co-analysable unit"
    (e.g. card x day).  Only pseudonymised lists leave the site.
    """

    def __init__(
        self,
        name: str,
        db: EventDatabase,
        join_key: str,
        cluster_by: Tuple[Tuple[str, str], ...],
        sequence_by: Tuple[Tuple[str, bool], ...],
        salt: str,
    ):
        self.name = name
        self._db = db
        self._join_key = join_key
        self._cluster_by = cluster_by
        self._sequence_by = sequence_by
        self._salt = salt

    def pattern_lists(
        self, template: PatternTemplate
    ) -> Dict[PatternValues, FrozenSet[Pseudonym]]:
        """Pseudonym lists per pattern instantiation — the only export.

        A pseudonym enters the list for pattern p when *some* sequence of
        that join-key value contains p.  Raw events never leave.
        """
        groups = build_sequence_groups(
            self._db, None, self._cluster_by, self._sequence_by
        )
        matcher = make_matcher(template, self._db)
        lists: Dict[PatternValues, set] = {}
        for sequence in groups.all_sequences():
            pseudonym = pseudonymize(
                self._sequence_join_value(sequence), self._salt
            )
            for values in matcher.unique_instantiations(sequence):
                lists.setdefault(values, set()).add(pseudonym)
        return {values: frozenset(ids) for values, ids in lists.items()}

    def _sequence_join_value(self, sequence) -> object:
        """The sequence's single join-key value, validated.

        The federation protocol assumes every event of a co-analysable
        unit carries the same join-key value (the clustering should imply
        it).  A missing attribute or a value that varies within one
        sequence would silently corrupt the pseudonym lists, so both are
        typed errors naming the site and the key.
        """
        values = set()
        for position in range(len(sequence)):
            try:
                values.add(sequence.event(position)[self._join_key])
            except (KeyError, SchemaError):
                raise EngineError(
                    f"vendor site {self.name!r}: join key "
                    f"{self._join_key!r} is missing from event {position} "
                    f"of sequence {sequence.cluster_key!r}"
                ) from None
        if len(values) != 1:
            raise EngineError(
                f"vendor site {self.name!r}: join key {self._join_key!r} "
                f"varies within sequence {sequence.cluster_key!r} "
                f"({sorted(map(repr, values))}); cluster on the join key "
                f"so each sequence has one owner"
            )
        return next(iter(values))

    def population(self) -> FrozenSet[Pseudonym]:
        """Pseudonyms of every join-key value present at this vendor."""
        return frozenset(
            pseudonymize(value, self._salt)
            for value in set(self._db.column(self._join_key))
        )

    def __repr__(self) -> str:
        return f"VendorSite({self.name!r}, {len(self._db)} private events)"


class FederationCoordinator:
    """Counts cross-vendor pattern co-occurrences from pseudonym lists."""

    def __init__(self, sites: List[VendorSite], min_count: int = 5):
        if len(sites) < 2:
            raise EngineError("a federation needs at least two vendor sites")
        self.sites = sites
        #: cells whose pseudonym-intersection count falls below this are
        #: suppressed (k-anonymity style disclosure control)
        self.min_count = min_count

    def cross_counts(
        self,
        templates: Dict[str, PatternTemplate],
    ) -> Dict[Tuple[PatternValues, ...], int]:
        """Joint counts over one pattern template per site.

        Returns ``{(pattern_site1, pattern_site2, ...): count}`` where
        count is the number of shared customers matching every site's
        pattern — e.g. (subway trip X→Y, any bus ride) pairs.  Cells below
        ``min_count`` are suppressed, and the coordinator never sees a
        pseudonym's pre-image.
        """
        per_site: List[Dict[PatternValues, FrozenSet[Pseudonym]]] = []
        for site in self.sites:
            if site.name not in templates:
                raise EngineError(f"no template for site {site.name!r}")
            per_site.append(site.pattern_lists(templates[site.name]))

        def expand(
            index: int, current: Tuple[PatternValues, ...], ids: FrozenSet[Pseudonym]
        ):
            if len(ids) < self.min_count:
                return
            if index == len(per_site):
                results[current] = len(ids)
                return
            for values, site_ids in per_site[index].items():
                expand(index + 1, current + (values,), ids & site_ids)

        results: Dict[Tuple[PatternValues, ...], int] = {}
        universe = frozenset().union(*(site.population() for site in self.sites))
        expand(0, (), universe)
        return results

    def shared_customers(self) -> int:
        """How many customers appear at every vendor (thresholded)."""
        shared = self.sites[0].population()
        for site in self.sites[1:]:
            shared &= site.population()
        count = len(shared)
        return count if count >= self.min_count else 0

    def __repr__(self) -> str:
        return (
            f"FederationCoordinator({[s.name for s in self.sites]}, "
            f"min_count={self.min_count})"
        )
