"""``session_cache``: interleaved analyst sessions against the default engine.

Why: the cuboid repository and the semantic cache do most of the work —
exact gets, usability search and derivation, puts and benefit evictions
— and scans happen only on misses.  It is the workload that shows
whether a derived answer is actually cheaper than the scan it avoids.

One thread replays six analysts round-robin.  Each analyst walks from
a base view through revisits (exact hits), P-ROLL-UP / global roll-up /
slice / dice steps (derivable from a cached cuboid) and APPEND / PREPEND
/ DE-TAIL / drill-down / restriction changes (never derivable).  Which
class an op lands in is decided by the engine and reported, not assumed.
A round replays the whole list on a fresh default engine (repository 64,
benefit policy, semantic cache on, strategy ``auto``); the list holds
about twice as many distinct cache keys as the repository has slots, so
puts and benefit evictions run beside gets.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Tuple

from repro.core import operations as ops
from repro.core.engine import SOLAPEngine
from repro.core.spec import CellRestriction, CuboidSpec
from repro.datagen import SyntheticConfig, base_spec, generate_event_database

from .common import InProcess, Round, reference_cells

#: (synthetic sequences, analyst sessions); a round is one script per analyst
FULL = (400, 6)
TINY = (80, 3)

#: (level of X, level of Y, restriction) of each analyst's base view.  Under
#: the two left-maximality modes pattern roll-ups and pattern slices are not
#: derivable (docs/caching.md), so those analysts turn some "derivable"
#: steps into usability rejects and scans.
_BASE_VIEWS = (
    ("symbol", "symbol", CellRestriction.ALL_MATCHED),
    ("symbol", "group", CellRestriction.ALL_MATCHED),
    ("symbol", "symbol", CellRestriction.LEFT_MAXIMALITY),
    ("group", "symbol", CellRestriction.ALL_MATCHED),
    ("symbol", "symbol", CellRestriction.LEFT_MAXIMALITY_DATA),
    ("group", "group", CellRestriction.ALL_MATCHED),
)


def analyst_script(
    index: int, rng: random.Random, schema, members
) -> List[Tuple[str, CuboidSpec]]:
    """One analyst's session: 36 steps in a fixed order.

    The order of step kinds is the same for every seed; the seed only
    picks the values sliced and diced on.  That keeps the share of
    revisits, derivable steps and cold steps fixed, so what moves between
    seeds is the data, not the shape of the workload.
    """
    level_x, level_y, restriction = _BASE_VIEWS[index % len(_BASE_VIEWS)]
    base = replace(
        base_spec(("X", "Y"), per_symbol_levels={"X": level_x, "Y": level_y}),
        group_by=(("symbol", "group"),),
        restriction=restriction,
    )
    groups = rng.sample(members["group"], 6)
    supergroup = rng.choice(members["supergroup"])
    value_x = rng.choice(members[level_x])
    value_y = rng.choice(members[level_y])

    slice_0 = ops.slice_global(base, "symbol", groups[0])
    rolled_x = ops.p_roll_up(base, "X", schema)
    rolled_xy = ops.p_roll_up(rolled_x, "Y", schema)
    diced = ops.dice_global(base, "symbol", tuple(groups[2:5]))
    global_up = ops.roll_up_global(base, "symbol", schema)
    appended = ops.append(base, "Z", "symbol", "symbol")
    de_tailed = ops.de_tail(base)
    appended_coarse = ops.append(rolled_xy, "Z", "symbol", "group")
    # a second, coarse view under another restriction, then a drill-down
    # into it: two scans no cached cuboid can stand in for
    other = (
        CellRestriction.LEFT_MAXIMALITY
        if restriction is CellRestriction.ALL_MATCHED
        else CellRestriction.ALL_MATCHED
    )
    coarse_view = replace(rolled_xy, restriction=other)
    drilled = ops.p_drill_down(coarse_view, "X", schema)
    return [
        ("base_view", base),
        ("slice_global", slice_0),
        ("slice_global", ops.slice_global(base, "symbol", groups[1])),
        ("revisit", base),
        ("p_roll_up", rolled_x),
        ("revisit", slice_0),
        ("p_roll_up", rolled_xy),
        ("revisit", rolled_x),
        ("dice_global", diced),
        ("revisit", rolled_xy),
        ("roll_up_global", global_up),
        ("revisit", diced),
        ("slice_global", ops.slice_global(global_up, "symbol", supergroup)),
        ("revisit", global_up),
        ("append", appended),
        ("slice_global", ops.slice_global(appended, "symbol", groups[0])),
        ("de_tail_back", ops.de_tail(appended)),
        ("slice_pattern", ops.slice_pattern(base, "X", value_x)),
        ("slice_pattern", ops.slice_pattern(base, "Y", value_y)),
        ("revisit", rolled_xy),
        ("drill_down_back", ops.p_drill_down(rolled_x, "X", schema)),
        ("de_tail", de_tailed),
        ("slice_global", ops.slice_global(de_tailed, "symbol", groups[1])),
        ("revisit", de_tailed),
        ("restriction_change", coarse_view),
        ("p_drill_down", drilled),
        ("revisit", diced),
        ("dice_global", ops.dice_global(rolled_x, "symbol", (groups[0], groups[5]))),
        ("prepend", ops.prepend(base, "W", "symbol", "group")),
        ("revisit", appended),
        ("slice_global", ops.slice_global(rolled_xy, "symbol", groups[2])),
        ("roll_up_global", ops.roll_up_global(rolled_x, "symbol", schema)),
        ("append", appended_coarse),
        ("slice_global", ops.slice_global(appended_coarse, "symbol", groups[3])),
        ("revisit", global_up),
        ("slice_global", ops.slice_global(drilled, "symbol", groups[4])),
    ]


class SessionCache(InProcess):
    name = "session_cache"
    # nothing repeats exactly here: the benefit eviction policy and the
    # planner's cost gate both compare *measured* build times, so which
    # cuboid is evicted, or judged too dear to derive from, depends on
    # timing.  The harness reports the drift of the class counts instead.
    exact_repeat = ()

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.sizes = TINY if tiny else FULL

    def setup(self) -> None:
        sequences, n_sessions = self.sizes
        self.db = generate_event_database(
            SyntheticConfig(I=100, L=20, theta=0.9, D=sequences, seed=self.seed)
        )
        rng = random.Random(self.seed)
        schema = self.db.schema
        members = {
            level: sorted(self.db.distinct("symbol", level), key=repr)
            for level in schema.hierarchy("symbol").levels
        }
        scripts = [
            analyst_script(index, rng, schema, members)
            for index in range(n_sessions)
        ]
        # round-robin interleaving: step k of every analyst, then step k+1
        self.ops = [step for steps in zip(*scripts) for step in steps]

    def teardown(self) -> None:
        pass

    def prepare(self) -> None:
        engine = SOLAPEngine(self.db, use_repository=False)
        self.expected = {}
        for _, spec in self.ops:
            if spec not in self.expected:
                self.expected[spec] = reference_cells(engine, spec)

    def run_round(self) -> Round:
        round_ = Round()
        engine = SOLAPEngine(self.db)
        for kind, spec in self.ops:
            self.execute(round_, engine, spec, "auto", self.expected[spec], kind)
        self.engine_counters(round_, engine)
        round_.bump("distinct_keys", len(self.expected))
        return round_
