"""The benchmark's own tracing: timing wrappers around layer entry points.

Nothing under ``src/`` is edited.  :data:`PROBES` names each layer's
public entry point by dotted name; :meth:`Tracer.resolve` looks the
target up, builds a wrapper and finds every binding a caller actually
uses — the defining module's attribute (or the class attribute for a
method) plus every ``repro.*`` module that imported the same object
under some name.  A target that no longer exists is listed in
``Tracer.missing`` and its metrics read ``null``; it never raises.

Spans live in memory on per-thread stacks (``name, start, end, parent,
op``) and are written out only when the run ends.  A span's self time
is its duration minus what its children (spans and tallies) covered.
Entry points that run thousands of times per op (the matcher's
per-sequence ``assignments``, repository get/put) are *tallies*: call
count and total time folded into the enclosing span instead of one span
per call, so the traced run stays close to the untraced one.
"""

from __future__ import annotations

import importlib
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

SPAN, TALLY, GEN = "span", "tally", "gen"

#: span name, kind, dotted target ``module:attr`` or ``module:Class.method``
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("ql.parse", SPAN, "repro.ql.parser:parse_query"),
    ("events.seqform", SPAN, "repro.events.sequence:build_sequence_groups"),
    ("matcher.compile", SPAN, "repro.core.matcher:make_matcher"),
    ("matcher.assign", TALLY, "repro.core.matcher:CompiledMatcher.assignments"),
    ("matcher.assign", TALLY, "repro.core.matcher:TemplateMatcher.assignments"),
    ("cb.scan", SPAN, "repro.core.counter_based:counter_based_cuboid"),
    ("index.build", SPAN, "repro.index.inverted:build_index"),
    ("index.join", SPAN, "repro.index.inverted:join_indices"),
    ("index.rollup", SPAN, "repro.index.inverted:InvertedIndex.rollup"),
    ("index.refine", SPAN, "repro.index.inverted:refine_index"),
    ("index.verify", SPAN, "repro.index.inverted:verify_index"),
    ("ii.query", SPAN, "repro.core.inverted_index:inverted_index_cuboid"),
    ("ii.precompute", SPAN, "repro.core.inverted_index:precompute_indices"),
    ("cache.plan", SPAN, "repro.optimizer.semantic_cache:DerivationPlanner.plan"),
    ("cache.derive", SPAN, "repro.optimizer.semantic_cache:execute_chain"),
    ("cache.get", TALLY, "repro.core.repository:CuboidRepository.get"),
    ("cache.put", TALLY, "repro.core.repository:CuboidRepository.put"),
    ("engine.execute", SPAN, "repro.core.engine:SOLAPEngine.execute"),
    ("service.execute", SPAN, "repro.service.service:QueryService.execute"),
    ("service.stream", GEN, "repro.service.service:QueryService.stream_query"),
    ("service.parallel_scan", SPAN, "repro.service.parallel:ParallelCBScanner.__call__"),
    ("storage.write", SPAN, "repro.storage.manager:StorageManager.write"),
    ("storage.attach", SPAN, "repro.storage.manager:attach_store"),
    ("storage.stored_groups", SPAN, "repro.storage.manager:SegmentBackedDatabase.stored_groups"),
    ("serve.dispatch", SPAN, "repro.serve.app:SolapServer._dispatch"),
    ("serve.encode_cells", SPAN, "repro.serve.codecs:encode_cells"),
    ("serve.dumps", TALLY, "repro.serve.codecs:dumps"),
)

#: request header carrying the client's op id to the server-side spans
OP_HEADER = "X-Bench-Op"

#: spans the harness itself opens: around each op, and around in-chain
#: precompute (timed, but not an op)
ROOT = "op"
CHAIN_SETUP = "chain_setup"
HARNESS_SPANS = (ROOT, CHAIN_SETUP)

# span record layout (a list, mutated in place while the span is open)
_NAME, _START, _END, _PARENT, _OP, _CHILD, _TALLIES, _PHASE = range(8)


class _ThreadState:
    __slots__ = ("spans", "top", "op", "in_tally", "thread")

    def __init__(self, thread: str):
        self.spans: List[list] = []
        self.top = -1
        self.op: Optional[int] = None
        self.in_tally = False
        self.thread = thread


class Tracer:
    """Per-thread span stacks plus the patch list that feeds them."""

    def __init__(self) -> None:
        self.phase = "run"
        #: ``span name=target`` of every probe target that did not resolve
        self.missing: List[str] = []
        self._resolved_names: set = set()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: (holder object, attribute, original, wrapper)
        self._patches: List[Tuple[object, str, object, object]] = []
        self._resolved = False
        self.installed = False

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def set_op(self, op: Optional[int]) -> None:
        self._state().op = op

    # -- spans opened by the harness itself ----------------------------
    def open(self, name: str) -> Tuple[_ThreadState, int]:
        state = self._state()
        record = [name, 0.0, 0.0, state.top, state.op, 0.0, None, self.phase]
        state.spans.append(record)
        index = len(state.spans) - 1
        state.top = index
        record[_START] = perf_counter()
        return state, index

    @staticmethod
    def close(handle: Tuple[_ThreadState, int]) -> None:
        end = perf_counter()
        state, index = handle
        record = state.spans[index]
        record[_END] = end
        state.top = record[_PARENT]
        if record[_PARENT] >= 0:
            state.spans[record[_PARENT]][_CHILD] += end - record[_START]

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self
        reads_op = name == "serve.dispatch"

        def traced(*args, **kwargs):
            state = tracer._state()
            if reads_op:
                # SolapServer._dispatch(self, request, method): the client
                # tags each request so server-side spans carry its op id
                header = args[1].headers.get(OP_HEADER) if len(args) > 1 else None
                state.op = int(header) if header is not None else None
            handle = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(handle)

        return traced

    def _tally_wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self

        def tallied(*args, **kwargs):
            state = tracer._state()
            if state.in_tally or state.top < 0:
                # nested under another tally (a subclass deferring to its
                # base) or outside any span: nothing to attribute it to
                return original(*args, **kwargs)
            state.in_tally = True
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state.in_tally = False
                parent = state.spans[state.top]
                parent[_CHILD] += elapsed
                tallies = parent[_TALLIES]
                if tallies is None:
                    tallies = parent[_TALLIES] = {}
                entry = tallies.get(name)
                if entry is None:
                    tallies[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return tallied

    def _gen_wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self

        def traced_generator(*args, **kwargs):
            # one span per resumption: the body only runs while the
            # consumer is inside next(), on the consumer's thread
            iterator = original(*args, **kwargs)
            try:
                while True:
                    handle = tracer.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(handle)
                    yield item
            finally:
                iterator.close()

        return traced_generator

    # -- resolution -----------------------------------------------------
    def resolve(self) -> None:
        """Look every probe target up once and record where to patch it."""
        if self._resolved:
            return
        self._resolved = True
        makers = {
            SPAN: self._span_wrapper,
            TALLY: self._tally_wrapper,
            GEN: self._gen_wrapper,
        }
        for name, kind, target in PROBES:
            module_name, _, path = target.partition(":")
            try:
                holder: object = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for owner in owners:
                    holder = getattr(holder, owner)
                raw = vars(holder)[attr] if owners else getattr(holder, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{name}={target}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper: object = type(raw)(makers[kind](name, raw.__func__))
            else:
                wrapper = makers[kind](name, raw)
            self._patches.append((holder, attr, raw, wrapper))
            self._resolved_names.add(name)
            if owners:
                continue
            # a plain function: also patch every module that imported it,
            # since ``from m import f`` callers never look at ``m.f`` again
            for other_name, other in list(sys.modules.items()):
                if other is None or other is holder:
                    continue
                if other_name != "repro" and not other_name.startswith("repro."):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is raw:
                        self._patches.append((other, alias, raw, wrapper))

    def dead_spans(self) -> set:
        """Span names none of whose targets exist any more."""
        self.resolve()
        return {name for name, _, _ in PROBES} - self._resolved_names

    def install(self) -> None:
        self.resolve()
        if not self.installed:
            for holder, attr, _, wrapper in self._patches:
                setattr(holder, attr, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for holder, attr, raw, _ in self._patches:
                setattr(holder, attr, raw)
            self.installed = False

    # -- read-out -------------------------------------------------------
    def records(self) -> List[dict]:
        """Every finished span as a dict, ids unique across threads."""
        out: List[dict] = []
        with self._lock:
            states = list(self._states)
        base = 0
        for state in states:
            spans = list(state.spans)
            for index, record in enumerate(spans):
                if record[_END] == 0.0:
                    continue  # still open (a handler caught mid-request)
                tallies = record[_TALLIES] or {}
                out.append(
                    {
                        "id": base + index,
                        "name": record[_NAME],
                        "start": record[_START],
                        "end": record[_END],
                        "parent": (
                            base + record[_PARENT] if record[_PARENT] >= 0 else None
                        ),
                        "op": record[_OP],
                        "thread": state.thread,
                        "phase": record[_PHASE],
                        "self": record[_END] - record[_START] - record[_CHILD],
                        "tallies": {
                            key: {"calls": calls, "total": total}
                            for key, (calls, total) in tallies.items()
                        },
                    }
                )
            base += len(spans)
        return out


def own_seconds(record: dict) -> float:
    """A span's self time plus the tallies folded into it."""
    return record["self"] + sum(t["total"] for t in record["tallies"].values())


class Aggregate:
    """Calls, total and self time per span/tally name, for one phase."""

    def __init__(self, records: List[dict], phase: Optional[str] = None):
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.records = [
            r for r in records if phase is None or r["phase"] == phase
        ]
        for record in self.records:
            name = record["name"]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = (
                self.total.get(name, 0.0) + record["end"] - record["start"]
            )
            self.self_time[name] = self.self_time.get(name, 0.0) + record["self"]
            for key, tally in record["tallies"].items():
                self.calls[key] = self.calls.get(key, 0) + tally["calls"]
                self.total[key] = self.total.get(key, 0.0) + tally["total"]
                self.self_time[key] = self.self_time.get(key, 0.0) + tally["total"]

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def ms_per_call(self, name: str, self_time: bool = True) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        table = self.self_time if self_time else self.total
        return table[name] * 1000.0 / calls
