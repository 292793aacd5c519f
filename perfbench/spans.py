"""In-memory spans around the library's public entry points.

:func:`instrument` patches each entry point where its caller looks it up
(a class attribute, or the module global the caller imported) with a
wrapper that records a :class:`Span` (name, start, end, parent) into a
:class:`SpanRecorder`, and restores the originals on exit.  The program's
files are not changed.  Self time is derived after the fact: a span's
duration minus the durations of the spans opened inside it on the same
thread.

``BPlusTree.range`` returns a lazy iterator that its caller consumes
later, so its span covers only the time spent inside the iterator: it
starts when ``range`` is called and its end is set, when the iterator is
dropped, to that start plus the time spent producing items.

:func:`instrument` can also *slow a layer down* (``slow={name: k}`` runs
the wrapped call ``k`` times), which is how the sensitivity check
injects a regression from the benchmark's own files.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.asr.manager
import repro.query.service
from repro.asr.asr import AccessSupportRelation
from repro.concurrency import RWLock
from repro.gom.database import ObjectBase
from repro.query.cache import CompiledPlanCache
from repro.query.costplanner import CostBasedPlanner
from repro.query.evaluator import QueryEvaluator
from repro.query.executor import SelectExecutor
from repro.query.planner import Planner
from repro.storage.btree import BPlusTree
from repro.telemetry.drift import DriftMonitor

clock = time.perf_counter

#: The root span the benchmark opens around each op of a traced segment.
OP_SPAN = "bench.op"


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class SpanRecorder:
    """Spans and counters of one traced segment, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, clock(), stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self._stack().pop()

    def detached(self, name: str) -> Span:
        """A span under the current one that is not pushed on the stack."""
        stack = self._stack()
        span = Span(name, clock(), stack[-1] if stack else None)
        self.spans.append(span)
        return span

    def count(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total duration and total self time (s)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.end - span.start
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[id(span)]
        return table


class _TimedRange:
    """Iterator proxy that charges only the time spent producing items."""

    __slots__ = ("_items", "_span", "_busy")

    def __init__(self, items, span: Span, busy: float) -> None:
        self._items = items
        self._span = span
        self._busy = busy

    def __iter__(self):
        return self

    def __next__(self):
        started = clock()
        try:
            return next(self._items)
        finally:
            self._busy += clock() - started

    def __del__(self) -> None:
        self._span.end = self._span.start + self._busy


def _after_delta(recorder: SpanRecorder, args, result) -> None:
    added, removed = result
    recorder.count("asr.maintenance.rows_examined", len(args[3]))
    recorder.count("asr.maintenance.rows_changed", len(added) + len(removed))


def _after_evaluate(recorder: SpanRecorder, args, result) -> None:
    recorder.count("query.evaluator.queries")
    recorder.count("query.evaluator.pages", result.total_pages)


def _after_cache_get(recorder: SpanRecorder, args, result) -> None:
    recorder.count("query.cache.probes")
    recorder.count("query.cache.hits", result is not None)


#: (owner, attribute, span name, post-call hook) for every wrapped entry
#: point.  Module globals are patched in the module that calls them.
TARGETS = (
    (ObjectBase, "set_insert", "gom.update", None),
    (ObjectBase, "set_remove", "gom.update", None),
    (repro.asr.manager, "neighbourhood_delta", "asr.maintenance.delta", _after_delta),
    (AccessSupportRelation, "apply_delta", "asr.apply", None),
    (BPlusTree, "search", "storage.btree.search", None),
    (BPlusTree, "insert", "storage.btree.insert", None),
    (BPlusTree, "delete", "storage.btree.delete", None),
    (Planner, "plan", "query.planner.plan", None),
    (CostBasedPlanner, "plan", "query.planner.plan", None),
    (QueryEvaluator, "evaluate_supported", "query.evaluator.supported", _after_evaluate),
    (QueryEvaluator, "evaluate_unsupported", "query.evaluator.unsupported", _after_evaluate),
    (repro.query.service, "parse_select", "query.service.parse", None),
    (repro.query.service, "validate_select", "query.service.validate", None),
    (SelectExecutor, "compile", "query.service.compile", None),
    (SelectExecutor, "run_compiled", "query.service.run", None),
    (CompiledPlanCache, "get", "query.cache.get", _after_cache_get),
    (DriftMonitor, "observe_query", "telemetry.drift.observe", None),
    (DriftMonitor, "observe_update", "telemetry.drift.observe", None),
    (RWLock, "acquire_read", "concurrency.lock.read_wait", None),
    (RWLock, "acquire_write", "concurrency.lock.write_wait", None),
)


def _traced(recorder: SpanRecorder, fn, name: str, after, repeat: int):
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            for _ in range(repeat - 1):
                fn(*args, **kwargs)
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _repeated(fn, repeat: int):
    def wrapper(*args, **kwargs):
        for _ in range(repeat - 1):
            fn(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _traced_range(recorder: SpanRecorder, fn):
    def wrapper(*args, **kwargs):
        span = recorder.detached("storage.btree.range")
        items = fn(*args, **kwargs)
        return _TimedRange(items, span, clock() - span.start)

    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder | None, slow: dict[str, int] | None = None):
    """Patch the entry points for the duration of the block.

    With a ``recorder`` every target records spans; without one only the
    targets named in ``slow`` are patched, to repeat their call.
    """
    slow = slow or {}
    saved = []
    try:
        for owner, attribute, name, after in TARGETS:
            repeat = slow.get(name, 1)
            if recorder is None and repeat == 1:
                continue
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            if recorder is None:
                setattr(owner, attribute, _repeated(original, repeat))
            else:
                setattr(owner, attribute, _traced(recorder, original, name, after, repeat))
        if recorder is not None:
            original = BPlusTree.__dict__["range"]
            saved.append((BPlusTree, "range", original))
            BPlusTree.range = _traced_range(recorder, original)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
