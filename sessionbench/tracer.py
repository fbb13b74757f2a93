"""Span tracing from outside the program: wrap public entry points per layer.

The benchmark does not instrument ``src/``. :func:`install` replaces the
entry points listed in :data:`TARGETS` with thin wrappers that time each
call against a :class:`Tracer`, and :func:`uninstall` puts the originals
back. A span's *self* time is its duration minus the time of the spans it
encloses, so the self times of every span inside a session root add up to
the root's wall time. Garbage collection (seen through ``gc.callbacks``)
is a span of its own, the ``runtime.gc`` layer, nested wherever it
interrupts.

Spans are kept in memory in flat arrays (not GC-tracked, so the tracer does
not inflate the collections it measures) and written out as JSON lines
when the run ends. The two hottest entry points, ``trial_cost`` and the
budget policy's ``admits`` (about 10^5 calls a session), are aggregated in
place instead of stored.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

#: (module, owner, attribute, span name, store?) — ``owner`` is a class
#: name, or ``None`` for a module-level function rebound where it is
#: imported. A class entry ending in ``+`` also wraps every subclass that
#: overrides the attribute.
TARGETS: tuple[tuple[str, str | None, str, str, bool], ...] = (
    ("repro.tuners.base", "Tuner", "tune", "tuners.tune", True),
    ("repro.tuners.base", "TuningSession", "checkpoint", "budget.checkpoint", True),
    ("repro.budget.policy", "BudgetPolicy+", "admits", "budget.admits", False),
    ("repro.tuners.greedy", None, "greedy_enumerate", "tuners.greedy", True),
    ("repro.tuners.dta", None, "greedy_enumerate", "tuners.greedy", True),
    ("repro.core.extraction", None, "greedy_enumerate", "tuners.greedy", True),
    ("repro.core.search", "MCTSSearch", "run", "core.search", True),
    ("repro.core.search", None, "compute_singleton_priors", "core.priors", True),
    ("repro.core.search", None, "extract_best", "core.extract", True),
    ("repro.core.selection", "SelectionPolicy+", "select", "core.select", True),
    ("repro.core.node", "TreeNode", "create", "core.node_create", True),
    ("repro.core.mdp", "IndexTuningMDP", "actions", "core.actions", True),
    ("repro.optimizer.whatif", "WhatIfOptimizer", "whatif_prefetch", "optimizer.prefetch", True),
    ("repro.optimizer.whatif", "WhatIfOptimizer", "whatif_cost", "optimizer.whatif_cost", True),
    ("repro.optimizer.whatif", "WhatIfOptimizer", "trial_cost", "optimizer.trial_cost", False),
    ("repro.optimizer.whatif", "WhatIfOptimizer", "derived_query_costs", "optimizer.derived", True),
    ("repro.optimizer.whatif", "WhatIfOptimizer", "derived_cost", "optimizer.derived", True),
    ("repro.optimizer.whatif", "WhatIfOptimizer", "derived_workload_cost", "optimizer.derived", True),
    ("repro.optimizer.whatif", "WhatIfOptimizer", "close", "backend.cache_flush", True),
    ("repro.optimizer.whatif", "WhatIfOptimizer", "cache_identity", "backend.cache_load", True),
    ("repro.optimizer.cost_model", "CostModel", "prepare", "optimizer.prepare", True),
    ("repro.optimizer.cost_model", "CostModel", "cost", "backend.price", True),
    ("repro.backend.cache", "PersistentWhatIfCache", "__init__", "backend.cache_load", True),
    ("repro.backend.cache", "PersistentWhatIfCache", "flush", "backend.cache_flush", True),
    ("repro.workload.candidates", "CandidateGenerator", "for_workload", "workload.candidates", True),
)

#: The cost store reads its file in ``_load``, on the first lookup only;
#: every later lookup calls ``_load`` too (about 10^4 a session) and just
#: returns the loaded dict. Only the call that finds ``_costs`` unset is a
#: span, so ``backend.cache_load`` times the load, not the tracer.
LOADER = ("repro.backend.cache", "PersistentWhatIfCache", "_load", "backend.cache_load", "_costs")

GC_SPAN = "runtime.gc"


class Tracer:
    """Nested spans with self-time accounting, grouped by session.

    A span is opened and closed around one call; the stack holds
    ``[name id, start ns, enclosed ns, stored span index]`` per open span.
    While :attr:`active` is false every wrapper is a pass-through.
    """

    def __init__(self) -> None:
        self.active = False
        self.session = -1
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self._stack: list[list[int]] = []
        self._self_ns: list[int] = []
        self._calls: list[int] = []
        self._gc_frame: list[int] | None = None
        self.gc_collections = 0
        # Stored spans, one entry per array position.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_session = array("i")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_ns.append(0)
            self._calls.append(0)
        return self._ids[name]

    # -- per-session tallies ------------------------------------------- #

    def begin_session(self, session: int) -> None:
        """Start attributing spans to ``session`` with fresh tallies."""
        self.session = session
        self._self_ns = [0] * len(self.names)
        self._calls = [0] * len(self.names)
        self.gc_collections = 0
        self.active = True

    def end_session(self) -> dict[str, tuple[int, int]]:
        """Stop tracing; return ``name -> (self ns, calls)`` for the session."""
        self.active = False
        tally = {
            name: (self._self_ns[i], self._calls[i])
            for i, name in enumerate(self.names)
            if self._calls[i]
        }
        tally[GC_SPAN + ".collections"] = (0, self.gc_collections)
        return tally

    # -- spans --------------------------------------------------------- #

    def enter(self, name_id: int, store: bool) -> list[int]:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is None or parent[0] != name_id:
            # A delegation to the same entry point (a policy wrapping a
            # policy, derived_workload_cost -> derived_query_costs) is one
            # call of that layer, not two.
            self._calls[name_id] += 1
        index = -1
        start = perf_counter_ns()
        if store:
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_start.append(start)
            self.span_end.append(0)
            self.span_parent.append(self._stored_parent())
            self.span_session.append(self.session)
        frame = [name_id, start, 0, index]
        stack.append(frame)
        return frame

    def _stored_parent(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def exit(self, frame: list[int]) -> None:
        end = perf_counter_ns()
        duration = end - frame[1]
        stack = self._stack
        stack.pop()
        self._self_ns[frame[0]] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[3] >= 0:
            self.span_end[frame[3]] = end

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: collections inside a session are spans."""
        if phase == "start":
            if self.active and self._gc_frame is None:
                self._gc_frame = self.enter(self.name_id(GC_SPAN), False)
                self.gc_collections += 1
        elif self._gc_frame is not None:
            frame, self._gc_frame = self._gc_frame, None
            self.exit(frame)

    # -- output -------------------------------------------------------- #

    def write_spans(self, path) -> int:
        """Write every stored span as one JSON line; returns the count."""
        quoted = [json.dumps(name) for name in self.names]
        spans = zip(
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_session
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(
                f'{{"name": {quoted[name]}, "start_ns": {start}, "end_ns": {end}, '
                f'"parent": {parent}, "session": {session}}}\n'
                for name, start, end, parent, session in spans
            )
        return len(self.span_name)

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (e.g. the workload build)."""
        if not self.active:
            yield
            return
        frame = self.enter(self.name_id(name), True)
        try:
            yield
        finally:
            self.exit(frame)


def _wrapper(tracer: Tracer, fn, name_id: int, store: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(name_id, store)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return traced


def _loader_wrapper(tracer: Tracer, fn, name_id: int, loaded: str):
    """A :func:`_wrapper` that traces only calls that find ``loaded`` unset."""

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        if not tracer.active or getattr(self, loaded) is not None:
            return fn(self, *args, **kwargs)
        frame = tracer.enter(name_id, True)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.exit(frame)

    return traced


def _owners(cls: type, attr: str, with_subclasses: bool) -> list[type]:
    found = [cls]
    if with_subclasses:
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop()
            pending.extend(sub.__subclasses__())
            if attr in sub.__dict__ and sub not in found:
                found.append(sub)
    return found


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every :data:`TARGETS` entry point; returns what :func:`uninstall` needs."""
    restore: list[tuple[object, str, object]] = []
    for module_name, owner_name, attr, span_name, store in TARGETS:
        module = importlib.import_module(module_name)
        name_id = tracer.name_id(span_name)
        if owner_name is None:
            original = getattr(module, attr)
            setattr(module, attr, _wrapper(tracer, original, name_id, store))
            restore.append((module, attr, original))
            continue
        base = getattr(module, owner_name.rstrip("+"))
        for owner in _owners(base, attr, owner_name.endswith("+")):
            original = owner.__dict__[attr]
            if getattr(original, "__isabstractmethod__", False):
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrapper(tracer, original.__func__, name_id, store))
            else:
                wrapped = _wrapper(tracer, original, name_id, store)
            setattr(owner, attr, wrapped)
            restore.append((owner, attr, original))
    module_name, owner_name, attr, span_name, loaded = LOADER
    owner = getattr(importlib.import_module(module_name), owner_name)
    original = owner.__dict__[attr]
    setattr(owner, attr, _loader_wrapper(tracer, original, tracer.name_id(span_name), loaded))
    restore.append((owner, attr, original))
    gc.callbacks.append(tracer.on_gc)
    return restore


def uninstall(tracer: Tracer, restore: list[tuple[object, str, object]]) -> None:
    """Undo :func:`install`."""
    gc.callbacks.remove(tracer.on_gc)
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
