"""The interprocedural rules REP101–REP106.

Each rule runs over a linked :class:`~repro.lint.flow.index.ProjectIndex`
and enforces one cross-module invariant the per-file rules cannot see:

* REP101 — budget-flow: no call path from tuner/search code to a cost-path
  sink that bypasses the metered backend surface (the transitive closure
  of REP001/REP007);
* REP102 — determinism-taint: no RNG state from unseeded generators flows
  into tuner/enumeration code, even when laundered through a factory;
* REP103 — pickle-safety: nothing unpicklable (lambdas, local functions or
  classes, open file handles or database connections — including
  instances of classes that open one in ``__init__``) reaches a
  ``CellSpec``/``BackendSpec`` construction site, even via a helper's
  return value;
* REP104 — exception-flow: a handler that can intercept
  ``BudgetExhaustedError`` must re-raise or convert it to a session stop
  event;
* REP105 — protocol-conformance: classes registered in the backend
  registry must structurally match the ``CostBackend`` protocol;
* REP106 — concurrent-pricing: worker threads/processes may be spawned
  by code that reaches the pricing seam only inside the sanctioned
  executor (``backend/concurrent.py``) or the experiment pool
  (``parallel/``) — anywhere else the spawn races budget accounting.

Findings are ordinary :class:`~repro.lint.findings.Finding` records, so
the per-line suppression syntax and the checked-in baseline apply to flow
findings exactly as they do to per-file ones.
"""

from __future__ import annotations

from typing import ClassVar

from repro.lint.engine import iter_python_files
from repro.lint.findings import Finding
from repro.lint.flow.index import (
    METERED_NAMES,
    METERED_SEGMENTS,
    ProjectIndex,
    build_index,
    module_name,
)
from repro.lint.flow.summary import (
    BACKEND_PROTOCOL_NAME,
    BROAD_CATCHERS,
    BUDGET_CATCHERS,
    EVAL_ONLY_CALLS,
    FileSummary,
    PRIVATE_PRICING_CALLS,
)
from repro.lint.suppressions import is_suppressed

#: Directory segments the flow rules never report into.
_ANALYZER_SEGMENTS = frozenset({"lint"})

#: Budget-flow traversal depth cap (paths longer than this are noise).
_MAX_PATH_DEPTH = 8


class FlowRule:
    """Base class: one whole-program rule over a :class:`ProjectIndex`."""

    rule_id: ClassVar[str] = "REP1??"
    title: ClassVar[str] = ""

    def check(self, index: ProjectIndex) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, summary: FileSummary, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=summary.path,
            line=line,
            col=col,
            message=message,
        )


def _skip(index: ProjectIndex, gid: str) -> bool:
    """Functions the flow rules neither start from nor report into."""
    return bool(index.function_files[gid].segments & _ANALYZER_SEGMENTS)


class BudgetFlowRule(FlowRule):
    """REP101: un-metered call paths from search code to cost-path sinks.

    From every function under ``tuners/``/``core/`` the rule walks the
    call graph breadth-first. Entering the metered backend surface
    (``whatif_cost`` and friends in ``backend/``/``optimizer/``) ends a
    path — that is the sanctioned way to pay for a cost. Reaching a
    function that *directly* invokes a cost-path sink (``CostModel.cost``,
    ``_price``/``_price_wave``/``_price_shard``, ``true_cost``/
    ``true_workload_cost``) without such a barrier is a budget leak
    laundered through the call chain, reported at the first call site of
    the chain. Zero-hop sinks (the flagged function itself sinks) are
    REP001's findings and are not duplicated here.
    """

    rule_id = "REP101"
    title = "budget-flow: search code reaches a cost-path sink un-metered"

    _LAUNDERED = EVAL_ONLY_CALLS | PRIVATE_PRICING_CALLS

    def check(self, index: ProjectIndex) -> list[Finding]:
        findings: list[Finding] = []
        for gid in sorted(index.functions):
            if not index.in_search_scope(gid) or _skip(index, gid):
                continue
            summary = index.function_files[gid]
            for call, targets in index.edges(gid):
                hit = self._first_sink_path(index, targets)
                if hit is None:
                    continue
                path, sink = hit
                chain = " -> ".join(
                    [index.function_label(gid)]
                    + [index.function_label(step) for step in path]
                )
                findings.append(
                    self.finding(
                        summary,
                        call.line,
                        call.col,
                        f"budget-flow: `{call.raw}(...)` reaches the "
                        f"un-metered cost-path call `{sink}` (path: {chain}) "
                        "without passing a metered backend surface; pay via "
                        "whatif_cost/evaluated_cost or move the pricing "
                        "behind the backend layer",
                    )
                )
        return findings

    def _first_sink_path(
        self, index: ProjectIndex, roots: tuple[str, ...]
    ) -> tuple[list[str], str] | None:
        """BFS from a call site's candidate targets to the nearest sink."""
        queue: list[tuple[str, list[str]]] = [(gid, [gid]) for gid in roots]
        visited: set[str] = set()
        while queue:
            gid, path = queue.pop(0)
            if gid in visited or len(path) > _MAX_PATH_DEPTH:
                continue
            visited.add(gid)
            if _skip(index, gid):
                continue
            if index.is_metered(gid):
                continue  # barrier: the sanctioned, budget-charging surface
            function = index.functions[gid]
            in_metered_layer = bool(
                index.function_files[gid].segments & METERED_SEGMENTS
            )
            if in_metered_layer:
                # Inside the metered layer only the evaluation-only and
                # private pricing entries are leaks; everything else is the
                # layer's own business. A direct (one-hop) call to such an
                # entry is REP001's per-file finding, not duplicated here.
                if function.name in self._LAUNDERED and len(path) > 1:
                    return path, f"{function.name}(...)"
                continue
            if function.sinks:
                return path, function.sinks[0].render
            for _, targets in index.edges(gid):
                for target in targets:
                    if target not in visited:
                        queue.append((target, path + [target]))
        return None


class DeterminismTaintRule(FlowRule):
    """REP102: unseeded RNG state flowing into tuner/enumeration code.

    Two shapes are flagged inside ``tuners/``/``core/``: constructing an
    unseeded generator in place (``random.Random()`` /
    ``np.random.default_rng()`` with no seed — invisible to REP003, which
    only sees module-global state calls), and calling a factory — in any
    module, any number of return-hops deep — that hands back such a
    generator. Seeded factories (``make_rng(seed)``) never match.
    """

    rule_id = "REP102"
    title = "determinism-taint: unseeded RNG reaches tuner/enumeration state"

    def check(self, index: ProjectIndex) -> list[Finding]:
        producers = self._taint_producers(index)
        findings: list[Finding] = []
        for gid in sorted(index.functions):
            if not index.in_search_scope(gid) or _skip(index, gid):
                continue
            summary = index.function_files[gid]
            function = index.functions[gid]
            for line, render in function.unseeded_rng:
                findings.append(
                    self.finding(
                        summary,
                        line,
                        0,
                        f"determinism-taint: unseeded generator `{render}` "
                        "constructed in search code; every draw must come "
                        "from a seeded generator (repro.rng.make_rng)",
                    )
                )
            for call, targets in index.edges(gid):
                tainted = sorted(t for t in targets if t in producers)
                if not tainted:
                    continue
                findings.append(
                    self.finding(
                        summary,
                        call.line,
                        call.col,
                        f"determinism-taint: `{call.raw}(...)` returns RNG "
                        "state from an unseeded generator "
                        f"(`{index.function_label(tainted[0])}`); inject the "
                        "seed instead of laundering global randomness",
                    )
                )
        return findings

    @staticmethod
    def _taint_producers(index: ProjectIndex) -> set[str]:
        """Functions returning unseeded RNG state, closed over return hops."""
        producers = {
            gid
            for gid, function in index.functions.items()
            if function.returns_unseeded
        }
        changed = True
        while changed:
            changed = False
            for gid in sorted(index.functions):
                if gid in producers:
                    continue
                function = index.functions[gid]
                summary = index.function_files[gid]
                for raw in function.returned_calls:
                    resolved = index.resolve_call(
                        summary, raw, function.owner_class
                    )
                    if any(target in producers for target in resolved):
                        producers.add(gid)
                        changed = True
                        break
        return producers


class PickleSafetyRule(FlowRule):
    """REP103: unpicklable payloads reaching spec construction sites.

    ``CellSpec``/``BackendSpec`` cross the experiment process pool, so
    every constructor argument must pickle. Flagged shapes: a lambda
    argument, a name bound to a lambda / locally-defined function or
    class / ``open()``/``connect()`` resource, a constructed instance of
    a class whose ``__init__`` stores such a resource on ``self`` (a
    backend that opens its connection eagerly can never ship through a
    spec), and — interprocedurally — a call to a factory (any module, any
    return-hop depth) that returns one of those. Factories applied in the
    parent that return module-level objects are the sanctioned pattern
    and never match.
    """

    rule_id = "REP103"
    title = "pickle-safety: unpicklable payload in a CellSpec/BackendSpec"

    def check(self, index: ProjectIndex) -> list[Finding]:
        producers = self._unpicklable_producers(index)
        findings: list[Finding] = []
        for summary in index.summaries.values():
            if summary.segments & _ANALYZER_SEGMENTS:
                continue
            for site in summary.spec_sites:
                owner = self._owner_class(summary, site.func)
                for position, arg in enumerate(site.args):
                    reason = arg.reason
                    if not reason and arg.kind == "call" and arg.ref:
                        resolved = index.resolve_call(summary, arg.ref, owner)
                        hits = sorted(t for t in resolved if t in producers)
                        if hits:
                            reason = (
                                f"a call to `{arg.ref}(...)` which returns "
                                f"{producers[hits[0]]}"
                            )
                        else:
                            reason = self._eager_instance(
                                index, summary, arg.ref
                            )
                    if not reason:
                        continue
                    slot = arg.keyword or f"#{position}"
                    findings.append(
                        self.finding(
                            summary,
                            arg.line,
                            arg.col,
                            f"pickle-safety: `{site.ctor}` argument "
                            f"`{slot}` is {reason}, which cannot cross the "
                            "process pool; apply factories in the parent "
                            "and ship only picklable state",
                        )
                    )
        return findings

    @staticmethod
    def _eager_instance(
        index: ProjectIndex, summary: FileSummary, raw: str
    ) -> str:
        """Reason when ``raw`` constructs a class that hoards a resource.

        Resolves the call target as a class and inspects its ``__init__``:
        a ``self.x = open(...)/...connect(...)/lambda`` binding there means
        every instance carries the unpicklable payload from birth.
        """
        cid = index.resolve_class(summary, raw)
        if cid is None:
            return ""
        init_gid = index.class_method(cid, "__init__")
        if init_gid is None:
            return ""
        init = index.functions.get(init_gid)
        if init is None or not init.unpicklable_self:
            return ""
        return (
            f"an instance of `{index.classes[cid].name}`, whose __init__ "
            f"stores {init.unpicklable_self} on self"
        )

    @staticmethod
    def _owner_class(summary: FileSummary, qualname: str) -> str:
        for function in summary.functions:
            if function.qualname == qualname:
                return function.owner_class
        return ""

    @staticmethod
    def _unpicklable_producers(index: ProjectIndex) -> dict[str, str]:
        """Functions returning unpicklable values, closed over return hops."""
        producers = {
            gid: function.unpicklable_return
            for gid, function in index.functions.items()
            if function.unpicklable_return
        }
        changed = True
        while changed:
            changed = False
            for gid in sorted(index.functions):
                if gid in producers:
                    continue
                function = index.functions[gid]
                summary = index.function_files[gid]
                for raw in function.returned_calls:
                    resolved = index.resolve_call(
                        summary, raw, function.owner_class
                    )
                    hits = sorted(t for t in resolved if t in producers)
                    if hits:
                        producers[gid] = producers[hits[0]]
                        changed = True
                        break
        return producers


class ExceptionFlowRule(FlowRule):
    """REP104: intercepted ``BudgetExhaustedError`` that dies in a handler.

    A raised exhaustion is a terminal session signal: any handler that can
    intercept it (an explicit catch, a broad ``except
    Exception``/``ReproError``, or a bare ``except``) must either re-raise
    or convert it into a session stop event. The rule propagates
    may-raise facts through the call graph — a handler two hops above
    ``policy.charge`` is just as able to swallow the signal as one next to
    it. Trivial-body handlers are REP002's findings and are not
    duplicated here.
    """

    rule_id = "REP104"
    title = "exception-flow: BudgetExhaustedError intercepted, not re-raised"

    def check(self, index: ProjectIndex) -> list[Finding]:
        raisers = self._may_raise(index)
        findings: list[Finding] = []
        for gid in sorted(index.functions):
            if _skip(index, gid):
                continue
            function = index.functions[gid]
            summary = index.function_files[gid]
            for handler in function.handlers:
                names = set(handler.names)
                bare = not handler.names
                if not bare and not names & BUDGET_CATCHERS:
                    continue
                if handler.body_raises or handler.converts_stop:
                    continue
                if handler.trivial and (
                    bare
                    or names & BROAD_CATCHERS
                    or "BudgetExhaustedError" in names
                ):
                    continue  # REP002 already owns the trivial-body case
                reachable = self._reachable_raiser(
                    index, summary, function.owner_class, handler.try_calls,
                    raisers,
                )
                broad = bare or bool(names & BROAD_CATCHERS)
                opaque = any(
                    not index.resolve_call(summary, raw, function.owner_class)
                    for raw in handler.try_calls
                )
                if reachable is None and not (broad and opaque):
                    continue
                clause = "bare `except:`" if bare else (
                    f"`except {sorted(names)[0]}`"
                )
                via = (
                    f" (raised inside `{reachable}`)"
                    if reachable is not None
                    else ""
                )
                findings.append(
                    self.finding(
                        summary,
                        handler.line,
                        handler.col,
                        f"exception-flow: {clause} can intercept "
                        f"BudgetExhaustedError{via} but neither re-raises "
                        "nor emits a session stop event; the exhaustion "
                        "signal dies here",
                    )
                )
        return findings

    @staticmethod
    def _reachable_raiser(
        index: ProjectIndex,
        summary: FileSummary,
        owner_class: str,
        try_calls: tuple[str, ...],
        raisers: set[str],
    ) -> str | None:
        for raw in try_calls:
            for target in index.resolve_call(summary, raw, owner_class):
                if target in raisers:
                    return raw
        return None

    @staticmethod
    def _may_raise(index: ProjectIndex) -> set[str]:
        """Functions from which ``BudgetExhaustedError`` can escape.

        Seeds are direct ``raise BudgetExhaustedError`` sites; the fact
        propagates caller-wards through calls *not* lexically guarded by a
        budget-catching ``try`` in the caller.
        """
        raisers = {
            gid
            for gid, function in index.functions.items()
            if function.raises_budget
        }
        changed = True
        while changed:
            changed = False
            for gid in sorted(index.functions):
                if gid in raisers:
                    continue
                function = index.functions[gid]
                summary = index.function_files[gid]
                for raw in function.unguarded_calls:
                    resolved = index.resolve_call(
                        summary, raw, function.owner_class
                    )
                    if any(target in raisers for target in resolved):
                        raisers.add(gid)
                        changed = True
                        break
        return raisers


class ProtocolConformanceRule(FlowRule):
    """REP105: registered backends diverging from the CostBackend protocol.

    Every class referenced in a module-level ``BACKENDS`` registry must
    structurally satisfy the ``CostBackend`` protocol: each non-property
    protocol method present (inherited through indexed bases counts) with
    a matching signature — same named parameters, unless the
    implementation takes ``*args``/``**kwargs``. Runtime
    ``isinstance(..., CostBackend)`` only checks *names*; this rule also
    pins the shapes, before a worker process discovers the drift.
    """

    rule_id = "REP105"
    title = "protocol-conformance: registered backend diverges from CostBackend"

    def check(self, index: ProjectIndex) -> list[Finding]:
        protocol = self._protocol(index)
        if protocol is None:
            return []
        protocol_id, protocol_methods = protocol
        findings: list[Finding] = []
        for summary in sorted(index.summaries.values(), key=lambda s: s.path):
            for raw in summary.backend_registry:
                cid = index.resolve_class(summary, raw)
                if cid is None or cid == protocol_id:
                    continue
                findings.extend(
                    self._check_class(index, cid, protocol_methods)
                )
        return findings

    def _protocol(
        self, index: ProjectIndex
    ) -> tuple[str, dict[str, str]] | None:
        for cid in sorted(index.classes):
            cls = index.classes[cid]
            if cls.name == BACKEND_PROTOCOL_NAME and cls.is_protocol:
                module = cid.split(":", 1)[0]
                methods = {
                    name: f"{module}:{qualname}"
                    for name, qualname in sorted(cls.methods.items())
                }
                return cid, methods
        return None

    def _check_class(
        self, index: ProjectIndex, cid: str, protocol_methods: dict[str, str]
    ) -> list[Finding]:
        cls = index.classes[cid]
        summary = index.class_files[cid]
        findings: list[Finding] = []
        for name, proto_gid in protocol_methods.items():
            proto = index.functions.get(proto_gid)
            if proto is None or proto.is_property or name.startswith("__"):
                continue
            impl_gid = index.class_method(cid, name)
            if impl_gid is None:
                findings.append(
                    self.finding(
                        summary,
                        cls.line,
                        0,
                        f"protocol-conformance: registered backend "
                        f"`{cls.name}` is missing CostBackend method "
                        f"`{name}`",
                    )
                )
                continue
            impl = index.functions[impl_gid]
            if impl.has_vararg and impl.has_kwarg:
                continue
            if impl.is_property and not proto.is_property:
                findings.append(
                    self.finding(
                        summary,
                        cls.line,
                        0,
                        f"protocol-conformance: `{cls.name}.{name}` is a "
                        f"property but CostBackend declares a method",
                    )
                )
                continue
            if tuple(impl.args) != tuple(proto.args):
                expected = ", ".join(proto.args) or "<none>"
                got = ", ".join(impl.args) or "<none>"
                findings.append(
                    self.finding(
                        summary,
                        cls.line,
                        0,
                        f"protocol-conformance: `{cls.name}.{name}` "
                        f"signature diverges from CostBackend (expected "
                        f"({expected}), got ({got}))",
                    )
                )
        return findings


class ConcurrentPricingRule(FlowRule):
    """REP106: ad-hoc thread/process fan-out over the pricing seam.

    Concurrent pricing is sanctioned in exactly one place — the
    speculate-then-commit executor in ``backend/concurrent.py``, which
    keeps budget charges and the session event stream in canonical
    serial order — plus the experiment pool under ``parallel/``, which
    parallelizes whole seeded runs, never individual pricings. A
    function anywhere else that constructs a ``Thread``/
    ``ThreadPoolExecutor``/``ProcessPoolExecutor`` *and* can reach a
    pricing call (the metered backend surface or the private
    ``_price``/``_price_wave``/``_price_shard`` helpers, any number of
    hops deep) races its budget charges against its workers: grant
    order, event order and the recorded trace become
    scheduling-dependent. Spawns that never touch pricing (I/O fan-out,
    timers) are left alone.
    """

    rule_id = "REP106"
    title = "concurrent-pricing: thread spawn outside the pricing executor"

    _PRICING_TERMINALS = METERED_NAMES | PRIVATE_PRICING_CALLS
    _SANCTIONED_SEGMENTS = frozenset({"parallel"})

    def check(self, index: ProjectIndex) -> list[Finding]:
        findings: list[Finding] = []
        for gid in sorted(index.functions):
            function = index.functions[gid]
            if not function.thread_spawns or _skip(index, gid):
                continue
            summary = index.function_files[gid]
            if self._sanctioned(summary):
                continue
            seam = self._reaches_pricing(index, gid)
            if seam is None:
                continue
            for line, render in function.thread_spawns:
                findings.append(
                    self.finding(
                        summary,
                        line,
                        0,
                        f"concurrent-pricing: `{render}` spawns workers in "
                        f"`{index.function_label(gid)}`, which reaches the "
                        f"pricing call `{seam}`; route concurrent pricing "
                        "through repro.backend.concurrent.PricingExecutor "
                        "(speculate-then-commit keeps budget accounting in "
                        "serial order)",
                    )
                )
        return findings

    @classmethod
    def _sanctioned(cls, summary: FileSummary) -> bool:
        if summary.path.endswith("backend/concurrent.py"):
            return True
        return bool(summary.segments & cls._SANCTIONED_SEGMENTS)

    def _reaches_pricing(self, index: ProjectIndex, root: str) -> str | None:
        """BFS from ``root``: the first reachable pricing call, or ``None``."""
        queue: list[tuple[str, int]] = [(root, 1)]
        visited: set[str] = set()
        while queue:
            gid, depth = queue.pop(0)
            if gid in visited or depth > _MAX_PATH_DEPTH:
                continue
            visited.add(gid)
            function = index.functions[gid]
            for sink in function.sinks:
                if sink.kind == "private-pricing":
                    return sink.render
            for call, targets in index.edges(gid):
                if call.raw.rsplit(".", 1)[-1] in self._PRICING_TERMINALS:
                    return f"{call.raw}(...)"
                for target in targets:
                    if target not in visited:
                        queue.append((target, depth + 1))
        return None


#: The flow rules, keyed by rule id.
FLOW_REGISTRY: dict[str, type[FlowRule]] = {
    rule.rule_id: rule
    for rule in (
        BudgetFlowRule,
        DeterminismTaintRule,
        PickleSafetyRule,
        ExceptionFlowRule,
        ProtocolConformanceRule,
        ConcurrentPricingRule,
    )
}


def run_flow_rules(
    index: ProjectIndex, select: set[str] | None = None
) -> list[Finding]:
    """Run the (selected) flow rules over ``index``; suppression-filtered.

    Findings honour the same per-line ``# repro-lint: off[REP104]`` syntax
    as the per-file engine (suppression tables travel in the file
    summaries).
    """
    findings: list[Finding] = []
    for rule_id in sorted(FLOW_REGISTRY):
        if select is not None and rule_id not in select:
            continue
        findings.extend(FLOW_REGISTRY[rule_id]().check(index))
    kept: list[Finding] = []
    seen: set[tuple] = set()
    for finding in findings:
        summary = index.summaries.get(finding.path)
        if summary is not None and is_suppressed(
            summary.suppressions, finding.line, finding.rule
        ):
            continue
        key = (finding.path, finding.line, finding.col, finding.rule,
               finding.message)
        if key in seen:
            continue
        seen.add(key)
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def analyze_paths(paths, select: set[str] | None = None) -> list[Finding]:
    """Index ``paths`` and run the flow rules — the CLI entry point.

    Args:
        paths: Files and/or directory trees to analyze as one program; each
            file is summarized once (:func:`~repro.lint.engine.iter_python_files`).
        select: Flow rule ids to run (``None`` = all of REP101–REP106).

    Returns:
        The suppression-filtered findings, sorted by location.
    """
    index = build_index(
        [(path.as_posix(), module_name(path)) for path in iter_python_files(paths)]
    )
    return run_flow_rules(index, select=select)
