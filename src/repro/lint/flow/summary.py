"""Per-file extraction for the whole-program flow analysis.

A :class:`FileSummary` is everything the link step needs to know about one
module, computed from its source text alone.

The summary records *raw* call references (dotted name chains as written,
e.g. ``"self.optimizer.whatif_cost"``); resolving them against the module
map and import table is the link step's job
(:mod:`repro.lint.flow.index`), which sees every file's summary at once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.suppressions import parse_suppressions

#: Evaluation-only ground-truth entry points (uncounted by design).
EVAL_ONLY_CALLS = frozenset({"true_cost", "true_workload_cost"})

#: Private pricing helpers that bypass budget accounting.
PRIVATE_PRICING_CALLS = frozenset({"_price", "_price_wave", "_price_shard"})

#: Constructors that spawn worker threads/processes (REP106).
THREAD_SPAWNERS = frozenset(
    {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor"}
)

#: Exception names that can intercept ``BudgetExhaustedError``.
BUDGET_CATCHERS = frozenset(
    {"BudgetExhaustedError", "ReproError", "Exception", "BaseException"}
)

#: Broad exception names (catch far more than the budget signal).
BROAD_CATCHERS = frozenset({"ReproError", "Exception", "BaseException"})

#: Call terminals that convert an exhaustion into a session stop event.
STOP_CONVERTERS = frozenset(
    {"emit", "emit_stop", "record_stop", "stop", "stop_session", "halt"}
)

#: Spec constructors whose arguments must survive pickling (REP103).
SPEC_CTORS = frozenset({"CellSpec", "BackendSpec"})

#: The module-level registry name inspected by REP105.
BACKEND_REGISTRY_NAME = "BACKENDS"

#: The protocol class registered backends must conform to (REP105).
BACKEND_PROTOCOL_NAME = "CostBackend"


def _render(node: ast.AST) -> str:
    """Compact one-line source rendering for messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers every expr we emit
        return "<expr>"
    text = " ".join(text.split())
    return text if len(text) <= 60 else text[:57] + "..."


def _dotted(node: ast.expr) -> str | None:
    """Render a pure ``Name``/``Attribute`` chain; ``None`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_raw(func: ast.expr) -> str:
    """The raw reference of a call target.

    A pure dotted chain renders as written (``"mod.helper"``); anything
    with a non-name receiver (subscripts, call results) keeps only the
    terminal attribute behind a ``"?."`` marker so the link step knows the
    receiver is opaque. Wholly dynamic targets render as ``"?"``.
    """
    dotted = _dotted(func)
    if dotted is not None:
        return dotted
    if isinstance(func, ast.Attribute):
        return f"?.{func.attr}"
    return "?"


def _exception_names(node: ast.expr | None) -> list[str]:
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        names: list[str] = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


# --------------------------------------------------------------------- #
# summary records
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CallSite:
    """One call expression, by raw (unresolved) target reference."""

    raw: str
    line: int
    col: int


@dataclass(frozen=True)
class SinkSite:
    """A direct cost-path invocation (the REP001 sink patterns)."""

    kind: str  # "ground-truth" | "private-pricing" | "cost-model"
    render: str
    line: int
    col: int


@dataclass(frozen=True)
class HandlerSummary:
    """One ``except`` clause and what its ``try`` body can reach."""

    line: int
    col: int
    names: tuple[str, ...]  # () = bare except
    body_raises: bool
    converts_stop: bool
    trivial: bool
    try_calls: tuple[str, ...]  # raw refs of calls inside the try body


@dataclass(frozen=True)
class SpecArg:
    """One argument at a spec construction site, classified."""

    keyword: str  # "" for positional
    kind: str  # "lambda" | "call" | "name" | "other"
    ref: str  # raw callee / name ("" for other)
    reason: str  # local classification ("a lambda", ...) or ""
    line: int
    col: int


@dataclass(frozen=True)
class SpecSite:
    """A ``CellSpec``/``BackendSpec`` construction site (REP103)."""

    ctor: str
    func: str  # enclosing function qualname ("" = module level)
    line: int
    col: int
    args: tuple[SpecArg, ...]


@dataclass
class FunctionSummary:
    """One function or method as the link step sees it."""

    qualname: str  # "Cls.meth", "func", "outer.inner"
    name: str
    line: int
    owner_class: str = ""  # immediate enclosing class name, if a method
    args: tuple[str, ...] = ()  # named params, self/cls stripped
    required: int = 0  # params without defaults (after self/cls)
    has_vararg: bool = False
    has_kwarg: bool = False
    is_property: bool = False
    calls: tuple[CallSite, ...] = ()
    sinks: tuple[SinkSite, ...] = ()
    raises_budget: bool = False
    unguarded_calls: tuple[str, ...] = ()  # calls NOT inside a budget-catching try
    handlers: tuple[HandlerSummary, ...] = ()
    unseeded_rng: tuple[tuple[int, str], ...] = ()  # (line, render)
    thread_spawns: tuple[tuple[int, str], ...] = ()  # (line, render)
    returns_unseeded: bool = False
    returned_calls: tuple[str, ...] = ()  # raw refs whose result is returned
    unpicklable_return: str = ""  # reason, "" = none detected
    unpicklable_self: str = ""  # reason a `self.x = ...` binding can't pickle


@dataclass
class ClassSummary:
    """One class: bases, methods, and protocol-ness."""

    name: str
    line: int
    bases: tuple[str, ...] = ()  # raw refs
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    is_protocol: bool = False


@dataclass
class FileSummary:
    """Everything the link step needs to know about one file."""

    path: str
    module: str
    imports: dict[str, str] = field(default_factory=dict)  # local -> dotted
    functions: list[FunctionSummary] = field(default_factory=list)
    classes: list[ClassSummary] = field(default_factory=list)
    spec_sites: list[SpecSite] = field(default_factory=list)
    backend_registry: tuple[str, ...] = ()  # raw refs in BACKENDS = {...}
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    error: str = ""  # syntax error message, "" = parsed fine

    @property
    def segments(self) -> frozenset[str]:
        """Directory segments, for path-scoped flow rules."""
        return frozenset(self.path.split("/")[:-1])


# --------------------------------------------------------------------- #
# extraction
# --------------------------------------------------------------------- #


def _classify_sink(node: ast.Call) -> SinkSite | None:
    """The REP001 sink patterns, applied to one call expression."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in EVAL_ONLY_CALLS:
        kind = "ground-truth"
    elif func.attr in PRIVATE_PRICING_CALLS:
        kind = "private-pricing"
    elif func.attr == "cost" and _is_cost_model(func.value):
        kind = "cost-model"
    else:
        return None
    return SinkSite(
        kind=kind,
        render=f"{_render(func)}(...)",
        line=node.lineno,
        col=node.col_offset,
    )


def _is_cost_model(receiver: ast.expr) -> bool:
    if isinstance(receiver, ast.Attribute):
        terminal = receiver.attr
    elif isinstance(receiver, ast.Name):
        terminal = receiver.id
    else:
        return False
    return "model" in terminal.lower()


def _resource_reason(raw: str) -> str:
    """Unpicklable OS-resource reason for a call's raw target, or ``""``.

    ``open(...)`` yields a file handle; ``*.connect(...)`` (psycopg,
    sqlite3, an injected connector) yields a live socket — neither
    survives pickling into a worker process.
    """
    terminal = raw.rsplit(".", 1)[-1]
    if terminal == "open":
        return "an open file handle"
    if terminal == "connect":
        return "an open database connection"
    return ""


def _is_unseeded_rng(node: ast.Call, rng_ctors: set[str]) -> bool:
    """An RNG constructor called with no seed: ``random.Random()``,
    ``np.random.default_rng()`` or their imported aliases."""
    if node.args or node.keywords:
        return False
    raw = call_raw(node.func)
    if raw in rng_ctors:
        return True
    return raw in (
        "random.Random",
        "random.SystemRandom",
        "np.random.default_rng",
        "numpy.random.default_rng",
    )


class _FunctionFrame:
    """Mutable per-function state while walking its body."""

    def __init__(self, qualname: str, name: str, node, owner_class: str):
        args_node = node.args
        named = [*args_node.posonlyargs, *args_node.args]
        stripped = [a.arg for a in named]
        if owner_class and stripped and stripped[0] in ("self", "cls"):
            stripped = stripped[1:]
        required = max(0, len(stripped) - len(args_node.defaults))
        decorators = [call_raw(d.func) if isinstance(d, ast.Call) else call_raw(d)
                      for d in node.decorator_list]
        terminal = {d.rsplit(".", 1)[-1] for d in decorators}
        self.summary = FunctionSummary(
            qualname=qualname,
            name=name,
            line=node.lineno,
            owner_class=owner_class,
            args=tuple(stripped + [a.arg for a in args_node.kwonlyargs]),
            required=required,
            has_vararg=args_node.vararg is not None,
            has_kwarg=args_node.kwarg is not None,
            is_property="property" in terminal or "cached_property" in terminal,
        )
        self.calls: list[CallSite] = []
        self.sinks: list[SinkSite] = []
        self.handlers: list[HandlerSummary] = []
        self.guarded: set[str] = set()  # raw refs inside budget-catching trys
        self.unseeded: list[tuple[int, str]] = []
        self.thread_spawns: list[tuple[int, str]] = []
        self.returned_calls: list[str] = []
        self.returns_unseeded = False
        self.unpicklable_return = ""
        self.unpicklable_self = ""
        self.raises_budget = False
        self.local_defs: set[str] = set()  # nested function names
        self.local_classes: set[str] = set()
        self.unpicklable_names: dict[str, str] = {}  # name -> reason
        self.unseeded_names: set[str] = set()
        self.call_results: dict[str, str] = {}  # name -> raw callee

    def finish(self) -> FunctionSummary:
        summary = self.summary
        summary.calls = tuple(self.calls)
        summary.sinks = tuple(self.sinks)
        summary.handlers = tuple(self.handlers)
        summary.raises_budget = self.raises_budget
        summary.unguarded_calls = tuple(
            sorted({c.raw for c in self.calls} - self.guarded)
        )
        summary.unseeded_rng = tuple(self.unseeded)
        summary.thread_spawns = tuple(self.thread_spawns)
        summary.returns_unseeded = self.returns_unseeded
        summary.returned_calls = tuple(sorted(set(self.returned_calls)))
        summary.unpicklable_return = self.unpicklable_return
        summary.unpicklable_self = self.unpicklable_self
        return summary


class _Extractor(ast.NodeVisitor):
    """One pass over a module tree, filling a :class:`FileSummary`."""

    def __init__(self, summary: FileSummary):
        self.summary = summary
        self.class_stack: list[ClassSummary] = []
        self.frames: list[_FunctionFrame] = []
        self.rng_ctors: set[str] = set()  # local aliases of RNG constructors

    # ------------------------------ imports ------------------------------ #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.summary.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports don't occur in this tree
        for alias in node.names:
            local = alias.asname or alias.name
            self.summary.imports[local] = f"{node.module}.{alias.name}"
            if node.module == "random" and alias.name in ("Random", "SystemRandom"):
                self.rng_ctors.add(local)
            if node.module in ("numpy.random",) and alias.name == "default_rng":
                self.rng_ctors.add(local)

    # ---------------------------- definitions ---------------------------- #

    def _qualname(self, name: str) -> str:
        parts = [cls.name for cls in self.class_stack[-1:]]
        if self.frames:
            return f"{self.frames[-1].summary.qualname}.{name}"
        return ".".join([*parts, name])

    def _visit_function(self, node) -> None:
        owner = self.class_stack[-1].name if self.class_stack and not self.frames else ""
        if self.frames:
            self.frames[-1].local_defs.add(node.name)
        frame = _FunctionFrame(self._qualname(node.name), node.name, node, owner)
        if owner:
            self.class_stack[-1].methods[node.name] = frame.summary.qualname
        self.frames.append(frame)
        for child in node.body:
            self.visit(child)
        self.summary.functions.append(self.frames.pop().finish())

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.frames:
            self.frames[-1].local_classes.add(node.name)
            for child in node.body:
                self.visit(child)
            return
        bases = tuple(ref for ref in (call_raw(b) for b in node.bases) if ref != "?")
        cls = ClassSummary(
            name=node.name,
            line=node.lineno,
            bases=bases,
            is_protocol=any(b.rsplit(".", 1)[-1] == "Protocol" for b in bases),
        )
        self.class_stack.append(cls)
        for child in node.body:
            self.visit(child)
        self.class_stack.pop()
        self.summary.classes.append(cls)

    # ------------------------------- calls ------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        raw = call_raw(node.func)
        if self.frames:
            frame = self.frames[-1]
            frame.calls.append(
                CallSite(raw=raw, line=node.lineno, col=node.col_offset)
            )
            sink = _classify_sink(node)
            if sink is not None:
                frame.sinks.append(sink)
            if _is_unseeded_rng(node, self.rng_ctors):
                frame.unseeded.append((node.lineno, f"{_render(node)}"))
            if raw.rsplit(".", 1)[-1] in THREAD_SPAWNERS:
                frame.thread_spawns.append(
                    (node.lineno, f"{_render(node.func)}(...)")
                )
        terminal = raw.rsplit(".", 1)[-1]
        if terminal in SPEC_CTORS:
            self._record_spec_site(node, terminal)
        self.generic_visit(node)

    def _record_spec_site(self, node: ast.Call, ctor: str) -> None:
        frame = self.frames[-1] if self.frames else None
        args: list[SpecArg] = []
        entries = [("", value) for value in node.args]
        entries += [(kw.arg or "", kw.value) for kw in node.keywords]
        for keyword, value in entries:
            args.append(self._classify_spec_arg(keyword, value, frame))
        self.summary.spec_sites.append(
            SpecSite(
                ctor=ctor,
                func=frame.summary.qualname if frame else "",
                line=node.lineno,
                col=node.col_offset,
                args=tuple(args),
            )
        )

    def _classify_spec_arg(
        self, keyword: str, value: ast.expr, frame: _FunctionFrame | None
    ) -> SpecArg:
        line, col = value.lineno, value.col_offset
        if isinstance(value, ast.Lambda):
            return SpecArg(keyword, "lambda", "", "a lambda", line, col)
        if isinstance(value, ast.Call):
            raw = call_raw(value.func)
            reason = _resource_reason(raw)
            if not reason and frame is not None:
                name = raw.split(".", 1)[0]
                if name in frame.local_defs:
                    reason = "a locally-defined function"
                elif name in frame.local_classes:
                    reason = "an instance of a locally-defined class"
            return SpecArg(keyword, "call", raw, reason, line, col)
        if isinstance(value, ast.Name) and frame is not None:
            name = value.id
            if name in frame.unpicklable_names:
                return SpecArg(
                    keyword, "name", name, frame.unpicklable_names[name], line, col
                )
            if name in frame.local_defs:
                return SpecArg(
                    keyword, "name", name, "a locally-defined function", line, col
                )
            if name in frame.local_classes:
                return SpecArg(
                    keyword, "name", name, "a locally-defined class", line, col
                )
            if name in frame.call_results:
                return SpecArg(
                    keyword, "call", frame.call_results[name], "", line, col
                )
            return SpecArg(keyword, "name", name, "", line, col)
        return SpecArg(keyword, "other", "", "", line, col)

    # ---------------------- assignments & returns ------------------------ #

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        self._track_binding(node.targets, node.value)
        self._track_backend_registry(node.targets, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._track_binding([node.target], node.value)
            self._track_backend_registry([node.target], node.value)

    def _track_binding(self, targets: list[ast.expr], value: ast.expr) -> None:
        if not self.frames:
            return
        frame = self.frames[-1]
        self._track_self_binding(frame, targets, value)
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        reason = ""
        if isinstance(value, ast.Lambda):
            reason = "a lambda"
        elif isinstance(value, ast.Call):
            raw = call_raw(value.func)
            reason = _resource_reason(raw)
            if reason:
                pass
            elif raw.split(".", 1)[0] in frame.local_classes:
                reason = "an instance of a locally-defined class"
            elif _is_unseeded_rng(value, self.rng_ctors):
                for name in names:
                    frame.unseeded_names.add(name)
            else:
                for name in names:
                    frame.call_results[name] = raw
        for name in names:
            if reason:
                frame.unpicklable_names[name] = reason
            else:
                frame.unpicklable_names.pop(name, None)

    def _track_self_binding(
        self, frame: _FunctionFrame, targets: list[ast.expr], value: ast.expr
    ) -> None:
        """Record ``self.x = <unpicklable>`` inside a method (REP103).

        An instance that stores a lambda or an open OS resource on
        ``self`` can never travel through a pickled spec, no matter how
        innocent the construction-site argument looks.
        """
        if not frame.summary.owner_class:
            return
        on_self = any(
            isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            for t in targets
        )
        if not on_self:
            return
        reason = ""
        if isinstance(value, ast.Lambda):
            reason = "a lambda"
        elif isinstance(value, ast.Call):
            reason = _resource_reason(call_raw(value.func))
        if reason and not frame.unpicklable_self:
            frame.unpicklable_self = reason

    def _track_backend_registry(
        self, targets: list[ast.expr], value: ast.expr
    ) -> None:
        if self.frames or self.class_stack:
            return
        named = any(
            isinstance(t, ast.Name) and t.id == BACKEND_REGISTRY_NAME
            for t in targets
        )
        if not named or not isinstance(value, ast.Dict):
            return
        refs = [call_raw(v) for v in value.values]
        self.summary.backend_registry = tuple(r for r in refs if r != "?")

    def visit_Return(self, node: ast.Return) -> None:
        self.generic_visit(node)
        if not self.frames or node.value is None:
            return
        frame = self.frames[-1]
        value = node.value
        if isinstance(value, ast.Lambda):
            frame.unpicklable_return = "a lambda"
        elif isinstance(value, ast.Call):
            raw = call_raw(value.func)
            frame.returned_calls.append(raw)
            head = raw.split(".", 1)[0]
            resource = _resource_reason(raw)
            if head in frame.local_classes:
                frame.unpicklable_return = "an instance of a locally-defined class"
            elif resource:
                frame.unpicklable_return = resource
            if _is_unseeded_rng(value, self.rng_ctors):
                frame.returns_unseeded = True
        elif isinstance(value, ast.Name):
            name = value.id
            if name in frame.unpicklable_names:
                frame.unpicklable_return = frame.unpicklable_names[name]
            elif name in frame.local_defs:
                frame.unpicklable_return = "a locally-defined function"
            elif name in frame.local_classes:
                frame.unpicklable_return = "a locally-defined class"
            elif name in frame.unseeded_names:
                frame.returns_unseeded = True
            elif name in frame.call_results:
                frame.returned_calls.append(frame.call_results[name])

    # ------------------------ raises & handlers -------------------------- #

    def visit_Raise(self, node: ast.Raise) -> None:
        self.generic_visit(node)
        if not self.frames:
            return
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = _dotted(exc) if exc is not None else None
        if name is not None and name.rsplit(".", 1)[-1] == "BudgetExhaustedError":
            self.frames[-1].raises_budget = True

    def visit_Try(self, node: ast.Try) -> None:
        if not self.frames:
            self.generic_visit(node)
            return
        frame = self.frames[-1]
        try_calls = tuple(
            call_raw(call.func)
            for stmt in node.body
            for call in ast.walk(stmt)
            if isinstance(call, ast.Call)
        )
        catches_budget = False
        for handler in node.handlers:
            names = tuple(_exception_names(handler.type))
            if handler.type is None or set(names) & BUDGET_CATCHERS:
                catches_budget = True
            body_raises = any(
                isinstance(n, ast.Raise)
                for stmt in handler.body
                for n in ast.walk(stmt)
            )
            converts = self._converts_stop(handler.body)
            frame.handlers.append(
                HandlerSummary(
                    line=handler.lineno,
                    col=handler.col_offset,
                    names=names,
                    body_raises=body_raises,
                    converts_stop=converts,
                    trivial=self._is_trivial(handler.body),
                    try_calls=try_calls,
                )
            )
        if catches_budget:
            frame.guarded.update(try_calls)
        self.generic_visit(node)

    @staticmethod
    def _is_trivial(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            return False
        return True

    @staticmethod
    def _converts_stop(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                terminal = call_raw(node.func).rsplit(".", 1)[-1]
                if terminal not in STOP_CONVERTERS:
                    continue
                if terminal == "emit":
                    first = node.args[0] if node.args else None
                    if not (
                        isinstance(first, ast.Constant) and first.value == "stop"
                    ):
                        continue
                return True
        return False


def summarize_source(path: str, module: str, source: str) -> FileSummary:
    """Extract the :class:`FileSummary` of one module from its text."""
    summary = FileSummary(path=path, module=module)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        summary.error = f"syntax error: {error.msg}"
        return summary
    summary.suppressions = parse_suppressions(source)
    _Extractor(summary).visit(tree)
    summary.functions.sort(key=lambda f: (f.line, f.qualname))
    summary.classes.sort(key=lambda c: (c.line, c.name))
    summary.spec_sites.sort(key=lambda s: (s.line, s.col))
    return summary


def summarize_file(path: str, module: str) -> FileSummary:
    """Read and summarize the file at ``path`` as module ``module``."""
    return summarize_source(path, module, Path(path).read_text(encoding="utf-8"))
