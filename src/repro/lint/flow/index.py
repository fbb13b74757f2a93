"""The whole-program link step: module map, symbol table, call graph.

A :class:`ProjectIndex` resolves the raw call references recorded in the
per-file summaries (:mod:`repro.lint.flow.summary`) against the project's
module map and import tables, producing a call graph the interprocedural
rules traverse. Resolution is deliberately conservative:

* dotted references through an import (``factory.build_backend``) resolve
  precisely;
* ``self.meth`` resolves through the caller's class hierarchy;
* an attribute call on an opaque receiver (``self.optimizer.whatif_cost``)
  falls back to *duck resolution* — every indexed method of that name —
  but only when the name is unambiguous enough (at most
  :data:`DUCK_AMBIGUITY_CAP` candidate classes) and never for dunders, so
  common container methods don't wire the graph into a hairball.

Function identities are ``"module:qualname"`` strings (the colon separates
the module path from the in-module qualname unambiguously).
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.flow.summary import (
    CallSite,
    ClassSummary,
    FileSummary,
    FunctionSummary,
    summarize_file,
)

#: Metered backend surface: calls into these never leak budget (REP101).
METERED_NAMES = frozenset(
    {
        "whatif_cost",
        "trial_cost",
        "greedy_step_costs",
        "whatif_prefetch",
        "whatif_workload_costs",
        "whatif_workload_cost",
        "empty_cost",
        "empty_workload_cost",
        "derived_cost",
        "derived_query_costs",
        "derived_workload_cost",
        "evaluated_cost",
        "is_cached",
        "prepared",
    }
)

#: Directory segments housing the metered engines.
METERED_SEGMENTS = frozenset({"backend", "optimizer"})

#: Directory segments that count as tuner/search code (REP101/REP102 scope).
SEARCH_SEGMENTS = frozenset({"tuners", "core"})

#: Duck resolution gives up beyond this many candidate owner classes.
DUCK_AMBIGUITY_CAP = 8


def module_name(path: Path) -> str:
    """Dotted module name of ``path``, walking up through ``__init__.py``."""
    parts: list[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    parts.reverse()
    return ".".join(parts) or path.stem


class ProjectIndex:
    """Symbol table and call graph over a set of file summaries."""

    def __init__(self, summaries: list[FileSummary]):
        self.summaries: dict[str, FileSummary] = {
            summary.path: summary for summary in sorted(summaries, key=lambda s: s.path)
        }
        self.modules: dict[str, str] = {}  # module -> path
        self.functions: dict[str, FunctionSummary] = {}  # gid -> summary
        self.function_files: dict[str, FileSummary] = {}  # gid -> file
        self.classes: dict[str, ClassSummary] = {}  # "module:Cls" -> summary
        self.class_files: dict[str, FileSummary] = {}
        self._methods: dict[str, list[str]] = {}  # method name -> gids
        self._method_owners: dict[str, set[str]] = {}  # method name -> class ids
        for summary in self.summaries.values():
            self.modules[summary.module] = summary.path
            for function in summary.functions:
                gid = f"{summary.module}:{function.qualname}"
                self.functions[gid] = function
                self.function_files[gid] = summary
                if function.owner_class and not function.name.startswith("__"):
                    self._methods.setdefault(function.name, []).append(gid)
                    self._method_owners.setdefault(function.name, set()).add(
                        f"{summary.module}:{function.owner_class}"
                    )
            for cls in summary.classes:
                cid = f"{summary.module}:{cls.name}"
                self.classes[cid] = cls
                self.class_files[cid] = summary
        self._edges: dict[str, tuple[tuple[CallSite, tuple[str, ...]], ...]] = {}

    # ------------------------------------------------------------------ #
    # symbol resolution
    # ------------------------------------------------------------------ #

    def resolve_symbol(self, dotted: str) -> tuple[str, ...]:
        """Resolve a fully-qualified dotted reference to function ids."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module not in self.modules:
                continue
            symbol = parts[split:]
            if len(symbol) == 1:
                gid = f"{module}:{symbol[0]}"
                if gid in self.functions:
                    return (gid,)
                init = f"{module}:{symbol[0]}.__init__"
                if f"{module}:{symbol[0]}" in self.classes:
                    return (init,) if init in self.functions else ()
            elif len(symbol) == 2:
                gid = f"{module}:{symbol[0]}.{symbol[1]}"
                if gid in self.functions:
                    return (gid,)
            return ()
        return ()

    def resolve_class(self, summary: FileSummary, raw: str) -> str | None:
        """Resolve a raw class reference from ``summary`` to a class id."""
        head = raw.split(".", 1)[0]
        if raw in summary.imports or head in summary.imports:
            dotted = (
                summary.imports[raw]
                if raw in summary.imports
                else summary.imports[head] + raw[len(head):]
            )
            parts = dotted.split(".")
            for split in range(len(parts) - 1, 0, -1):
                module = ".".join(parts[:split])
                if module in self.modules and len(parts) - split == 1:
                    cid = f"{module}:{parts[split]}"
                    if cid in self.classes:
                        return cid
                if module in self.modules:
                    return None
            return None
        cid = f"{summary.module}:{raw}"
        return cid if cid in self.classes else None

    def class_method(self, cid: str, name: str) -> str | None:
        """Look ``name`` up through ``cid``'s hierarchy (indexed bases only)."""
        seen: set[str] = set()
        queue = [cid]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                module = current.split(":", 1)[0]
                gid = f"{module}:{cls.methods[name]}"
                if gid in self.functions:
                    return gid
            owner_file = self.class_files[current]
            for base in cls.bases:
                base_id = self.resolve_class(owner_file, base)
                if base_id is not None:
                    queue.append(base_id)
        return None

    def resolve_call(
        self, summary: FileSummary, raw: str, owner_class: str = ""
    ) -> tuple[str, ...]:
        """Resolve one raw call reference to the function ids it may target."""
        if raw == "?" or not raw:
            return ()
        parts = raw.split(".")
        head = parts[0]
        if head in ("self", "cls") and owner_class and len(parts) == 2:
            gid = self.class_method(f"{summary.module}:{owner_class}", parts[1])
            if gid is not None:
                return (gid,)
            return self._duck(parts[1])
        if len(parts) == 1:
            gid = f"{summary.module}:{head}"
            if gid in self.functions:
                return (gid,)
            if head in summary.imports:
                return self.resolve_symbol(summary.imports[head])
            if f"{summary.module}:{head}" in self.classes:
                init = f"{summary.module}:{head}.__init__"
                return (init,) if init in self.functions else ()
            return ()
        if head in summary.imports:
            dotted = summary.imports[head] + "." + ".".join(parts[1:])
            resolved = self.resolve_symbol(dotted)
            if resolved:
                return resolved
        # Method call on an opaque receiver: duck-resolve the terminal.
        return self._duck(parts[-1])

    def _duck(self, name: str) -> tuple[str, ...]:
        if name.startswith("__"):
            return ()
        owners = self._method_owners.get(name, ())
        if not owners or len(owners) > DUCK_AMBIGUITY_CAP:
            return ()
        return tuple(sorted(self._methods[name]))

    # ------------------------------------------------------------------ #
    # call graph
    # ------------------------------------------------------------------ #

    def edges(self, gid: str) -> tuple[tuple[CallSite, tuple[str, ...]], ...]:
        """Outgoing call edges of ``gid``: (call site, candidate targets)."""
        cached = self._edges.get(gid)
        if cached is not None:
            return cached
        function = self.functions[gid]
        summary = self.function_files[gid]
        resolved = tuple(
            (call, self.resolve_call(summary, call.raw, function.owner_class))
            for call in function.calls
        )
        self._edges[gid] = resolved
        return resolved

    # ------------------------------------------------------------------ #
    # classification helpers shared by the rules
    # ------------------------------------------------------------------ #

    def is_metered(self, gid: str) -> bool:
        """A metered backend-surface function (a REP101 barrier)."""
        function = self.functions[gid]
        if function.name not in METERED_NAMES:
            return False
        return bool(self.function_files[gid].segments & METERED_SEGMENTS)

    def in_search_scope(self, gid: str) -> bool:
        """Defined under a tuner/search directory segment."""
        return bool(self.function_files[gid].segments & SEARCH_SEGMENTS)

    def function_label(self, gid: str) -> str:
        """Human-readable ``module.qualname`` label for messages."""
        module, qualname = gid.split(":", 1)
        short = module.rsplit(".", 1)[-1]
        return f"{short}.{qualname}"


def build_index(paths: list[tuple[str, str]]) -> ProjectIndex:
    """Index ``(path, module)`` pairs, summarizing each file once."""
    return ProjectIndex([summarize_file(path, module) for path, module in paths])
