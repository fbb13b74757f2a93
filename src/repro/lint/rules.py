"""The project-specific rules REP001–REP007.

Each rule enforces one invariant the reproduction's correctness argument
leans on (see DESIGN.md "Static analysis & invariants"):

* REP001 — every cost-path call goes through the budget meter;
* REP002 — budget exhaustion is never silently swallowed;
* REP003 — randomness is injected, never global;
* REP004 — enumeration code never iterates unordered sets;
* REP005 — cost code never compares floats for equality;
* REP006 — no shared mutable defaults in signatures or dataclasses;
* REP007 — cost engines are resolved via the backend factory, never by
  constructing ``WhatIfOptimizer`` directly; the ``psycopg`` driver is
  imported only inside ``repro/backend/dbms`` (the optional-dependency
  gate).
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule, register


def _render(node: ast.AST) -> str:
    """Compact source rendering of ``node`` for messages (one line)."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers every expr we flag
        return "<expr>"
    text = " ".join(text.split())
    return text if len(text) <= 60 else text[:57] + "..."


def _exception_names(node: ast.expr | None) -> list[str]:
    """Terminal identifiers of an ``except`` clause's exception expression."""
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


@register
class BudgetLeakRule(Rule):
    """REP001: cost-path calls outside the metered/evaluation modules.

    ``CostModel.cost`` prices a plan without charging the budget meter, and
    ``true_cost``/``true_workload_cost`` are the *evaluation-only* ground
    truth hooks. Neither may appear in enumeration code: an uncounted call
    silently inflates the information a tuner extracts from budget ``B``
    and invalidates every budget-vs-improvement comparison.
    """

    rule_id = "REP001"
    title = "budget-leak: un-metered cost-path call outside the allowlist"
    exempt = ("optimizer", "backend", "eval", "lint")

    _EVAL_ONLY = frozenset({"true_cost", "true_workload_cost"})
    _PRIVATE = frozenset({"_price", "_price_wave", "_price_shard"})

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in self._EVAL_ONLY:
                self.report(
                    node,
                    f"uncounted ground-truth call `{_render(func)}(...)` "
                    "outside the evaluation layer; search code must pay via "
                    "whatif_cost/evaluated_cost",
                )
            elif func.attr in self._PRIVATE:
                self.report(
                    node,
                    f"private pricing helper `{_render(func)}(...)` bypasses "
                    "budget accounting",
                )
            elif func.attr == "cost" and self._is_cost_model(func.value):
                self.report(
                    node,
                    f"direct cost-model call `{_render(func)}(...)` bypasses "
                    "the budget meter; go through WhatIfOptimizer",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_cost_model(receiver: ast.expr) -> bool:
        """Heuristic: the receiver's terminal identifier names a model."""
        if isinstance(receiver, ast.Attribute):
            terminal = receiver.attr
        elif isinstance(receiver, ast.Name):
            terminal = receiver.id
        else:
            return False
        return "model" in terminal.lower()


@register
class BackendBoundaryRule(Rule):
    """REP007: direct ``WhatIfOptimizer``/``psycopg`` use across the seam.

    The cost engine is a pluggable layer: consumers hold a
    :class:`~repro.backend.base.CostBackend` resolved through
    :func:`~repro.backend.factory.build_backend` (or a picklable
    ``BackendSpec``). Importing or constructing the concrete
    ``WhatIfOptimizer`` elsewhere hard-wires the analytic engine, silently
    ignoring the session's ``--backend`` selection — a replay run that
    costs through a direct construction prices with the cost model instead
    of its recorded shard, and a noisy-robustness run measures the wrong
    engine.

    The same seam has a second edge: the optional ``psycopg`` driver may
    be imported only inside ``repro/backend/dbms`` (where
    ``require_psycopg`` turns its absence into an actionable error). A
    top-level ``import psycopg`` anywhere else makes the whole module —
    and everything importing it — fail on machines without the extra,
    breaking the "replay works with psycopg uninstalled" guarantee.

    The rule now runs over ``repro/backend`` itself: the WhatIfOptimizer
    sub-checks stay exempt there (``analytic.py`` legitimately re-exports
    it), and the psycopg sub-checks stay exempt under ``dbms``.

    A third edge guards the concurrent-pricing seam: inside the backend
    layer only ``backend/concurrent.py`` (the speculate-then-commit
    ``PricingExecutor``) may pull in ``concurrent.futures`` or spawn
    ``threading.Thread`` workers. Ad-hoc pools next to pricing code race
    budget charges against their workers, so grant order and the event
    stream become scheduling-dependent. ``threading.Lock`` and friends
    stay legal everywhere (the connection pool serializes on one); the
    whole-program REP106 catches spawns that reach pricing from *other*
    layers, where this per-file rule would be too noisy.
    """

    rule_id = "REP007"
    title = "backend-boundary: direct WhatIfOptimizer construction/import"
    exempt = ("optimizer", "lint")

    def __init__(self, ctx):
        super().__init__(ctx)
        # Names bound via ``psycopg = require_psycopg()`` — the sanctioned
        # gate — are not raw driver imports; calls through them are fine.
        self._gated_names: set[str] = set()

    def _optimizer_in_scope(self) -> bool:
        """WhatIfOptimizer checks: everywhere except the backend layer."""
        return "backend" not in self.ctx.segments

    def _psycopg_in_scope(self) -> bool:
        """psycopg checks: everywhere except ``repro/backend/dbms``."""
        return "dbms" not in self.ctx.segments

    def _threads_in_scope(self) -> bool:
        """Thread-machinery checks: the backend layer minus its executor."""
        return "backend" in self.ctx.segments and not self.ctx.path.endswith(
            "concurrent.py"
        )

    def visit_Import(self, node: ast.Import) -> None:
        if self._psycopg_in_scope():
            for alias in node.names:
                if alias.name.split(".")[0] == "psycopg":
                    self.report(
                        node,
                        "direct `import psycopg` outside repro/backend/dbms; "
                        "go through repro.backend.dbms.require_psycopg so a "
                        "missing driver raises an actionable error",
                    )
        if self._threads_in_scope():
            for alias in node.names:
                if alias.name.split(".")[0] == "concurrent":
                    self.report(
                        node,
                        "raw `import concurrent.futures` in the backend "
                        "layer outside backend/concurrent.py; route pricing "
                        "concurrency through "
                        "repro.backend.concurrent.PricingExecutor",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (
            self._optimizer_in_scope()
            and node.module is not None
            and node.module.split(".")[:2] == ["repro", "optimizer"]
        ):
            for alias in node.names:
                if alias.name == "WhatIfOptimizer":
                    self.report(
                        node,
                        "import of the concrete WhatIfOptimizer outside "
                        "repro/backend and repro/optimizer; annotate with "
                        "repro.backend.CostBackend and resolve engines via "
                        "build_backend",
                    )
        if (
            self._psycopg_in_scope()
            and node.module is not None
            and node.module.split(".")[0] == "psycopg"
        ):
            self.report(
                node,
                "direct `from psycopg import ...` outside repro/backend/dbms; "
                "go through repro.backend.dbms.require_psycopg so a missing "
                "driver raises an actionable error",
            )
        if self._threads_in_scope() and node.module is not None:
            if node.module.split(".")[0] == "concurrent":
                self.report(
                    node,
                    "raw `from concurrent.futures import ...` in the backend "
                    "layer outside backend/concurrent.py; route pricing "
                    "concurrency through "
                    "repro.backend.concurrent.PricingExecutor",
                )
            elif node.module == "threading" and any(
                alias.name == "Thread" for alias in node.names
            ):
                self.report(
                    node,
                    "raw `from threading import Thread` in the backend layer "
                    "outside backend/concurrent.py; route pricing "
                    "concurrency through "
                    "repro.backend.concurrent.PricingExecutor",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            terminal = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if terminal == "require_psycopg":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._gated_names.add(target.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            name = None
        if name == "WhatIfOptimizer" and self._optimizer_in_scope():
            self.report(
                node,
                "direct WhatIfOptimizer construction bypasses the backend "
                "factory; use repro.backend.build_backend (honours "
                "--backend/REPRO_BACKEND)",
            )
        elif (
            self._psycopg_in_scope()
            and isinstance(func, ast.Attribute)
            and func.attr == "connect"
            and isinstance(func.value, ast.Name)
            and func.value.id == "psycopg"
            and func.value.id not in self._gated_names
        ):
            self.report(
                node,
                "direct `psycopg.connect(...)` outside repro/backend/dbms; "
                "use repro.backend.dbms.ConnectionPool (pooling, retry, "
                "session setup)",
            )
        elif (
            self._threads_in_scope()
            and isinstance(func, ast.Attribute)
            and func.attr == "Thread"
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
        ):
            self.report(
                node,
                "raw `threading.Thread(...)` in the backend layer outside "
                "backend/concurrent.py; route pricing concurrency through "
                "repro.backend.concurrent.PricingExecutor",
            )
        self.generic_visit(node)


@register
class SwallowedExhaustionRule(Rule):
    """REP002: ``except`` clauses that can swallow ``BudgetExhaustedError``.

    PR 2 removed every internal try/except around counted calls: tuners
    pre-check admission instead, so a raised ``BudgetExhaustedError`` is
    always a real accounting bug. A bare/broad handler — or an explicit
    catch that just passes — would hide exactly that bug.
    """

    rule_id = "REP002"
    title = "swallowed-budget-exhaustion: handler hides BudgetExhaustedError"

    _BROAD = frozenset({"Exception", "BaseException", "ReproError"})

    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            names = _exception_names(handler.type)
            if handler.type is None:
                self.report(
                    handler,
                    "bare `except:` swallows BudgetExhaustedError (and "
                    "everything else); catch a specific exception",
                )
            elif self._is_trivial(handler.body):
                broad = sorted(self._BROAD.intersection(names))
                if broad:
                    self.report(
                        handler,
                        f"`except {broad[0]}` with a pass-through body "
                        "swallows BudgetExhaustedError; narrow the catch or "
                        "handle the exhaustion",
                    )
                elif "BudgetExhaustedError" in names:
                    self.report(
                        handler,
                        "`except BudgetExhaustedError` with a pass-through "
                        "body drops the exhaustion signal; fall back to "
                        "derived costs or stop the phase explicitly",
                    )
        self.generic_visit(node)

    @staticmethod
    def _is_trivial(body: list[ast.stmt]) -> bool:
        """A body that discards the exception: pass/continue/docstring only."""
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            return False
        return True


@register
class UnseededRandomnessRule(Rule):
    """REP003: module-global RNG state instead of injected generators.

    Deterministic enumeration under a fixed seed (the five-seed protocol of
    Section 7) requires every random draw to flow through an injected
    ``random.Random`` / ``numpy.random.Generator``. Global-state calls are
    invisible to the seed plumbing and break run-to-run reproducibility.
    """

    rule_id = "REP003"
    title = "unseeded-randomness: global random.*/np.random.* state call"

    _GLOBAL_FUNCS = frozenset(
        {
            "betavariate", "choice", "choices", "expovariate", "gammavariate",
            "gauss", "getrandbits", "lognormvariate", "normalvariate",
            "paretovariate", "randbytes", "randint", "random", "randrange",
            "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
            "vonmisesvariate", "weibullvariate",
        }
    )
    _NP_ALLOWED = frozenset(
        {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self._from_imports: set[str] = set()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in self._GLOBAL_FUNCS:
                    self._from_imports.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._from_imports:
            self.report(
                node,
                f"global-state RNG call `{func.id}(...)` imported from "
                "`random`; inject a seeded random.Random instead",
            )
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "random":
                if func.attr in self._GLOBAL_FUNCS:
                    self.report(
                        node,
                        f"global-state RNG call `random.{func.attr}(...)`; "
                        "inject a seeded random.Random instead",
                    )
            elif self._is_np_random(func.value):
                if func.attr not in self._NP_ALLOWED:
                    self.report(
                        node,
                        f"global-state RNG call `{_render(func)}(...)`; use "
                        "a numpy Generator from repro.rng.make_np_rng",
                    )
        self.generic_visit(node)

    @staticmethod
    def _is_np_random(receiver: ast.expr) -> bool:
        return (
            isinstance(receiver, ast.Attribute)
            and receiver.attr == "random"
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id in ("np", "numpy")
        )


@register
class NondeterministicIterationRule(Rule):
    """REP004: iterating an unordered set in enumeration code.

    ``Index`` hashes on strings, so set/frozenset iteration order varies
    with ``PYTHONHASHSEED`` across processes. Inside ``tuners/``, ``core/``
    and ``budget/`` such an iteration feeds candidate order, float
    accumulation order, or the call-log layout — all pinned by the golden
    FCFS oracle — so every loop must run over a sorted or list-ordered
    source. Dicts keep insertion order and are flagged only when built from
    a set (``dict.fromkeys(a_set)``).
    """

    rule_id = "REP004"
    title = "nondeterministic-iteration: loop over an unordered set"
    scope = ("tuners", "core", "budget")

    _SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference", "copy"}
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self._scopes: list[dict[str, str]] = [{}]

    # -------------------------------------------------------------- #
    # local type tracking
    # -------------------------------------------------------------- #

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _tag(self, expr: ast.expr) -> str | None:
        """Classify ``expr``: ``"set"``, ``"setdict"``, or ``None``."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, ast.Name):
            return self._lookup(expr.id)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            if self._tag(expr.left) == "set" or self._tag(expr.right) == "set":
                return "set"
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return "set"
            if isinstance(func, ast.Attribute):
                if (
                    func.attr == "fromkeys"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "dict"
                    and expr.args
                    and self._tag(expr.args[0]) == "set"
                ):
                    return "setdict"
                if (
                    func.attr in self._SET_METHODS
                    and self._tag(func.value) == "set"
                ):
                    return "set"
        return None

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        tag = self._tag(value)
        if tag is not None:
            self._scopes[-1][target.id] = tag
        else:
            # Rebinding to a non-set value clears any stale tag.
            self._scopes[-1].pop(target.id, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._bind(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._bind(node.target, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        # ``s |= other`` keeps a set a set; anything else is left alone.

    def _visit_scope(self, node) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_Lambda = _visit_scope

    # -------------------------------------------------------------- #
    # iteration contexts
    # -------------------------------------------------------------- #

    def _check_iter(self, expr: ast.expr) -> None:
        tag = self._tag(expr)
        if tag == "set":
            self.report(
                expr,
                f"iteration over unordered set `{_render(expr)}`; iterate "
                "`sorted(...)` with an explicit key",
            )
        elif tag == "setdict":
            self.report(
                expr,
                f"iteration over dict `{_render(expr)}` whose keys come "
                "from an unordered set; sort the keys first",
            )
        elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if (
                expr.func.attr in ("keys", "items", "values")
                and self._tag(expr.func.value) == "setdict"
            ):
                self.report(
                    expr,
                    f"iteration over `{_render(expr)}` of a dict keyed by "
                    "an unordered set; sort the keys first",
                )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


@register
class FloatEqualityRule(Rule):
    """REP005: ``==``/``!=`` against a float in cost/derivation code.

    Costs are sums and minima of floats; exact equality on them encodes an
    accidental bit-pattern assumption that breaks the moment an operand
    order changes. Ordering comparisons (``<=``, ``<``) or explicit
    tolerances express the actual intent.
    """

    rule_id = "REP005"
    title = "float-equality: ==/!= float comparison in cost code"
    scope = ("optimizer", "core", "budget", "eval", "tuners")

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for comparator in (node.left, *node.comparators):
                if isinstance(comparator, ast.Constant) and isinstance(
                    comparator.value, float
                ):
                    self.report(
                        node,
                        f"float equality `{_render(node)}`; use an ordering "
                        "comparison or an explicit tolerance",
                    )
                    break
        self.generic_visit(node)


@register
class MutableDefaultRule(Rule):
    """REP006: shared mutable defaults in signatures and class bodies.

    A mutable default argument (or a mutable dataclass/class attribute) is
    one object shared by every call and every instance — the classic vector
    for cross-session catalog mutation: one tuner's candidate edit bleeds
    into the next run's input.
    """

    rule_id = "REP006"
    title = "mutable-default: shared mutable default in signature/dataclass"

    _MUTABLE_CTORS = frozenset(
        {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
         "OrderedDict"}
    )

    def _is_mutable(self, expr: ast.expr | None) -> bool:
        if expr is None:
            return False
        if isinstance(
            expr, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                return func.id in self._MUTABLE_CTORS
            if isinstance(func, ast.Attribute):
                return func.attr in self._MUTABLE_CTORS
        return False

    def _visit_function(self, node) -> None:
        defaults = [
            *node.args.defaults,
            *(default for default in node.args.kw_defaults if default is not None),
        ]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    f"mutable default argument `{_render(default)}` in "
                    f"`{node.name}(...)` is shared across calls; default to "
                    "None and build inside",
                )
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        is_dataclass = any(
            self._decorator_name(decorator) == "dataclass"
            for decorator in node.decorator_list
        )
        for stmt in node.body:
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value, annotation = stmt.value, stmt.annotation
            if not self._is_mutable(value):
                continue
            if self._is_field_call(value):
                continue
            if not is_dataclass and self._is_classvar(annotation):
                continue
            kind = "dataclass field" if is_dataclass else "class attribute"
            self.report(
                stmt,
                f"mutable {kind} default `{_render(value)}` in "
                f"`{node.name}` is shared across instances; use "
                "field(default_factory=...) or instance state",
            )
        self.generic_visit(node)

    @staticmethod
    def _decorator_name(decorator: ast.expr) -> str | None:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            return decorator.id
        if isinstance(decorator, ast.Attribute):
            return decorator.attr
        return None

    @staticmethod
    def _is_field_call(value: ast.expr | None) -> bool:
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "field"
        )

    @staticmethod
    def _is_classvar(annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id == "ClassVar"
        if isinstance(target, ast.Attribute):
            return target.attr == "ClassVar"
        return False
