"""Tuner base classes, the tuning session engine, and shared result types.

The :class:`TuningSession` is the seam between enumeration algorithms and
the budget layer: it owns the workload, candidate set, constraints, what-if
optimizer, budget policy, and the structured event stream. Tuners draw
budget through the session (``session.admits`` / ``session.evaluated_cost``)
and report convergence through :meth:`TuningSession.checkpoint` instead of
re-implementing exhausted/fallback logic per algorithm.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.backend.base import CostBackend
from repro.backend.factory import build_backend
from repro.budget.events import EventLog, SessionEvent
from repro.budget.policy import BudgetPolicy, SliceAllowance, build_policy
from repro.catalog import Index
from repro.config import ReproConfig, TuningConstraints
from repro.exceptions import TuningError
from repro.workload.candidates import CandidateGenerator
from repro.workload.query import Query, Workload


def evaluated_cost(optimizer: CostBackend, query: Query, configuration) -> float:
    """``cost(q, C)`` under the optimizer's budget policy.

    Uses a counted what-if call while the policy admits the query and falls
    back to the derived cost once it does not — under FCFS this is exactly
    the "first come first serve" strategy of Section 4.2.1, reused by both
    greedy phases. Cached pairs stay exact in every regime.
    """
    if optimizer.policy.admits(query.qid) or optimizer.is_cached(query, configuration):
        # admits() is pure and guarantees the following charge succeeds, and
        # cached pairs never touch the policy, so this cannot raise.
        return optimizer.whatif_cost(query, configuration)
    return optimizer.derived_cost(query, configuration)


class TuningSession:
    """One tuning run: workload, candidates, constraints, budget, events.

    The session wires the what-if optimizer to a budget policy and an event
    stream, and centralises the bookkeeping every tuner previously carried
    itself: convergence history checkpoints, improvement tracking for
    early-stop policies, and scoped slice allowances.

    Args:
        workload: Workload being tuned.
        candidates: Candidate indexes ``I`` (already validated/deduplicated
            by :meth:`Tuner.tune` when constructed there).
        constraints: Outcome constraints ``Γ``.
        budget: What-if call budget ``B`` (mutually exclusive with
            ``policy``; builds an FCFS policy).
        policy: Budget policy to draw counted calls through.
        backend: A live :class:`~repro.backend.base.CostBackend` to adopt
            (``budget``/``policy`` must then be ``None``; the backend owns
            its policy) — the seam tests drive an engine through. Without
            one, the session builds the backend its config selects.
        optimizer_config: The run's settings: the backend a session builds,
            its persistent cache and the sanitizers. Read from the
            environment when omitted.
        events: Event stream to use (a fresh one is created when omitted).
    """

    def __init__(
        self,
        workload: Workload,
        candidates: list[Index] | None = None,
        constraints: TuningConstraints | None = None,
        *,
        budget: int | None = None,
        policy: BudgetPolicy | None = None,
        backend: CostBackend | None = None,
        optimizer_config: ReproConfig | None = None,
        events: EventLog | None = None,
    ):
        config = optimizer_config or ReproConfig.from_env()
        self._workload = workload
        self._candidates = list(candidates) if candidates is not None else []
        self._constraints = constraints or TuningConstraints()
        if backend is None:
            backend = build_backend(
                config.backend, workload, budget=budget, policy=policy, config=config
            )
        elif budget is not None or policy is not None:
            raise TuningError(
                "pass either a pre-built backend or budget/policy to "
                "TuningSession, not both"
            )
        self._optimizer = backend
        self._events = events if events is not None else EventLog()
        self._optimizer.attach_events(self._events)
        self.policy.bind(workload)
        self._history: list[tuple[int, frozenset[Index]]] = []
        self._baseline: float | None = None
        self._stop_emitted = False
        if config.sanitize:
            # Deferred import: the lint package is a consumer of the tuner
            # layer's public API, not a dependency of it.
            from repro.lint.sanitizers import install_session_sanitizers

            install_session_sanitizers(self)

    # ------------------------------------------------------------------ #
    # owned state
    # ------------------------------------------------------------------ #

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def candidates(self) -> list[Index]:
        return self._candidates

    @property
    def constraints(self) -> TuningConstraints:
        return self._constraints

    @property
    def optimizer(self) -> CostBackend:
        """The session's cost backend."""
        return self._optimizer

    @property
    def policy(self) -> BudgetPolicy:
        return self._optimizer.policy

    @property
    def events(self) -> EventLog:
        return self._events

    @property
    def history(self) -> list[tuple[int, frozenset[Index]]]:
        """Convergence checkpoints ``(calls_used, best_config)`` recorded
        via :meth:`checkpoint` (the live list, not a copy)."""
        return self._history

    # ------------------------------------------------------------------ #
    # budget passthrough
    # ------------------------------------------------------------------ #

    @property
    def budget(self) -> int | None:
        return self.policy.budget

    @property
    def calls_used(self) -> int:
        return self._optimizer.calls_used

    @property
    def remaining(self) -> int | None:
        return self.policy.remaining

    @property
    def exhausted(self) -> bool:
        """Whether no counted call will ever be granted again (global)."""
        return self.policy.exhausted

    @property
    def stop_reason(self) -> str | None:
        """Why the policy halted the session early (``None`` = it did not)."""
        return self.policy.stop_reason

    def admits(self, query: Query) -> bool:
        """Whether a counted call for ``query`` would be granted right now."""
        return self.policy.admits(query.qid)

    # ------------------------------------------------------------------ #
    # costing
    # ------------------------------------------------------------------ #

    @property
    def baseline_cost(self) -> float:
        """``cost(W, ∅)`` (computed once, free)."""
        if self._baseline is None:
            self._baseline = self._optimizer.empty_workload_cost()
        return self._baseline

    def evaluated_cost(self, query: Query, configuration) -> float:
        """Counted cost while the policy admits ``query``, derived after."""
        return evaluated_cost(self._optimizer, query, configuration)

    # ------------------------------------------------------------------ #
    # session protocol
    # ------------------------------------------------------------------ #

    def checkpoint(self, configuration: frozenset[Index]) -> None:
        """Record a convergence checkpoint for the current best config.

        Appends ``(calls_used, configuration)`` to the history, emits a
        ``checkpoint`` event, and notifies the policy (driving Wii-style
        reallocation and Esc-style plateau detection). The improvement
        percentage is derived — free — and only computed when the policy
        asks for it, so FCFS runs spend nothing here.
        """
        calls = self.calls_used
        self._history.append((calls, configuration))
        improvement: float | None = None
        if self.policy.wants_progress:
            baseline = self.baseline_cost
            if baseline > 0:
                estimated = self._optimizer.derived_workload_cost(configuration)
                improvement = (1.0 - estimated / baseline) * 100.0
            else:
                improvement = 0.0
        self._events.emit(
            "checkpoint",
            calls_used=calls,
            size=len(configuration),
            improvement=improvement,
        )
        self.policy.on_checkpoint(calls, improvement)
        if self.policy.stop_reason is not None and not self._stop_emitted:
            self._stop_emitted = True
            self._events.emit(
                "stop", calls_used=self.calls_used, reason=self.policy.stop_reason
            )

    def phase(self, name: str) -> None:
        """Mark an algorithm phase boundary in the event stream."""
        self._events.emit("phase", calls_used=self.calls_used, name=name)

    @contextmanager
    def allowance(self, limit: int):
        """Scope a local cap of ``limit`` counted calls (DTA's slices).

        Installs a :class:`~repro.budget.policy.SliceAllowance` over the
        active policy for the duration of the block; the global budget and
        :attr:`exhausted` are unaffected.
        """
        inner = self._optimizer.policy
        scoped = SliceAllowance(inner, limit)
        self._optimizer.policy = scoped
        try:
            yield scoped
        finally:
            self._optimizer.policy = inner


@dataclass
class TuningResult:
    """Outcome of one tuning run.

    Attributes:
        tuner: Name of the producing algorithm.
        configuration: The recommended configuration ``C_min``.
        estimated_cost: The tuner's own (derived) cost estimate for it.
        baseline_cost: ``cost(W, ∅)``.
        calls_used: Counted what-if calls actually consumed.
        budget: The budget the run was given.
        history: Convergence checkpoints ``(calls_used, best_config)`` in
            chronological order; used for the Figure 14/21 round plots.
        optimizer: The cost backend used (exposes cache/log for
            inspection and uncounted ground-truth evaluation).
        events: The session's structured event stream.
        stop_reason: Why the budget policy halted the session early
            (``None`` when it ran to completion).
    """

    tuner: str
    configuration: frozenset[Index]
    estimated_cost: float
    baseline_cost: float
    calls_used: int
    budget: int | None
    history: list[tuple[int, frozenset[Index]]] = field(default_factory=list)
    optimizer: CostBackend | None = field(default=None, repr=False)
    events: list[SessionEvent] = field(default_factory=list, repr=False)
    stop_reason: str | None = None

    @property
    def estimated_improvement(self) -> float:
        """The tuner's believed percentage improvement (Equation 4)."""
        if self.baseline_cost <= 0:
            return 0.0
        return (1.0 - self.estimated_cost / self.baseline_cost) * 100.0

    def true_improvement(self) -> float:
        """Ground-truth percentage improvement of the final configuration.

        Matches the paper's evaluation protocol: the *actual what-if cost*
        of the returned configuration, uncounted (Section 7).
        """
        if self.optimizer is None:
            raise TuningError("result carries no optimizer for evaluation")
        true_cost = self.optimizer.true_workload_cost(self.configuration)
        if self.baseline_cost <= 0:
            return 0.0
        return (1.0 - true_cost / self.baseline_cost) * 100.0

    def improvement_history(self) -> list[tuple[int, float]]:
        """Ground-truth improvement at each recorded checkpoint.

        A non-positive baseline (e.g. an empty or degenerate workload)
        yields 0.0 improvement at every checkpoint rather than dividing
        by zero.
        """
        if self.optimizer is None:
            raise TuningError("result carries no optimizer for evaluation")
        points: list[tuple[int, float]] = []
        for calls, configuration in self.history:
            if self.baseline_cost <= 0:
                points.append((calls, 0.0))
                continue
            cost = self.optimizer.true_workload_cost(configuration)
            points.append((calls, (1.0 - cost / self.baseline_cost) * 100.0))
        return points


class Tuner(abc.ABC):
    """Base class for budget-aware configuration enumeration algorithms.

    Subclasses implement :meth:`_enumerate` against a
    :class:`TuningSession`; the base class handles candidate
    generation/validation/deduplication, building the config's budget
    policy and the session, and result assembly.
    """

    #: Human-readable algorithm name (appears in reports).
    name: str = "tuner"

    def tune(
        self,
        workload: Workload,
        budget: int | None,
        constraints: TuningConstraints | None = None,
        candidates: list[Index] | None = None,
        optimizer_config: ReproConfig | None = None,
    ) -> TuningResult:
        """Run the tuner.

        Args:
            workload: Workload to tune.
            budget: Budget ``B`` on counted what-if calls (``None`` =
                unlimited; greedy variants then reduce to their classic
                unbudgeted forms).
            constraints: Outcome constraints ``Γ`` (default: ``K = 10``,
                no storage constraint).
            candidates: Candidate indexes ``I``; generated from the workload
                when omitted. Duplicates are dropped (first occurrence
                wins), so repeated candidates never change the outcome or
                the spent budget.
            optimizer_config: The run's settings (see
                :class:`~repro.config.ReproConfig`): the budget policy
                built over ``budget`` (FCFS by default), the cost backend
                (analytic, the bit-identical baseline), the persistent
                cache and the sanitizers. Which calls count is no knob
                (DESIGN §1). When omitted, the environment is read once
                here and the same config reaches the session, the backend
                factory and the engine.

        Returns:
            The tuning result, carrying the backend for evaluation.
        """
        if budget is not None and budget < 1:
            raise TuningError(f"budget must be positive, got {budget}")
        constraints = constraints or TuningConstraints()
        if candidates is None:
            candidates = CandidateGenerator(workload.schema).for_workload(workload)
        candidates = list(dict.fromkeys(candidates))
        if not candidates:
            raise TuningError("no candidate indexes to enumerate")
        for index in candidates:
            if not workload.schema.has_table(index.table):
                raise TuningError(
                    f"candidate index {index.display()} references table "
                    f"{index.table!r} missing from schema "
                    f"{workload.schema.name!r}"
                )
        config = optimizer_config or ReproConfig.from_env()
        policy = build_policy(
            config.budget_policy,
            budget,
            wii_release_rate=config.wii_release_rate,
            esc_patience=config.esc_patience,
            esc_min_delta=config.esc_min_delta,
        )
        session = TuningSession(
            workload, candidates, constraints, policy=policy, optimizer_config=config
        )
        optimizer = session.optimizer
        baseline = session.baseline_cost
        configuration = self._enumerate(session)
        estimated = optimizer.derived_workload_cost(configuration)
        if constraints.min_improvement_percent is not None and baseline > 0:
            improvement = (1.0 - estimated / baseline) * 100.0
            if improvement < constraints.min_improvement_percent:
                # Constrained tuning: below the required improvement the
                # tuner recommends nothing rather than marginal indexes.
                configuration, estimated = frozenset(), baseline
        return TuningResult(
            tuner=self.name,
            configuration=frozenset(configuration),
            estimated_cost=estimated,
            baseline_cost=baseline,
            calls_used=optimizer.calls_used,
            budget=session.budget,
            history=session.history,
            optimizer=optimizer,
            events=session.events.events,
            stop_reason=session.stop_reason,
        )

    @abc.abstractmethod
    def _enumerate(self, session: TuningSession) -> frozenset[Index]:
        """Search for the best configuration.

        Draws budget through ``session`` (``session.evaluated_cost``,
        ``session.admits``, ``session.exhausted``) and records convergence
        via ``session.checkpoint``; returns the recommended configuration.
        """
