"""Budget policies: who may spend the next counted what-if call.

The paper's enumeration algorithms all share one *meter* (the global budget
``B``) but differ in *discipline* — FCFS spends first-come-first-serve,
Wii-style reallocation slices the budget per query and shifts unused slack,
Esc-style early stopping cuts the session off when improvement plateaus.
:class:`BudgetPolicy` is that seam: the what-if optimizer asks the policy
before every counted call, and tuners consult it (through the session)
instead of re-implementing exhausted/fallback logic.

Contract every policy must honour:

* :meth:`~BudgetPolicy.admits` is a *pure* query — no state changes, no
  events. If it returns ``True``, an immediately following
  :meth:`~BudgetPolicy.charge` for the same query must succeed (sessions are
  single-threaded). The engine consults it only for pairs its in-memory
  cache cannot answer, so a policy must not rely on how often, or for
  which pairs, it is asked.
* :meth:`~BudgetPolicy.charge` consumes exactly one unit of the global meter
  (plus policy-specific bookkeeping) and emits a ``budget_grant`` event;
  :meth:`~BudgetPolicy.grant` is that without the check, for a caller that
  has had ``admits`` say yes and charged nothing since.
* A denial raises :class:`~repro.exceptions.BudgetExhaustedError` (or
  returns ``False`` from :meth:`~BudgetPolicy.try_charge`) and emits a
  ``budget_deny`` event at most once per query per denial regime.
"""

from __future__ import annotations

import abc

from repro.budget.events import EventLog
from repro.budget.meter import BudgetMeter
from repro.config import POLICY_NAMES
from repro.exceptions import BudgetExhaustedError, TuningError


class BudgetPolicy(abc.ABC):
    """Decides whether the next counted what-if call may proceed.

    Args:
        meter: The global :class:`~repro.budget.meter.BudgetMeter` enforcing
            the hard budget ``B``.
    """

    #: Short policy name (appears in events and reports).
    name: str = "policy"

    def __init__(self, meter: BudgetMeter):
        self._meter = meter
        self._events: EventLog | None = None
        self._denied: set[str] = set()

    # ------------------------------------------------------------------ #
    # meter passthrough
    # ------------------------------------------------------------------ #

    @property
    def meter(self) -> BudgetMeter:
        """The global meter (shared by wrapper policies)."""
        return self._meter

    @property
    def budget(self) -> int | None:
        return self.meter.budget

    @property
    def spent(self) -> int:
        return self._meter.spent

    @property
    def remaining(self) -> int | None:
        return self.meter.remaining

    @property
    def exhausted(self) -> bool:
        """Whether the *session* is out of budget.

        ``True`` means no further counted call will ever be granted to any
        query; per-query denials (e.g. a spent Wii slice) do not count.
        """
        return self._meter.exhausted

    # ------------------------------------------------------------------ #
    # session wiring
    # ------------------------------------------------------------------ #

    def attach(self, events: EventLog | None) -> None:
        """Connect the session event stream (grants/denials are logged)."""
        self._events = events

    def bind(self, workload) -> None:
        """Learn the query universe (per-query policies allocate slices)."""

    def on_checkpoint(self, calls_used: int, improvement: float | None) -> None:
        """Tuner checkpoint hook (reallocation, early-stop tracking).

        Re-arms denial events so a post-checkpoint regime change is visible
        in the stream.
        """
        self._denied.clear()

    @property
    def wants_progress(self) -> bool:
        """Whether checkpoints should compute the improvement percentage."""
        return False

    @property
    def stop_reason(self) -> str | None:
        """Why the policy halted the session early (``None`` = it did not)."""
        return None

    # ------------------------------------------------------------------ #
    # the admission protocol
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def admits(self, qid: str) -> bool:
        """Whether a counted call for ``qid`` would be granted right now."""

    def check(self, qid: str) -> None:
        """Raise (without consuming) if a call for ``qid`` would be denied.

        Raises:
            BudgetExhaustedError: If the policy denies the call.
        """
        if not self.admits(qid):
            self._emit_deny(qid)
            raise BudgetExhaustedError(
                f"budget policy {self.name!r} denies what-if call for "
                f"query {qid!r} (budget {self.budget}, spent {self.spent})"
            )

    def charge(self, qid: str) -> None:
        """Consume one counted call for ``qid``.

        Raises:
            BudgetExhaustedError: If the policy denies the call.
        """
        self.check(qid)
        self.grant(qid)

    def try_charge(self, qid: str) -> bool:
        """Consume one counted call for ``qid``, or return ``False``.

        The non-raising form used by batched costing: denied pairs are
        skipped (left uncached) rather than aborting the batch.
        """
        if not self.admits(qid):
            self._emit_deny(qid)
            return False
        self.grant(qid)
        return True

    def grant(self, qid: str) -> None:
        """Consume one counted call for ``qid`` without asking again.

        Only for a call :meth:`admits` said yes to with nothing charged
        since: ``admits`` is pure, so its answer still holds, and this is
        the rest of :meth:`charge`. :meth:`charge` and :meth:`try_charge`
        call it after their own check.
        """
        self._consume(qid)
        events = self._events
        if events is not None:
            events.emit("budget_grant", self._meter.spent, qid=qid, policy=self.name)

    def _consume(self, qid: str) -> None:
        """Policy bookkeeping for one granted call (meter charge included)."""
        self._meter.charge()

    # ------------------------------------------------------------------ #
    # event helpers
    # ------------------------------------------------------------------ #

    def _emit_deny(self, qid: str) -> None:
        if qid in self._denied:
            return
        self._denied.add(qid)
        if self._events is not None:
            self._events.emit(
                "budget_deny", calls_used=self.spent, qid=qid, policy=self.name
            )


class FCFSPolicy(BudgetPolicy):
    """First-come-first-serve: grant every call until the meter runs dry.

    Bit-identical to the pre-session budget discipline (Section 4.2.1): the
    realised layouts, costs, and ``calls_used`` of every tuner match the
    plain :class:`~repro.budget.meter.BudgetMeter` behaviour exactly.
    """

    name = "fcfs"

    def admits(self, qid: str) -> bool:
        return not self._meter.exhausted


class DelegatingPolicy(BudgetPolicy):
    """Base for wrapper policies that add discipline on top of another.

    The wrapper shares the inner policy's meter (its :attr:`meter` is the
    inner one's, fixed at construction); consuming delegates to the inner
    policy so its bookkeeping (e.g. Wii slices) stays correct.
    """

    def __init__(self, inner: BudgetPolicy):
        super().__init__(inner.meter)
        self._inner = inner

    @property
    def inner(self) -> BudgetPolicy:
        return self._inner

    def attach(self, events: EventLog | None) -> None:
        super().attach(events)
        self._inner.attach(events)

    def bind(self, workload) -> None:
        self._inner.bind(workload)

    def on_checkpoint(self, calls_used: int, improvement: float | None) -> None:
        self._inner.on_checkpoint(calls_used, improvement)
        self._denied.clear()

    @property
    def wants_progress(self) -> bool:
        return self._inner.wants_progress

    @property
    def stop_reason(self) -> str | None:
        return self._inner.stop_reason

    def _consume(self, qid: str) -> None:
        self._inner._consume(qid)

    def admits(self, qid: str) -> bool:
        return self._inner.admits(qid)


class SliceAllowance(DelegatingPolicy):
    """A scoped cap: at most ``limit`` counted calls through this wrapper.

    Replaces DTA's ad-hoc slice-limited optimizer proxy: the session
    installs the wrapper for the duration of one per-query tuning slice, so
    a slice stops drawing counted calls once its local allowance is spent
    while the *global* budget (and :attr:`exhausted`) remain untouched.
    """

    name = "slice"

    def __init__(self, inner: BudgetPolicy, limit: int):
        if limit < 0:
            raise TuningError(f"slice allowance must be non-negative, got {limit}")
        super().__init__(inner)
        self._limit = limit
        self._used = 0
        # Share the session stream without re-attaching the inner policy.
        self._events = getattr(inner, "_events", None)

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def used(self) -> int:
        return self._used

    def attach(self, events: EventLog | None) -> None:
        BudgetPolicy.attach(self, events)

    def admits(self, qid: str) -> bool:
        return self._used < self._limit and self._inner.admits(qid)

    def _consume(self, qid: str) -> None:
        self._inner._consume(qid)
        self._used += 1


def build_policy(
    name: str,
    budget: int | None,
    *,
    wii_release_rate: float = 0.5,
    esc_patience: int = 3,
    esc_min_delta: float = 0.1,
) -> BudgetPolicy:
    """Construct a budget policy by name (see :data:`POLICY_NAMES`).

    Args:
        name: ``"fcfs"``, ``"wii"``, ``"esc"`` (early stop over FCFS), or
            ``"esc+wii"`` (early stop over Wii reallocation).
        budget: The what-if call budget ``B`` (``None`` = unlimited).
        wii_release_rate: Fraction of an idle query's unused slice released
            to the shared pool at each checkpoint.
        esc_patience: Checkpoints without sufficient gain before stopping.
        esc_min_delta: Minimum improvement gain (percentage points) over the
            patience window.
    """
    from repro.budget.esc import EarlyStopPolicy
    from repro.budget.wii import WiiReallocationPolicy

    if name == "fcfs":
        return FCFSPolicy(BudgetMeter(budget))
    if name == "wii":
        return WiiReallocationPolicy(BudgetMeter(budget), release_rate=wii_release_rate)
    if name == "esc":
        return EarlyStopPolicy(
            FCFSPolicy(BudgetMeter(budget)),
            patience=esc_patience,
            min_delta=esc_min_delta,
        )
    if name == "esc+wii":
        return EarlyStopPolicy(
            WiiReallocationPolicy(BudgetMeter(budget), release_rate=wii_release_rate),
            patience=esc_patience,
            min_delta=esc_min_delta,
        )
    raise TuningError(
        f"unknown budget policy {name!r}; expected one of {POLICY_NAMES}"
    )
