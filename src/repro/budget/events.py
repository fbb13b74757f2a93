"""The session event stream: a structured trace of one tuning session.

Every :class:`~repro.tuners.base.TuningSession` owns an :class:`EventLog`;
the what-if optimizer, the budget policy, and the tuner all append
:class:`SessionEvent` records to it as the session unfolds. The stream is
consumed by the eval runner (aggregate counts per cell), the CLI ``--trace``
flag (JSON lines), and tests (asserting budget discipline without poking
private state).

Event kinds (the taxonomy of DESIGN.md "Session & budget architecture"):

``whatif_call``
    One *counted* what-if call was committed (``qid``, ``size`` — the
    normalized configuration's cardinality — and ``cost``).
``budget_grant``
    The budget policy granted a counted call to ``qid``.
``budget_deny``
    The policy denied a counted call to ``qid``. Emitted once per query per
    denial regime (re-armed when a reallocation opens new headroom) so hot
    derived-cost loops cannot flood the stream.
``checkpoint``
    The tuner recorded a convergence checkpoint (``size``, optionally
    ``improvement`` in percent when the policy tracks progress).
``phase``
    The tuner entered a named phase (``name``), e.g. ``priors`` →
    ``episodes`` → ``extraction`` for MCTS.
``stop``
    The policy halted the session early (``reason``), e.g. the Esc-style
    plateau detector of :class:`~repro.budget.esc.EarlyStopPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.exceptions import TuningError

#: The closed set of event kinds a session may emit.
EVENT_KINDS = (
    "whatif_call",
    "budget_grant",
    "budget_deny",
    "checkpoint",
    "phase",
    "stop",
)


@dataclass(frozen=True, slots=True)
class SessionEvent:
    """One entry of the session event stream.

    Attributes:
        ordinal: 1-based position in the stream.
        kind: One of :data:`EVENT_KINDS`.
        calls_used: Counted what-if calls consumed when the event fired.
        payload: Kind-specific JSON-serialisable details.
    """

    ordinal: int
    kind: str
    calls_used: int
    payload: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        """A JSON-serialisable view (the ``--trace`` line format)."""
        return {
            "ordinal": self.ordinal,
            "kind": self.kind,
            "calls_used": self.calls_used,
            **self.payload,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SessionEvent":
        """Rebuild an event from :meth:`to_json` output (trace round-trip)."""
        payload = {
            key: value
            for key, value in data.items()
            if key not in ("ordinal", "kind", "calls_used")
        }
        return cls(
            ordinal=data["ordinal"],
            kind=data["kind"],
            calls_used=data["calls_used"],
            payload=payload,
        )


# The slot setters :meth:`EventLog.emit` builds events with (each slot's
# descriptor writes past the frozen ``__setattr__``).
_new_event = object.__new__
_set_ordinal = SessionEvent.ordinal.__set__
_set_kind = SessionEvent.kind.__set__
_set_calls_used = SessionEvent.calls_used.__set__
_set_payload = SessionEvent.payload.__set__


class EventLog:
    """An append-only stream of :class:`SessionEvent` records.

    Observers registered via :meth:`add_observer` see every event as it is
    emitted — the hook the opt-in runtime sanitizers
    (:mod:`repro.lint.sanitizers`) use to validate the stream online. An
    observer that raises aborts the emitting operation.
    """

    def __init__(self) -> None:
        self._events: list[SessionEvent] = []
        self._observers: list[Any] = []

    def add_observer(self, observer) -> None:
        """Register ``observer(event)`` to be called on every emit."""
        self._observers.append(observer)

    @property
    def observers(self) -> tuple:
        """The registered observers (read-only view)."""
        return tuple(self._observers)

    def emit(self, kind: str, calls_used: int, **payload: Any) -> SessionEvent:
        """Append one event, notify observers, and return it.

        The event is built by setting its slots directly: a frozen
        dataclass's ``__init__`` goes through ``object.__setattr__`` once
        per field, over twice the cost, and a session emits about 10^4
        events. The result equals the keyword-built event.
        """
        if kind not in EVENT_KINDS:
            raise TuningError(f"unknown session event kind {kind!r}")
        event = _new_event(SessionEvent)
        _set_ordinal(event, len(self._events) + 1)
        _set_kind(event, kind)
        _set_calls_used(event, calls_used)
        _set_payload(event, payload)
        self._events.append(event)
        for observer in self._observers:
            observer(event)
        return event

    @property
    def events(self) -> list[SessionEvent]:
        """The stream so far (a copy)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SessionEvent]:
        return iter(list(self._events))

    def counts(self) -> dict[str, int]:
        """Events per kind (only kinds that occurred)."""
        out: dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out
