"""The session event stream: emission, ordering, construction, and the
JSON and pickle round trips."""

import dataclasses
import pickle

import pytest

from repro.budget.events import EVENT_KINDS, EventLog, SessionEvent
from repro.exceptions import TuningError


def test_emit_assigns_ordinals_in_order():
    log = EventLog()
    first = log.emit("phase", calls_used=0, name="warmup")
    second = log.emit("checkpoint", calls_used=3, size=2, improvement=None)
    assert (first.ordinal, second.ordinal) == (1, 2)
    assert len(log) == 2
    assert [event.kind for event in log] == ["phase", "checkpoint"]


def test_emit_rejects_unknown_kind():
    log = EventLog()
    with pytest.raises(TuningError, match="unknown session event kind"):
        log.emit("telemetry", calls_used=0)


def test_counts_by_kind():
    log = EventLog()
    for qid in ("q1", "q2", "q3"):
        log.emit("budget_grant", calls_used=1, qid=qid, policy="fcfs")
    log.emit("stop", calls_used=3, reason="done")
    assert log.counts() == {"budget_grant": 3, "stop": 1}


def test_events_property_returns_a_copy():
    log = EventLog()
    log.emit("phase", calls_used=0, name="a")
    snapshot = log.events
    log.emit("phase", calls_used=0, name="b")
    assert len(snapshot) == 1


@pytest.mark.parametrize("kind", EVENT_KINDS)
def test_json_round_trip_for_every_kind(kind):
    event = SessionEvent(
        ordinal=7, kind=kind, calls_used=42, payload={"qid": "q9", "cost": 1.5}
    )
    data = event.to_json()
    assert data["ordinal"] == 7
    assert data["kind"] == kind
    assert data["calls_used"] == 42
    assert data["qid"] == "q9"
    assert SessionEvent.from_json(data) == event


def test_round_trip_preserves_empty_payload():
    event = SessionEvent(ordinal=1, kind="stop", calls_used=0)
    assert SessionEvent.from_json(event.to_json()) == event


def test_keyword_and_positional_construction_agree():
    payload = {"qid": "q3", "size": 2, "cost": 7.25}
    keyword = SessionEvent(ordinal=4, kind="whatif_call", calls_used=9, payload=payload)
    positional = SessionEvent(4, "whatif_call", 9, payload)
    assert keyword == positional
    assert (positional.ordinal, positional.kind, positional.calls_used) == (4, "whatif_call", 9)
    assert positional.payload is payload


def test_default_payload_is_fresh_per_event():
    first = SessionEvent(1, "stop", 0)
    second = SessionEvent(2, "stop", 0)
    assert first.payload == second.payload == {}
    assert first.payload is not second.payload


def test_events_are_frozen():
    event = SessionEvent(1, "phase", 0, {"name": "a"})
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.calls_used = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del event.kind


def test_emitted_event_equals_its_keyword_build():
    """``emit`` sets slots directly; the event is the keyword-built one."""
    log = EventLog()
    log.emit("phase", calls_used=0, name="warmup")
    event = log.emit("budget_grant", calls_used=3, qid="q1", policy="fcfs")
    expected = SessionEvent(
        ordinal=2, kind="budget_grant", calls_used=3, payload={"qid": "q1", "policy": "fcfs"}
    )
    assert event == expected
    assert repr(event) == repr(expected)
    assert list(event.payload) == ["qid", "policy"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.ordinal = 9
    assert SessionEvent.from_json(event.to_json()) == event


def test_observers_see_each_emitted_event():
    log = EventLog()
    seen = []
    log.add_observer(seen.append)
    event = log.emit("checkpoint", calls_used=1, size=2)
    assert seen == [event]


@pytest.mark.parametrize("build", ["keyword", "emitted"])
def test_pickle_round_trip(build):
    if build == "keyword":
        event = SessionEvent(ordinal=3, kind="whatif_call", calls_used=2, payload={"cost": 1.5})
    else:
        log = EventLog()
        log.emit("phase", calls_used=0, name="a")
        log.emit("phase", calls_used=0, name="b")
        event = log.emit("whatif_call", calls_used=2, cost=1.5)
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event
    assert clone.payload == {"cost": 1.5}
    with pytest.raises(dataclasses.FrozenInstanceError):
        clone.kind = "stop"
