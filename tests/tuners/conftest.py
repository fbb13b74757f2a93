"""Shared helpers for the tuner session pins."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest


def _summary(result) -> dict:
    """The pinned facts of a finished session, read before any evaluation.

    The call-log digest covers each counted call's query, its sorted
    configuration and its cost as a float hex string, so a single bit of
    drift in any price, key or issue order changes it.
    """
    optimizer = result.optimizer
    digest = hashlib.sha256()
    for call in optimizer.call_log:
        keys = "|".join(sorted(index.display() for index in call.configuration))
        digest.update(f"{call.qid}:{keys}:{call.cost.hex()}\n".encode())
    stats = optimizer.stats.as_dict()
    del stats["cost_seconds"], stats["hit_rate"]
    return {
        "calls_used": result.calls_used,
        "call_log": digest.hexdigest(),
        "configuration": sorted(index.display() for index in result.configuration),
        "events": dict(Counter(event.kind for event in result.events)),
        "stats": stats,
    }


@pytest.fixture
def session_summary():
    """``summary(result)``: a session's calls, call-log digest, configuration,
    event-kind counts and every :class:`WhatIfStats` counter except wall time."""
    return _summary
