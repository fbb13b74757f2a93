"""Shared helpers for the experiment and runner suites."""

from __future__ import annotations

import pytest

from repro.eval.report import record_to_dict

#: Wall-clock fields: they measure time, so they differ between equal runs.
_TIMING = ("seconds", "cost_seconds")


def _untimed(record) -> dict:
    row = {k: v for k, v in record_to_dict(record).items() if k not in _TIMING}
    row["seed_metrics"] = [
        {k: v for k, v in metrics.items() if k not in _TIMING}
        for metrics in row["seed_metrics"]
    ]
    return row


@pytest.fixture
def untimed():
    """``untimed(record)``: a record as the BENCH archive holds it, without
    the wall-clock fields of the record and of each seed's metrics."""
    return _untimed
