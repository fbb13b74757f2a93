"""The budget layer: metering, allocation policies, and the session stream.

Extracted from the what-if optimizer so budget *discipline* is pluggable
(ISSUE 2 / the ROADMAP's north-star layering):

* :class:`~repro.budget.meter.BudgetMeter` — the hard global budget ``B``.
* :class:`~repro.budget.policy.BudgetPolicy` — the admission protocol every
  counted what-if call passes through.
* :class:`~repro.budget.policy.FCFSPolicy` — first-come-first-serve, the
  paper's Section 4.2.1 discipline and the bit-identical default.
* :class:`~repro.budget.wii.WiiReallocationPolicy` — per-query slices with
  dynamic slack reallocation (after Wii).
* :class:`~repro.budget.esc.EarlyStopPolicy` — plateau-triggered session
  halt wrapping any policy (after Esc).
* :class:`~repro.budget.policy.SliceAllowance` — a scoped local cap used by
  session allowances (DTA's per-query slices).
* :class:`~repro.budget.events.SessionEvent` / ``EventLog`` — the structured
  session event stream consumed by the eval runner, ``--trace``, and tests.
"""

from repro.budget.esc import EarlyStopPolicy
from repro.budget.events import EVENT_KINDS, EventLog, SessionEvent
from repro.budget.meter import BudgetMeter
from repro.budget.policy import (
    BudgetPolicy,
    DelegatingPolicy,
    FCFSPolicy,
    SliceAllowance,
    build_policy,
)
from repro.budget.wii import WiiReallocationPolicy
from repro.config import POLICY_NAMES

__all__ = [
    "BudgetMeter",
    "BudgetPolicy",
    "DelegatingPolicy",
    "EVENT_KINDS",
    "EarlyStopPolicy",
    "EventLog",
    "FCFSPolicy",
    "POLICY_NAMES",
    "SessionEvent",
    "SliceAllowance",
    "WiiReallocationPolicy",
    "build_policy",
]
