"""Static analysis and runtime invariants for the reproduction.

Two layers guard the invariants the budget curves depend on:

* the **static** layer — an AST rule engine (:mod:`repro.lint.engine`) with
  per-file project-specific rules (:mod:`repro.lint.rules`, REP001–REP007),
  whole-program flow rules (:mod:`repro.lint.flow`, REP101–REP106) over a
  linked project index, a per-line suppression syntax, text/JSON/SARIF
  reporters, and a checked-in baseline of justified exceptions. Run it as
  ``python -m repro.lint src/ --flow``: one serial pass that checks and
  summarizes each file once.
* the **runtime** layer — opt-in sanitizers (:mod:`repro.lint.sanitizers`)
  activated by ``REPRO_SANITIZE=1`` that assert cost-model monotonicity
  (Assumption 1) and session event-stream discipline on live runs.
"""

from repro.lint import rules as _rules  # noqa: F401  (populates the registry)
from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.engine import (
    FLOW_RULE_IDS,
    REGISTRY,
    LintEngine,
    Rule,
    known_rule_ids,
    register,
)
from repro.lint.findings import Finding
from repro.lint.sanitizers import (
    EventStreamValidator,
    MonotonicityChecker,
    SessionSanitizers,
    install_session_sanitizers,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "EventStreamValidator",
    "FLOW_RULE_IDS",
    "Finding",
    "LintEngine",
    "MonotonicityChecker",
    "REGISTRY",
    "Rule",
    "SessionSanitizers",
    "install_session_sanitizers",
    "known_rule_ids",
    "register",
]
