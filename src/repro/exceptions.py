"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of the tuner with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SQLSyntaxError(ReproError):
    """Raised when the SQL lexer or parser rejects an input statement.

    Attributes:
        sql: The offending SQL text (may be ``None`` when unavailable).
        position: Character offset into ``sql`` where the error occurred.
    """

    def __init__(self, message: str, sql: str | None = None, position: int | None = None):
        super().__init__(message)
        self.sql = sql
        self.position = position


class CatalogError(ReproError):
    """Raised for invalid schema definitions or unknown catalog objects."""


class UnknownTableError(CatalogError):
    """Raised when a query references a table missing from the schema."""


class UnknownColumnError(CatalogError):
    """Raised when a query references a column missing from its table."""


class InvalidIndexError(CatalogError):
    """Raised for malformed index definitions (e.g., duplicate key columns)."""


class OptimizerError(ReproError):
    """Raised when the what-if optimizer cannot cost a query."""


class BudgetExhaustedError(ReproError):
    """Raised when a what-if call is requested but the budget is spent.

    Enumeration algorithms in :mod:`repro.tuners` catch this internally and
    fall back to derived costs; it only escapes to user code when the
    :class:`~repro.optimizer.whatif.WhatIfOptimizer` is driven manually.
    """


class InvariantViolationError(ReproError):
    """Raised by the runtime sanitizers when a core invariant is broken.

    The opt-in sanitizers of :mod:`repro.lint.sanitizers` observe cost-model
    outputs and the session event stream and raise this error on the first
    violation — a non-monotone cost (Assumption 1), a budget overrun in the
    event stream, or a counted call after a terminal stop.
    """


class ParallelExecutionError(ReproError):
    """Raised when a parallel experiment cell fails in a worker process.

    Carries the failing cell's roster ``label`` and RNG ``seed`` so a
    crashed worker points at one grid cell instead of hanging the pool or
    surfacing an anonymous traceback.

    Attributes:
        label: Roster label of the failing cell (``""`` when unknown).
        seed: RNG seed of the failing cell (``None`` when unknown).
    """

    def __init__(self, message: str, label: str = "", seed: int | None = None):
        super().__init__(message)
        self.label = label
        self.seed = seed


class TraceError(ReproError):
    """Raised when a what-if cache shard cannot be replayed.

    Covers an unreadable file, a missing or stale shard header, and
    header mismatches: the shard was recorded against a different
    workload (queries or catalog statistics) than the replay session,
    holds noisy costs, or holds whole-key costs (keys are always
    normalized, DESIGN §1).
    """


class TraceMissError(TraceError):
    """Raised when replay needs a (query, configuration) cost not in the shard.

    The replay backend serves costs exclusively from its recorded shard;
    a miss means the replayed run diverged from the recorded one (different
    tuner, seed, budget, or knobs) — replay never falls back to the cost
    model.

    Attributes:
        qid: Query id of the missing pair.
        key: Canonical configuration key (sorted index display strings).
    """

    def __init__(self, message: str, qid: str = "", key: tuple = ()):
        super().__init__(message)
        self.qid = qid
        self.key = key


class TuningError(ReproError):
    """Raised for invalid tuning requests (e.g., non-positive budget)."""


class BackendUnavailableError(TuningError):
    """Raised when a cost backend needs an optional dependency or service.

    The ``postgres`` backend prices configurations against a live DBMS and
    therefore needs the optional ``psycopg`` driver (the ``repro[postgres]``
    extra) plus a reachable server. The error message always names the
    missing piece and the install/configuration step that provides it, so a
    bare ``pip install repro`` user gets an actionable failure instead of an
    ``ImportError`` five frames deep.
    """


class ConstraintError(TuningError):
    """Raised when tuning constraints are unsatisfiable or inconsistent."""
