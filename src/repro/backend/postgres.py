"""Live Postgres/HypoPG what-if backend.

The first backend whose costs come from outside the process: queries are
priced by a real query optimizer over *hypothetical* indexes, exactly the
operation whose expense motivates the paper's budget accounting. The
backend subclasses the analytic engine, so caching, relevant-index
normalization, budget metering, observers, events, and
:class:`~repro.optimizer.whatif.WhatIfStats` are all inherited unchanged —
only the pricing seam (:meth:`PostgresBackend._evaluate` for single
pricings plus :meth:`PostgresBackend._price_shard` for batch waves) talks
to the server:

1. sync the connection's HypoPG hypothetical indexes to the normalized
   configuration (diffed, not rebuilt — see
   :class:`~repro.backend.dbms.hypo.HypoIndexState`);
2. ``EXPLAIN (FORMAT JSON)`` the query and read the root plan's
   ``Total Cost``.

Connections come from a lazy pool (nothing opens in ``__init__``, so the
backend never smuggles a socket into a pickled spec), transient
connection errors retry with backoff on a fresh connection, and
:meth:`PostgresBackend.close` runs ``hypopg_reset`` on every pooled
connection before closing it.

A session run with ``whatif_cache`` records every fresh pricing in its
cache shard like any backend's, so a CI-recorded Postgres session replays
bit-identically from that shard through
:class:`~repro.backend.replay.ReplayBackend` with zero live connections
(and zero ``psycopg`` imports).
"""

from __future__ import annotations

import os
from typing import Callable

from repro.backend.analytic import AnalyticBackend
from repro.backend.dbms.connection import (
    POOL_SIZE,
    ConnectionPool,
    require_psycopg,
    with_retry,
)
from repro.backend.dbms.explain import PostgresPlan, parse_plan, plan_total_cost
from repro.backend.dbms.hypo import HypoIndexState
from repro.catalog import Index
from repro.exceptions import OptimizerError, TuningError
from repro.optimizer.prepared import PreparedQuery
from repro.workload.query import Query

#: Per-connection setup: planner determinism (the toy/TPC-H suites never
#: reach the GEQO join-count threshold, but a deterministic planner is a
#: conformance requirement, not a hope).
_SESSION_SETUP = ("SET geqo TO off",)


class PostgresSession:
    """One live connection plus its hypothetical-index state.

    Connection-shaped (``cursor()``/``close()``) so it can live directly
    in a :class:`~repro.backend.dbms.connection.ConnectionPool`; the pool
    parks sessions, and the per-session :class:`HypoIndexState` keeps the
    hypothetical-index cache aligned with the connection it belongs to.
    """

    def __init__(self, conn):
        self._conn = conn
        self.hypo = HypoIndexState()

    def cursor(self):
        return self._conn.cursor()

    def close(self) -> None:
        self._conn.close()

    def _explain_json(self, sql: str, key: frozenset[Index]):
        self.hypo.sync(self, key)
        with self.cursor() as cur:
            cur.execute("EXPLAIN (FORMAT JSON) " + sql)
            row = cur.fetchone()
        if row is None:
            raise OptimizerError("EXPLAIN returned no rows")
        return row[0]

    def cost(self, sql: str, key: frozenset[Index]) -> float:
        """Price ``sql`` under hypothetical configuration ``key``."""
        return plan_total_cost(self._explain_json(sql, key))

    def plan(self, sql: str, key: frozenset[Index]) -> PostgresPlan:
        """The full hypothetical plan for ``sql`` under ``key``."""
        return parse_plan(self._explain_json(sql, key))

    def reset(self) -> None:
        """Drop this connection's hypothetical indexes (``hypopg_reset``)."""
        self.hypo.reset(self)


def _versions(session: PostgresSession) -> dict[str, str]:
    with session.cursor() as cur:
        cur.execute("SHOW server_version")
        row = cur.fetchone()
        server = "" if row is None else str(row[0])
        cur.execute("SELECT extversion FROM pg_extension WHERE extname = 'hypopg'")
        row = cur.fetchone()
        hypopg = "" if row is None or row[0] is None else str(row[0])
    return {"server_version": server, "hypopg_version": hypopg}


def postgres_provenance(
    dsn: str,
    *,
    schema: str | None = None,
    connector: Callable[[str], object] | None = None,
) -> dict[str, str]:
    """Server and hypopg versions at ``dsn`` — BENCH payload provenance."""
    pool = ConnectionPool(
        dsn, schema=schema, connect=_session_opener(connector), setup=_SESSION_SETUP
    )
    try:
        with pool.session() as session:
            return _versions(session)
    finally:
        pool.close_all()


def _session_opener(
    connector: Callable[[str], object] | None,
) -> Callable[[str], PostgresSession]:
    """``connect(dsn) -> PostgresSession`` over a raw connector (or psycopg)."""

    def open_session(dsn: str) -> PostgresSession:
        if connector is not None:
            return PostgresSession(connector(dsn))
        psycopg = require_psycopg()
        return PostgresSession(psycopg.connect(dsn, autocommit=True))

    return open_session


class PostgresBackend(AnalyticBackend):
    """What-if costing against a live Postgres with HypoPG.

    Args:
        workload: The workload being tuned. Query SQL is shipped verbatim
            to ``EXPLAIN``; the synthesizer emits Postgres-executable SQL
            and the TPC-H-style suites follow the same dialect.
        pg_dsn: Connection string; falls back to ``REPRO_PG_DSN``.
        pg_schema: Optional schema (``search_path``) holding the tables.
        connector: Injectable ``connect(dsn) -> connection`` callable for
            tests; when given, the ``psycopg`` import gate is skipped.
        retries: Transient-connection-error retries per pricing operation.
        backoff: Initial retry backoff in seconds (doubles per retry).
        transient: Exception types treated as transient; defaults to the
            driver's connection-level errors.
        **kwargs: Engine knobs forwarded to the analytic base (budget or
            policy, whatif_cache, events, ...).

    Raises:
        TuningError: When no DSN is configured.
        BackendUnavailableError: When ``psycopg`` is not installed (and
            no test connector is injected).
    """

    name = "postgres"

    #: A real optimizer does not promise Assumption 1 — an extra
    #: hypothetical index can change row-estimate arithmetic enough to
    #: raise the estimated cost — so the monotonicity sanitizer (and the
    #: conformance monotonicity test) must not be armed on this backend.
    monotonic = False

    #: Batch waves are priced on one pooled connection per job, so their
    #: EXPLAIN round trips overlap on the server.
    pricing_jobs = POOL_SIZE

    def __init__(
        self,
        workload,
        *args,
        pg_dsn: str | None = None,
        pg_schema: str | None = None,
        connector: Callable[[str], object] | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        transient: tuple[type[BaseException], ...] | None = None,
        **kwargs,
    ):
        super().__init__(workload, *args, **kwargs)
        dsn = pg_dsn or os.environ.get("REPRO_PG_DSN") or None
        if not dsn:
            raise TuningError(
                "postgres backend needs a connection string: pass --pg-dsn "
                "(BackendSpec.pg_dsn) or set REPRO_PG_DSN"
            )
        if connector is None:
            # Fail at construction, not at the first pricing five layers in.
            require_psycopg()
        self._pool = ConnectionPool(
            dsn,
            schema=pg_schema,
            connect=_session_opener(connector),
            setup=_SESSION_SETUP,
        )
        self._pg_schema = pg_schema
        self._retries = retries
        self._backoff = backoff
        self._transient = transient
        self._sql = {query.qid: query.sql for query in workload}

    # ------------------------------------------------------------------ #
    # connection plumbing
    # ------------------------------------------------------------------ #

    @property
    def dsn(self) -> str:
        return self._pool.dsn

    @property
    def pool(self) -> ConnectionPool:
        """The connection pool (exposed for observability in tests)."""
        return self._pool

    def _run(self, fn: Callable[[PostgresSession], object]):
        """Run ``fn(session)`` on a pooled session, retrying transients.

        A failed attempt discards its connection (the pool does this on
        any in-session exception), so each retry reconnects from scratch
        with an empty hypothetical-index set.
        """

        def attempt():
            with self._pool.session() as session:
                return fn(session)

        return with_retry(
            attempt,
            retries=self._retries,
            backoff=self._backoff,
            transient=self._transient,
        )

    def server_info(self) -> dict[str, str]:
        """Server/extension versions (BENCH provenance, live-test guard)."""
        return self._run(_versions)

    # ------------------------------------------------------------------ #
    # the pricing seam
    # ------------------------------------------------------------------ #

    def cache_identity(self) -> dict:
        """Extend the shard key with server-side pricing identity.

        Costs come from the live planner, so the DSN (hashed — it may
        carry credentials), the schema, and the server/hypopg versions all
        key the shard file: a server upgrade or a different database lands
        in a fresh shard instead of serving stale plans' costs.
        """
        from repro.backend.cache import stable_digest

        identity = super().cache_identity()
        identity["dsn"] = stable_digest(self._pool.dsn)[:16]
        identity["schema"] = self._pg_schema or ""
        identity.update(self.server_info())
        return identity

    def _evaluate(self, prepared: PreparedQuery, key: frozenset[Index]) -> float:
        sql = self._sql[prepared.qid]
        return self._run(lambda session: session.cost(sql, key))

    def _price_shard(
        self, shard: list[tuple[str, PreparedQuery, frozenset[Index]]]
    ) -> list[float]:
        """Price one batch-wave shard on a single pooled session.

        The :attr:`pricing_jobs` shards of a wave borrow distinct pooled
        connections, so EXPLAIN round-trips overlap on the server; within
        a shard, pairs are grouped by (normalized) configuration so each
        hypothetical-index set is synced once, and the session's diffed
        hypothetical-index state carries over to the connection's next
        shard. Stats, budget, and cache commits stay with the serial
        commit loop.
        """
        groups: dict[frozenset[Index], list[int]] = {}
        for position, (_, _, norm) in enumerate(shard):
            groups.setdefault(norm, []).append(position)
        costs: list[float] = [0.0] * len(shard)

        def price_all(session: PostgresSession) -> None:
            for norm, positions in groups.items():
                for position in positions:
                    qid, _, _ = shard[position]
                    costs[position] = session.cost(self._sql[qid], norm)

        self._run(price_all)
        return costs

    def explain(self, query: Query, configuration) -> PostgresPlan:
        """The live hypothetical plan behind a what-if cost (uncounted)."""
        norm = self._normalized_key(query, configuration)
        sql = self._sql[query.qid]
        return self._run(lambda session: session.plan(sql, norm))

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """``hypopg_reset`` pooled sessions, close them, flush the cache."""
        self._pool.close_all(finalize=_reset_session)
        super().close()


def _reset_session(session: PostgresSession) -> None:
    session.reset()
