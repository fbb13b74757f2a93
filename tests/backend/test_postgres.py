"""Offline tests for the Postgres/HypoPG backend and its dbms layer.

No live server and no ``psycopg``: everything runs against canned
planner output and a fake driver connection that emulates the handful of
statements the backend issues (HypoPG calls, ``EXPLAIN (FORMAT JSON)``,
version probes, loader DDL). The live-DBMS counterpart of this file is
``test_postgres_live.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.backend import BACKEND_NAMES, BACKENDS, BackendSpec, build_backend
from repro.backend.dbms import (
    ConnectionPool,
    HypoIndexState,
    create_table_sql,
    hypo_index_ddl,
    materialize_workload,
    parse_plan,
    plan_total_cost,
    psycopg_available,
    row_values,
    scaled_rows,
    with_retry,
)
from repro.backend.dbms.connection import POOL_SIZE
from repro.backend.postgres import PostgresBackend
from repro.catalog import Index
from repro.config import ReproConfig
from repro.exceptions import (
    BackendUnavailableError,
    OptimizerError,
    TraceMissError,
    TuningError,
)

# --------------------------------------------------------------------- #
# fake driver
# --------------------------------------------------------------------- #


class FakeServer:
    """Shared state behind every fake connection: costs and counters."""

    def __init__(self):
        self.connects = 0
        self.explains = 0
        self.creates = 0
        self.drops = 0
        self.statements: list[str] = []

    def cost_of(self, sql: str, hypo_ddls: frozenset[str]) -> float:
        # Deterministic, configuration-sensitive, and cheaper with more
        # hypothetical indexes — close enough to a planner for tests.
        return 1000.0 + float(len(sql)) - 7.5 * len(hypo_ddls)


class FakeCursor:
    def __init__(self, conn):
        self._conn = conn

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def execute(self, sql, params=None):
        conn, server = self._conn, self._conn.server
        server.statements.append(sql)
        self._row = None
        if sql.startswith("SELECT indexrelid FROM hypopg_create_index"):
            server.creates += 1
            conn.next_oid += 1
            conn.hypo[conn.next_oid] = params[0]
            self._row = (conn.next_oid,)
        elif sql.startswith("SELECT hypopg_drop_index"):
            server.drops += 1
            del conn.hypo[params[0]]
            self._row = (True,)
        elif sql.startswith("SELECT hypopg_reset"):
            conn.hypo.clear()
            self._row = (None,)
        elif sql.startswith("EXPLAIN (FORMAT JSON) "):
            server.explains += 1
            cost = server.cost_of(
                sql[len("EXPLAIN (FORMAT JSON) "):],
                frozenset(conn.hypo.values()),
            )
            self._row = (
                [{"Plan": {"Node Type": "Seq Scan", "Total Cost": cost}}],
            )
        elif sql == "SHOW server_version":
            self._row = ("16.9",)
        elif sql.startswith("SELECT extversion"):
            self._row = ("1.4.1",)
        # Loader DDL / SET / ANALYZE / CREATE EXTENSION: recorded, no rows.

    def executemany(self, sql, rows):
        self._conn.server.statements.append(sql)
        self._conn.inserted += len(rows)

    def fetchone(self):
        return self._row


class FakeConnection:
    def __init__(self, server):
        self.server = server
        self.server.connects += 1
        self.hypo: dict[int, str] = {}
        self.next_oid = 10000
        self.inserted = 0
        self.closed = False

    def cursor(self):
        return FakeCursor(self)

    def close(self):
        self.closed = True


@pytest.fixture
def server():
    return FakeServer()


@pytest.fixture
def make_pg(server, toy_workload):
    """Factory for a PostgresBackend wired to the fake server."""

    def make(**kwargs):
        return build_backend(
            BackendSpec(name="postgres", pg_dsn="postgresql://fake/db"),
            toy_workload,
            connector=lambda dsn: FakeConnection(server),
            **kwargs,
        )

    return make


# --------------------------------------------------------------------- #
# registry, spec and env plumbing
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_registered_last_in_registry(self):
        assert BACKEND_NAMES[-1] == "postgres"
        assert BACKENDS["postgres"] is PostgresBackend

    def test_declares_non_monotonic(self):
        # A real optimizer does not promise Assumption 1.
        assert PostgresBackend.monotonic is False

    def test_spec_without_dsn_is_valid_but_unbuildable(
        self, toy_workload, monkeypatch
    ):
        monkeypatch.delenv("REPRO_PG_DSN", raising=False)
        spec = BackendSpec(name="postgres")  # defers DSN to build time
        with pytest.raises(TuningError, match="REPRO_PG_DSN"):
            build_backend(spec, toy_workload, connector=FakeConnection)

    def test_env_dsn_fallback(self, toy_workload, server, monkeypatch):
        monkeypatch.setenv("REPRO_PG_DSN", "postgresql://from-env/db")
        backend = build_backend(
            BackendSpec(name="postgres"),
            toy_workload,
            connector=lambda dsn: FakeConnection(server),
        )
        assert backend.dsn == "postgresql://from-env/db"

    def test_explicit_dsn_beats_env(self, toy_workload, server, monkeypatch):
        monkeypatch.setenv("REPRO_PG_DSN", "postgresql://from-env/db")
        backend = build_backend(
            BackendSpec(name="postgres", pg_dsn="postgresql://explicit/db"),
            toy_workload,
            connector=lambda dsn: FakeConnection(server),
        )
        assert backend.dsn == "postgresql://explicit/db"

    @pytest.mark.skipif(
        psycopg_available(), reason="psycopg installed; the gate stays open"
    )
    def test_missing_driver_error_is_actionable(self, toy_workload):
        with pytest.raises(BackendUnavailableError) as err:
            build_backend(
                BackendSpec(name="postgres", pg_dsn="postgresql://x/y"),
                toy_workload,
            )
        message = str(err.value)
        assert "repro[postgres]" in message
        assert "REPRO_PG_DSN" in message


# --------------------------------------------------------------------- #
# EXPLAIN JSON parsing (canned planner output, no server)
# --------------------------------------------------------------------- #

CANNED_PLAN = [
    {
        "Plan": {
            "Node Type": "Nested Loop",
            "Total Cost": 123.75,
            "Plan Rows": 10,
            "Plans": [
                {
                    "Node Type": "Index Scan",
                    "Total Cost": 8.5,
                    "Plan Rows": 10,
                    "Relation Name": "fact",
                    "Index Name": "<13542>btree_fact_fk1",
                },
                {
                    "Node Type": "Seq Scan",
                    "Total Cost": 35.0,
                    "Plan Rows": 1000,
                    "Relation Name": "dim1",
                },
            ],
        }
    }
]


class TestExplainParsing:
    def test_total_cost_from_list_payload(self):
        assert plan_total_cost(CANNED_PLAN) == 123.75

    def test_total_cost_from_json_text(self):
        assert plan_total_cost(json.dumps(CANNED_PLAN)) == 123.75

    def test_total_cost_from_bare_node(self):
        assert plan_total_cost({"Node Type": "Result", "Total Cost": 1.5}) == 1.5

    def test_missing_cost_raises(self):
        with pytest.raises(OptimizerError):
            plan_total_cost([{"Plan": {"Node Type": "Result"}}])

    def test_non_numeric_cost_raises(self):
        with pytest.raises(OptimizerError):
            plan_total_cost([{"Plan": {"Total Cost": True}}])

    def test_parse_plan_structure(self):
        plan = parse_plan(CANNED_PLAN)
        assert plan.total_cost == 123.75
        assert plan.root.node_type == "Nested Loop"
        children = plan.root.children
        assert [c.relation for c in children] == ["fact", "dim1"]
        assert plan.indexes_used() == ("<13542>btree_fact_fk1",)
        rendered = plan.render()
        assert "Nested Loop" in rendered
        assert "Index Scan" in rendered


# --------------------------------------------------------------------- #
# hypothetical-index DDL and per-connection sync
# --------------------------------------------------------------------- #


@pytest.fixture
def fact_indexes(star_schema):
    fact = next(t for t in star_schema.tables if t.name == "fact")
    return (
        Index.build(fact, ["fk1"]),
        Index.build(fact, ["fk2"], include_columns=["val"]),
    )


class TestHypo:
    def test_ddl_plain(self, fact_indexes):
        assert hypo_index_ddl(fact_indexes[0]) == "CREATE INDEX ON fact (fk1)"

    def test_ddl_include(self, fact_indexes):
        assert (
            hypo_index_ddl(fact_indexes[1])
            == "CREATE INDEX ON fact (fk2) INCLUDE (val)"
        )

    def test_sync_diffs_instead_of_rebuilding(self, server, fact_indexes):
        conn = FakeConnection(server)
        state = HypoIndexState()
        one, two = fact_indexes
        assert state.sync(conn, frozenset([one])) == (1, 0)
        # Growing by one index creates one, drops nothing.
        assert state.sync(conn, frozenset([one, two])) == (1, 0)
        assert state.live == frozenset([one, two])
        assert set(conn.hypo.values()) == {
            hypo_index_ddl(one), hypo_index_ddl(two)
        }
        # Shrinking drops only the stale index.
        assert state.sync(conn, frozenset([two])) == (0, 1)
        assert set(conn.hypo.values()) == {hypo_index_ddl(two)}
        # No diff, no statements.
        before = server.creates + server.drops
        assert state.sync(conn, frozenset([two])) == (0, 0)
        assert server.creates + server.drops == before

    def test_reset_clears_connection_and_state(self, server, fact_indexes):
        conn = FakeConnection(server)
        state = HypoIndexState()
        state.sync(conn, frozenset(fact_indexes))
        state.reset(conn)
        assert state.live == frozenset()
        assert conn.hypo == {}

    def test_missing_extension_raises(self, fact_indexes):
        class NoHypoCursor(FakeCursor):
            def fetchone(self):
                return None

        class NoHypoConn(FakeConnection):
            def cursor(self):
                return NoHypoCursor(self)

        conn = NoHypoConn(FakeServer())
        with pytest.raises(OptimizerError, match="hypopg"):
            HypoIndexState().sync(conn, frozenset(fact_indexes[:1]))


# --------------------------------------------------------------------- #
# schema/data loader
# --------------------------------------------------------------------- #


class TestLoader:
    def test_create_table_sql_types(self, star_schema):
        fact = next(t for t in star_schema.tables if t.name == "fact")
        drop, create = create_table_sql(fact)
        assert drop == "DROP TABLE IF EXISTS fact CASCADE"
        assert create.startswith("CREATE TABLE fact (")
        assert "fk1 integer" in create
        assert "val double precision" in create
        assert "cat text" in create

    def test_row_values_are_deterministic_and_in_domain(self, star_schema):
        fact = next(t for t in star_schema.tables if t.name == "fact")
        assert row_values(fact, 17) == row_values(fact, 17)
        for i in (0, 1, 999, 54321):
            for column, value in zip(fact.columns, row_values(fact, i)):
                if isinstance(value, str):
                    k = int(value[1:])
                    assert 0 <= k < column.stats.distinct_count
                elif isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    assert column.stats.min_value <= value <= column.stats.max_value

    def test_scaled_rows_clamps(self, star_schema):
        fact = next(t for t in star_schema.tables if t.name == "fact")
        assert scaled_rows(fact, scale=1.0, max_rows=100) == 100
        assert scaled_rows(fact, scale=1e-9) == 1
        assert scaled_rows(fact, scale=0.01, max_rows=10**9) == 10_000

    def test_materialize_workload_loads_every_table(self, server, toy_workload):
        counts = materialize_workload(
            "postgresql://fake/db",
            toy_workload,
            scale=0.001,
            connect=lambda dsn: FakeConnection(server),
        )
        assert set(counts) == {t.name for t in toy_workload.schema.tables}
        assert all(rows >= 1 for rows in counts.values())
        assert any(
            s.startswith("CREATE EXTENSION IF NOT EXISTS hypopg")
            for s in server.statements
        )


# --------------------------------------------------------------------- #
# retry and pooling
# --------------------------------------------------------------------- #


class Transient(Exception):
    pass


class TestRetry:
    def test_retries_transients_with_backoff(self):
        sleeps: list[float] = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise Transient("link dropped")
            return "ok"

        result = with_retry(
            flaky,
            retries=2,
            backoff=0.1,
            transient=(Transient,),
            sleep=sleeps.append,
        )
        assert result == "ok"
        assert sleeps == [0.1, 0.2]  # exponential

    def test_non_transient_raises_immediately(self):
        def broken():
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            with_retry(broken, transient=(Transient,), sleep=lambda s: None)

    def test_exhausted_retries_raise_last_error(self):
        def always_down():
            raise Transient("still down")

        with pytest.raises(Transient):
            with_retry(
                always_down, retries=2, transient=(Transient,),
                sleep=lambda s: None,
            )


class TestConnectionPool:
    def test_empty_dsn_rejected(self):
        with pytest.raises(BackendUnavailableError):
            ConnectionPool("")

    def test_lazy_open_and_reuse(self, server):
        pool = ConnectionPool(
            "postgresql://fake/db", connect=lambda dsn: FakeConnection(server)
        )
        assert server.connects == 0  # nothing opens in __init__
        with pool.session():
            pass
        with pool.session():
            pass
        assert server.connects == 1  # parked and reused

    def test_parks_up_to_pool_size_connections(self, server):
        from contextlib import ExitStack

        pool = ConnectionPool(
            "postgresql://fake/db", connect=lambda dsn: FakeConnection(server)
        )
        for _ in range(2):  # two waves of overlapping sessions
            with ExitStack() as stack:
                for _ in range(POOL_SIZE + 1):
                    stack.enter_context(pool.session())
        # Each wave parks POOL_SIZE connections and closes the extra one, so
        # the second wave opens just one fresh connection.
        assert server.connects == POOL_SIZE + 2

    def test_discard_on_session_error(self, server):
        pool = ConnectionPool(
            "postgresql://fake/db", connect=lambda dsn: FakeConnection(server)
        )
        with pytest.raises(Transient):
            with pool.session():
                raise Transient("mid-session failure")
        with pool.session():
            pass
        assert server.connects == 2  # the failed connection was not reused

    def test_setup_runs_on_fresh_connections(self, server):
        pool = ConnectionPool(
            "postgresql://fake/db",
            schema="bench",
            connect=lambda dsn: FakeConnection(server),
            setup=("SET geqo TO off",),
        )
        with pool.session():
            pass
        assert 'SET search_path TO "bench", public' in server.statements
        assert "SET geqo TO off" in server.statements

    def test_close_all_finalizes_and_closes(self, server):
        pool = ConnectionPool(
            "postgresql://fake/db", connect=lambda dsn: FakeConnection(server)
        )
        with pool.session() as conn:
            kept = conn
        finalized = []
        pool.close_all(finalize=finalized.append)
        assert finalized == [kept]
        assert kept.closed


# --------------------------------------------------------------------- #
# the backend end to end (fake connector)
# --------------------------------------------------------------------- #


class TestPostgresBackend:
    def test_counts_and_caches(self, make_pg, toy_workload, fact_indexes):
        backend = make_pg(budget=10)
        query = toy_workload.queries[0]
        config = frozenset(fact_indexes)
        first = backend.whatif_cost(query, config)
        used = backend.calls_used
        assert backend.whatif_cost(query, config) == first
        assert backend.calls_used == used

    def test_costs_deterministic_across_instances(
        self, make_pg, toy_workload, fact_indexes
    ):
        def script(backend):
            return [
                backend.whatif_cost(query, frozenset(combo))
                for query in toy_workload.queries[:4]
                for combo in ([], fact_indexes[:1], fact_indexes)
            ]

        assert script(make_pg()) == script(make_pg())

    def test_prefetch_syncs_each_distinct_config_once(
        self, server, make_pg, toy_workload, fact_indexes, monkeypatch
    ):
        # One job: concurrent shards each sync the group on their own
        # connection, so the count is only "one" by design when serial.
        monkeypatch.setattr(PostgresBackend, "pricing_jobs", 1)
        backend = make_pg()
        config = frozenset(fact_indexes[:1])
        queries = [
            q
            for q in toy_workload.queries
            if backend._normalized_key(q, config) == config
        ]
        assert len(queries) >= 2, "toy workload lost its fact-table queries"
        before = server.creates
        backend.whatif_prefetch([(q, config) for q in queries])
        # One shared sync for the whole group, not one per query.
        assert server.creates - before == len(config)
        assert backend.stats.batch_calls == 1

    def test_explain_returns_live_plan(self, make_pg, toy_workload, fact_indexes):
        backend = make_pg()
        plan = backend.explain(toy_workload.queries[0], frozenset(fact_indexes))
        assert plan.total_cost > 0
        assert "Seq Scan" in plan.render()

    def test_server_info(self, make_pg):
        info = make_pg().server_info()
        assert info == {"server_version": "16.9", "hypopg_version": "1.4.1"}

    def test_close_resets_hypothetical_state(self, server, make_pg, toy_workload):
        backend = make_pg()
        backend.whatif_cost(toy_workload.queries[0], frozenset())
        backend.close()
        assert any(
            s.startswith("SELECT hypopg_reset") for s in server.statements
        )

    def test_transient_errors_retry_on_fresh_connection(
        self, server, toy_workload
    ):
        failures = {"left": 2}

        def flaky_connector(dsn):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise Transient("server still starting")
            return FakeConnection(server)

        backend = build_backend(
            BackendSpec(name="postgres", pg_dsn="postgresql://fake/db"),
            toy_workload,
            connector=flaky_connector,
            transient=(Transient,),
            backoff=0.0,
        )
        cost = backend.whatif_cost(toy_workload.queries[0], frozenset())
        assert cost > 0
        assert failures["left"] == 0


# --------------------------------------------------------------------- #
# record on postgres (through the what-if cache) -> replay offline,
# bit-identically
# --------------------------------------------------------------------- #


def _pg_recorder(server, workload, cache):
    return build_backend(
        BackendSpec(name="postgres", pg_dsn="postgresql://fake/db"),
        workload,
        config=ReproConfig(whatif_cache=str(cache)),
        connector=lambda dsn: FakeConnection(server),
    )


class TestTraceComposition:
    def test_recorded_trace_replays_without_live_costs(
        self, server, toy_workload, fact_indexes, tmp_path, monkeypatch
    ):
        recorder = _pg_recorder(server, toy_workload, tmp_path / "pcache")
        configs = [frozenset(), frozenset(fact_indexes[:1]), frozenset(fact_indexes)]
        live = [
            recorder.whatif_cost(query, config)
            for query in toy_workload.queries
            for config in configs
        ]
        recorder.close()  # flushes the shard
        trace = recorder.whatif_shard
        assert trace.exists()
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["identity"]["backend"] == "postgres"

        # Replay must never touch the analytic model or the server.
        from repro.optimizer.cost_model import CostModel

        def boom(*args, **kwargs):
            raise AssertionError("replay must not price anything")

        monkeypatch.setattr(CostModel, "cost", boom)
        connects_before = server.connects
        replayer = build_backend(
            BackendSpec(name="replay", trace_path=str(trace)), toy_workload
        )
        replayed = [
            replayer.whatif_cost(query, config)
            for query in toy_workload.queries
            for config in configs
        ]
        assert replayed == live
        assert server.connects == connects_before

    def test_replay_misses_raise_instead_of_falling_back(
        self, server, toy_workload, fact_indexes, tmp_path
    ):
        recorder = _pg_recorder(server, toy_workload, tmp_path / "pcache")
        recorder.whatif_cost(toy_workload.queries[0], frozenset())
        recorder.close()
        replayer = build_backend(
            BackendSpec(name="replay", trace_path=str(recorder.whatif_shard)),
            toy_workload,
        )
        with pytest.raises(TraceMissError):
            replayer.whatif_cost(
                toy_workload.queries[0], frozenset(fact_indexes)
            )


# --------------------------------------------------------------------- #
# concurrent pricing over the pool
# --------------------------------------------------------------------- #


class TestConcurrentShards:
    def test_shards_price_on_distinct_pooled_connections(
        self, server, toy_workload, fact_indexes, monkeypatch
    ):
        """Two pricing shards overlap on two distinct pooled connections.

        Each fake connection parks on a barrier inside its first
        ``EXPLAIN``; the barrier only releases when *both* shard sessions
        are inside the planner at the same time. A pool that serialized
        the shards onto one connection would trip the 10s barrier
        timeout (``BrokenBarrierError``) instead of passing.
        """
        import threading

        barrier = threading.Barrier(2, timeout=10.0)

        class SyncCursor(FakeCursor):
            def execute(self, sql, params=None):
                conn = self._conn
                if sql.startswith("EXPLAIN") and not conn.rendezvoused:
                    conn.rendezvoused = True
                    barrier.wait()
                super().execute(sql, params)

        class SyncConnection(FakeConnection):
            def __init__(self, srv):
                super().__init__(srv)
                self.rendezvoused = False

            def cursor(self):
                return SyncCursor(self)

        monkeypatch.setattr(PostgresBackend, "pricing_jobs", 2)
        backend = build_backend(
            BackendSpec(name="postgres", pg_dsn="postgresql://fake/db"),
            toy_workload,
            connector=lambda dsn: SyncConnection(server),
        )
        configs = [
            frozenset(),
            frozenset(fact_indexes[:1]),
            frozenset(fact_indexes[1:]),
            frozenset(fact_indexes),
        ]
        pairs = [
            (query, config)
            for query in toy_workload.queries[:3]
            for config in configs
        ]
        granted = backend.whatif_prefetch(pairs)
        assert granted >= 2
        assert server.connects == 2

    def test_concurrent_costs_match_serial(
        self, server, toy_workload, fact_indexes, monkeypatch
    ):
        def costs(jobs):
            monkeypatch.setattr(PostgresBackend, "pricing_jobs", jobs)
            backend = build_backend(
                BackendSpec(name="postgres", pg_dsn="postgresql://fake/db"),
                toy_workload,
                connector=lambda dsn: FakeConnection(server),
            )
            configs = [frozenset(), frozenset(fact_indexes)]
            pairs = [
                (query, config)
                for query in toy_workload.queries
                for config in configs
            ]
            backend.whatif_prefetch(pairs)
            out = [backend.whatif_cost(q, c) for q, c in pairs]
            log = backend.call_log
            backend.close()
            return out, log

        serial_costs, serial_log = costs(1)
        pooled_costs, pooled_log = costs(POOL_SIZE)
        assert pooled_costs == serial_costs
        assert pooled_log == serial_log
