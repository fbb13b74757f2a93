"""Optional-dependency gate, retry policy, and connection pooling.

The ``psycopg`` driver is an *extra* (``pip install 'repro[postgres]'``):
nothing in this module imports it at module scope, so the library — and
every other backend, including replaying a recorded Postgres trace —
works on an installation without it. The single import point is
:func:`require_psycopg`, which converts an ``ImportError`` into an
actionable :class:`~repro.exceptions.BackendUnavailableError`.

:class:`ConnectionPool` accepts an injectable ``connect`` callable so the
pool, the retry loop, and everything built on them unit-test against fake
connections without a server.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.exceptions import BackendUnavailableError

#: Install hint threaded into every missing-driver error.
PSYCOPG_HINT = (
    "the postgres backend requires the optional 'psycopg' driver; "
    "install it with `pip install 'repro[postgres]'` "
    "(or `pip install \"psycopg[binary]\"`) and point REPRO_PG_DSN at a "
    "server with the hypopg extension"
)

#: Connections a :class:`ConnectionPool` parks for reuse. The postgres
#: backend prices batch waves on this many jobs, so every concurrent shard
#: finds a parked connection, and its HypoPG state, from the last wave.
POOL_SIZE = 4


def psycopg_available() -> bool:
    """Whether the optional ``psycopg`` driver is importable."""
    try:
        import psycopg  # noqa: F401
    except ImportError:
        return False
    return True


def require_psycopg():
    """Import and return ``psycopg``, or raise an actionable error.

    Raises:
        BackendUnavailableError: When the driver is not installed; the
            message names the extra that provides it.
    """
    try:
        import psycopg
    except ImportError as exc:
        raise BackendUnavailableError(PSYCOPG_HINT) from exc
    return psycopg


def transient_errors() -> tuple[type[BaseException], ...]:
    """Driver exception types worth retrying (connection-level failures).

    Empty when the driver is absent — callers running against injected
    fake connections pass their own ``transient`` tuple instead.
    """
    try:
        import psycopg
    except ImportError:
        return ()
    return (psycopg.OperationalError, psycopg.InterfaceError)


def with_retry(
    fn: Callable[[], object],
    *,
    retries: int = 2,
    backoff: float = 0.05,
    transient: tuple[type[BaseException], ...] | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``fn()``, retrying transient errors with exponential backoff.

    Args:
        fn: Zero-argument callable; must be safe to re-run (the backend
            wraps whole pool sessions, so a retry reconnects from scratch).
        retries: Maximum number of *re*-tries after the first attempt.
        backoff: Initial sleep in seconds; doubles per retry.
        transient: Exception types to retry; defaults to the driver's
            connection-level errors (:func:`transient_errors`).
        on_retry: Optional ``on_retry(attempt, exc)`` observer.
        sleep: Injectable sleep for tests.

    Raises:
        The last transient error once retries are exhausted; non-transient
        errors propagate immediately.
    """
    kinds = transient_errors() if transient is None else tuple(transient)
    attempt = 0
    while True:
        try:
            return fn()
        except Exception as exc:
            if not kinds or not isinstance(exc, kinds) or attempt >= retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(backoff * (2**attempt))
            attempt += 1


class ConnectionPool:
    """A small lazy pool of connections to one DSN.

    Connections are opened on demand (never in ``__init__`` — backends
    holding a pool stay picklable-by-construction until first use) and
    parked for reuse when a session exits cleanly, up to
    :data:`POOL_SIZE` of them (extras are closed on release). A session
    that raises discards its connection: the error may be a dropped link,
    and pooled hypothetical-index state on a half-failed connection is
    not worth trusting.

    Args:
        dsn: Connection string (``postgresql://...``).
        schema: Optional schema set as ``search_path`` on fresh
            connections.
        connect: Injectable ``connect(dsn) -> connection`` callable; the
            default imports ``psycopg`` (autocommit — EXPLAIN and HypoPG
            calls never need transactions, and hypothetical indexes are
            session-scoped, not transaction-scoped).
        setup: Extra SQL statements run once per fresh connection (e.g.
            ``SET geqo TO off`` for plan determinism).
    """

    def __init__(
        self,
        dsn: str,
        *,
        schema: str | None = None,
        connect: Callable[[str], object] | None = None,
        setup: tuple[str, ...] = (),
    ):
        if not dsn:
            raise BackendUnavailableError(
                "postgres connection pool needs a DSN "
                "(--pg-dsn / REPRO_PG_DSN); " + PSYCOPG_HINT
            )
        self._dsn = dsn
        self._schema = schema
        self._connect = connect
        self._setup = tuple(setup)
        self._idle: list = []
        self._lock = threading.Lock()

    @property
    def dsn(self) -> str:
        return self._dsn

    @property
    def schema(self) -> str | None:
        return self._schema

    def _open(self):
        if self._connect is not None:
            conn = self._connect(self._dsn)
        else:
            psycopg = require_psycopg()
            conn = psycopg.connect(self._dsn, autocommit=True)
        statements = list(self._setup)
        if self._schema:
            statements.insert(0, f'SET search_path TO "{self._schema}", public')
        if statements:
            with conn.cursor() as cur:
                for statement in statements:
                    cur.execute(statement)
        return conn

    @contextmanager
    def session(self) -> Iterator:
        """Borrow a connection; parked on clean exit, discarded on error."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._open()
        try:
            yield conn
        except BaseException:
            self.discard(conn)
            raise
        else:
            with self._lock:
                if len(self._idle) < POOL_SIZE:
                    self._idle.append(conn)
                    conn = None
            if conn is not None:
                _close_quietly(conn)

    def discard(self, conn) -> None:
        """Close a connection without returning it to the pool."""
        _close_quietly(conn)

    def close_all(self, finalize: Callable[[object], None] | None = None) -> None:
        """Close every idle connection, running ``finalize(conn)`` first.

        ``finalize`` failures are swallowed: teardown (e.g.
        ``hypopg_reset``) must not mask the session's real outcome, and
        closing the connection releases the hypothetical indexes anyway.
        """
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            if finalize is not None:
                try:
                    finalize(conn)
                # Teardown only: no counted call runs here, and a failed
                # hypopg_reset must not mask the session's real outcome.
                except Exception:  # repro-lint: off[REP002]
                    pass
            _close_quietly(conn)


def _close_quietly(conn) -> None:
    try:
        conn.close()
    # A connection that fails to close is already gone; no budget-counted
    # call can raise through close().
    except Exception:  # repro-lint: off[REP002]
        pass
