"""Persistent cross-session what-if cache: the repo's one cost store.

One append-only JSONL shard file per *backend fingerprint*: a header line
carrying the fingerprint and the identity facts it hashes, then
``{"type": "cost", "qid": ..., "key": [...], "cost": ...}`` lines. ``key``
is the *canonical configuration key* (:func:`canonical_key`): the sorted
:meth:`~repro.catalog.Index.display` strings of the normalized
configuration the cost was priced under. Python's JSON float round-trip
is exact, so a recalled cost is bit-identical to the pricing that wrote
it. Repeated eval grids point sessions at the same directory
(``--whatif-cache``, ``REPRO_WHATIF_CACHE``, default ``~/.cache/repro``)
and skip already-priced pairs entirely.

A shard is also a session's record: every fresh pricing of a session run
with ``--whatif-cache DIR`` (ground truth included) lands in its shard,
and ``--backend replay --backend-trace SHARD`` serves the same session
from that file alone (:meth:`PersistentWhatIfCache.open_shard`,
:class:`~repro.backend.replay.ReplayBackend`).

Discipline (REP001/REP101): the cache sits at the *pricing* seam, below
the in-memory what-if cache and the budget policy. A persistent hit
replaces the cost-model (or EXPLAIN round-trip) work of a call — never
its budget charge, cache commit, call-log entry, or ``whatif_call``
event. Warm sessions therefore produce bit-identical budget accounting
and event streams to cold ones while re-pricing zero pairs; the only
observable differences are the :class:`~repro.optimizer.whatif.WhatIfStats`
``persistent_hits`` counter and wall time.

Keying and invalidation: the fingerprint hashes everything a pricing
depends on — backend name (shards are never shared across backends),
workload content (qids, SQL, weights) and catalog statistics; noisy adds
its seed, postgres its DSN/schema/server identity. Keys are always
normalized (DESIGN §1), so no setting of the engine enters it. Any change
lands in a fresh shard file, so stale costs are unreachable rather than
detected. Files are append-only and duplicate-tolerant: concurrent seed
workers append whole lines to the same shard, and the loader keeps the
last occurrence and skips malformed tails.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.catalog import Index
from repro.exceptions import TraceError

#: Bump when the shard-file layout changes; mismatched files are ignored
#: (and rewritten on the next flush) rather than migrated.
CACHE_FORMAT_VERSION = 1

#: ``--whatif-cache`` values that select the default directory.
_DEFAULT_SELECTORS = frozenset({"1", "default", "auto"})

#: A canonical configuration key: sorted index display strings.
TraceKey = tuple[str, ...]


def canonical_key(key: frozenset[Index] | frozenset) -> TraceKey:
    """Serialise a configuration into its canonical shard key."""
    return tuple(sorted(ix.display() for ix in key))


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` by default)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro"


def resolve_cache_dir(selection: str | Path) -> Path:
    """Map a ``--whatif-cache`` value to a directory path."""
    text = str(selection)
    if text in _DEFAULT_SELECTORS:
        return default_cache_dir()
    return Path(text).expanduser()


def stable_digest(payload) -> str:
    """sha256 hex digest of a JSON-serialisable payload, key-order stable."""
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def workload_fingerprint(workload) -> str:
    """Content hash over the workload's queries and catalog statistics.

    Two workloads with the same name but different scale factors (and so
    different row counts / NDVs) must land in different shard files: the
    analytic cost of a pair depends on the statistics, not just the SQL.
    """
    schema = workload.schema
    tables = [
        [
            table.name,
            table.row_count,
            [
                [
                    column.name,
                    column.ctype.value,
                    column.stats.distinct_count,
                    column.stats.min_value,
                    column.stats.max_value,
                    column.stats.null_fraction,
                    column.stats.avg_width,
                ]
                for column in table.columns
            ],
        ]
        for table in schema.tables
    ]
    keys = [
        [fk.child_table, fk.child_column, fk.parent_table, fk.parent_column]
        for fk in schema.foreign_keys
    ]
    queries = [[query.qid, query.sql, query.weight] for query in workload]
    return stable_digest(
        {
            "workload": workload.name,
            "schema": schema.name,
            "tables": tables,
            "foreign_keys": keys,
            "queries": queries,
        }
    )


def identity_fingerprint(identity: dict) -> str:
    """The shard-selecting fingerprint of a backend identity mapping."""
    return stable_digest(identity)


class PersistentWhatIfCache:
    """One fingerprint's shard file: lazy load, lookups, append flush.

    Args:
        directory: Cache directory (or a ``--whatif-cache`` selector such
            as ``default``); the shard file inside it is named
            ``whatif-<fingerprint[:16]>.jsonl``.
        identity: Backend identity facts (see
            :meth:`~repro.optimizer.whatif.WhatIfOptimizer.cache_identity`);
            hashed into the fingerprint and echoed in the header for
            debugging.

    The file is read once, on first lookup; :meth:`flush` appends only
    entries not yet on disk, so concurrent writers interleave whole lines
    without clobbering each other. An unreadable, foreign, or
    version-mismatched file is treated as empty and rewritten wholesale on
    the next flush.
    """

    def __init__(self, directory: str | Path, identity: dict):
        self._dir = resolve_cache_dir(directory)
        self._identity = dict(identity)
        self._fingerprint = identity_fingerprint(self._identity)
        self._path = self._dir / f"whatif-{self._fingerprint[:16]}.jsonl"
        self._costs: dict[tuple[str, TraceKey], float] | None = None
        self._fresh: dict[tuple[str, TraceKey], float] = {}
        self._rewrite = False

    @classmethod
    def open_shard(cls, path: str | Path) -> "PersistentWhatIfCache":
        """Open an existing shard file under the identity its header records.

        Only the header line is read here; the costs load lazily on the
        first lookup, like any shard's (a torn line is skipped then).

        Raises:
            TraceError: When the file is unreadable or its first line is
                not a current shard header.
        """
        shard_path = Path(path)
        try:
            with open(shard_path, encoding="utf-8") as handle:
                first = handle.readline()
        except OSError as exc:
            raise TraceError(f"cannot read what-if shard {shard_path}: {exc}") from exc
        try:
            header = json.loads(first)
        except ValueError:
            header = None
        identity = header.get("identity") if isinstance(header, dict) else None
        if not (
            isinstance(identity, dict)
            and header.get("type") == "header"
            and header.get("cache_version") == CACHE_FORMAT_VERSION
            and header.get("fingerprint") == identity_fingerprint(identity)
        ):
            raise TraceError(f"{shard_path}: no current what-if shard header line")
        shard = cls(shard_path.parent, identity)
        shard._dir, shard._path = shard_path.parent, shard_path
        return shard

    @property
    def path(self) -> Path:
        """The shard file backing this cache."""
        return self._path

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def identity(self) -> dict:
        """The backend identity facts the fingerprint hashes."""
        return self._identity

    @property
    def pending(self) -> int:
        """Entries accumulated since the last flush."""
        return len(self._fresh)

    def __len__(self) -> int:
        return len(self._load())

    def _load(self) -> dict[tuple[str, TraceKey], float]:
        if self._costs is not None:
            return self._costs
        costs: dict[tuple[str, TraceKey], float] = {}
        self._costs = costs
        try:
            text = self._path.read_text(encoding="utf-8")
        except OSError:
            return costs
        header_ok = False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn concurrent append; drop the partial line
            if not isinstance(entry, dict):
                continue
            kind = entry.get("type")
            if kind == "header":
                header_ok = (
                    entry.get("cache_version") == CACHE_FORMAT_VERSION
                    and entry.get("fingerprint") == self._fingerprint
                )
                if not header_ok:
                    break
                continue
            if not header_ok or kind != "cost":
                continue
            try:
                qid = entry["qid"]
                key = tuple(entry["key"])
                cost = float(entry["cost"])
            except (KeyError, TypeError, ValueError):
                continue
            costs[(qid, key)] = cost
        if not header_ok:
            # Foreign or stale file at our shard name: ignore its contents
            # and replace it wholesale on the next flush.
            costs.clear()
            self._rewrite = True
        return costs

    def lookup(
        self, qid: str, key: frozenset[Index]
    ) -> tuple[float | None, tuple[str, TraceKey]]:
        """A pair's persisted cost (``None`` on a miss) and its shard entry.

        The entry is the pair under its canonical key, built once here; a
        miss's fresh pricing is stored under it with :meth:`put_entry`.
        """
        entry = (qid, canonical_key(key))
        return self._load().get(entry), entry

    def put_entry(self, entry: tuple[str, TraceKey], cost: float) -> None:
        """Remember a fresh pricing under the entry :meth:`lookup` returned
        (queued for the next :meth:`flush`)."""
        costs = self._load()
        if entry in costs:
            return
        costs[entry] = cost
        self._fresh[entry] = cost

    def _header_line(self) -> str:
        return json.dumps(
            {
                "type": "header",
                "cache_version": CACHE_FORMAT_VERSION,
                "fingerprint": self._fingerprint,
                "identity": self._identity,
            },
            sort_keys=True,
        )

    @staticmethod
    def _cost_line(qid: str, key: TraceKey, cost: float) -> str:
        return json.dumps(
            {"type": "cost", "qid": qid, "key": list(key), "cost": cost},
            sort_keys=True,
        )

    def flush(self) -> int:
        """Write accumulated entries to the shard file; returns lines added.

        Fresh entries are appended in sorted order (deterministic files for
        deterministic runs); the header is written when the file is new or
        being replaced.
        """
        if self._costs is None:
            return 0
        rewrite = self._rewrite or not self._path.exists()
        if not self._fresh and not rewrite:
            return 0
        payload = self._costs if rewrite else self._fresh
        lines = [
            self._cost_line(qid, key, payload[(qid, key)])
            for qid, key in sorted(payload)
        ]
        self._dir.mkdir(parents=True, exist_ok=True)
        mode = "w" if rewrite else "a"
        with open(self._path, mode, encoding="utf-8") as handle:
            if rewrite:
                handle.write(self._header_line() + "\n")
            handle.writelines(line + "\n" for line in lines)
        self._fresh = {}
        self._rewrite = False
        return len(lines)
