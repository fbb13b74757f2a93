"""Replay backend: serve a recorded session from its what-if cache shard."""

from __future__ import annotations

from pathlib import Path

from repro.backend.analytic import AnalyticBackend
from repro.backend.cache import PersistentWhatIfCache, canonical_key, workload_fingerprint
from repro.backend.noisy import NoisyBackend
from repro.catalog import Index
from repro.exceptions import TraceError, TraceMissError, TuningError
from repro.optimizer.prepared import PreparedQuery


class ReplayBackend(AnalyticBackend):
    """Costs served from a recorded shard — never from the cost model.

    A session is recorded by running it with ``--whatif-cache DIR``: every
    fresh pricing, ground truth included, lands in the shard
    ``DIR/whatif-<fingerprint>.jsonl``. Replay opens that file
    (:meth:`~repro.backend.cache.PersistentWhatIfCache.open_shard`) and
    installs it as the engine's persistent cache, so every cost goes
    through the ordinary recall path; only the raw evaluation seam is
    replaced, by a :class:`~repro.exceptions.TraceMissError`. Caching,
    normalization, budget metering, and the call-log layout are the
    analytic engine's, so replaying the same tuner/seed/budget is
    bit-identical to the recorded run while issuing *zero* cost-model
    invocations (the CI smoke job asserts this by making
    ``CostModel.cost`` raise). Replay ignores ``whatif_cache`` and never
    writes the shard.

    A shard whose workload fingerprint — queries and catalog statistics —
    is not the session's, that holds noisy costs (the noisy backend's clean
    ground truth bypasses the store), or whose keys are not normalized
    (DESIGN §1) is rejected with a :class:`~repro.exceptions.TraceError`.

    Args:
        workload: The workload being tuned; must match the shard header.
        trace_path: The shard file to serve costs from.
        **kwargs: Forwarded to the analytic engine.
    """

    name = "replay"
    monotonic = True

    #: A concurrent wave prices pairs ahead of their budget decision, and
    #: a pair past a one-job recording's budget is not in the shard: the
    #: speculative lookup would raise a spurious miss. Replay therefore
    #: prices one pair a wave, right before its budget decision, whatever
    #: job count its base class prices at.
    pricing_jobs = 1

    def __init__(self, workload, *args, trace_path: str | Path, **kwargs):
        if not trace_path:
            raise TuningError("ReplayBackend requires a trace_path")
        shard = PersistentWhatIfCache.open_shard(trace_path)
        identity = shard.identity
        if identity.get("workload") != workload_fingerprint(workload):
            raise TraceError(
                f"shard {trace_path} was not recorded against workload "
                f"{workload.name!r} as this session builds it (its queries or "
                "catalog statistics differ)"
            )
        if identity.get("backend") == NoisyBackend.name:
            raise TraceError(
                f"shard {trace_path} holds noisy costs; a noisy session's "
                "clean ground truth is not in it, so it cannot be replayed"
            )
        if identity.get("normalize_cache") is not True:
            raise TraceError(
                f"shard {trace_path} holds whole-key costs; sessions count "
                "and cache normalized keys, so it cannot be replayed"
            )
        kwargs.pop("whatif_cache", None)
        super().__init__(workload, *args, whatif_cache=shard.path, **kwargs)
        self._pcache = shard

    def _evaluate(self, prepared: PreparedQuery, key: frozenset[Index]) -> float:
        trace_key = canonical_key(key)
        raise TraceMissError(
            f"shard {self._pcache.path} has no cost for query "
            f"{prepared.qid!r} under configuration {list(trace_key)} — "
            "the replayed run diverged from the recorded one",
            qid=prepared.qid,
            key=trace_key,
        )
