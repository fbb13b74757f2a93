"""The concurrent pricing executor and the persistent what-if cache.

Three contracts are pinned here:

* **Bit-identity** — for every pricer job count the speculate-then-commit
  path must reproduce the serial path exactly: call log, budget grants
  and denials, stats counters, and the session event stream (the golden
  tuner cases re-run against ``fcfs_golden.json`` with jobs > 1).
* **Bounded, uncharged waste** — a budget that runs out mid-batch
  discards speculative work; it never charges or commits it.
* **Warm == cold** — a persistent-cache hit replaces pricing *work*
  only: warm sessions re-price zero pairs yet produce bit-identical
  accounting, and fingerprints isolate shard files between backends.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.backend import (
    AnalyticBackend,
    BackendSpec,
    NoisyBackend,
    PostgresBackend,
    ReplayBackend,
    build_backend,
)
from repro.backend.cache import (
    PersistentWhatIfCache,
    identity_fingerprint,
    resolve_cache_dir,
)
from repro.backend.concurrent import PricingExecutor, plan_shards
from repro.backend.dbms.connection import POOL_SIZE
from repro.budget.events import EventLog
from repro.optimizer.cost_model import CostModel
from repro.optimizer.whatif import WhatIfOptimizer

_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_fcfs_golden", _FIXTURES / "gen_fcfs_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GEN = _load_generator()
_GOLDEN = json.loads((_FIXTURES / "fcfs_golden.json").read_text())
_TOY_CASES = [case for case in _GEN.CASES if case[1] == "toy"]

#: Stats fields that legitimately differ between serial and concurrent
#: runs (wall time and the speculation telemetry itself).
_TIMING_FIELDS = ("cost_seconds", "speculative_priced", "speculation_wasted")


def _at_jobs(jobs: int) -> type[WhatIfOptimizer]:
    """The engine pricing on ``jobs`` jobs, whatever ``--pricing-jobs`` says."""
    return type(f"WhatIfOptimizerJobs{jobs}", (WhatIfOptimizer,), {"pricing_jobs": jobs})


def _accounting(stats) -> dict:
    out = stats.as_dict()
    for field in _TIMING_FIELDS:
        out.pop(field)
    return out


# --------------------------------------------------------------------- #
# shard planning and the executor itself
# --------------------------------------------------------------------- #


class TestPlanShards:
    def test_empty_and_negative(self):
        assert plan_shards(0, 4) == []
        assert plan_shards(-3, 4) == []

    def test_fewer_items_than_shards(self):
        assert plan_shards(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_remainder_spread_over_leading_shards(self):
        assert plan_shards(10, 3) == [(0, 4), (4, 7), (7, 10)]

    @pytest.mark.parametrize("count,shards", [(1, 1), (7, 2), (16, 4), (100, 7)])
    def test_spans_are_contiguous_and_cover(self, count, shards):
        spans = plan_shards(count, shards)
        assert spans[0][0] == 0 and spans[-1][1] == count
        for (_, stop), (start, _) in zip(spans, spans[1:], strict=False):
            assert stop == start
        assert all(stop > start for start, stop in spans)

    def test_deterministic(self):
        assert plan_shards(23, 4) == plan_shards(23, 4)


class TestPricingExecutor:
    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError, match="at least 1"):
            PricingExecutor(0)

    def test_map_shards_preserves_submission_order(self):
        executor = PricingExecutor(4)
        items = list(range(100))
        try:
            result = executor.map_shards(
                lambda shard: [item * 2 for item in shard], items
            )
        finally:
            executor.shutdown()
        assert result == [item * 2 for item in items]

    def test_map_shards_empty(self):
        assert PricingExecutor(4).map_shards(lambda shard: shard, []) == []

    def test_single_job_runs_inline(self):
        executor = PricingExecutor(1)
        assert executor.map_shards(lambda shard: shard, [1, 2, 3]) == [1, 2, 3]
        assert executor._pool is None  # the thread pool was never created

    def test_short_shard_result_is_an_error(self):
        executor = PricingExecutor(2)
        try:
            with pytest.raises(ValueError, match="shard returned"):
                executor.map_shards(lambda shard: shard[:-1], list(range(8)))
        finally:
            executor.shutdown()

    def test_usable_after_shutdown(self):
        executor = PricingExecutor(2)
        executor.map_shards(lambda shard: shard, [1, 2, 3, 4])
        executor.shutdown()
        assert executor.map_shards(lambda shard: shard, [5, 6, 7, 8]) == [5, 6, 7, 8]
        executor.shutdown()


# --------------------------------------------------------------------- #
# speculate-then-commit parity with the serial path
# --------------------------------------------------------------------- #


def _configs(candidates):
    head = list(candidates[:5])
    configs = [frozenset([ix]) for ix in head]
    configs += [
        frozenset([head[i], head[j]])
        for i in range(len(head))
        for j in range(i + 1, len(head))
    ]
    return configs


def _prefetch_run(workload, candidates, jobs, budget, *, limit=None, cache=None):
    events = EventLog()
    optimizer = _at_jobs(jobs)(
        workload,
        budget=budget,
        whatif_cache=cache,
        events=events,
    )
    pairs = (
        (query, config)
        for config in _configs(candidates)
        for query in workload
    )
    granted = optimizer.whatif_prefetch(pairs, limit=limit)
    optimizer.close()
    return optimizer, events, granted


class TestSpeculateCommitParity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_prefetch_is_bit_identical_to_serial(
        self, toy_workload, toy_candidates, jobs
    ):
        serial, serial_events, serial_granted = _prefetch_run(
            toy_workload, toy_candidates, 1, budget=None
        )
        pooled, pooled_events, pooled_granted = _prefetch_run(
            toy_workload, toy_candidates, jobs, budget=None
        )
        assert pooled_granted == serial_granted
        assert pooled.call_log == serial.call_log
        assert pooled_events.events == serial_events.events
        assert _accounting(pooled.stats) == _accounting(serial.stats)
        assert pooled.stats.speculative_priced >= pooled_granted
        assert serial.stats.speculative_priced == 0

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_tight_budget_parity_including_denials(
        self, toy_workload, toy_candidates, jobs
    ):
        serial, serial_events, _ = _prefetch_run(
            toy_workload, toy_candidates, 1, budget=7
        )
        pooled, pooled_events, _ = _prefetch_run(
            toy_workload, toy_candidates, jobs, budget=7
        )
        assert pooled.calls_used == serial.calls_used == 7
        assert pooled.call_log == serial.call_log
        # Grant *and* deny events replay in the exact serial order.
        assert pooled_events.events == serial_events.events
        assert _accounting(pooled.stats) == _accounting(serial.stats)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_limit_parity(self, toy_workload, toy_candidates, jobs):
        serial, serial_events, serial_granted = _prefetch_run(
            toy_workload, toy_candidates, 1, budget=None, limit=5
        )
        pooled, pooled_events, pooled_granted = _prefetch_run(
            toy_workload, toy_candidates, jobs, budget=None, limit=5
        )
        assert serial_granted == pooled_granted == 5
        assert pooled.call_log == serial.call_log
        assert pooled_events.events == serial_events.events

    def test_exhaustion_mid_batch_discards_speculation_uncharged(
        self, toy_workload, toy_candidates
    ):
        optimizer, _, granted = _prefetch_run(
            toy_workload, toy_candidates, 4, budget=5
        )
        assert granted == 5
        # The budget is exactly spent: speculation never leaks a charge.
        assert optimizer.calls_used == 5
        assert optimizer.meter.remaining == 0
        assert len(optimizer.call_log) == 5
        # The wave over-priced past the denial and threw the excess away.
        assert optimizer.stats.speculation_wasted > 0
        assert optimizer.stats.speculative_priced > 5
        # Discarded pairs were never committed to the what-if cache.
        assert optimizer.stats.cache_misses == 5

    def test_workload_costs_parity(self, toy_workload, toy_candidates):
        def totals(jobs):
            optimizer = _at_jobs(jobs)(toy_workload, budget=None)
            values = optimizer.whatif_workload_costs(_configs(toy_candidates))
            log = optimizer.call_log
            optimizer.close()
            return values, log

        serial_totals, serial_log = totals(1)
        pooled_totals, pooled_log = totals(4)
        assert pooled_totals == serial_totals
        assert pooled_log == serial_log


@pytest.mark.parametrize(
    "label,workload_name,factory,budget,seed",
    _TOY_CASES,
    ids=[case[0] for case in _TOY_CASES],
)
@pytest.mark.parametrize("jobs", [2, 4], ids=["jobs2", "jobs4"])
def test_golden_cases_with_concurrent_pricing(
    toy_workload, label, workload_name, factory, budget, seed, jobs, monkeypatch
):
    """The golden serial pins hold verbatim under concurrent pricing."""
    expected = _GOLDEN[label]
    monkeypatch.setattr(AnalyticBackend, "pricing_jobs", jobs)
    result = factory(seed).tune(
        _GEN.build_toy_workload(),
        budget=budget,
        backend=BackendSpec(name="analytic"),
    )
    snapshot = _GEN.snapshot_result(result)
    assert snapshot["configuration"] == expected["configuration"]
    assert snapshot["estimated_cost"] == expected["estimated_cost"]
    assert snapshot["calls_used"] == expected["calls_used"]
    assert snapshot["history"] == expected["history"]
    assert snapshot["call_log"] == expected["call_log"]


# --------------------------------------------------------------------- #
# the pricer owns its job count
# --------------------------------------------------------------------- #


def test_each_pricer_sets_its_job_count(request):
    default = request.config.getoption("--pricing-jobs") or 1
    assert AnalyticBackend.pricing_jobs == NoisyBackend.pricing_jobs == default
    assert ReplayBackend.pricing_jobs == 1
    assert PostgresBackend.pricing_jobs == POOL_SIZE == 4


def test_pricing_jobs_option_reaches_the_analytic_backend(request, toy_workload):
    """A ``--pricing-jobs`` re-run must not silently price serially."""
    jobs = request.config.getoption("--pricing-jobs") or 1
    backend = build_backend("analytic", toy_workload)
    executor = backend._ensure_pricing_executor()
    backend.close()
    assert executor.jobs == jobs


# --------------------------------------------------------------------- #
# persistent cross-session cache
# --------------------------------------------------------------------- #


class TestPersistentCache:
    def test_lookup_entry_is_the_get_and_put_key(self, toy_candidates, tmp_path):
        from repro.backend.cache import canonical_key

        key = frozenset(toy_candidates[:2])
        cache = PersistentWhatIfCache(tmp_path, {"backend": "a"})
        cost, entry = cache.lookup("q1", key)
        assert cost is None and entry == ("q1", canonical_key(key))
        cache.put_entry(entry, 2.5)
        assert cache.lookup("q1", key) == (2.5, entry)
        _, other = cache.lookup("q2", key)
        cache.put_entry(other, 3.0)
        assert cache.flush() == 2
        reopened = PersistentWhatIfCache(tmp_path, {"backend": "a"})
        assert (reopened.lookup("q1", key), reopened.lookup("q2", key)) == (
            (2.5, entry),
            (3.0, other),
        )

    def test_warm_run_reprices_zero_pairs_bit_identically(
        self, toy_workload, toy_candidates, tmp_path, monkeypatch
    ):
        cache = str(tmp_path / "pcache")
        cold, cold_events, cold_granted = _prefetch_run(
            toy_workload, toy_candidates, 1, budget=None, cache=cache
        )
        shards = list(Path(cache).glob("whatif-*.jsonl"))
        assert len(shards) == 1

        def boom(self, prepared, key):
            raise AssertionError("warm run must not touch the cost model")

        monkeypatch.setattr(CostModel, "cost", boom)
        warm, warm_events, warm_granted = _prefetch_run(
            toy_workload, toy_candidates, 1, budget=None, cache=cache
        )
        assert warm_granted == cold_granted
        assert warm.call_log == cold.call_log
        assert warm_events.events == cold_events.events
        assert warm.stats.persistent_hits == warm.stats.cost_evaluations > 0
        assert cold.stats.persistent_hits == 0
        # Budget accounting is identical: a hit is still a counted call.
        assert warm.calls_used == cold.calls_used

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_warm_concurrent_run_matches_cold_serial(
        self, toy_workload, toy_candidates, tmp_path, monkeypatch, jobs
    ):
        cache = str(tmp_path / "pcache")
        # Prime every pair: speculation prices past a tight budget, so the
        # warm wave may recall pairs the cold budgeted run never granted.
        _prefetch_run(toy_workload, toy_candidates, 1, budget=None, cache=cache)

        def boom(self, prepared, key):
            raise AssertionError("warm run must not touch the cost model")

        monkeypatch.setattr(CostModel, "cost", boom)
        serial, serial_events, _ = _prefetch_run(
            toy_workload, toy_candidates, 1, budget=9, cache=cache
        )
        pooled, pooled_events, _ = _prefetch_run(
            toy_workload, toy_candidates, jobs, budget=9, cache=cache
        )
        assert pooled.call_log == serial.call_log
        assert pooled_events.events == serial_events.events
        assert pooled.stats.persistent_hits > 0

    def test_corrupt_shard_file_is_replaced_not_fatal(
        self, toy_workload, toy_candidates, tmp_path
    ):
        cache = str(tmp_path / "pcache")
        cold, _, _ = _prefetch_run(
            toy_workload, toy_candidates, 1, budget=None, cache=cache
        )
        (shard,) = Path(cache).glob("whatif-*.jsonl")
        shard.write_text("{not json at all\n", encoding="utf-8")
        again, _, _ = _prefetch_run(
            toy_workload, toy_candidates, 1, budget=None, cache=cache
        )
        assert again.call_log == cold.call_log
        assert again.stats.persistent_hits == 0  # nothing recoverable
        # The flush rewrote the shard wholesale, header first.
        first = shard.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first)["type"] == "header"

    def test_fingerprints_isolate_backends_and_seeds(
        self, toy_workload, tmp_path
    ):
        cache = str(tmp_path / "pcache")

        def shard_path(spec):
            backend = build_backend(spec, toy_workload)
            return backend._persistent_cache().path

        paths = {
            shard_path(BackendSpec(name="analytic", whatif_cache=cache)),
            shard_path(
                BackendSpec(
                    name="noisy", noise=0.2, noise_seed=7, whatif_cache=cache
                )
            ),
            shard_path(
                BackendSpec(
                    name="noisy", noise=0.2, noise_seed=8, whatif_cache=cache
                )
            ),
        }
        assert len(paths) == 3

    def test_record_shares_the_analytic_shard_and_keeps_its_trace_whole(
        self, toy_workload, toy_candidates, tmp_path, monkeypatch
    ):
        """A warm-cache session's shard is still a whole, replayable record."""
        cache = str(tmp_path / "pcache")
        _prefetch_run(toy_workload, toy_candidates, 1, budget=None, cache=cache)

        def boom(self, prepared, key):
            raise AssertionError("warm record run must not price")

        monkeypatch.setattr(CostModel, "cost", boom)
        recorder = build_backend(
            BackendSpec(name="analytic", whatif_cache=cache), toy_workload
        )
        query = toy_workload.queries[0]
        config = _configs(toy_candidates)[0]
        recorded_cost = recorder.whatif_cost(query, config)
        assert recorder.stats.persistent_hits > 0
        recorder.close()
        replayer = build_backend(
            BackendSpec(name="replay", trace_path=str(recorder.whatif_shard)),
            toy_workload,
        )
        assert replayer.whatif_cost(query, config) == recorded_cost

    def test_unrelated_identity_lands_in_a_distinct_file(self, tmp_path):
        first = PersistentWhatIfCache(tmp_path, {"backend": "a"})
        second = PersistentWhatIfCache(tmp_path, {"backend": "b"})
        assert first.path != second.path
        assert first.fingerprint == identity_fingerprint({"backend": "a"})

    def test_default_selector_resolves_to_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert resolve_cache_dir("default") == tmp_path / "xdg" / "repro"
        assert resolve_cache_dir("1") == tmp_path / "xdg" / "repro"
        assert resolve_cache_dir(str(tmp_path / "x")) == tmp_path / "x"
