"""Concurrent what-if pricing: shard planning and the speculate executor.

:class:`PricingExecutor` is the only sanctioned thread pool for pricing
work (lint rules REP007/REP106 flag raw ``threading`` /
``concurrent.futures`` use for pricing anywhere else). It deliberately
knows nothing about budgets, caches, stats, or events: callers hand it a
pure *shard function* that computes costs, and it returns them in
submission order. Every batch wave goes through it: a one-pair wave (each
wave at one job) inline through :meth:`PricingExecutor.price_one`, and a
larger one over worker threads. The
speculate-then-commit discipline lives in
:meth:`~repro.optimizer.whatif.WhatIfOptimizer.whatif_prefetch` —
workers only compute; a single serial commit loop replays the results
against the :class:`~repro.budget.policy.BudgetPolicy`, so grants,
denials, stats counters, and the event stream are bit-identical for
every job count.

Shards are **contiguous** slices of the submitted items: reassembly is a
plain concatenation in shard order, which makes the order-preservation
argument a one-liner and keeps per-shard work (e.g. one pooled Postgres
session per shard) cache-friendly within a configuration group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

T = TypeVar("T")
R = TypeVar("R")

#: Pairs speculatively priced per worker per wave. Bounds wasted work when
#: the budget runs out mid-batch: at most ``jobs * SHARD_PAIRS`` pairs are
#: ever priced ahead of their budget decision.
SHARD_PAIRS = 8


def plan_shards(count: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``(start, stop)`` spans covering ``range(count)``.

    Deterministic: the first ``count % shards`` spans take one extra item,
    so the plan depends only on ``(count, shards)`` — never on timing.
    Empty spans are never produced; fewer than ``shards`` spans are
    returned when there are fewer items than shards.
    """
    if count <= 0:
        return []
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def _check_count(returned: int, expected: int) -> None:
    """Raise unless a pricing shard returned one result per item."""
    if returned != expected:
        raise ValueError(
            f"pricing shard returned {returned} results for {expected} items"
        )


class PricingExecutor:
    """Thread-pool fan-out for batch pricing, order-preserving by design.

    Args:
        jobs: Worker threads (1 degrades to inline execution; the thread
            pool is never created).

    The underlying :class:`~concurrent.futures.ThreadPoolExecutor` is
    created lazily on first concurrent use and torn down by
    :meth:`shutdown`; the executor stays usable afterwards (the pool is
    recreated on demand), which lets optimizers treat ``close()`` as a
    flush rather than a poison pill.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"pricing jobs must be at least 1, got {jobs}")
        self._jobs = jobs
        self._pool: ThreadPoolExecutor | None = None

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def wave_size(self) -> int:
        """Items priced per wave: one inline, ``jobs * SHARD_PAIRS`` pooled.

        An inline wave of one is never priced ahead of its own budget
        decision; a pooled wave bounds the work a denial can discard.
        """
        return 1 if self._jobs == 1 else self._jobs * SHARD_PAIRS

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._jobs, thread_name_prefix="whatif-pricing"
            )
        return self._pool

    def map_shards(
        self,
        price_shard: Callable[[list[T]], Sequence[R]],
        items: Sequence[T],
    ) -> list[R]:
        """Fan ``items`` over up to ``jobs`` contiguous shards; reassemble.

        ``price_shard`` receives one contiguous slice and must return one
        result per item, in slice order; results come back concatenated in
        submission order regardless of worker scheduling. A shard that
        raises propagates its exception to the caller (in shard order), and
        nothing is committed — workers must therefore be side-effect free.
        """
        items = list(items)
        if not items:
            return []
        if self._jobs == 1 or len(items) == 1:
            return self._collect(price_shard(items), len(items))
        spans = plan_shards(len(items), self._jobs)
        pool = self._ensure_pool()
        futures = [pool.submit(price_shard, items[start:stop]) for start, stop in spans]
        results: list[R] = []
        for (start, stop), future in zip(spans, futures, strict=True):
            results.extend(self._collect(future.result(), stop - start))
        return results

    def price_one(self, price_shard: Callable[[list[T]], Sequence[R]], item: T) -> R:
        """``map_shards(price_shard, [item])[0]`` without its list copies.

        One item is one shard at any job count, so it is priced inline;
        the shard must still return exactly one result.
        """
        results = price_shard([item])
        _check_count(len(results), 1)
        return results[0]

    @staticmethod
    def _collect(shard_results: Sequence[R], expected: int) -> list[R]:
        results = list(shard_results)
        _check_count(len(results), expected)
        return results

    def shutdown(self) -> None:
        """Tear down the worker pool (recreated lazily on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
