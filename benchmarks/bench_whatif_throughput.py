"""What-if throughput: calls/sec and cache-hit rate, before/after fast path.

Replays the deterministic call stream recorded in
``reports/whatif_throughput_seed.txt`` (measured on the seed what-if path)
on TPC-H and JOB, and reports the speedup of the current path — the fast
path's acceptance bar is >= 3x on TPC-H. Also exercises the batched
workload-costing API for comparison.

Protocol (rng seed 0, matching the seed baseline):
  one singleton call per (query, candidate) for the first 40 candidates,
  plus 3000 random size-2..4 configurations drawn from the first 60
  candidates; empty-configuration costs pre-warmed; unlimited budget.
"""

import os
import random
import time

from conftest import run_once

from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.candidates import CandidateGenerator
from repro.workload.suites.job import job_workload
from repro.workload.suites.tpch import tpch_workload

#: Seed-path throughput (calls/sec) from reports/whatif_throughput_seed.txt,
#: measured at commit efaf3d6 on this container class.
SEED_CALLS_PER_SEC = {"tpch": 38_293, "job": 19_491}

SPEEDUP_FLOOR = {"tpch": 3.0, "job": 1.0}

#: The concurrent-pricing scaling section. The analytic model answers in
#: microseconds, so thread-level speedup is invisible against it; the
#: section instead emulates a DBMS round trip (``EMULATED_LATENCY`` per
#: fresh evaluation, as a live EXPLAIN would cost) and measures how the
#: speculate-then-commit executor overlaps those round trips. Each job
#: count is a pricer subclass setting ``pricing_jobs``, the way the
#: postgres backend sets its own.
CONCURRENT_JOBS = (1, 2, 4)
EMULATED_LATENCY = 0.001  # seconds per fresh evaluation
CONCURRENT_SPEEDUP_FLOOR = 2.0  # jobs=4 vs jobs=1, gated on host cores


class _RoundTripOptimizer(WhatIfOptimizer):
    """Analytic pricing plus an emulated per-evaluation DBMS round trip."""

    def _evaluate(self, prepared, key):
        time.sleep(EMULATED_LATENCY)
        return super()._evaluate(prepared, key)


def _measure_concurrent(workload):
    candidates = CandidateGenerator(workload.schema).for_workload(workload)
    pairs = [
        (query, frozenset({candidate}))
        for candidate in candidates[:8]
        for query in workload
    ]
    rows = []
    reference = None
    for jobs in CONCURRENT_JOBS:
        pricer = type(
            f"_RoundTripOptimizer{jobs}", (_RoundTripOptimizer,), {"pricing_jobs": jobs}
        )
        optimizer = pricer(workload)
        start = time.perf_counter()
        optimizer.whatif_prefetch(list(pairs))
        elapsed = time.perf_counter() - start
        costs = [optimizer.whatif_cost(query, config) for query, config in pairs]
        if reference is None:
            reference = costs
        # The executor's acceptance bar: any job count, identical costs.
        assert costs == reference
        priced = optimizer.stats.cost_evaluations
        optimizer.close()
        rows.append(
            {
                "jobs": jobs,
                "priced": priced,
                "seconds": elapsed,
                "pairs_per_sec": priced / elapsed,
            }
        )
    return rows


def _call_stream(workload, candidates):
    rng = random.Random(0)
    stream = []
    for candidate in candidates[:40]:
        for query in workload:
            stream.append((query, frozenset({candidate})))
    pool = candidates[:60]
    for _ in range(3000):
        size = rng.randint(2, 4)
        config = frozenset(rng.sample(pool, size))
        stream.append((rng.choice(workload.queries), config))
    return stream


def _measure(name, workload):
    candidates = CandidateGenerator(workload.schema).for_workload(workload)
    stream = _call_stream(workload, candidates)
    optimizer = WhatIfOptimizer(workload)
    for query in workload:
        optimizer.empty_cost(query)
    start = time.perf_counter()
    for query, config in stream:
        optimizer.whatif_cost(query, config)
    elapsed = time.perf_counter() - start
    stats = optimizer.stats
    return {
        "name": name,
        "queries": len(workload),
        "candidates": len(candidates),
        "stream": len(stream),
        "counted": optimizer.calls_used,
        "seconds": elapsed,
        "calls_per_sec": len(stream) / elapsed,
        "hit_rate": stats.hit_rate,
        "normalized_hits": stats.normalized_hits,
    }


def _measure_batched(workload):
    """The same random configurations through whatif_workload_costs."""
    candidates = CandidateGenerator(workload.schema).for_workload(workload)
    rng = random.Random(0)
    pool = candidates[:60]
    configs = [
        frozenset(rng.sample(pool, rng.randint(2, 4))) for _ in range(300)
    ]
    optimizer = WhatIfOptimizer(workload)
    for query in workload:
        optimizer.empty_cost(query)
    start = time.perf_counter()
    optimizer.whatif_workload_costs(configs)
    elapsed = time.perf_counter() - start
    pairs = len(configs) * len(workload)
    return pairs / elapsed


def test_whatif_throughput(benchmark, archive):
    def run():
        rows = []
        for name, factory in (("tpch", tpch_workload), ("job", job_workload)):
            workload = factory()
            rows.append(_measure(name, workload))
            rows.append((name, _measure_batched(workload)))
        return rows, _measure_concurrent(tpch_workload())

    rows, concurrent_rows = run_once(benchmark, run)

    lines = [
        "What-if throughput — fast path (cache normalization + memoized pricing)",
        "",
        "Protocol: rng seed 0; one singleton call per (query, candidate) for",
        "the first 40 candidates, plus 3000 random size-2..4 configurations",
        "from the first 60 candidates; empty costs pre-warmed; unlimited",
        "budget. Identical to reports/whatif_throughput_seed.txt.",
        "",
        f"  {'workload':10s} {'stream':>7s} {'counted':>8s} "
        f"{'calls/sec':>10s} {'hit%':>6s} {'norm_hits':>10s} {'vs seed':>8s}",
    ]
    speedups = {}
    for row in rows:
        if isinstance(row, tuple):
            continue
        seed_rate = SEED_CALLS_PER_SEC[row["name"]]
        speedup = row["calls_per_sec"] / seed_rate
        speedups[row["name"]] = speedup
        lines.append(
            f"  {row['name']:10s} {row['stream']:7d} {row['counted']:8d} "
            f"{row['calls_per_sec']:10,.0f} {100 * row['hit_rate']:6.1f} "
            f"{row['normalized_hits']:10d} {speedup:7.1f}x"
        )
    lines.append("")
    for row in rows:
        if isinstance(row, tuple):
            name, rate = row
            lines.append(
                f"  {name}: batched whatif_workload_costs throughput "
                f"{rate:,.0f} pairs/sec"
            )
    serial_rate = concurrent_rows[0]["pairs_per_sec"]
    lines.append("")
    lines.append(
        f"  concurrent pricing on tpch "
        f"(emulated {1000 * EMULATED_LATENCY:.1f} ms round trip per "
        "evaluation; speculate-then-commit, costs bit-identical to serial)"
    )
    lines.append(
        f"  {'jobs':>6s} {'priced':>7s} {'seconds':>8s} "
        f"{'pairs/sec':>10s} {'vs jobs=1':>10s}"
    )
    concurrent_speedups = {}
    for row in concurrent_rows:
        speedup = row["pairs_per_sec"] / serial_rate
        concurrent_speedups[row["jobs"]] = speedup
        lines.append(
            f"  {row['jobs']:6d} {row['priced']:7d} {row['seconds']:8.3f} "
            f"{row['pairs_per_sec']:10,.0f} {speedup:9.1f}x"
        )
    lines.append("")
    lines.append(
        "  seed baselines (calls/sec): "
        + ", ".join(f"{k}={v:,}" for k, v in SEED_CALLS_PER_SEC.items())
    )
    series = {
        "throughput": [row for row in rows if isinstance(row, dict)],
        "batched_pairs_per_sec": {
            row[0]: row[1] for row in rows if isinstance(row, tuple)
        },
        "speedup_vs_seed": speedups,
        "concurrent_pricing": concurrent_rows,
    }
    archive("whatif_throughput", "\n".join(lines), series=series)

    for name, floor in SPEEDUP_FLOOR.items():
        assert speedups[name] >= floor, (
            f"{name} fast path {speedups[name]:.1f}x below the {floor}x floor"
        )
    # Round trips are I/O waits, but only hold the scaling bar to hosts
    # with enough cores to run the full worker complement.
    if (os.cpu_count() or 1) >= max(CONCURRENT_JOBS):
        top = concurrent_speedups[max(CONCURRENT_JOBS)]
        assert top >= CONCURRENT_SPEEDUP_FLOOR, (
            f"jobs={max(CONCURRENT_JOBS)} concurrent pricing {top:.1f}x "
            f"below the {CONCURRENT_SPEEDUP_FLOOR}x floor"
        )
