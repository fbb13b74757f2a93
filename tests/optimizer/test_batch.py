"""Batched what-if costing: determinism, budget accounting, edge cases.

The batch API must be a pure wall-clock optimization: for any number of
pricing jobs it commits the same counted calls, in the same order, with the
same ordinals and costs as the sequential path.
"""

import itertools

import pytest

from repro.backend import AnalyticBackend
from repro.budget.events import EventLog
from repro.budget.policy import FCFSPolicy
from repro.config import ReproConfig
from repro.exceptions import BudgetExhaustedError, TuningError
from repro.optimizer.whatif import BudgetMeter, WhatIfOptimizer
from repro.tuners.greedy import VanillaGreedyTuner
from repro.workload.candidates import CandidateGenerator


def _at_jobs(jobs):
    """The engine pricing on ``jobs`` jobs, whatever ``--pricing-jobs`` says."""
    return type(f"WhatIfOptimizerJobs{jobs}", (WhatIfOptimizer,), {"pricing_jobs": jobs})


def _singletons(relevant, rank=0):
    """Per query id: its ``rank``-th relevant candidate, alone."""
    return {qid: frozenset([indexes[rank % len(indexes)]]) for qid, indexes in relevant.items()}


def _relevant_to_all(relevant, rank=0):
    """One configuration holding every query's ``rank``-th relevant candidate."""
    return frozenset().union(*_singletons(relevant, rank).values())


def _layout(optimizer):
    return [
        (entry.ordinal, entry.qid, entry.configuration, entry.cost)
        for entry in optimizer.call_log
    ]


class TestPrefetch:
    def test_matches_sequential_calls(self, toy_workload, toy_candidates):
        pairs = [
            (query, frozenset(toy_candidates[: 1 + i % 3]))
            for i, query in enumerate(toy_workload)
        ]
        batched = WhatIfOptimizer(toy_workload)
        batched.whatif_prefetch(pairs)
        sequential = WhatIfOptimizer(toy_workload)
        for query, config in pairs:
            sequential.whatif_cost(query, config)
        assert _layout(batched) == _layout(sequential)
        assert batched.calls_used == sequential.calls_used

    def test_dedupes_in_issue_order(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload)
        config = frozenset(toy_candidates[:2])
        query = toy_workload[0]
        issued = optimizer.whatif_prefetch([(query, config)] * 5)
        assert issued <= 1
        assert optimizer.calls_used == issued

    def test_truncates_to_budget(self, toy_workload, toy_relevant):
        optimizer = WhatIfOptimizer(toy_workload, budget=3)
        configs = _singletons(toy_relevant)
        issued = optimizer.whatif_prefetch((q, configs[q.qid]) for q in toy_workload)
        assert issued == 3
        assert optimizer.meter.exhausted
        # The first three workload queries got the calls — FCFS.
        assert [c.qid for c in optimizer.call_log] == [
            q.qid for q in list(toy_workload)[:3]
        ]

    def test_limit_caps_below_budget(self, toy_workload, toy_relevant):
        optimizer = WhatIfOptimizer(toy_workload, budget=10)
        configs = _singletons(toy_relevant)
        issued = optimizer.whatif_prefetch(
            ((q, configs[q.qid]) for q in toy_workload), limit=2
        )
        assert issued == 2
        assert optimizer.meter.remaining == 8

    def test_ordinals_contiguous_across_batches(self, toy_workload, toy_relevant):
        optimizer = WhatIfOptimizer(toy_workload)
        a = _singletons(toy_relevant)
        b = _singletons(toy_relevant, rank=1)
        optimizer.whatif_cost(toy_workload[0], a[toy_workload[0].qid])
        optimizer.whatif_prefetch((q, b[q.qid]) for q in toy_workload)
        optimizer.whatif_cost(toy_workload[1], a[toy_workload[1].qid])
        ordinals = [entry.ordinal for entry in optimizer.call_log]
        assert ordinals == list(range(1, len(toy_workload) + 3))


class TestPoolDeterminism:
    @pytest.fixture
    def tpch_slice(self, tpch):
        candidates = CandidateGenerator(tpch.schema).for_workload(tpch)[:40]
        return tpch, candidates

    def test_workload_costs_pool_invariant(self, tpch_slice):
        tpch, candidates = tpch_slice
        configs = [
            frozenset(candidates[i : i + 3]) for i in range(0, 30, 3)
        ]
        serial = _at_jobs(1)(tpch)
        pooled = _at_jobs(8)(tpch)
        try:
            assert serial.whatif_workload_costs(configs) == pooled.whatif_workload_costs(
                configs
            )
            assert _layout(serial) == _layout(pooled)
        finally:
            pooled.close()

    def test_greedy_pool_invariant(self, tpch_slice, monkeypatch):
        tpch, candidates = tpch_slice
        results = {}
        for jobs in (1, 8):
            monkeypatch.setattr(AnalyticBackend, "pricing_jobs", jobs)
            result = VanillaGreedyTuner().tune(
                tpch,
                budget=120,
                candidates=candidates,
                optimizer_config=ReproConfig(),
            )
            results[jobs] = (result.configuration, _layout(result.optimizer))
            result.optimizer.close()
        assert results[1] == results[8]

    def test_readmitted_query_is_priced_before_its_charge(
        self, toy_workload, toy_relevant
    ):
        """A query the policy refuses when its wave is priced but admits at
        its turn is priced then, so every job count commits the same calls."""
        late = toy_workload[1].qid

        class LateAdmission(FCFSPolicy):
            def admits(self, qid):
                return qid != late or self.spent > 0

        configs = _singletons(toy_relevant)

        def layout(jobs):
            optimizer = _at_jobs(jobs)(
                toy_workload, policy=LateAdmission(BudgetMeter(None))
            )
            optimizer.whatif_prefetch((query, configs[query.qid]) for query in toy_workload)
            optimizer.close()
            return _layout(optimizer)

        serial = layout(1)
        assert late in [qid for _, qid, _, _ in serial]
        assert layout(2) == serial

    def test_workload_costs_match_sequential_loop(self, toy_workload, toy_candidates):
        configs = [frozenset(toy_candidates[: 1 + i]) for i in range(4)]
        batched = WhatIfOptimizer(toy_workload)
        totals = batched.whatif_workload_costs(configs)
        sequential = WhatIfOptimizer(toy_workload)
        expected = [
            sum(q.weight * sequential.whatif_cost(q, c) for q in toy_workload)
            for c in configs
        ]
        assert totals == pytest.approx(expected)
        assert _layout(batched) == _layout(sequential)


class TestWorkloadCostsExhaustion:
    def test_raise_mode_matches_sequential(self, toy_workload, toy_relevant):
        config = _relevant_to_all(toy_relevant)
        batched = WhatIfOptimizer(toy_workload, budget=3)
        with pytest.raises(BudgetExhaustedError):
            batched.whatif_workload_costs([config])
        sequential = WhatIfOptimizer(toy_workload, budget=3)
        with pytest.raises(BudgetExhaustedError):
            for q in toy_workload:
                sequential.whatif_cost(q, config)
        # Both charged exactly the budget before raising, same layout.
        assert batched.calls_used == sequential.calls_used == 3
        assert _layout(batched) == _layout(sequential)

    def test_derived_mode_returns_fcfs_totals(self, toy_workload, toy_relevant):
        config = _relevant_to_all(toy_relevant)
        optimizer = WhatIfOptimizer(toy_workload, budget=3)
        (total,) = optimizer.whatif_workload_costs([config], on_exhausted="derived")
        assert total > 0
        assert optimizer.calls_used == 3

    def test_unknown_mode_rejected(self, toy_workload):
        optimizer = WhatIfOptimizer(toy_workload)
        with pytest.raises(TuningError):
            optimizer.whatif_workload_costs([frozenset()], on_exhausted="bogus")


class TestBudgetMeterEdgeCases:
    def test_zero_budget_check_raises_without_spending(self):
        meter = BudgetMeter(0)
        assert meter.exhausted
        assert meter.remaining == 0
        with pytest.raises(BudgetExhaustedError):
            meter.check()
        assert meter.spent == 0

    def test_remaining_clamped_after_exhaustion(self):
        meter = BudgetMeter(2)
        meter.charge()
        meter.charge()
        assert meter.remaining == 0
        with pytest.raises(BudgetExhaustedError):
            meter.charge()
        assert meter.spent == 2
        assert meter.remaining == 0

    def test_unlimited_meter_never_exhausts(self):
        meter = BudgetMeter(None)
        for _ in range(10):
            meter.check()
            meter.charge()
        assert meter.remaining is None
        assert not meter.exhausted

    def test_zero_budget_optimizer_prices_nothing(self, toy_workload, toy_relevant):
        optimizer = WhatIfOptimizer(toy_workload, budget=0)
        configs = _singletons(toy_relevant)
        issued = optimizer.whatif_prefetch((q, configs[q.qid]) for q in toy_workload)
        assert issued == 0
        with pytest.raises(BudgetExhaustedError):
            optimizer.whatif_cost(toy_workload[0], configs[toy_workload[0].qid])


class TestChargeRollback:
    def test_failed_costing_does_not_leak_budget(
        self, toy_workload, toy_relevant, monkeypatch
    ):
        """Regression: the seed charged the meter before pricing, so a
        cost-model exception consumed a budget unit without producing a
        cached observation."""
        optimizer = WhatIfOptimizer(toy_workload, budget=5)
        query = toy_workload[0]
        config = _singletons(toy_relevant)[query.qid]
        optimizer.empty_cost(query)  # warm, so only the counted path raises

        def boom(prepared, configuration):
            raise RuntimeError("simulated optimizer failure")

        monkeypatch.setattr(optimizer._model, "cost", boom)
        with pytest.raises(RuntimeError):
            optimizer.whatif_cost(query, config)
        monkeypatch.undo()

        assert optimizer.meter.spent == 0
        assert not optimizer.is_cached(query, config)
        assert optimizer.call_log == []
        # The retry succeeds and is charged exactly once.
        optimizer.whatif_cost(query, config)
        assert optimizer.meter.spent == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("entry", ["prefetch", "workload_costs"])
    def test_failed_batch_commits_every_charge(
        self, toy_workload, toy_relevant, monkeypatch, entry, jobs
    ):
        """Regression: a batch charged its pairs before pricing them, so a
        cost-model exception left charged units with no committed call."""
        # The 72 pairs normalize to 69 distinct keys, more than the budget.
        configs = [_relevant_to_all(toy_relevant, rank) for rank in range(6)]

        def build():
            events = EventLog()
            optimizer = _at_jobs(jobs)(toy_workload, budget=50, events=events)
            return optimizer, events

        def run(optimizer):
            if entry == "prefetch":
                optimizer.whatif_prefetch(
                    (query, config) for config in configs for query in toy_workload
                )
            else:
                optimizer.whatif_workload_costs(configs, on_exhausted="derived")

        def count(events, kind):
            return sum(1 for event in events.events if event.kind == kind)

        clean, _ = build()
        run(clean)
        clean.close()

        optimizer, events = build()
        evaluations = itertools.count(1)
        price = optimizer._model.cost

        def flaky(prepared, configuration):
            if next(evaluations) == 20:
                raise RuntimeError("simulated optimizer failure")
            return price(prepared, configuration)

        monkeypatch.setattr(optimizer._model, "cost", flaky)
        with pytest.raises(RuntimeError, match="simulated"):
            run(optimizer)
        monkeypatch.undo()

        # Every pair charged before the fault is committed: 19 one-pair
        # waves at one job, the whole first 16-pair wave at two.
        committed = {1: 19, 2: 16}[jobs]
        assert optimizer.meter.spent == len(optimizer.call_log) == committed
        assert count(events, "budget_grant") == count(events, "whatif_call")

        # The retry charges each remaining pair exactly once.
        run(optimizer)
        optimizer.close()
        assert optimizer.meter.spent == len(optimizer.call_log) == 50
        assert count(events, "budget_grant") == count(events, "whatif_call") == 50
        assert _layout(optimizer) == _layout(clean)
