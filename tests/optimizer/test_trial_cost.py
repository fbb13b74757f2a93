"""Tests for the incremental greedy hot path: trial_cost / has_observation /
derived_cost_with_extra must agree exactly with the full derivation.

``trial_cost`` takes the trial configuration as a mask and the added index
as a position; the derivation store's member queries take positions."""

import pytest

from repro.optimizer.whatif import WhatIfOptimizer


@pytest.fixture
def seeded(toy_workload, toy_candidates):
    """Optimizer with an exhausted budget and a mixed observation store."""
    optimizer = WhatIfOptimizer(toy_workload, budget=40)
    pool = toy_candidates[:8]
    # Singles for a few (query, index) pairs and a couple of compounds.
    for query in toy_workload[:5]:
        for index in pool[:3]:
            if optimizer.meter.exhausted:
                break
            optimizer.whatif_cost(query, frozenset({index}))
    for query in toy_workload[:5]:
        if optimizer.meter.exhausted:
            break
        optimizer.whatif_cost(query, frozenset(pool[:2]))
        if not optimizer.meter.exhausted:
            optimizer.whatif_cost(query, frozenset(pool[1:4]))
    while not optimizer.meter.exhausted:
        optimizer.whatif_cost(toy_workload[6], frozenset(pool[:5]))
        break
    return optimizer, pool


class TestTrialCostAgreement:
    def test_matches_full_derivation(self, seeded, toy_workload):
        optimizer, pool = seeded
        for query in toy_workload:
            for base_size in (0, 1, 2, 3):
                base = frozenset(pool[:base_size])
                base_cost = optimizer.derived_cost(query, base)
                for extra in pool[base_size:]:
                    trial = base | {extra}
                    fast = optimizer.trial_cost(
                        query, base_cost, optimizer._mask(trial), optimizer.position(extra)
                    )
                    full = optimizer.derived_cost(query, trial)
                    assert fast == pytest.approx(full), (
                        f"{query.qid} base={base_size} extra={extra.display()}"
                    )

    def test_uses_cached_exact_pairs(self, seeded, toy_workload):
        optimizer, pool = seeded
        query = toy_workload[0]
        trial = frozenset(pool[:2])  # evaluated exactly during seeding
        exact = optimizer.true_cost(query, trial)
        fast = optimizer.trial_cost(
            query, optimizer.empty_cost(query), optimizer._mask(trial), optimizer.position(pool[1])
        )
        assert fast == exact

    def test_counts_calls_while_budget_remains(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=5)
        query = toy_workload[0]
        extra = optimizer.position(toy_candidates[0])
        optimizer.trial_cost(query, optimizer.empty_cost(query), 1 << extra, extra)
        assert optimizer.calls_used == 1


class TestHasObservation:
    def test_reflects_recorded_singletons(self, seeded, toy_workload):
        optimizer, pool = seeded
        derivation = optimizer.derivation
        for entry in optimizer.call_log:
            if len(entry.configuration) == 1:
                (index,) = entry.configuration
                assert derivation.has_observation(entry.qid, optimizer.position(index))

    def test_reflects_compound_members(self, seeded):
        optimizer, _ = seeded
        derivation = optimizer.derivation
        for entry in optimizer.call_log:
            if len(entry.configuration) > 1:
                for index in entry.configuration:
                    assert derivation.has_observation(entry.qid, optimizer.position(index))

    def test_false_for_unseen_pairs(self, seeded, toy_workload, toy_candidates):
        optimizer, _ = seeded
        derivation = optimizer.derivation
        unseen_index = toy_candidates[-1]
        seen_pairs = {
            (entry.qid, index)
            for entry in optimizer.call_log
            for index in entry.configuration
        }
        for query in toy_workload:
            if (query.qid, unseen_index) not in seen_pairs:
                assert not derivation.has_observation(
                    query.qid, optimizer.position(unseen_index)
                )

    def test_no_observation_means_no_change(self, seeded, toy_workload, toy_candidates):
        """The optimisation's soundness condition, verified directly."""
        optimizer, pool = seeded
        derivation = optimizer.derivation
        for query in toy_workload:
            for extra in toy_candidates:
                if derivation.has_observation(query.qid, optimizer.position(extra)):
                    continue
                base = frozenset(pool[:3])
                base_cost = optimizer.derived_cost(query, base)
                assert optimizer.derived_cost(query, base | {extra}) == base_cost


class TestIndexHashCache:
    def test_equal_indexes_share_hash(self, star_schema):
        from repro.catalog import Index

        fact = star_schema.table("fact")
        assert hash(Index.build(fact, ["fk1"])) == hash(Index.build(fact, ["fk1"]))

    def test_distinct_indexes_usually_differ(self, star_schema):
        from repro.catalog import Index

        fact = star_schema.table("fact")
        a = Index.build(fact, ["fk1"])
        b = Index.build(fact, ["fk2"])
        assert hash(a) != hash(b)
        assert len({a, b}) == 2
