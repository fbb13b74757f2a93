"""Differential tests: the greedy step against the loop it replaced.

``greedy_enumerate`` groups the queries per table once to build its
relevance map, tests each trial against the storage cap as ``size <= room``
with ``room`` the cap minus a running byte total of the configuration, and
carries each trial's position so no index is hashed per (index, query) pair.
:func:`ref_greedy_enumerate` is the loop it replaced — a per-index scan over
every query and ``constraints.admits(best_config, extra_bytes=size)`` per
trial — kept as an executable specification. Hypothesis drives both over
toy and small synthesized workloads, under every budget policy, with storage
caps drawn as sums of candidate sizes so that a trial exactly filling the
remaining room is common. Configurations, histories, call logs, event
streams and ``WhatIfStats`` must agree exactly.
"""

from __future__ import annotations

from functools import cache

from hypothesis import given, settings, strategies as st

from repro.budget.policy import POLICY_NAMES, build_policy
from repro.catalog import Index, index_sort_key
from repro.config import TuningConstraints
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners.base import TuningSession
from repro.tuners.greedy import greedy_enumerate
from repro.workload import CandidateGenerator
from repro.workload.query import Workload
from repro.workload.suites.real import enterprise_schema
from repro.workload.suites.toy import toy_workload
from repro.workload.synthesis import SynthesisProfile, WorkloadSynthesizer


def ref_greedy_enumerate(
    session,
    candidates: list[Index],
    constraints: TuningConstraints,
    workload=None,
    history=None,
    *,
    checkpoints: bool = False,
) -> frozenset[Index]:
    """Algorithm 1 with the per-index relevance scan and per-trial admits."""
    optimizer = session.optimizer
    queries = list(workload or optimizer.workload)
    pool: list[Index] = sorted(candidates, key=index_sort_key)
    position = {index: optimizer.position(index) for index in pool}
    tables_of = {query.qid: optimizer.prepared(query).by_table for query in queries}
    relevant = {
        index: [q for q in queries if index.table in tables_of[q.qid]] for index in pool
    }
    best_config: frozenset[Index] = frozenset()
    best_mask = 0
    current = {q.qid: optimizer.empty_cost(q) for q in queries}
    best_cost = sum(q.weight * current[q.qid] for q in queries)
    affected_by = relevant
    while pool and len(best_config) < constraints.max_indexes:
        if session.exhausted and affected_by is relevant:
            derivation = optimizer.derivation
            affected_by = {
                index: [
                    q
                    for q in relevant[index]
                    if derivation.has_observation(q.qid, position[index])
                ]
                for index in pool
            }
        trials = [
            (index, affected)
            for index in pool
            if (affected := affected_by[index])
            and constraints.admits(best_config, extra_bytes=index.estimated_size_bytes)
        ]
        if not session.exhausted:
            optimizer.whatif_prefetch(
                (query, best_mask | 1 << position[index])
                for index, affected in trials
                for query in affected
            )
        added = None
        step_cost = best_cost
        for index, affected in trials:
            extra = position[index]
            trial = best_mask | 1 << extra
            trial_cost = best_cost
            for query in affected:
                trial_cost += query.weight * (
                    optimizer.trial_cost(query, current[query.qid], trial, extra)
                    - current[query.qid]
                )
            if trial_cost < step_cost:
                added, step_cost = index, trial_cost
        if step_cost >= best_cost:
            break
        best_config = best_config | {added}
        best_mask |= 1 << position[added]
        if not session.exhausted:
            optimizer.whatif_prefetch((query, best_mask) for query in relevant[added])
        for query in relevant[added]:
            current[query.qid] = session.evaluated_cost(query, best_mask)
        best_cost = sum(q.weight * current[q.qid] for q in queries)
        pool = [index for index in pool if index not in best_config]
        if checkpoints:
            session.checkpoint(best_config)
        if history is not None:
            history.append((optimizer.calls_used, best_config))
    return best_config


def _synthesized(seed: int):
    schema = enterprise_schema(
        f"greedy{seed}", num_tables=8, target_bytes=2 * 10**9, seed=seed, hub_fraction=0.25
    )
    profile = SynthesisProfile(num_queries=6, min_joins=1, max_joins=3, filters_per_query=1.5)
    return WorkloadSynthesizer(schema, profile, seed=seed + 1).generate(f"greedy{seed}")


_BUILDERS = {
    "toy": toy_workload,
    "synth-4": lambda: _synthesized(4),
    "synth-9": lambda: _synthesized(9),
}


@cache
def _fixture(name: str):
    workload = _BUILDERS[name]()
    candidates = sorted(
        CandidateGenerator(workload.schema).for_workload(workload), key=index_sort_key
    )
    return workload, candidates


def _run(enumerate_fn, workload, candidates, constraints, policy, budget, sub, checkpoints):
    session = TuningSession(
        workload,
        candidates,
        constraints,
        backend=WhatIfOptimizer(workload, policy=build_policy(policy, budget)),
    )
    history: list = []
    chosen = enumerate_fn(
        session,
        candidates,
        constraints,
        workload=sub,
        history=history,
        checkpoints=checkpoints,
    )
    engine = session.optimizer
    stats = engine.stats.as_dict()
    del stats["cost_seconds"]
    calls = [(c.ordinal, c.qid, c.configuration, c.cost) for c in engine.call_log]
    return chosen, history, session.history, calls, list(session.events), stats


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(_BUILDERS)),
    policy=st.sampled_from(POLICY_NAMES),
    budget=st.integers(0, 60),
    max_indexes=st.integers(1, 6),
    cap_picks=st.none() | st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    sub_picks=st.none() | st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
    checkpoints=st.booleans(),
)
def test_greedy_matches_reference(
    name, policy, budget, max_indexes, cap_picks, sub_picks, checkpoints
):
    workload, candidates = _fixture(name)
    cap = None
    if cap_picks is not None:
        cap = sum(
            candidates[pick % len(candidates)].estimated_size_bytes for pick in cap_picks
        )
    constraints = TuningConstraints(max_indexes=max_indexes, max_storage_bytes=cap)
    sub = None
    if sub_picks is not None:
        queries = list(workload)
        picked = sorted({pick % len(queries) for pick in sub_picks})
        sub = Workload(
            name=f"{workload.name}:sub",
            schema=workload.schema,
            queries=[queries[position] for position in picked],
        )
    args = (workload, candidates, constraints, policy, budget, sub, checkpoints)
    assert _run(greedy_enumerate, *args) == _run(ref_greedy_enumerate, *args)


def test_trial_exactly_filling_the_cap_is_admitted():
    """A cap equal to the size of greedy's first pick still admits it."""
    workload, candidates = _fixture("toy")

    def first_pick(cap):
        session = TuningSession(workload, candidates, budget=200)
        return greedy_enumerate(
            session, candidates, TuningConstraints(max_indexes=1, max_storage_bytes=cap)
        )

    (winner,) = first_pick(None)
    assert first_pick(winner.estimated_size_bytes) == {winner}
    assert winner not in first_pick(winner.estimated_size_bytes - 1)
