"""Vanilla greedy search (Algorithm 1) drawing budget through the session.

The classic AutoAdmin/DTA greedy enumeration: start from the empty
configuration, repeatedly add the single index that most reduces the
workload cost, and stop when no addition helps or the cardinality constraint
is reached. Budget-awareness follows Section 4.2.1 under the default FCFS
policy: what-if calls are issued first-come-first-serve until the budget
runs out, after which derived costs stand in — producing the row-major
layout of Figure 5(b). Other budget policies simply deny different calls;
the enumeration logic is unchanged.

One standard engineering refinement over the textbook pseudo-code: when a
trial index's table is not accessed by a query, the query's cost cannot
change, so the previous evaluation is reused instead of issuing a what-if
call — the same effect the what-if cache gives real tuners. The layout the
algorithm realises therefore only contains *informative* cells.
"""

from __future__ import annotations

from repro.catalog import Index, index_sort_key
from repro.config import TuningConstraints
from repro.backend.base import CostBackend
from repro.tuners.base import Tuner, TuningSession, as_session
from repro.workload.query import Workload


def greedy_enumerate(
    session: TuningSession | CostBackend,
    candidates: list[Index],
    constraints: TuningConstraints,
    workload: Workload | None = None,
    history: list[tuple[int, frozenset[Index]]] | None = None,
    *,
    checkpoints: bool = False,
) -> frozenset[Index]:
    """Algorithm 1 over ``workload`` (default: the session's workload).

    Args:
        session: The tuning session (a bare optimizer is wrapped for
            pre-session callers such as MCTS extraction).
        candidates: Candidate indexes ``I``.
        constraints: Cardinality/storage constraints ``Γ``.
        workload: Optional sub-workload (the two-phase variant tunes each
            query as a singleton workload through this hook).
        history: Optional sink for ``(calls_used, best_config)`` checkpoints
            (used by sub-searches that keep a local history).
        checkpoints: When true, record each round through
            :meth:`~repro.tuners.base.TuningSession.checkpoint` — the
            session history, event stream, and budget-policy hooks all see
            the round. Top-level tuners set this; embedded greedy phases
            (extraction, per-query sub-tuning) leave it off.

    Returns:
        The best configuration found, honouring ``constraints``.
    """
    session = as_session(session)
    optimizer = session.optimizer
    queries = list(workload or optimizer.workload)
    pool: list[Index] = sorted(candidates, key=index_sort_key)
    # The engine's position of each index: a step's configuration is carried
    # as a bitmask, and a trial is that mask plus one bit.
    position = {index: optimizer.position(index) for index in pool}

    # Relevance map: only queries touching an index's table can change cost.
    tables_of = {query.qid: optimizer.prepared(query).by_table for query in queries}
    relevant = {
        index: [q for q in queries if index.table in tables_of[q.qid]]
        for index in pool
    }

    best_config: frozenset[Index] = frozenset()
    best_mask = 0
    current = {q.qid: optimizer.empty_cost(q) for q in queries}
    best_cost = sum(q.weight * current[q.qid] for q in queries)

    # Once the budget is spent the derivation store is frozen: a (query,
    # index) pair with no recorded observation can never change the trial
    # cost, so the post-budget sweep restricts itself to observed pairs.
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
        # This step's trials, each index tested against the constraints once:
        # the prefetch below and the trial loop both walk this list.
        trials = [
            (index, affected)
            for index in pool
            if (affected := affected_by[index])
            and constraints.admits(best_config, extra_bytes=index.estimated_size_bytes)
        ]
        # Batch-price this step's counted calls up front, in the exact
        # (index, query) order the trial loop below would issue them.
        # Prefetch dedupes, reserves through the budget policy, and commits
        # in issue order, so the FCFS layout is byte-identical to the
        # sequential loop — the loop then reads everything from the cache.
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
        # Refresh per-query costs: only queries touching the added index's
        # table can have changed. Same batching: prefetch in loop order so
        # the FCFS truncation point matches the sequential evaluation.
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


class VanillaGreedyTuner(Tuner):
    """Algorithm 1 at workload level with session-drawn budget."""

    name = "vanilla_greedy"

    def _enumerate(self, session: TuningSession) -> frozenset[Index]:
        return greedy_enumerate(
            session, session.candidates, session.constraints, checkpoints=True
        )
