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
from repro.tuners.base import Tuner, TuningSession
from repro.workload.query import Workload


def greedy_enumerate(
    session: TuningSession,
    candidates: list[Index],
    constraints: TuningConstraints,
    workload: Workload | None = None,
    history: list[tuple[int, frozenset[Index]]] | None = None,
    *,
    checkpoints: bool = False,
) -> frozenset[Index]:
    """Algorithm 1 over ``workload`` (default: the session's workload).

    Args:
        session: The running tuning session.
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
    optimizer = session.optimizer
    queries = list(workload or optimizer.workload)

    # Relevance map: only queries touching an index's table can change cost.
    # One grouping per table, each list in workload order.
    queries_on: dict[str, list] = {}
    for query in queries:
        for table in optimizer.prepared(query).by_table:
            queries_on.setdefault(table, []).append(query)
    # The pool in canonical order, each index carried with its engine
    # position (a step's configuration is a bitmask, and a trial is that
    # mask plus one bit) and the queries a trial of it probes, so a step
    # hashes no index.
    pool = [
        (index, optimizer.position(index), queries_on.get(index.table, []))
        for index in sorted(candidates, key=index_sort_key)
    ]
    # Equal indexes share a position; a step's winner is the first of them.
    index_at: dict[int, Index] = {}
    for index, position, _ in pool:
        index_at.setdefault(position, index)

    best_config: frozenset[Index] = frozenset()
    best_mask = 0
    # The storage cap as room left: a trial fits iff its size is at most
    # ``room``. The loop guard keeps ``len(best_config) < K``, so this is
    # exactly ``constraints.admits(best_config, extra_bytes=size)``.
    room = constraints.max_storage_bytes
    current = {q.qid: optimizer.empty_cost(q) for q in queries}
    best_cost = sum(q.weight * current[q.qid] for q in queries)

    # Once the budget is spent the derivation store is frozen: a (query,
    # index) pair with no recorded observation can never change the trial
    # cost, so the post-budget sweep restricts itself to observed pairs.
    narrowed = False

    while pool and len(best_config) < constraints.max_indexes:
        if not narrowed and session.exhausted:
            narrowed = True
            has_observation = optimizer.derivation.has_observation
            pool = [
                (index, extra, [q for q in affected if has_observation(q.qid, extra)])
                for index, extra, affected in pool
            ]
        # This step's trials as (mask, position, affected queries), each
        # index tested against the storage cap once. The engine prices
        # them in one pass: counted calls go out first-come-first-serve in
        # (index, query) order, batched and committed in issue order, so
        # the FCFS layout is byte-identical to probing each pair in turn.
        trials = [
            (best_mask | 1 << extra, extra, affected)
            for index, extra, affected in pool
            if affected and (room is None or index.estimated_size_bytes <= room)
        ]
        totals = optimizer.greedy_step_costs(trials, current, best_cost)
        step_cost = best_cost
        for (_, extra, _), trial_cost in zip(trials, totals):
            if trial_cost < step_cost:
                added_extra, step_cost = extra, trial_cost
        if step_cost >= best_cost:
            break
        added = index_at[added_extra]
        best_config = best_config | {added}
        best_mask |= 1 << added_extra
        if room is not None:
            room -= added.estimated_size_bytes
        # Refresh per-query costs: only queries touching the added index's
        # table can have changed. Same batching: prefetch in loop order so
        # the FCFS truncation point matches the sequential evaluation.
        refreshed = queries_on.get(added.table, [])
        if not session.exhausted:
            optimizer.whatif_prefetch((query, best_mask) for query in refreshed)
        for query in refreshed:
            current[query.qid] = session.evaluated_cost(query, best_mask)
        best_cost = sum(q.weight * current[q.qid] for q in queries)
        # Earlier members left the pool in their own steps, and equal
        # indexes share a position: this drops exactly the entries now in
        # ``best_config``.
        pool = [entry for entry in pool if entry[1] != added_extra]
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
