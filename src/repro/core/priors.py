"""Algorithm 4: singleton percentage improvements under limited budget.

The ε-greedy selection policy needs a "prior reward" for actions that have
never been taken — the percentage improvement ``η(W, {a})`` of the singleton
configuration ``{a}``. Computing these exactly would cost ``|W|·|I|`` what-if
calls, so Algorithm 4 spends a sub-budget ``B' = min(B/2, P)`` selectively:
each counted call picks a query (round-robin by default) and one of its
not-yet-evaluated candidate indexes (largest indexed table first by default)
and refines that index's workload-level estimate::

    cost(W, {I}) ← cost(W, {I}) − c(q, ∅) + c(q, {I})

Indexes never sampled keep their pessimistic initialisation
``cost(W, {I}) = c(W, ∅)``, i.e. a zero prior.
"""

from __future__ import annotations

import random

from repro.catalog import Index
from repro.backend.base import CostBackend
from repro.workload.candidates import candidates_for_query
from repro.workload.query import Query


def relevant_indexes(optimizer: CostBackend, query: Query, candidates) -> list[Index]:
    """The query's own candidate indexes within the global pool.

    Different queries contribute different candidate indexes, so the
    round-robin QuerySelection policy keeps *finding new indexes* — the
    design intent stated in Section 6.1.2.
    """
    return candidates_for_query(
        optimizer.workload.schema, query, list(candidates)
    )


def relevant_by_query(optimizer: CostBackend, candidates) -> dict[str, list[Index]]:
    """:func:`relevant_indexes` for every workload query, keyed by qid
    (the pool's list and set built once for the pass)."""
    schema = optimizer.workload.schema
    pool = list(candidates)
    members = set(pool)
    return {
        query.qid: candidates_for_query(schema, query, pool, pool_set=members)
        for query in optimizer.workload
    }


class _QuerySelector:
    """QuerySelection policies for Algorithm 4."""

    def __init__(self, mode: str, optimizer: CostBackend, rng: random.Random):
        self._mode = mode
        self._optimizer = optimizer
        self._rng = rng
        self._cursor = 0

    def next_query(self, eligible: list[Query]) -> Query:
        """Pick the next query among those with unevaluated pairs left."""
        if self._mode == "cost_proportional":
            weights = [
                max(1e-12, self._optimizer.empty_cost(query)) for query in eligible
            ]
            return self._rng.choices(eligible, weights=weights, k=1)[0]
        # Round-robin: advance a cursor over the full workload order, skipping
        # queries that are no longer eligible.
        workload = list(self._optimizer.workload)
        eligible_ids = {query.qid for query in eligible}
        for _ in range(len(workload)):
            query = workload[self._cursor % len(workload)]
            self._cursor += 1
            if query.qid in eligible_ids:
                return query
        return eligible[0]


def _select_index(
    mode: str,
    optimizer: CostBackend,
    pending: list[Index],
    rng: random.Random,
) -> Index:
    """IndexSelection: largest-table-first (paper default) or uniform."""
    if mode == "uniform":
        return rng.choice(pending)
    schema = optimizer.workload.schema
    return max(
        pending,
        key=lambda ix: (
            schema.table(ix.table).row_count,
            ix.key_columns,
            ix.include_columns,
        ),
    )


def compute_singleton_priors(
    optimizer: CostBackend,
    candidates: list[Index],
    budget: int,
    rng: random.Random,
    query_selection: str = "round_robin",
    index_selection: str = "largest_table",
    relevant: dict[str, list[Index]] | None = None,
) -> dict[Index, float]:
    """Run Algorithm 4 and return prior improvements as fractions in [0, 1].

    Args:
        optimizer: Budget-metered what-if interface (calls made here count
            against the global budget).
        candidates: The candidate indexes ``I``.
        budget: Sub-budget ``B'`` for this computation.
        rng: Seeded RNG for the stochastic policies.
        query_selection: ``"round_robin"`` or ``"cost_proportional"``.
        index_selection: ``"largest_table"`` or ``"uniform"``.
        relevant: Each query's relevant candidates, as
            :func:`relevant_by_query` returns them (computed when omitted).

    Returns:
        ``η(W, {I})`` for every candidate (0.0 for never-sampled indexes).
    """
    workload = optimizer.workload
    empty_total = optimizer.empty_workload_cost()
    # cost(W, {I}) initialised to c(W, ∅) for every candidate (lines 1-2).
    workload_costs: dict[Index, float] = {index: empty_total for index in candidates}

    if relevant is None:
        relevant = relevant_by_query(optimizer, candidates)
    pending: dict[str, list[Index]] = {
        qid: list(indexes) for qid, indexes in relevant.items()
    }

    selector = _QuerySelector(query_selection, optimizer, rng)
    spent = 0
    while spent < budget:
        eligible = [query for query in workload if pending.get(query.qid)]
        if not eligible:
            break
        query = selector.next_query(eligible)
        index = _select_index(index_selection, optimizer, pending[query.qid], rng)
        pending[query.qid].remove(index)
        singleton = frozenset({index})
        # Pre-check after the RNG draw and the pending removal so the RNG
        # consumption order matches the historical try/except flow exactly;
        # cached pairs stay free and keep the loop going even when denied.
        if not (
            optimizer.policy.admits(query.qid)
            or optimizer.is_cached(query, singleton)
        ):
            break
        before = optimizer.calls_used
        singleton_cost = optimizer.whatif_cost(query, singleton)
        spent += optimizer.calls_used - before
        empty_cost = optimizer.empty_cost(query)
        workload_costs[index] += query.weight * (singleton_cost - empty_cost)

    priors: dict[Index, float] = {}
    for index, cost in workload_costs.items():
        if empty_total <= 0:
            priors[index] = 0.0
        else:
            priors[index] = max(0.0, min(1.0, 1.0 - cost / empty_total))
    return priors


def prior_pair_count(relevant: dict[str, list[Index]]) -> int:
    """``P``: the number of relevant (query, index) pairs (for B' = min(B/2, P)).

    Args:
        relevant: Each query's relevant candidates (:func:`relevant_by_query`).
    """
    return sum(len(indexes) for indexes in relevant.values())
