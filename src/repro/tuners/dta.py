"""DTA simulation (Section 7.3): a time-sliced anytime tuner.

Mirrors the architecture the paper describes for Microsoft's Database Tuning
Advisor: in each *time slice* the tuner consumes the next batch of queries
off a cost-based priority queue, tunes the batch (per-query greedy), merges
the winners into its running candidate pool (including a simple index-merging
pass), and refreshes a workload-level recommendation over the pool — so a
valid recommendation exists at any time (the anytime property).

A time budget is accepted in *minutes* and mapped to a what-if call budget
through :class:`~repro.eval.timemodel.WhatIfTimeModel`, exactly the mapping
the paper proposes for exposing a time knob on top of a call budget. The
failure mode the paper observes — a costly query monopolising budget so that
some slices return no useful indexes — emerges naturally from the priority
queue processing the most expensive queries first.

Per-slice throttling uses the session's scoped
:meth:`~repro.tuners.base.TuningSession.allowance` (a
:class:`~repro.budget.policy.SliceAllowance` over the active policy), which
replaced the ad-hoc slice-limited optimizer proxy this module used to carry.
"""

from __future__ import annotations

from repro.catalog import Index, index_sort_key
from repro.tuners.base import Tuner, TuningSession
from repro.tuners.greedy import greedy_enumerate
from repro.workload.candidates import candidates_for_query
from repro.workload.query import Workload


def merge_indexes(pool: list[Index], schema, built: dict | None = None) -> list[Index]:
    """A simplified index-merging pass (Chaudhuri & Narasayya, ICDE'99).

    Two pooled indexes on the same table with the same key prefix are merged
    into one whose INCLUDE list is the union of their payloads — trading a
    little width for fewer indexes, as DTA's merging step does.

    ``built`` maps ``(table, keys, include)`` to an index an earlier pass
    built for it; DTA keeps one map per run, so a merged index is built and
    sized once however many slices merge it again, and keeps its identity.
    """
    if built is None:
        built = {}
    merged: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    for index in pool:
        key = (index.table, index.key_columns)
        payload = merged.setdefault(key, set())
        payload.update(index.include_columns)
    result = []
    # Sorted key order makes the merge output deterministic by construction,
    # independent of pool arrival order (REP004 discipline; downstream greedy
    # re-sorts by the same canonical key, so outcomes are unchanged).
    for (table_name, keys), payload in sorted(merged.items()):
        signature = (table_name, keys, tuple(sorted(payload - set(keys))))
        index = built.get(signature)
        if index is None:
            index = built[signature] = Index.build(
                schema.table(table_name), keys, signature[2]
            )
        result.append(index)
    return result


class DTATuner(Tuner):
    """Time-sliced anytime tuning with a cost-based query priority queue.

    Args:
        slice_queries: Queries consumed per time slice.
        per_query_share: Fraction of the remaining budget a slice may spend
            on its batch (DTA throttles per-slice work similarly).
        merging: Whether to run the index-merging pass between slices.
    """

    name = "dta"

    def __init__(
        self,
        slice_queries: int = 2,
        per_query_share: float = 0.25,
        merging: bool = True,
    ):
        self._slice_queries = slice_queries
        self._per_query_share = per_query_share
        self._merging = merging

    def _enumerate(self, session: TuningSession) -> frozenset[Index]:
        optimizer = session.optimizer
        workload = session.workload
        schema = workload.schema
        candidates = session.candidates
        constraints = session.constraints

        # Cost-based priority queue: most expensive queries first.
        queue = sorted(
            workload, key=lambda q: -q.weight * optimizer.empty_cost(q)
        )

        pool: list[Index] = []
        seen: set[tuple] = set()
        members = set(candidates)
        merged: dict[tuple, Index] = {}
        best: frozenset[Index] = frozenset()
        best_cost = optimizer.empty_workload_cost()

        while queue and not session.exhausted:
            session.phase("slice")
            batch, queue = queue[: self._slice_queries], queue[self._slice_queries :]
            for query in batch:
                remaining = session.remaining
                slice_budget = (
                    None
                    if remaining is None
                    else max(1, int(remaining * self._per_query_share))
                )
                local = candidates_for_query(
                    schema, query, candidates, pool_set=members
                )
                if not local:
                    continue
                singleton = Workload(
                    name=f"{workload.name}:{query.qid}",
                    schema=schema,
                    queries=[query],
                )
                if slice_budget is None:
                    winner = greedy_enumerate(
                        session, local, constraints, workload=singleton
                    )
                else:
                    # The allowance stops this query drawing counted calls
                    # once its slice is spent; the global budget (and
                    # session.exhausted) provide hard enforcement throughout.
                    with session.allowance(slice_budget):
                        winner = greedy_enumerate(
                            session, local, constraints, workload=singleton
                        )
                for index in winner:
                    signature = index_sort_key(index)
                    if signature not in seen:
                        seen.add(signature)
                        pool.append(index)

            working_pool = (
                merge_indexes(pool, schema, merged)
                if self._merging and pool
                else list(pool)
            )
            if not working_pool:
                continue
            recommendation = greedy_enumerate(session, working_pool, constraints)
            cost = optimizer.derived_workload_cost(recommendation)
            if cost < best_cost and constraints.admits(recommendation):
                best, best_cost = frozenset(recommendation), cost
            # Anytime property: a recommendation exists after every slice.
            session.checkpoint(best)

        return best
