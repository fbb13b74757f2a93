"""Workload compression (the paper's footnote 5, citing [20, 29]).

The paper tunes one query instance per template and leaves multi-instance
workloads to workload compression as future work. This module provides that
step: it clusters queries by a structural feature signature (tables touched,
filter/join shape, cost magnitude) and keeps one representative per cluster,
re-weighted by its cluster's total weight — so tuning the compressed
workload optimises (approximately) the original objective with far fewer
queries to spend what-if calls on.

The algorithm is a deterministic greedy k-medoids over a cheap feature
space, in the spirit of Chaudhuri et al.'s SQL-workload compression: pick
the highest-weight query as the first medoid, then repeatedly add the query
farthest (weighted) from its nearest medoid until ``target_queries`` is
reached, and finally assign every query to its nearest medoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import ReproConfig
from repro.exceptions import TuningError
from repro.workload.query import Query, Workload

if TYPE_CHECKING:  # deferred at runtime: the backend imports workload.analysis
    from repro.backend.base import CostBackend


@dataclass(frozen=True)
class QuerySignature:
    """Structural features of one query used for compression distance.

    Attributes:
        tables: Tables (not bindings) the query touches.
        filter_columns: ``table.column`` of every filter predicate.
        join_columns: ``table.column`` of every join endpoint.
        order_columns: Grouping/ordering columns.
        log_cost: ``log10`` of the query's empty-configuration cost.
    """

    tables: frozenset[str]
    filter_columns: frozenset[str]
    join_columns: frozenset[str]
    order_columns: frozenset[str]
    log_cost: float


def _jaccard_distance(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    union = len(a | b)
    return 1.0 - len(a & b) / union


def signature_distance(a: QuerySignature, b: QuerySignature) -> float:
    """Distance in ``[0, 1]``-ish units between two query signatures.

    Structural (Jaccard) components dominate; the cost magnitude term keeps
    a cheap and an expensive instance of similar shape separable.
    """
    structural = (
        0.4 * _jaccard_distance(a.tables, b.tables)
        + 0.25 * _jaccard_distance(a.filter_columns, b.filter_columns)
        + 0.25 * _jaccard_distance(a.join_columns, b.join_columns)
        + 0.10 * _jaccard_distance(a.order_columns, b.order_columns)
    )
    cost_gap = min(1.0, abs(a.log_cost - b.log_cost) / 3.0)
    return 0.85 * structural + 0.15 * cost_gap


def query_signature(optimizer: "CostBackend", query: Query) -> QuerySignature:
    """Compute the compression signature of one query."""
    workload = optimizer.workload
    bound = query.bind(workload.schema)
    filters = frozenset(
        f"{access.table}.{predicate.column}"
        for access in bound.accesses.values()
        for predicate in access.filters
    )
    joins = frozenset(
        endpoint
        for join in bound.joins
        for endpoint in (
            f"{join.left_table}.{join.left_column}",
            f"{join.right_table}.{join.right_column}",
        )
    )
    orders = frozenset(
        f"{bound.accesses[binding].table}.{column}"
        for binding, column in bound.group_by
    ) | frozenset(
        f"{bound.accesses[binding].table}.{column}"
        for binding, column, _ in bound.order_by
    )
    cost = optimizer.empty_cost(query)
    return QuerySignature(
        tables=frozenset(bound.tables),
        filter_columns=filters,
        join_columns=joins,
        order_columns=orders,
        log_cost=math.log10(max(cost, 1.0)),
    )


class WorkloadCompressor:
    """Greedy k-medoids compression of a workload.

    Args:
        target_queries: Number of representatives to keep.
    """

    def __init__(self, target_queries: int):
        if target_queries < 1:
            raise TuningError(
                f"target_queries must be positive, got {target_queries}"
            )
        self._target = target_queries

    def compress(self, workload: Workload) -> Workload:
        """Return the compressed workload with re-weighted representatives.

        The compressed workload's total weight equals the original's, so
        workload-cost improvements remain on the same scale.
        """
        if len(workload) <= self._target:
            return workload

        from repro.backend.factory import build_backend

        # Signatures feed on clean empty-configuration costs: analytic, with
        # the default settings, so no REPRO_* variable reaches them.
        optimizer = build_backend("analytic", workload, config=ReproConfig())
        queries = list(workload)
        signatures = {q.qid: query_signature(optimizer, q) for q in queries}
        # Weighted importance: weight × cost — expensive frequent queries
        # anchor the medoids.
        importance = {
            q.qid: q.weight * optimizer.empty_cost(q) for q in queries
        }

        medoids = [max(queries, key=lambda q: importance[q.qid])]
        while len(medoids) < self._target:
            def spread(query: Query) -> float:
                nearest = min(
                    signature_distance(signatures[query.qid], signatures[m.qid])
                    for m in medoids
                )
                return nearest * importance[query.qid]

            remaining = [q for q in queries if q not in medoids]
            medoids.append(max(remaining, key=spread))

        # Assign every query to its nearest medoid; representatives absorb
        # their cluster's weight.
        cluster_weight = {m.qid: 0.0 for m in medoids}
        for query in queries:
            nearest = min(
                medoids,
                key=lambda m: signature_distance(
                    signatures[query.qid], signatures[m.qid]
                ),
            )
            cluster_weight[nearest.qid] += query.weight

        compressed = [
            Query(qid=m.qid, sql=m.sql, weight=cluster_weight[m.qid])
            for m in medoids
        ]
        return Workload(
            name=f"{workload.name}~{self._target}",
            schema=workload.schema,
            queries=compressed,
        )
