"""Index interaction analysis (Schnaitter et al., VLDB'09 — the paper's [56]).

Two indexes *interact* on a query when the benefit of having both differs
from the better of having either: redundant indexes (two covering variants
of the same access) interact negatively, complementary ones (a probe index
plus the index that makes its outer side selective) positively. The paper's
cost-derivation machinery implicitly assumes interactions are benign enough
for subset-based bounds; this module measures them directly against the
cost model, which is useful both for validating that assumption on a
workload and for diagnosing why a tuner kept or dropped an index.

Degree of interaction (per query ``q``, indexes ``a, b``)::

    doi(q, a, b) = (min(c_a, c_b) − c_ab) / c_0

where ``c_0 = c(q, ∅)``, ``c_x = c(q, {x})`` and ``c_ab = c(q, {a, b})``.
Positive values mean the pair is worth more than its best member
(synergy); zero means independence under derivation; negative values are
impossible under a monotone cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.backend.base import CostBackend
from repro.backend.factory import build_backend
from repro.catalog import Index, index_sort_key
from repro.config import ReproConfig
from repro.workload.query import Query, Workload


@dataclass(frozen=True)
class InteractionRecord:
    """One measured pairwise interaction.

    Attributes:
        first: The lexicographically first index of the pair.
        second: The other index.
        degree: Workload-level degree of interaction (weighted mean of the
            per-query degrees).
        queries: Number of queries on which the pair interacts (> eps).
    """

    first: Index
    second: Index
    degree: float
    queries: int


def pair_interaction(
    optimizer: CostBackend, query: Query, a: Index, b: Index
) -> float:
    """Degree of interaction of ``{a, b}`` on one query (uncounted calls)."""
    base = optimizer.empty_cost(query)
    if base <= 0:
        return 0.0
    cost_a = optimizer.true_cost(query, frozenset({a}))
    cost_b = optimizer.true_cost(query, frozenset({b}))
    cost_ab = optimizer.true_cost(query, frozenset({a, b}))
    return (min(cost_a, cost_b) - cost_ab) / base


def workload_interactions(
    workload: Workload,
    candidates: list[Index],
    threshold: float = 1e-4,
    max_pairs: int | None = None,
) -> list[InteractionRecord]:
    """All pairwise interactions above ``threshold``, strongest first.

    Only same-query-relevant pairs are evaluated: two indexes can interact
    on a query only if that query touches both their tables.

    Args:
        workload: The workload to analyse.
        candidates: Candidate indexes to pair up.
        threshold: Minimum workload-level degree to report.
        max_pairs: Optional cap on the number of candidate pairs examined
            (pairs are enumerated in canonical order).
    """
    # Interaction degrees are a ground-truth analysis: always analytic, with
    # the default settings, so no REPRO_* variable reaches it.
    optimizer = build_backend("analytic", workload, config=ReproConfig())
    tables_of = {
        query.qid: frozenset(
            access.table.name
            for access in optimizer.prepared(query).accesses.values()
        )
        for query in workload
    }
    total_weight = sum(query.weight for query in workload)

    records: list[InteractionRecord] = []
    ordered = sorted(candidates, key=index_sort_key)
    examined = 0
    for a, b in combinations(ordered, 2):
        if max_pairs is not None and examined >= max_pairs:
            break
        shared = [
            query
            for query in workload
            if a.table in tables_of[query.qid] and b.table in tables_of[query.qid]
        ]
        if not shared:
            continue
        examined += 1
        weighted = 0.0
        interacting = 0
        for query in shared:
            degree = pair_interaction(optimizer, query, a, b)
            if degree > threshold:
                interacting += 1
            weighted += query.weight * degree
        degree = weighted / total_weight
        if degree > threshold:
            records.append(
                InteractionRecord(first=a, second=b, degree=degree, queries=interacting)
            )
    records.sort(key=lambda record: -record.degree)
    return records


def format_interactions(records: list[InteractionRecord], limit: int = 20) -> str:
    """Readable table of the strongest interactions."""
    lines = [f"{'degree':>8s} {'#q':>4s}  pair"]
    for record in records[:limit]:
        lines.append(
            f"{record.degree:8.4f} {record.queries:4d}  "
            f"{record.first.display()}  +  {record.second.display()}"
        )
    if not records:
        lines.append("  (no interactions above threshold)")
    return "\n".join(lines)
