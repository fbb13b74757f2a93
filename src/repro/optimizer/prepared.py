"""Configuration-independent query preparation.

Everything about a query that does *not* depend on the index configuration —
per-access selectivities, output cardinalities, the join order, per-edge join
selectivities — is computed once here and cached. A what-if call then only
has to price access paths and join operators against the configuration,
which keeps thousands of what-if calls per tuning session cheap.

Fixing the join order independently of the configuration also gives the cost
model an exact *monotonicity* guarantee (the paper's Assumption 1): adding
indexes can only add plan options to a fixed operator skeleton, so the
minimum cost never increases.

Beyond the structural facts, a prepared query carries two kinds of
performance state maintained by the cost model:

* *cost constants* — configuration-independent arithmetic (heap-scan price,
  B-tree descent height, per-step hash-join fixed terms, the sort/group
  stage price) hoisted out of the per-call pricing loop by
  :func:`repro.optimizer.cost_model.attach_cost_constants`;
* *memo tables* — per-(access, index) access-path options and per-(join
  step, index) INLJ prices, filled lazily on first use so repeated what-if
  calls reduce to minima over precomputed numbers.

It also knows which indexes are *relevant* to the query
(:func:`index_is_relevant`): an index that can produce no access option, no
INLJ probe, and no sort avoidance cannot change the query's plan or cost,
so what-if cache keys can safely be normalised to the relevant subset. The
test reads only the accesses and join steps on the index's own table,
through the per-table bucket (:attr:`PreparedQuery.by_table`) built here;
the :class:`~repro.optimizer.whatif.WhatIfOptimizer` keeps the answers as
one relevance bitmask per query over its interned index positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.catalog import Index, Schema, Table
from repro.optimizer import selectivity as sel
from repro.workload.analysis import BoundJoin, BoundQuery, PredicateKind, TableAccess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cost_model imports us)
    from repro.optimizer.cost_model import CostModelParams, _AccessOption


@dataclass(slots=True)
class PreparedAccess:
    """Precomputed facts about one table access.

    Attributes:
        binding: The access binding (alias).
        table: Catalog table object.
        local_selectivity: Product of all filter-predicate selectivities.
        equality_selectivity: Per-column combined selectivity of EQUALITY
            predicates (seekable as exact key matches).
        range_selectivity: Per-column combined selectivity of RANGE
            predicates (seekable as the closing seek column).
        residual_selectivity: Combined selectivity of RESIDUAL predicates
            (never seekable).
        required_columns: Columns an index must carry to cover this access.
        output_rows: Estimated rows surviving all filters.
        filter_count: Number of filter predicates (costed as CPU work).
        heap_option: The always-available heap-scan access option, priced at
            prepare time (cost constant, owned by the cost model).
        descend_cost: B-tree descent price for this table's cardinality
            (cost constant, owned by the cost model).
        option_cache: Per-index memo of access-path options (``None`` when
            the index yields no option for this access).
    """

    binding: str
    table: Table
    local_selectivity: float
    equality_selectivity: dict[str, float]
    range_selectivity: dict[str, float]
    residual_selectivity: float
    required_columns: frozenset[str]
    output_rows: float
    filter_count: int
    heap_option: "_AccessOption | None" = None
    descend_cost: float = 0.0
    option_cache: dict[Index, "_AccessOption | None"] = field(default_factory=dict)


@dataclass(slots=True)
class PreparedJoinStep:
    """One step of the left-deep join pipeline.

    Attributes:
        access: The inner (newly joined) table access.
        join_columns: Inner-side join columns connecting this access to the
            already-joined prefix (usually one; multiple for multi-edge
            connections).
        edge_selectivity: Product of join selectivities of the connecting
            edges.
        output_rows: Estimated cardinality after this join step.
        outer_rows: Estimated cardinality *entering* this step (the prefix's
            output) — fixed by the configuration-independent join order.
        hash_fixed_cost: Configuration-independent part of the hash-join
            price (build + probe + output CPU terms), a cost constant.
        probe_cache: Per-index memo of the *total* INLJ price of this step
            (``None`` when the index cannot serve the probe).
    """

    access: PreparedAccess
    join_columns: tuple[str, ...]
    edge_selectivity: float
    output_rows: float
    outer_rows: float = 0.0
    hash_fixed_cost: float = 0.0
    probe_cache: dict[Index, float | None] = field(default_factory=dict)


@dataclass(slots=True)
class PreparedQuery:
    """A query fully prepared for configuration costing.

    Attributes:
        qid: Source query id.
        accesses: All prepared accesses keyed by binding.
        first_binding: The access opening the left-deep pipeline.
        join_steps: Remaining accesses in join order.
        final_rows: Estimated output cardinality before grouping.
        order_columns: For single-access queries, the ``(column, ...)`` an
            access path must be keyed on (as a prefix) to avoid the sort;
            empty when no sort is needed or sort avoidance is impossible.
        sort_rows: Rows entering the sort/group stage (0 when none needed).
        aggregate_only: True when the stage serves only a GROUP BY (no
            ORDER BY), so a hash aggregate can replace the sort.
        params: The cost-model parameters the cost constants were computed
            with (``None`` until a cost model attaches them).
        stage_cost: Price of the sort/group stage (cost constant).
        by_table: Per table name, the accesses on it (in binding order) and
            the join steps whose inner access is on it (in join order) —
            all :func:`index_is_relevant` needs to read.
    """

    qid: str
    accesses: dict[str, PreparedAccess]
    first_binding: str
    join_steps: list[PreparedJoinStep]
    final_rows: float
    order_columns: tuple[str, ...] = ()
    sort_rows: float = 0.0
    aggregate_only: bool = False
    params: "CostModelParams | None" = None
    stage_cost: float = 0.0
    by_table: dict[str, tuple[list[PreparedAccess], list[PreparedJoinStep]]] = field(
        default_factory=dict
    )

    @property
    def bindings(self) -> list[str]:
        return list(self.accesses)


def index_is_relevant(prepared: PreparedQuery, index: Index) -> bool:
    """Whether ``index`` can produce any plan option for ``prepared``.

    Mirrors the cost model's option generation exactly — an index is
    relevant iff at least one of these holds:

    * *seekable*: some access on its table carries an equality or range
      predicate on the index's leading key column;
    * *covering*: it carries every column some access on its table requires
      (enabling an index-only scan);
    * *probe-qualifying*: for some join step on its table, a join column
      appears in its key with every earlier key column bound by an equality
      predicate (enabling an index-nested-loop probe).

    When none holds, the index contributes no option to any minimum the
    model takes, so ``cost(q, C) == cost(q, C − {index})`` exactly; dropping
    it from cache keys is semantics-preserving. Only the index's own table
    can satisfy any of them, so the scan starts from that table's bucket.
    """
    bucket = prepared.by_table.get(index.table)
    if bucket is None:
        return False
    accesses, steps = bucket
    first_key = index.key_columns[0]
    for access in accesses:
        if (
            first_key in access.equality_selectivity
            or first_key in access.range_selectivity
        ):
            return True
        if index.covers(access.required_columns):
            return True
    for step in steps:
        access = step.access
        for column in index.key_columns:
            if column in step.join_columns:
                return True
            if column not in access.equality_selectivity:
                break
    return False


def _prepare_access(schema: Schema, access: TableAccess) -> PreparedAccess:
    table = schema.table(access.table)
    equality: dict[str, float] = {}
    ranges: dict[str, float] = {}
    residual = 1.0
    local = 1.0
    for predicate in access.filters:
        column = table.column(predicate.column)
        s = sel.predicate_selectivity(column, predicate)
        local *= s
        if predicate.kind is PredicateKind.EQUALITY:
            equality[predicate.column] = equality.get(predicate.column, 1.0) * s
        elif predicate.kind is PredicateKind.RANGE:
            ranges[predicate.column] = ranges.get(predicate.column, 1.0) * s
        else:
            residual *= s
    local = max(local, sel.MIN_SELECTIVITY)
    return PreparedAccess(
        binding=access.binding,
        table=table,
        local_selectivity=local,
        equality_selectivity=equality,
        range_selectivity=ranges,
        residual_selectivity=residual,
        required_columns=frozenset(access.required_columns),
        output_rows=max(1.0, table.row_count * local),
        filter_count=len(access.filters),
    )


def _choose_join_order(
    accesses: dict[str, PreparedAccess], joins: list[BoundJoin]
) -> list[str]:
    """Greedy smallest-cardinality-first left-deep order.

    Starts from the access with the fewest estimated output rows; at each
    step prefers bindings connected to the current prefix by a join edge
    (falling back to a cross product only when the join graph is
    disconnected), picking the connected binding with the fewest rows.
    Ties on rows go to the smaller binding name.

    The connected bindings are kept as a frontier, the remaining
    neighbours of the joined prefix, grown from each new member's
    adjacency list, so a step costs that member's edges.
    """
    adjacency: dict[str, list[str]] = {}
    for join in joins:
        adjacency.setdefault(join.left_binding, []).append(join.right_binding)
        adjacency.setdefault(join.right_binding, []).append(join.left_binding)

    def rank(binding: str) -> tuple[float, str]:
        return (accesses[binding].output_rows, binding)

    remaining = set(accesses)
    frontier: set[str] = set()
    order: list[str] = []
    current = min(remaining, key=rank)
    while True:
        order.append(current)
        remaining.discard(current)
        if not remaining:
            return order
        frontier.discard(current)
        frontier.update(
            binding for binding in adjacency.get(current, ()) if binding in remaining
        )
        current = min(frontier or remaining, key=rank)


def prepare_query(schema: Schema, bound: BoundQuery) -> PreparedQuery:
    """Prepare ``bound`` for repeated configuration costing.

    Cost constants are attached lazily by the first cost model that prices
    the query (see :func:`repro.optimizer.cost_model.attach_cost_constants`),
    so preparation itself stays parameter-free.
    """
    accesses = {
        binding: _prepare_access(schema, access)
        for binding, access in bound.accesses.items()
    }
    order = _choose_join_order(accesses, bound.joins)

    steps: list[PreparedJoinStep] = []
    joined = {order[0]}
    rows = accesses[order[0]].output_rows
    for binding in order[1:]:
        access = accesses[binding]
        join_columns: list[str] = []
        edge_selectivity = 1.0
        for join in bound.joins:
            if not join.touches(binding):
                continue
            other = join.other_binding(binding)
            if other not in joined:
                continue
            _, inner_column = join.side(binding)
            if inner_column not in join_columns:
                join_columns.append(inner_column)
            other_table, other_column = join.side(other)
            edge_selectivity *= sel.join_selectivity(
                accesses[other].table.column(other_column),
                access.table.column(inner_column),
            )
        outer_rows = rows
        rows = max(1.0, rows * access.output_rows * edge_selectivity)
        steps.append(
            PreparedJoinStep(
                access=access,
                join_columns=tuple(join_columns),
                edge_selectivity=edge_selectivity,
                output_rows=rows,
                outer_rows=outer_rows,
            )
        )
        joined.add(binding)

    needs_sort = bool(bound.group_by or bound.order_by)
    order_columns: tuple[str, ...] = ()
    if needs_sort and len(accesses) == 1:
        # Sort avoidance is modelled for single-access queries: an index
        # keyed on the grouping/ordering columns delivers rows pre-ordered.
        wanted = bound.group_by or [(b, c) for b, c, _ in bound.order_by]
        only_binding = order[0]
        if all(binding == only_binding for binding, _ in wanted):
            order_columns = tuple(column for _, column in wanted)

    by_table: dict[str, tuple[list[PreparedAccess], list[PreparedJoinStep]]] = {}
    for access in accesses.values():
        by_table.setdefault(access.table.name, ([], []))[0].append(access)
    for step in steps:
        by_table[step.access.table.name][1].append(step)

    return PreparedQuery(
        qid=bound.qid,
        accesses=accesses,
        first_binding=order[0],
        join_steps=steps,
        final_rows=rows,
        order_columns=order_columns,
        sort_rows=rows if needs_sort else 0.0,
        aggregate_only=bool(bound.group_by) and not bound.order_by,
        by_table=by_table,
    )
