"""The what-if cost model: price a query plan under a hypothetical configuration.

Given a :class:`~repro.optimizer.prepared.PreparedQuery` and an index
configuration, the model prices a left-deep pipeline whose join *order* is
fixed (configuration-independent, chosen at preparation time) but whose
*operators* are chosen per step as the cheapest available option:

* table accesses — heap scan, index seek (covering or with row lookups),
  index-only scan;
* joins — hash join against the best standalone inner access, or index
  nested-loop join probing an inner index keyed on the join column;
* the final sort/group stage — priced as an explicit sort unless a
  single-access query reads from an index already keyed on the ordering
  columns.

Because every choice is a minimum over an option set that only grows when
indexes are added, the model satisfies the paper's Assumption 1
(monotonicity) exactly: ``C1 ⊆ C2  ⇒  cost(q, C2) ≤ cost(q, C1)``.

Pricing is split into two tiers so the per-call hot path stays small:

* :func:`attach_cost_constants` hoists every configuration-independent term
  (heap-scan price, B-tree descent height, per-step hash-join fixed terms,
  the sort/group stage price) onto the prepared query once per
  parameter set;
* per-(access, index) seek/scan options and per-(join step, index) INLJ
  prices are memoized on the prepared query the first time an index is
  priced, so a what-if call reduces to minima over precomputed numbers plus
  the configuration-dependent operator choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog import Index, Schema, index_sort_key
from repro.catalog.table import PAGE_BYTES
from repro.optimizer import selectivity as sel
from repro.optimizer.plan import AccessPlan, JoinPlan, QueryPlan
from repro.optimizer.prepared import (
    PreparedAccess,
    PreparedJoinStep,
    PreparedQuery,
    prepare_query,
)
from repro.workload.analysis import BoundQuery

#: Memo-table sentinel distinguishing "not computed" from "no option".
_UNSET = object()


@dataclass(frozen=True)
class CostModelParams:
    """Cost-unit constants (one unit ≈ one sequential page read).

    Attributes:
        seq_page_cost: Sequential page read.
        rand_page_cost: Random page read (row lookups, B-tree descents).
        cpu_tuple_cost: Per-row processing.
        cpu_operator_cost: Per-row-per-predicate evaluation.
        hash_build_cost: Per-row hash-table build.
        hash_probe_cost: Per-row hash-table probe.
        sort_factor: Multiplies ``n·log2(n)`` for explicit sorts.
        btree_fanout: Branching factor used for descent-height estimates.
    """

    seq_page_cost: float = 1.0
    rand_page_cost: float = 2.5
    cpu_tuple_cost: float = 0.002
    cpu_operator_cost: float = 0.0005
    hash_build_cost: float = 0.004
    hash_probe_cost: float = 0.002
    sort_factor: float = 0.003
    btree_fanout: float = 128.0


@dataclass(frozen=True, slots=True)
class _AccessOption:
    """One candidate access path produced during operator selection."""

    cost: float
    method: str
    index: Index | None
    fetched_rows: float
    key_columns: tuple[str, ...]  # order the option delivers rows in


def _descend_cost(params: CostModelParams, row_count: float) -> float:
    """B-tree descent price for a table of ``row_count`` rows."""
    height = max(1.0, math.log(max(row_count, 2), params.btree_fanout))
    return params.rand_page_cost * height


def attach_cost_constants(prepared: PreparedQuery, params: CostModelParams) -> None:
    """(Re)compute the configuration-independent cost constants.

    Called once per prepared query by :meth:`CostModel.prepare`, and again
    only if a model with *different* parameters prices the same prepared
    query (the memo tables are cleared because their entries embed the old
    parameters).
    """
    p = params
    for access in prepared.accesses.values():
        table = access.table
        scan_cost = (
            table.pages * p.seq_page_cost
            + table.row_count * p.cpu_tuple_cost
            + table.row_count * access.filter_count * p.cpu_operator_cost
        )
        access.heap_option = _AccessOption(
            cost=scan_cost,
            method="heap_scan",
            index=None,
            fetched_rows=float(table.row_count),
            key_columns=(),
        )
        access.descend_cost = _descend_cost(p, table.row_count)
        access.option_cache.clear()
    for step in prepared.join_steps:
        inner = step.access
        step.hash_fixed_cost = (
            inner.output_rows * p.hash_build_cost
            + step.outer_rows * p.hash_probe_cost
            + step.output_rows * p.cpu_tuple_cost
        )
        step.probe_cache.clear()
    stage_cost = 0.0
    if prepared.sort_rows > 0:
        stage_cost = (
            p.sort_factor * prepared.sort_rows * math.log2(prepared.sort_rows + 2.0)
        )
        if prepared.aggregate_only:
            # GROUP BY without ORDER BY: a hash aggregate (linear in the
            # input) competes with the sort-based aggregate.
            stage_cost = min(stage_cost, prepared.sort_rows * p.hash_build_cost)
    prepared.stage_cost = stage_cost
    prepared.params = params


class CostModel:
    """Configuration-parametric cost estimator over one schema."""

    def __init__(self, schema: Schema, params: CostModelParams | None = None):
        self._schema = schema
        self._params = params or CostModelParams()

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def params(self) -> CostModelParams:
        return self._params

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def prepare(self, bound: BoundQuery) -> PreparedQuery:
        """Prepare a bound query for repeated costing."""
        prepared = prepare_query(self._schema, bound)
        attach_cost_constants(prepared, self._params)
        return prepared

    def cost(self, prepared: PreparedQuery, configuration) -> float:
        """Estimated cost of ``prepared`` under ``configuration`` (fast path)."""
        self._ensure_constants(prepared)
        by_table = self._group_by_table(configuration)
        total, _ = self._price(prepared, by_table, explain=False)
        return total

    def explain(self, prepared: PreparedQuery, configuration) -> QueryPlan:
        """Like :meth:`cost` but returning the full plan tree.

        Each operator keeps the first of exactly tied options, so the
        configuration is grouped in :func:`~repro.catalog.index_sort_key`
        order: the plan names the same index whatever order the
        configuration iterates in (set order follows ``PYTHONHASHSEED``).
        The cost is order-independent either way — every choice is a
        minimum — so :meth:`cost` groups in the order it is given.
        """
        self._ensure_constants(prepared)
        by_table = self._group_by_table(sorted(configuration, key=index_sort_key))
        _, plan = self._price(prepared, by_table, explain=True)
        assert plan is not None
        return plan

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _descend_cost(self, row_count: float) -> float:
        """B-tree descent price under this model's parameters."""
        return _descend_cost(self._params, row_count)

    def _ensure_constants(self, prepared: PreparedQuery) -> None:
        # Identity check first: the equality fallback only matters when a
        # prepared query crosses between models with equal-valued params.
        if prepared.params is not self._params and prepared.params != self._params:
            attach_cost_constants(prepared, self._params)

    @staticmethod
    def _group_by_table(configuration) -> dict[str, list[Index]]:
        grouped: dict[str, list[Index]] = {}
        for index in configuration:
            grouped.setdefault(index.table, []).append(index)
        return grouped

    def _seek_selectivity(
        self, access: PreparedAccess, index: Index
    ) -> tuple[float, int]:
        """Selectivity consumed by a seek on ``index`` and the prefix length.

        Walks the key columns: each leading column with an equality
        predicate extends the seek; the first key column carrying a range
        predicate closes it; any other column stops the walk.
        """
        selectivity = 1.0
        consumed = 0
        for column in index.key_columns:
            eq = access.equality_selectivity.get(column)
            if eq is not None:
                selectivity *= eq
                consumed += 1
                continue
            rng = access.range_selectivity.get(column)
            if rng is not None:
                selectivity *= rng
                consumed += 1
            break
        return selectivity, consumed

    def _option_for(self, access: PreparedAccess, index: Index) -> _AccessOption | None:
        """The memoized access-path option of ``index`` for ``access``.

        ``None`` means the index can neither seek nor cover this access —
        it contributes no option and cannot change the access price.
        """
        cached = access.option_cache.get(index, _UNSET)
        if cached is not _UNSET:
            return cached  # type: ignore[return-value]
        option = self._build_option(access, index)
        access.option_cache[index] = option
        return option

    def _build_option(
        self, access: PreparedAccess, index: Index
    ) -> _AccessOption | None:
        p = self._params
        table = access.table
        covering = index.covers(access.required_columns)
        seek_sel, consumed = self._seek_selectivity(access, index)
        leaf_pages = max(1.0, index.estimated_size_bytes / PAGE_BYTES)
        entries_per_page = max(1.0, table.row_count / leaf_pages)

        if consumed > 0:
            fetched = max(1.0, table.row_count * seek_sel)
            matched_pages = max(1.0, fetched / entries_per_page)
            cost = (
                access.descend_cost
                + matched_pages * p.seq_page_cost
                + fetched * p.cpu_tuple_cost
                + fetched * access.filter_count * p.cpu_operator_cost
            )
            if covering:
                return _AccessOption(
                    cost=cost,
                    method="index_only_seek",
                    index=index,
                    fetched_rows=fetched,
                    key_columns=index.key_columns,
                )
            return _AccessOption(
                cost=cost + fetched * p.rand_page_cost,
                method="index_seek",
                index=index,
                fetched_rows=fetched,
                key_columns=index.key_columns,
            )
        if covering:
            cost = (
                leaf_pages * p.seq_page_cost
                + table.row_count * p.cpu_tuple_cost
                + table.row_count * access.filter_count * p.cpu_operator_cost
            )
            return _AccessOption(
                cost=cost,
                method="index_only_scan",
                index=index,
                fetched_rows=float(table.row_count),
                key_columns=index.key_columns,
            )
        return None

    def _access_options(
        self, access: PreparedAccess, indexes: list[Index]
    ) -> list[_AccessOption]:
        options = [access.heap_option]
        for index in indexes:
            option = self._option_for(access, index)
            if option is not None:
                options.append(option)
        return options  # type: ignore[return-value]

    def _best_access(
        self, access: PreparedAccess, indexes: list[Index]
    ) -> _AccessOption:
        best: _AccessOption = access.heap_option  # type: ignore[assignment]
        for index in indexes:
            option = self._option_for(access, index)
            if option is not None and option.cost < best.cost:
                best = option
        return best

    def _inl_total(self, step: PreparedJoinStep, index: Index) -> float | None:
        """Memoized total INLJ price of ``step`` probing ``index``.

        The outer cardinality entering the step is fixed by the
        configuration-independent join order, so the *whole* step price is
        an index-local constant.
        """
        cached = step.probe_cache.get(index, _UNSET)
        if cached is not _UNSET:
            return cached  # type: ignore[return-value]
        p = self._params
        access = step.access
        table = access.table
        total: float | None = None
        probe_sel = self._probe_selectivity(access, index, step.join_columns)
        if probe_sel is not None:
            rows_per_probe = max(0.05, table.row_count * probe_sel)
            leaf_pages = max(1.0, index.estimated_size_bytes / PAGE_BYTES)
            entries_per_page = max(1.0, table.row_count / leaf_pages)
            per_probe = (
                access.descend_cost
                + max(1.0, rows_per_probe / entries_per_page) * p.seq_page_cost
                + rows_per_probe * p.cpu_tuple_cost
            )
            if not index.covers(access.required_columns):
                per_probe += rows_per_probe * p.rand_page_cost
            total = step.outer_rows * per_probe + step.output_rows * p.cpu_tuple_cost
        step.probe_cache[index] = total
        return total

    def _inl_probe_option(
        self, step: PreparedJoinStep, indexes: list[Index]
    ) -> tuple[float, Index] | None:
        """Cheapest index-nested-loop probe into ``step``'s inner access.

        An index qualifies when one of the step's join columns appears in
        its key such that every earlier key column is bound by an equality
        filter predicate of the inner access.
        """
        best: tuple[float, Index] | None = None
        for index in indexes:
            total = self._inl_total(step, index)
            if total is not None and (best is None or total < best[0]):
                best = (total, index)
        return best

    def _probe_selectivity(
        self,
        access: PreparedAccess,
        index: Index,
        join_columns: tuple[str, ...],
    ) -> float | None:
        """Selectivity of one INLJ probe, or ``None`` if ``index`` can't probe."""
        selectivity = 1.0
        for column in index.key_columns:
            if column in join_columns:
                # One probe fetches the rows matching a single join-key value
                # within the equality-bound prefix; residual filters apply
                # after the fetch and do not reduce probe I/O.
                ndv = access.table.column(column).stats.distinct_count
                return max(sel.MIN_SELECTIVITY, selectivity / max(1, ndv))
            eq = access.equality_selectivity.get(column)
            if eq is None:
                return None
            selectivity *= eq
        return None

    def _price(
        self,
        prepared: PreparedQuery,
        by_table: dict[str, list[Index]],
        explain: bool,
    ) -> tuple[float, QueryPlan | None]:
        first = prepared.accesses[prepared.first_binding]
        first_indexes = by_table.get(first.table.name, ())

        sort_needed = prepared.sort_rows > 0
        sort_cost = prepared.stage_cost

        sort_avoided = False
        if sort_needed and prepared.order_columns and not prepared.join_steps:
            # Single-access query: choose access option and sort decision
            # jointly — an option keyed on the ordering columns skips the sort.
            best_cost = math.inf
            best_option: _AccessOption | None = None
            best_avoids = False
            for option in self._access_options(first, first_indexes):
                avoids = self._provides_order(option, prepared.order_columns)
                total = option.cost + (0.0 if avoids else sort_cost)
                if total < best_cost:
                    best_cost, best_option, best_avoids = total, option, avoids
            assert best_option is not None
            sort_avoided = best_avoids
            total_cost = best_cost
            first_option = best_option
            applied_sort = 0.0 if best_avoids else sort_cost
        else:
            first_option = self._best_access(first, first_indexes)
            total_cost = first_option.cost + (sort_cost if sort_needed else 0.0)
            applied_sort = sort_cost if sort_needed else 0.0

        join_plans: list[JoinPlan] = []
        for step in prepared.join_steps:
            inner = step.access
            inner_indexes = by_table.get(inner.table.name, ())
            inner_option = self._best_access(inner, inner_indexes)
            hash_cost = inner_option.cost + step.hash_fixed_cost
            inl = self._inl_probe_option(step, inner_indexes)
            if inl is not None and inl[0] < hash_cost:
                step_cost, method, used_index = inl[0], "index_nested_loop", inl[1]
            else:
                step_cost, method, used_index = hash_cost, "hash_join", inner_option.index
            total_cost += step_cost
            if explain:
                join_plans.append(
                    JoinPlan(
                        method=method,
                        inner=AccessPlan(
                            binding=inner.binding,
                            table=inner.table.name,
                            method=(
                                "inl_join_probe"
                                if method == "index_nested_loop"
                                else inner_option.method
                            ),
                            index=used_index.display() if used_index else None,
                            rows=inner.output_rows,
                            cost=step_cost,
                        ),
                        rows=step.output_rows,
                        cost=step_cost,
                    )
                )

        if not explain:
            return total_cost, None

        plan = QueryPlan(
            qid=prepared.qid,
            first=AccessPlan(
                binding=first.binding,
                table=first.table.name,
                method=first_option.method,
                index=first_option.index.display() if first_option.index else None,
                rows=first.output_rows,
                cost=first_option.cost,
            ),
            joins=tuple(join_plans),
            sort_cost=applied_sort,
            sort_avoided=sort_avoided,
            total_cost=total_cost,
        )
        return total_cost, plan

    @staticmethod
    def _provides_order(option: _AccessOption, order_columns: tuple[str, ...]) -> bool:
        """Whether the access option delivers rows ordered by ``order_columns``."""
        keys = option.key_columns
        if len(keys) < len(order_columns):
            return False
        return keys[: len(order_columns)] == order_columns
