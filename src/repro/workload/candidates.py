"""Candidate index generation (stage 1 of Figure 1, illustrated in Figure 3).

For each query we extract *indexable columns* — columns in equality/range
filter predicates, join predicates, GROUP BY and ORDER BY clauses — plus
projection columns usable as the payload of covering indexes. From these we
generate per-query candidate indexes the way AutoAdmin-style tuners do:
filter-seek indexes (equality prefix + one range column), join indexes,
and order-providing indexes, each optionally widened into a covering variant
with INCLUDE columns. The workload's candidate set is the deduplicated union
over its queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog import Index, Schema, index_sort_key
from repro.optimizer.selectivity import predicate_selectivity
from repro.workload.analysis import BoundQuery, PredicateKind, TableAccess
from repro.workload.query import Query, Workload


@dataclass
class IndexableColumns:
    """Indexable columns of one query, grouped per table binding.

    Mirrors the left table of Figure 3: equality / range / join columns form
    potential index keys; projection columns are potential index payloads.
    """

    equality: dict[str, list[str]] = field(default_factory=dict)
    range: dict[str, list[str]] = field(default_factory=dict)
    join: dict[str, list[str]] = field(default_factory=dict)
    grouping: dict[str, list[str]] = field(default_factory=dict)
    ordering: dict[str, list[str]] = field(default_factory=dict)
    projection: dict[str, list[str]] = field(default_factory=dict)

    def _add(self, bucket: dict[str, list[str]], binding: str, column: str) -> None:
        columns = bucket.setdefault(binding, [])
        if column not in columns:
            columns.append(column)

    def all_key_columns(self, binding: str) -> list[str]:
        """Every potential key column of ``binding``, de-duplicated in order."""
        merged: list[str] = []
        for bucket in (self.equality, self.range, self.join, self.grouping, self.ordering):
            for column in bucket.get(binding, []):
                if column not in merged:
                    merged.append(column)
        return merged


def extract_indexable_columns(bound: BoundQuery) -> IndexableColumns:
    """Extract the indexable columns of a bound query (Figure 3, step 1)."""
    result = IndexableColumns()
    for binding, access in bound.accesses.items():
        for predicate in access.filters:
            if predicate.kind is PredicateKind.EQUALITY:
                result._add(result.equality, binding, predicate.column)
            elif predicate.kind is PredicateKind.RANGE:
                result._add(result.range, binding, predicate.column)
        for column in sorted(access.required_columns):
            result._add(result.projection, binding, column)
    for join in bound.joins:
        result._add(result.join, join.left_binding, join.left_column)
        result._add(result.join, join.right_binding, join.right_column)
    for binding, column in bound.group_by:
        result._add(result.grouping, binding, column)
    for binding, column, _ in bound.order_by:
        result._add(result.ordering, binding, column)
    return result


@dataclass(frozen=True)
class CandidateGeneratorOptions:
    """Knobs for candidate generation.

    Attributes:
        covering_variants: Also emit covering (INCLUDE) variants of each key
            shape, enabling index-only plans.
        max_include_columns: Cap on INCLUDE payload width; covering variants
            whose payload would exceed it are skipped (wide-row protection).
        max_key_columns: Cap on composite key length.
        max_candidates_per_query: Truncation cap per query (applied after
            deterministic ordering, mirroring tuners that bound the
            per-query candidate count).
    """

    covering_variants: bool = True
    max_include_columns: int = 6
    max_key_columns: int = 3
    max_candidates_per_query: int = 24


#: ``(table, key columns, include columns)``: an index's ``index_sort_key``.
_Signature = tuple[str, tuple[str, ...], tuple[str, ...]]


class CandidateGenerator:
    """Generates candidate indexes for queries and workloads."""

    def __init__(self, schema: Schema, options: CandidateGeneratorOptions | None = None):
        self._schema = schema
        self._options = options or CandidateGeneratorOptions()
        self._built: dict[_Signature, Index] = {}

    # ------------------------------------------------------------------ #

    def for_query(self, bound: BoundQuery) -> list[Index]:
        """Candidate indexes for one bound query (Figure 3, step 2)."""
        signatures: set[_Signature] = set()

        def emit(table_name: str, keys: list[str], includes: list[str]) -> None:
            keys = list(dict.fromkeys(keys))  # dedupe, keep order
            if not keys or len(keys) > self._options.max_key_columns:
                return
            payload = [c for c in includes if c not in keys]
            payload = payload[: self._options.max_include_columns]
            signatures.add((table_name, tuple(keys), tuple(sorted(payload))))

        for access in bound.accesses.values():
            self._emit_for_access(bound, access, emit)

        # A signature is its index's ``index_sort_key``, so the per-query
        # cap is applied before any index is built.
        kept = sorted(signatures)[: self._options.max_candidates_per_query]
        return [self._index(signature) for signature in kept]

    def for_workload(self, workload: Workload) -> list[Index]:
        """Deduplicated union of per-query candidates over ``workload``.

        Each query records its own list when the workload's schema is this
        generator's, for :func:`candidates_for_query` to serve.
        """
        merged: list[Index] = []
        seen: set[tuple] = set()
        schema = workload.schema
        record = schema is self._schema
        for query in workload:
            own = self.for_query(query.bind(schema))
            if record:
                own = query.record_own_candidates(schema, self._options, own)
            for index in own:
                signature = index_sort_key(index)
                if signature not in seen:
                    seen.add(signature)
                    merged.append(index)
        return merged

    # ------------------------------------------------------------------ #

    def _index(self, signature: _Signature) -> Index:
        """The sized index for ``signature``; queries share many, so each is built once."""
        index = self._built.get(signature)
        if index is None:
            table_name, keys, include = signature
            table = self._schema.table(table_name)
            index = self._built[signature] = Index.build(table, keys, include)
        return index

    def _selectivity(self, access: TableAccess, column: str) -> float:
        """Combined selectivity of the filters on ``column`` (1.0 if none)."""
        table = self._schema.table(access.table)
        result = 1.0
        for predicate in access.filters:
            if predicate.column == column:
                result *= predicate_selectivity(table.column(column), predicate)
        return result

    def _emit_for_access(self, bound: BoundQuery, access: TableAccess, emit) -> None:
        options = self._options
        # Ties in selectivity break on the column name, never on set order
        # (string hashing would make the candidates depend on PYTHONHASHSEED).
        equality = sorted(
            access.equality_columns, key=lambda c: (self._selectivity(access, c), c)
        )
        ranges = sorted(
            access.range_columns, key=lambda c: (self._selectivity(access, c), c)
        )
        join_columns: list[str] = []
        for join in bound.joins_of(access.binding):
            _, column = join.side(access.binding)
            if column not in join_columns:
                join_columns.append(column)
        required = sorted(access.required_columns)

        # Filter-seek shapes: equality prefix, optionally closed by the most
        # selective range column.
        if equality:
            keys = equality[: options.max_key_columns]
            emit(access.table, keys, [])
            if ranges:
                keys_with_range = equality[: options.max_key_columns - 1] + ranges[:1]
                emit(access.table, keys_with_range, [])
            if options.covering_variants:
                emit(access.table, keys, required)
        elif ranges:
            emit(access.table, ranges[:1], [])
            if options.covering_variants:
                emit(access.table, ranges[:1], required)

        # Join shapes: join column leading (for index-nested-loop lookups),
        # optionally refined by filter columns and a covering variant.
        for join_column in join_columns:
            emit(access.table, [join_column], [])
            if equality:
                emit(
                    access.table,
                    [join_column, *equality[: options.max_key_columns - 1]],
                    [],
                )
                emit(
                    access.table,
                    [*equality[: options.max_key_columns - 1], join_column],
                    [],
                )
            if options.covering_variants:
                emit(access.table, [join_column], required)

        # Order-providing shapes for GROUP BY / ORDER BY on this binding.
        grouping = [c for b, c in bound.group_by if b == access.binding]
        ordering = [c for b, c, _ in bound.order_by if b == access.binding]
        for order_keys in (grouping, ordering):
            if order_keys:
                emit(access.table, order_keys[: options.max_key_columns], [])
                if options.covering_variants:
                    emit(
                        access.table,
                        order_keys[: options.max_key_columns],
                        required,
                    )


def candidate_indexes_for_query(
    schema: Schema, bound: BoundQuery, options: CandidateGeneratorOptions | None = None
) -> list[Index]:
    """Convenience wrapper over :meth:`CandidateGenerator.for_query`."""
    return CandidateGenerator(schema, options).for_query(bound)


def candidates_for_query(
    schema: Schema,
    query: Query,
    pool: list[Index],
    options: CandidateGeneratorOptions | None = None,
    *,
    pool_set: set[Index] | frozenset[Index] | None = None,
) -> list[Index]:
    """The subset of ``pool`` that is *this query's own* candidate set.

    The per-query candidate sets (``I_q`` in Algorithm 2 and the
    IndexSelection pools of Algorithm 4) are the indexes generated *for*
    the query, not every pool index on its tables. When ``pool`` was built
    by :meth:`CandidateGenerator.for_workload` the generated set is a
    subset of it; for externally-supplied pools that share nothing with the
    generator's output, fall back to table-relevance filtering so every
    query keeps a non-trivial pool.

    The generated list is made once per query, schema object and options
    (:meth:`CandidateGenerator.for_workload` records it, else the first
    call here does); every call returns a fresh list.

    Args:
        pool_set: ``set(pool)``, for a caller that asks for many queries
            over one pool (built here when omitted).
    """
    options = options or CandidateGeneratorOptions()
    own = query.own_candidates(schema, options)
    if own is None:
        generated = CandidateGenerator(schema, options).for_query(query.bind(schema))
        own = query.record_own_candidates(schema, options, generated)
    members = set(pool) if pool_set is None else pool_set
    result = [index for index in own if index in members]
    if result:
        return result
    tables = query.bind(schema).tables
    return [index for index in pool if index.table in tables]


def atomic_configurations(
    candidates: list[Index], max_size: int = 1
) -> list[frozenset[Index]]:
    """Atomic configurations in the AutoAdmin sense (Section 4.2.2).

    The paper's AutoAdmin-greedy baseline restricts what-if budget to atomic
    configurations of size 1 (singletons); larger sizes enumerate all
    same-table-free combinations up to ``max_size``.
    """
    from itertools import combinations

    atoms: list[frozenset[Index]] = [frozenset({index}) for index in candidates]
    for size in range(2, max_size + 1):
        for combo in combinations(candidates, size):
            tables = {index.table for index in combo}
            if len(tables) == len(combo):  # one index per table
                atoms.append(frozenset(combo))
    return atoms
