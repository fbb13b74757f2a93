"""Seeded synthetic workload generation.

Real analytic queries are join trees over the schema's foreign-key graph
with selective filters on a few columns, narrow projections, and occasional
grouping/ordering. The synthesizer reproduces that shape: it walks the join
graph from a (biased) start table, attaches filters with controlled
selectivities, and emits *SQL text* — so generated workloads exercise the
full parse → bind → cost pipeline exactly like hand-written queries.

Used for the TPC-DS-scale analog and the Real-D / Real-M analogs whose only
published description is Table 1's complexity statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.catalog import Column, ColumnType, ForeignKey, Schema
from repro.exceptions import TuningError
from repro.rng import make_rng
from repro.workload.query import Query, Workload


@dataclass(frozen=True)
class SynthesisProfile:
    """Shape parameters for a synthesized workload.

    Attributes:
        num_queries: Number of queries to generate.
        min_joins: Minimum join-edge count per query (0 = single table).
        max_joins: Maximum join-edge count per query; the walk stops early
            if the join graph offers no further edges.
        filters_per_query: Mean number of filter predicates (Poisson-ish,
            at least zero).
        equality_fraction: Fraction of filters that are equality predicates
            (the rest are ranges/BETWEEN/LIKE).
        projection_columns: Maximum projected columns (before aggregates).
        aggregate_probability: Chance the projection is aggregates instead
            of plain columns.
        group_by_probability: Chance of a GROUP BY clause.
        order_by_probability: Chance of an ORDER BY clause.
        start_table_bias: ``"large"`` starts walks at big (fact) tables,
            ``"uniform"`` picks uniformly, ``"hot"`` concentrates 80% of
            starts on a small hot set (how real workloads behave).
        hot_table_count: Size of the hot set under ``"hot"`` bias.
        dim_filter_bias: Probability that a filter lands on a *dimension*
            table (any table but the query's largest) when both kinds are
            present. Star-schema queries filter dimension attributes and
            let the joins carry the selectivity into the fact — placing
            filters uniformly at random would miss that structure.
        max_blowup_factor: Cap on the walk's estimated intermediate join
            cardinality, as a multiple of the largest table in the query.
            Key/foreign-key joins preserve cardinality, so legitimate
            analytic join trees stay near the fact table's size; edges that
            would blow past the cap (unfiltered many-to-many fact joins
            through a shared dimension) are rejected, as real benchmark
            queries avoid them.
    """

    num_queries: int = 20
    min_joins: int = 0
    max_joins: int = 4
    filters_per_query: float = 1.5
    equality_fraction: float = 0.6
    projection_columns: int = 4
    aggregate_probability: float = 0.3
    group_by_probability: float = 0.3
    order_by_probability: float = 0.3
    start_table_bias: str = "large"
    hot_table_count: int = 8
    dim_filter_bias: float = 0.75
    max_blowup_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise TuningError("num_queries must be positive")
        if not 0 <= self.min_joins <= self.max_joins:
            raise TuningError("require 0 <= min_joins <= max_joins")
        if self.start_table_bias not in ("large", "uniform", "hot"):
            raise TuningError(f"unknown start_table_bias {self.start_table_bias!r}")
        # Written as ``not (valid)`` so that NaN is rejected too.
        if not self.max_blowup_factor > 0:
            raise TuningError("max_blowup_factor must be positive")
        for name in (
            "equality_fraction",
            "aggregate_probability",
            "group_by_probability",
            "order_by_probability",
            "dim_filter_bias",
        ):
            if not 0 <= getattr(self, name) <= 1:
                raise TuningError(f"{name} must lie in [0, 1]")
        if not self.filters_per_query >= 0:
            raise TuningError("filters_per_query must be non-negative")
        if self.projection_columns < 1:
            raise TuningError("projection_columns must be at least 1")


class _Edge(NamedTuple):
    """A join edge out of a walked table, with what the blow-up cap reads."""

    neighbor: str
    fk: ForeignKey
    rows: int  # the neighbor's row count
    ndv: int  # distinct values on the join key: the larger side, at least 1


class WorkloadSynthesizer:
    """Generates a seeded workload over a schema's join graph."""

    def __init__(self, schema: Schema, profile: SynthesisProfile, seed: int = 0):
        self._schema = schema
        self._profile = profile
        self._rng = make_rng(seed)
        self._table_names = schema.table_names
        self._hot_tables = self._pick_hot_tables()
        self._edges: dict[str, list[_Edge]] = {}

    def _pick_hot_tables(self) -> list[str]:
        names = sorted(
            self._table_names,
            key=lambda n: -self._schema.table(n).row_count,
        )
        return names[: max(1, self._profile.hot_table_count)]

    # ------------------------------------------------------------------ #

    def generate(self, name: str) -> Workload:
        """Generate the full workload."""
        queries = [
            Query(qid=f"q{i + 1}", sql=self._generate_sql())
            for i in range(self._profile.num_queries)
        ]
        return Workload(name=name, schema=self._schema, queries=queries)

    # ------------------------------------------------------------------ #

    def _start_table(self) -> str:
        rng = self._rng
        bias = self._profile.start_table_bias
        names = self._table_names
        if bias == "uniform":
            return rng.choice(names)
        if bias == "hot":
            if rng.random() < 0.8:
                return rng.choice(self._hot_tables)
            return rng.choice(names)
        weights = [max(1, self._schema.table(n).row_count) for n in names]
        return rng.choices(names, weights=weights, k=1)[0]

    def _edges_of(self, table: str) -> list[_Edge]:
        """``table``'s join edges in foreign-key order, looked up once."""
        edges = self._edges.get(table)
        if edges is None:
            schema = self._schema
            edges = []
            for neighbor, fk in schema.joinable_neighbors(table):
                child_key = schema.column(fk.child_table, fk.child_column)
                parent_key = schema.column(fk.parent_table, fk.parent_column)
                ndv = max(child_key.stats.distinct_count, parent_key.stats.distinct_count, 1)
                edges.append(_Edge(neighbor, fk, schema.table(neighbor).row_count, ndv))
            self._edges[table] = edges
        return edges

    def _walk_join_tree(self, target_joins: int) -> tuple[list[str], list[ForeignKey]]:
        """Random connected subtree of the FK graph: (tables, fk edges).

        Edges whose estimated join output would exceed the profile's
        intermediate-cardinality cap are skipped, mirroring how real
        analytic queries avoid unfiltered many-to-many fact joins.
        """
        rng = self._rng
        factor = self._profile.max_blowup_factor
        start = self._start_table()
        tables = [start]
        joins: list[ForeignKey] = []
        used = {start}
        cardinality = float(self._schema.table(start).row_count)
        largest = cardinality
        while len(joins) < target_joins:
            # The cap is max_blowup_factor * max(largest, rows), with max
            # inlined: this runs once per edge per step. ``not >`` rather
            # than ``<=`` lets an edge through under a NaN cap (an
            # infinite factor over zero-row tables).
            frontier = [
                edge
                for table in tables
                for edge in self._edges_of(table)
                if edge.neighbor not in used
                and not cardinality * edge.rows / edge.ndv
                > factor * (edge.rows if edge.rows > largest else largest)
            ]
            if not frontier:
                break
            neighbor, fk, rows, ndv = rng.choice(frontier)
            cardinality = cardinality * rows / ndv
            largest = max(largest, rows)
            tables.append(neighbor)
            used.add(neighbor)
            joins.append(fk)
        return tables, joins

    def _filterable_columns(self, tables: list[str]) -> list[tuple[str, Column]]:
        columns: list[tuple[str, Column]] = []
        for table_name in tables:
            for column in self._schema.table(table_name).columns:
                if column.stats.distinct_count > 1:
                    columns.append((table_name, column))
        return columns

    def _sample_filter_columns(
        self,
        tables: list[str],
        pool: list[tuple[str, Column]],
        count: int,
    ) -> list[tuple[str, Column]]:
        """Pick ``count`` distinct filter columns, biased toward dimensions."""
        rng = self._rng
        if count <= 0:
            return []
        largest = max(tables, key=lambda name: self._schema.table(name).row_count)
        dims = [(t, c) for t, c in pool if t != largest]
        facts = [(t, c) for t, c in pool if t == largest]
        chosen: list[tuple[str, Column]] = []
        for _ in range(count):
            prefer_dim = rng.random() < self._profile.dim_filter_bias
            bucket = dims if (prefer_dim and dims) else (facts or dims)
            if not bucket:
                break
            pick = rng.choice(bucket)
            chosen.append(pick)
            bucket.remove(pick)
        return chosen

    def _render_filter(self, table: str, column: Column) -> str:
        rng = self._rng
        stats = column.stats
        ref = f"{table}.{column.name}"
        if column.ctype in (ColumnType.VARCHAR, ColumnType.CHAR):
            token = f"v{rng.randrange(stats.distinct_count)}"
            if rng.random() < self._profile.equality_fraction:
                return f"{ref} = '{token}'"
            return f"{ref} LIKE '{token[:2]}%'"
        span = max(stats.domain_span, 1.0)
        if rng.random() < self._profile.equality_fraction:
            value = stats.min_value + rng.random() * span
            return f"{ref} = {value:.0f}"
        choice = rng.random()
        lo = stats.min_value + rng.random() * span * 0.8
        if choice < 0.4:
            width = span * rng.uniform(0.01, 0.3)
            return f"{ref} BETWEEN {lo:.0f} AND {lo + width:.0f}"
        if choice < 0.7:
            return f"{ref} > {lo:.0f}"
        return f"{ref} < {lo:.0f}"

    def _poisson_like(self, mean: float) -> int:
        """Cheap integer draw with the given mean (geometric mixture)."""
        rng = self._rng
        count = int(mean)
        if rng.random() < (mean - count):
            count += 1
        # Spread: occasionally one more or one fewer.
        roll = rng.random()
        if roll < 0.2 and count > 0:
            count -= 1
        elif roll > 0.8:
            count += 1
        return count

    def _generate_sql(self) -> str:
        rng = self._rng
        profile = self._profile
        target_joins = rng.randint(profile.min_joins, profile.max_joins)
        tables, edges = self._walk_join_tree(target_joins)

        predicates: list[str] = [
            f"{fk.child_table}.{fk.child_column} = {fk.parent_table}.{fk.parent_column}"
            for fk in edges
        ]
        filter_pool = self._filterable_columns(tables)
        num_filters = min(self._poisson_like(profile.filters_per_query), len(filter_pool))
        for table, column in self._sample_filter_columns(tables, filter_pool, num_filters):
            predicates.append(self._render_filter(table, column))

        projection_pool = [
            (table, column.name)
            for table in tables
            for column in self._schema.table(table).columns
        ]
        width = rng.randint(1, max(1, min(profile.projection_columns, len(projection_pool))))
        projected = rng.sample(projection_pool, k=width)

        group_by: list[tuple[str, str]] = []
        if rng.random() < profile.group_by_probability:
            group_by = projected[: rng.randint(1, len(projected))]

        if group_by or rng.random() < profile.aggregate_probability:
            numeric = [
                (t, c)
                for t, c in projection_pool
                if self._schema.column(t, c).ctype.is_numeric
            ]
            items = [f"{t}.{c}" for t, c in group_by]
            if numeric:
                agg_table, agg_column = rng.choice(numeric)
                items.append(f"SUM({agg_table}.{agg_column})")
            items.append("COUNT(*)")
            select_list = ", ".join(items)
        else:
            select_list = ", ".join(f"{t}.{c}" for t, c in projected)

        sql = [f"SELECT {select_list}", f"FROM {', '.join(tables)}"]
        if predicates:
            sql.append("WHERE " + " AND ".join(predicates))
        if group_by:
            sql.append("GROUP BY " + ", ".join(f"{t}.{c}" for t, c in group_by))
        if not group_by and rng.random() < profile.order_by_probability and projected:
            order_table, order_column = rng.choice(projected)
            direction = " DESC" if rng.random() < 0.5 else ""
            sql.append(f"ORDER BY {order_table}.{order_column}{direction}")
        return "\n".join(sql)
