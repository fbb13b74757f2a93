"""Synthetic analogs of the proprietary Real-D and Real-M workloads.

The paper evaluates two real customer workloads whose only published
properties are Table 1's statistics (database size, table count, query
count, average joins/filters/scans). These analogs reproduce those
statistics over procedurally-generated *enterprise-style* schemas:

* many small entity tables organised into star/snowflake clusters around a
  minority of large hub (fact) tables, with cross-cluster foreign keys —
  the topology that makes 15-20-way joins natural;
* log-normal table sizes scaled to the published database size;
* query profiles tuned to the published per-query averages.

Generation is fully deterministic from the module seeds.
"""

from __future__ import annotations

import random

from repro.catalog import Column, ColumnStats, ColumnType, ForeignKey, Schema, Table
from repro.rng import make_rng
from repro.workload.query import Workload
from repro.workload.synthesis import SynthesisProfile, WorkloadSynthesizer

_REAL_D_SEED = 5870
_REAL_M_SEED = 2600


def enterprise_schema(
    name: str,
    num_tables: int,
    target_bytes: int,
    seed: int,
    hub_fraction: float = 0.02,
) -> Schema:
    """A procedurally-generated enterprise schema.

    Args:
        name: Schema name.
        num_tables: Number of tables to generate.
        target_bytes: Approximate summed heap size to scale row counts to.
        seed: RNG seed.
        hub_fraction: Fraction of tables that act as large hubs; other
            tables preferentially attach to hubs via foreign keys.
    """
    rng = make_rng(seed)
    num_hubs = max(1, int(num_tables * hub_fraction))

    # Relative sizes: hubs are drawn from a much heavier distribution.
    raw_sizes: list[float] = []
    for position in range(num_tables):
        if position < num_hubs:
            raw_sizes.append(rng.lognormvariate(6.0, 1.0))
        else:
            raw_sizes.append(rng.lognormvariate(0.0, 1.8))

    parents = _pick_parents(rng, raw_sizes)

    # Scale raw sizes so the total heap roughly matches target_bytes.
    column_counts = [3 + rng.randrange(6) for _ in range(num_tables)]
    approx_row_bytes = [24 + 8 * (c + len(parents[i])) for i, c in enumerate(column_counts)]
    raw_bytes = sum(s * b for s, b in zip(raw_sizes, approx_row_bytes, strict=True))
    scale = target_bytes / max(raw_bytes, 1.0)

    tables: list[Table] = []
    foreign_keys: list[ForeignKey] = []
    row_counts = [max(10, int(s * scale)) for s in raw_sizes]
    types = [
        ColumnType.INTEGER,
        ColumnType.DECIMAL,
        ColumnType.VARCHAR,
        ColumnType.DATE,
        ColumnType.CHAR,
    ]

    for position in range(num_tables):
        table_name = f"t{position:05d}"
        rows = row_counts[position]
        columns = [
            Column(
                name="id",
                ctype=ColumnType.BIGINT,
                stats=ColumnStats(distinct_count=rows, min_value=0, max_value=rows,
                                  avg_width=8),
            )
        ]
        for parent in parents[position]:
            parent_rows = row_counts[parent]
            columns.append(
                Column(
                    name=f"fk_t{parent:05d}",
                    ctype=ColumnType.BIGINT,
                    stats=ColumnStats(
                        distinct_count=max(1, min(rows, parent_rows)),
                        min_value=0,
                        max_value=parent_rows,
                        avg_width=8,
                    ),
                )
            )
        for attr in range(column_counts[position]):
            ctype = types[rng.randrange(len(types))]
            ndv = max(2, int(rows ** rng.uniform(0.2, 0.9)))
            columns.append(
                Column(
                    name=f"a{attr}",
                    ctype=ctype,
                    stats=ColumnStats(
                        distinct_count=ndv,
                        min_value=0,
                        max_value=max(1, ndv * 3),
                        avg_width=ctype.default_width,
                    ),
                )
            )
        tables.append(Table(name=table_name, columns=columns, row_count=rows))
        for parent in parents[position]:
            foreign_keys.append(
                ForeignKey(
                    child_table=table_name,
                    child_column=f"fk_t{parent:05d}",
                    parent_table=f"t{parent:05d}",
                    parent_column="id",
                )
            )

    return Schema(name=name, tables=tables, foreign_keys=foreign_keys)


def _pick_parents(rng: random.Random, raw_sizes: list[float]) -> list[list[int]]:
    """Each table's sorted foreign-key parents among the tables before it.

    Each non-root table gets 1-3 parents, drawn with weight ``size + 0.2``;
    hubs are preferred attachment points for the first ~20 satellites
    after them, which yields star clusters with snowflake tails and
    cross-links. The cumulative weights grow by one entry per table and
    are summed left to right, as ``random.choices`` sums ``weights``, so
    every draw matches a per-table weight list without rebuilding it.
    """
    parents: list[list[int]] = [[] for _ in raw_sizes]
    cum_weights: list[float] = []
    running = 0.0
    for child in range(1, len(raw_sizes)):
        running += raw_sizes[child - 1] + 0.2
        cum_weights.append(running)
        fanout = 1 + (rng.random() < 0.35) + (rng.random() < 0.1)
        chosen: set[int] = set()
        for _ in range(fanout):
            (pick,) = rng.choices(range(child), cum_weights=cum_weights, k=1)
            chosen.add(pick)
        parents[child] = sorted(chosen)
    return parents


def real_d_workload(num_tables: int = 7_912) -> Workload:
    """Real-D analog: 587 GB, 7,912 tables, 32 queries, 15.6 avg joins.

    Args:
        num_tables: Override for scaled-down test runs; the default matches
            the paper.
    """
    schema = enterprise_schema(
        "real_d",
        num_tables=num_tables,
        target_bytes=587 * 10**9,
        seed=_REAL_D_SEED,
        hub_fraction=0.005,
    )
    profile = SynthesisProfile(
        num_queries=32,
        min_joins=11,
        max_joins=20,
        filters_per_query=0.3,
        equality_fraction=0.7,
        projection_columns=4,
        aggregate_probability=0.5,
        group_by_probability=0.3,
        order_by_probability=0.2,
        start_table_bias="hot",
        hot_table_count=30,
    )
    return WorkloadSynthesizer(schema, profile, seed=_REAL_D_SEED + 1).generate("real_d")


def real_m_workload(num_tables: int = 474) -> Workload:
    """Real-M analog: 26 GB, 474 tables, 317 queries, 20.2 avg joins."""
    schema = enterprise_schema(
        "real_m",
        num_tables=num_tables,
        target_bytes=26 * 10**9,
        seed=_REAL_M_SEED,
        hub_fraction=0.03,
    )
    profile = SynthesisProfile(
        num_queries=317,
        min_joins=15,
        max_joins=25,
        filters_per_query=1.5,
        equality_fraction=0.6,
        projection_columns=4,
        aggregate_probability=0.4,
        group_by_probability=0.25,
        order_by_probability=0.2,
        start_table_bias="hot",
        hot_table_count=40,
    )
    return WorkloadSynthesizer(schema, profile, seed=_REAL_M_SEED + 1).generate("real_m")


def _approx_db_gigabytes(schema: Schema) -> float:
    """Diagnostic: the generated schema's heap size in GB."""
    return schema.total_size_bytes / 10**9

