"""Differential tests: the set-up loops against the loops they replaced.

:func:`repro.workload.suites.real._pick_parents` keeps one running list of
cumulative weights, and :class:`WorkloadSynthesizer` looks up each table's
join edges once. The references below are the loops they replaced — a
fresh choice list and weight list per table, and a frontier rebuilt from
schema lookups at every step — kept as executable specifications.
Hypothesis drives both with the same seeds: foreign-key parents, row
counts, every column, the generated SQL and the RNG state afterwards must
agree exactly.
"""

from __future__ import annotations

import dataclasses
from functools import cache
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.catalog import Schema, SchemaBuilder
from repro.rng import make_rng
from repro.workload.suites import real
from repro.workload.suites.job import job_schema
from repro.workload.suites.real import enterprise_schema
from repro.workload.suites.toy import toy_star_schema
from repro.workload.suites.tpcds import tpcds_schema
from repro.workload.synthesis import SynthesisProfile, WorkloadSynthesizer

# --------------------------------------------------------------------------- #
# references
# --------------------------------------------------------------------------- #


def ref_pick_parents(rng, raw_sizes: list[float]) -> list[list[int]]:
    """Per table, a fresh choice list and weight list (O(n²) overall)."""
    num_tables = len(raw_sizes)
    parents: list[list[int]] = [[] for _ in range(num_tables)]
    for child in range(1, num_tables):
        fanout = 1 + (rng.random() < 0.35) + (rng.random() < 0.1)
        choices = list(range(child))
        weights = [raw_sizes[p] + 0.2 for p in choices]
        chosen: set[int] = set()
        for _ in range(fanout):
            (pick,) = rng.choices(choices, weights=weights, k=1)
            chosen.add(pick)
        parents[child] = sorted(chosen)
    return parents


class RefSynthesizer(WorkloadSynthesizer):
    """The walk's frontier rebuilt from schema lookups at every step."""

    def _joined_cardinality(self, current: float, table: str, fk) -> float:
        new_rows = self._schema.table(table).row_count
        child_key = self._schema.column(fk.child_table, fk.child_column)
        parent_key = self._schema.column(fk.parent_table, fk.parent_column)
        ndv = max(child_key.stats.distinct_count, parent_key.stats.distinct_count, 1)
        return current * new_rows / ndv

    def _walk_join_tree(self, target_joins: int):
        rng = self._rng
        tables = [self._start_table()]
        edges = []
        used = set(tables)
        cardinality = float(self._schema.table(tables[0]).row_count)
        largest = cardinality
        while len(edges) < target_joins:
            frontier = []
            for table in tables:
                for neighbor, fk in self._schema.joinable_neighbors(table):
                    if neighbor in used:
                        continue
                    neighbor_rows = self._schema.table(neighbor).row_count
                    cap = self._profile.max_blowup_factor * max(largest, neighbor_rows)
                    if self._joined_cardinality(cardinality, neighbor, fk) > cap:
                        continue
                    frontier.append((table, neighbor, fk))
            if not frontier:
                break
            _, neighbor, fk = rng.choice(frontier)
            cardinality = self._joined_cardinality(cardinality, neighbor, fk)
            largest = max(largest, self._schema.table(neighbor).row_count)
            tables.append(neighbor)
            used.add(neighbor)
            edges.append(fk)
        return tables, edges


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


def schema_rows(schema: Schema) -> list[tuple]:
    """Every table's name, row count and columns, then every foreign key."""
    rows: list[tuple] = [
        (
            table.name,
            table.row_count,
            [(c.name, c.ctype, dataclasses.astuple(c.stats)) for c in table.columns],
        )
        for table in schema.tables
    ]
    rows.extend(dataclasses.astuple(fk) for fk in schema.foreign_keys)
    return rows


@cache
def fixed_schema(name: str) -> Schema:
    return {"star": toy_star_schema, "tpcds": tpcds_schema, "job": job_schema}[name]()


@cache
def random_enterprise_schema(num_tables: int, hub_fraction: float, seed: int) -> Schema:
    return enterprise_schema("e", num_tables, 10**10, seed, hub_fraction)


# The star schema is the test suite's standard fixture; TPC-DS adds a
# snowflake, and JOB two foreign keys between one pair of tables
# (movie_link -> title).
SCHEMAS = st.one_of(
    st.sampled_from(["star", "tpcds", "job"]).map(fixed_schema),
    st.builds(
        random_enterprise_schema,
        st.integers(2, 120),
        st.floats(0.0, 0.3),
        st.integers(0, 2**31),
    ),
)


@st.composite
def profiles(draw) -> SynthesisProfile:
    min_joins = draw(st.integers(0, 25))
    fraction = st.floats(0.0, 1.0)
    return SynthesisProfile(
        num_queries=draw(st.integers(1, 6)),
        min_joins=min_joins,
        max_joins=draw(st.integers(min_joins, 25)),
        filters_per_query=draw(st.floats(0.0, 3.0)),
        equality_fraction=draw(fraction),
        projection_columns=draw(st.integers(1, 6)),
        aggregate_probability=draw(fraction),
        group_by_probability=draw(fraction),
        order_by_probability=draw(fraction),
        start_table_bias=draw(st.sampled_from(["large", "uniform", "hot"])),
        hot_table_count=draw(st.integers(1, 10)),
        dim_filter_bias=draw(fraction),
        max_blowup_factor=draw(
            st.one_of(st.floats(0.5, 1e6), st.sampled_from([0.5, 1.0, 3.0, 1e6]))
        ),
    )


# --------------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    num_tables=st.integers(2, 400),
    hub_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
def test_pick_parents_matches_reference(num_tables, hub_fraction, seed):
    schema = enterprise_schema("e", num_tables, 10**10, seed, hub_fraction)
    with mock.patch.object(real, "_pick_parents", ref_pick_parents):
        reference = enterprise_schema("e", num_tables, 10**10, seed, hub_fraction)
    # Foreign keys (the parents), row counts and every column.
    assert schema_rows(schema) == schema_rows(reference)

    sizes_rng = make_rng(seed)
    raw_sizes = [sizes_rng.lognormvariate(0.0, 1.8) for _ in range(num_tables)]
    rng, ref_rng = make_rng(seed), make_rng(seed)
    assert real._pick_parents(rng, raw_sizes) == ref_pick_parents(ref_rng, raw_sizes)
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=80, deadline=None)
@given(schema=SCHEMAS, profile=profiles(), seed=st.integers(0, 2**31))
def test_synthesizer_matches_reference(schema, profile, seed):
    synthesizer = WorkloadSynthesizer(schema, profile, seed=seed)
    reference = RefSynthesizer(schema, profile, seed=seed)
    assert [q.sql for q in synthesizer.generate("w")] == [
        q.sql for q in reference.generate("w")
    ]
    assert synthesizer._rng.getstate() == reference._rng.getstate()


def test_cap_multiplies_before_dividing():
    """``cardinality * rows / ndv`` sits exactly on the cap; reassociated, above it.

    From a 3-row start, the edge to a 1-row table with join NDV 5 gives
    3 * 1 / 5 = 0.6, equal to the cap 0.19999999999999998 * 3 = 0.6, so the
    walk takes it. ``3 * (1 / 5)`` rounds to 0.6000000000000001 and would
    reject it.
    """
    schema = (
        SchemaBuilder("edge")
        .table("a", rows=3)
        .column("id", distinct=3)
        .column("fk_b", distinct=5)
        .table("b", rows=1)
        .column("id", distinct=1)
        .foreign_key("a", "fk_b", "b", "id")
        .build()
    )
    profile = SynthesisProfile(max_blowup_factor=0.19999999999999998)
    for synthesizer in (
        WorkloadSynthesizer(schema, profile),
        RefSynthesizer(schema, profile),
    ):
        with mock.patch.object(synthesizer, "_start_table", return_value="a"):
            tables, joins = synthesizer._walk_join_tree(1)
        assert tables == ["a", "b"]
        assert len(joins) == 1
