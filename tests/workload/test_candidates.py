"""Candidate index generation tests (Figure 3, stage 2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.catalog import index_sort_key
from repro.workload.analysis import bind_query
from repro.workload.candidates import (
    CandidateGenerator,
    CandidateGeneratorOptions,
    atomic_configurations,
    candidates_for_query,
    extract_indexable_columns,
)
from repro.workload.query import Query, Workload


def bind(schema, sql, qid="q"):
    return bind_query(schema, Query(qid=qid, sql=sql).statement, qid)


class TestIndexableColumns:
    def test_figure3_q1_extraction(self, figure3_schema):
        bound = bind(
            figure3_schema,
            "SELECT a, d FROM R, S WHERE R.b = S.c AND R.a = 5 AND S.d > 200",
        )
        cols = extract_indexable_columns(bound)
        assert cols.equality.get("R") == ["a"]
        assert cols.range.get("S") == ["d"]
        assert cols.join.get("R") == ["b"]
        assert cols.join.get("S") == ["c"]
        assert set(cols.projection["R"]) == {"a", "b"}
        assert set(cols.projection["S"]) == {"c", "d"}

    def test_group_and_order_extraction(self, star_schema):
        bound = bind(
            star_schema,
            "SELECT cat, COUNT(*) FROM fact GROUP BY cat ORDER BY cat",
        )
        cols = extract_indexable_columns(bound)
        assert cols.grouping["fact"] == ["cat"]
        assert cols.ordering["fact"] == ["cat"]

    def test_all_key_columns_deduped(self, figure3_schema):
        bound = bind(
            figure3_schema,
            "SELECT a FROM R, S WHERE R.b = S.c AND R.a = 5 AND R.a < 10",
        )
        cols = extract_indexable_columns(bound)
        assert cols.all_key_columns("R").count("a") == 1


class TestQueryCandidates:
    def test_figure3_candidates_cover_shapes(self, figure3_schema):
        bound = bind(
            figure3_schema,
            "SELECT a, d FROM R, S WHERE R.b = S.c AND R.a = 5 AND S.d > 200",
        )
        candidates = CandidateGenerator(figure3_schema).for_query(bound)
        shapes = {(ix.table, ix.key_columns) for ix in candidates}
        # Filter index on R.a, join index on R.b, filter index on S.d,
        # join index on S.c (cf. Figure 3's candidate table).
        assert ("R", ("a",)) in shapes
        assert ("R", ("b",)) in shapes
        assert ("S", ("d",)) in shapes
        assert ("S", ("c",)) in shapes

    def test_covering_variants_emitted(self, figure3_schema):
        bound = bind(figure3_schema, "SELECT a, b FROM R WHERE a = 5")
        candidates = CandidateGenerator(figure3_schema).for_query(bound)
        assert any(ix.include_columns for ix in candidates)

    def test_covering_variants_can_be_disabled(self, figure3_schema):
        bound = bind(figure3_schema, "SELECT a, b FROM R WHERE a = 5")
        options = CandidateGeneratorOptions(covering_variants=False)
        candidates = CandidateGenerator(figure3_schema, options).for_query(bound)
        assert all(not ix.include_columns for ix in candidates)

    def test_no_filters_no_joins_yields_nothing(self, figure3_schema):
        bound = bind(figure3_schema, "SELECT a FROM R")
        assert CandidateGenerator(figure3_schema).for_query(bound) == []

    def test_per_query_cap(self, star_schema):
        bound = bind(
            star_schema,
            "SELECT val FROM fact WHERE fk1 = 1 AND fk2 = 2 AND cat = 'x' AND val > 5",
        )
        options = CandidateGeneratorOptions(max_candidates_per_query=3)
        candidates = CandidateGenerator(star_schema, options).for_query(bound)
        assert len(candidates) <= 3

    def test_keys_bounded(self, star_schema):
        bound = bind(
            star_schema,
            "SELECT val FROM fact WHERE fk1 = 1 AND fk2 = 2 AND cat = 'x' AND flag = 'y'",
        )
        options = CandidateGeneratorOptions(max_key_columns=2)
        for index in CandidateGenerator(star_schema, options).for_query(bound):
            assert len(index.key_columns) <= 2

    def test_deterministic(self, star_schema, toy_workload):
        first = CandidateGenerator(star_schema).for_workload(toy_workload)
        second = CandidateGenerator(star_schema).for_workload(toy_workload)
        assert first == second

    def test_shared_generator_builds_each_signature_once(self):
        from repro.workload.suites.tpcds import tpcds_workload

        workload = tpcds_workload()
        shared = CandidateGenerator(workload.schema)
        built: dict[tuple, object] = {}
        for query in workload:
            bound = bind_query(workload.schema, query.statement, query.qid)
            fresh = CandidateGenerator(workload.schema).for_query(bound)
            candidates = shared.for_query(bound)
            # Same indexes, sizes included, as a generator that shares nothing.
            assert [repr(ix) for ix in candidates] == [repr(ix) for ix in fresh]
            for index in candidates:
                assert built.setdefault(index_sort_key(index), index) is index
        assert len(built) == len(shared.for_workload(workload))


class TestWorkloadCandidates:
    def test_union_deduplicates(self, figure3_schema):
        q1 = Query(qid="a", sql="SELECT a FROM R WHERE a = 1")
        q2 = Query(qid="b", sql="SELECT a FROM R WHERE a = 2")
        workload = Workload(name="w", schema=figure3_schema, queries=[q1, q2])
        candidates = CandidateGenerator(figure3_schema).for_workload(workload)
        signatures = [(ix.table, ix.key_columns, ix.include_columns) for ix in candidates]
        assert len(signatures) == len(set(signatures))

    def test_candidates_for_query_subset_of_pool(self, star_schema, toy_workload, toy_candidates):
        for query in toy_workload:
            own = candidates_for_query(star_schema, query, toy_candidates)
            assert set(own) <= set(toy_candidates)

    def test_candidates_for_query_fallback(self, star_schema, toy_workload):
        from repro.catalog import Index

        foreign_pool = [Index.build(star_schema.table("fact"), ["flag"])]
        query = toy_workload[1]
        result = candidates_for_query(star_schema, query, foreign_pool)
        # Fallback keeps table-relevant pool indexes.
        assert all(ix in foreign_pool for ix in result)

    def test_independent_of_string_hash_seed(self):
        """Real-M has columns of equal selectivity; set order must not
        decide their key order, or the candidates change with the seed."""
        script = (
            "from repro.workload.candidates import CandidateGenerator\n"
            "from repro.workload.suites.real import real_m_workload\n"
            "workload = real_m_workload(num_tables=48)\n"
            "for ix in CandidateGenerator(workload.schema).for_workload(workload):\n"
            "    print(ix.display())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])

        def candidates(seed: str) -> list[str]:
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            return done.stdout.splitlines()

        first = candidates("0")
        assert len(first) == 960
        assert candidates("3") == first


class TestAtomicConfigurations:
    def test_singletons(self, toy_candidates):
        atoms = atomic_configurations(toy_candidates[:4], max_size=1)
        assert len(atoms) == 4
        assert all(len(atom) == 1 for atom in atoms)

    def test_size_two_requires_distinct_tables(self, star_schema):
        from repro.catalog import Index

        fact = star_schema.table("fact")
        dim = star_schema.table("dim1")
        a = Index.build(fact, ["fk1"])
        b = Index.build(fact, ["fk2"])
        c = Index.build(dim, ["id"])
        atoms = atomic_configurations([a, b, c], max_size=2)
        pairs = [atom for atom in atoms if len(atom) == 2]
        assert frozenset({a, c}) in pairs
        assert frozenset({b, c}) in pairs
        assert frozenset({a, b}) not in pairs
