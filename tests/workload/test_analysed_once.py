"""Each query is analysed once (DESIGN §5n).

:meth:`Query.bind` binds a query once per schema object, and
:meth:`CandidateGenerator.for_workload` records each query's own candidate
list, which :func:`candidates_for_query` serves instead of binding and
generating again. :func:`reference_candidates_for_query` is the function
that did both on every call, kept as the executable specification: the
served lists must equal it on every query of every generated workload,
under default and other generator options, for set-up's pool and for a
foreign pool (the table-relevance fallback, in pool order).
"""

from __future__ import annotations

import pickle
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Index, index_sort_key
from repro.workload import analysis
from repro.workload.analysis import bind_query
from repro.workload.candidates import (
    CandidateGenerator,
    CandidateGeneratorOptions,
    candidates_for_query,
)
from repro.workload.query import Query, Workload
from repro.workload.suites.job import job_workload
from repro.workload.suites.real import real_d_workload, real_m_workload
from repro.workload.suites.toy import toy_star_schema, toy_workload
from repro.workload.suites.tpcds import tpcds_workload
from repro.workload.suites.tpch import tpch_workload
from repro.workload.synthesis import SynthesisProfile, WorkloadSynthesizer

# --------------------------------------------------------------------------- #
# reference
# --------------------------------------------------------------------------- #


def reference_candidates_for_query(schema, query, pool, options=None):
    """Bind, generate with a fresh generator, filter to the pool — every call."""
    bound = bind_query(schema, query.statement, query.qid)
    generated = CandidateGenerator(schema, options).for_query(bound)
    pool_set = set(pool)
    own = [index for index in generated if index in pool_set]
    if own:
        return own
    tables = {access.table for access in bound.accesses.values()}
    return [index for index in pool if index.table in tables]


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #

OTHER_OPTIONS = CandidateGeneratorOptions(
    covering_variants=False, max_key_columns=2, max_candidates_per_query=5
)

SUITES = {
    "toy": toy_workload,
    "tpch": tpch_workload,
    "job": lambda: job_workload(synthesized=True),
    "tpcds": tpcds_workload,
    "real_d": lambda: real_d_workload(num_tables=791),
    "real_m": lambda: real_m_workload(num_tables=48),
}


def reprs(indexes) -> list[str]:
    """Index reprs, sizes included: equal lists mean equal indexes in order."""
    return [repr(index) for index in indexes]


def foreign_pool(workload: Workload) -> list[Index]:
    """Four-key indexes, which no generator option here emits, in reverse order.

    Every query then falls back to its tables' indexes, in pool order.
    """
    pool = []
    for table in workload.schema.tables:
        names = [column.name for column in table.columns]
        if len(names) >= 4:
            pool.append(Index.build(table, tuple(reversed(names[:4]))))
    return pool[::-1]


@pytest.fixture
def count_binds(monkeypatch):
    """A live count of :func:`bind_query` runs (every bind goes through ``_Binder``)."""
    counter = {"binds": 0}
    original = analysis._Binder.bind

    def counting(self):
        counter["binds"] += 1
        return original(self)

    monkeypatch.setattr(analysis._Binder, "bind", counting)
    return counter


# --------------------------------------------------------------------------- #
# Query.bind
# --------------------------------------------------------------------------- #


class TestBind:
    def test_binds_once_per_schema_object(self, count_binds):
        workload = toy_workload()
        query = workload[0]
        bound = query.bind(workload.schema)
        assert query.bind(workload.schema) is bound
        assert count_binds["binds"] == 1
        # A subset shares the Query objects, and so the bound form.
        assert workload.subset([query.qid])[0].bind(workload.schema) is bound
        assert count_binds["binds"] == 1

    def test_another_schema_object_binds_against_it(self, count_binds):
        workload = toy_workload()
        query = workload[0]
        first = query.bind(workload.schema)
        twin = toy_star_schema()  # equal content, another object
        second = query.bind(twin)
        assert second is not first
        assert count_binds["binds"] == 2
        assert second == bind_query(twin, query.statement, query.qid)
        # The memo follows the latest schema: the first binds afresh.
        assert query.bind(workload.schema) is not first
        assert count_binds["binds"] == 4  # the reference bind counted too

    def test_qids_shared_across_workloads_bind_apart(self):
        tpch, tpcds = tpch_workload(), tpcds_workload()
        q1_h, q1_ds = tpch.query("q1"), tpcds.query("q1")
        assert q1_h.bind(tpch.schema).tables != q1_ds.bind(tpcds.schema).tables

    def test_pickling_drops_the_memos(self):
        workload = toy_workload()
        CandidateGenerator(workload.schema).for_workload(workload)
        query = workload[0]
        restored = pickle.loads(pickle.dumps(query))
        assert restored._bound is None and restored._own is None
        assert restored.statement == query.statement
        # A pickled workload's queries bind against the restored schema.
        copy = pickle.loads(pickle.dumps(workload))
        assert copy[0].bind(copy.schema) == query.bind(workload.schema)


# --------------------------------------------------------------------------- #
# candidates_for_query
# --------------------------------------------------------------------------- #


@cache
def generated(name: str) -> Workload:
    return SUITES[name]()


@pytest.mark.parametrize("name", list(SUITES))
@pytest.mark.parametrize("options", [None, OTHER_OPTIONS], ids=["default", "other"])
def test_served_lists_match_reference(name, options):
    workload = generated(name)
    schema = workload.schema
    pool = CandidateGenerator(schema, options).for_workload(workload)
    foreign = foreign_pool(workload)
    fallbacks = 0
    for query in workload:
        served = candidates_for_query(schema, query, pool, options)
        assert reprs(served) == reprs(
            reference_candidates_for_query(schema, query, pool, options)
        )
        served = candidates_for_query(schema, query, foreign, options)
        expected = reference_candidates_for_query(schema, query, foreign, options)
        assert reprs(served) == reprs(expected)
        fallbacks += bool(served)
    assert fallbacks  # the fallback branch ran


def test_setup_serves_without_binding_or_generating(count_binds, monkeypatch):
    workload = tpcds_workload()
    pool = CandidateGenerator(workload.schema).for_workload(workload)
    assert count_binds["binds"] == len(workload)

    def no_generation(self, bound):
        raise AssertionError("candidates_for_query generated again")

    monkeypatch.setattr(CandidateGenerator, "for_query", no_generation)
    members = set(pool)
    for query in workload:
        candidates_for_query(workload.schema, query, pool)
        candidates_for_query(workload.schema, query, pool, pool_set=members)
    assert count_binds["binds"] == len(workload)


def test_other_options_or_schema_are_not_served(monkeypatch):
    workload = toy_workload()
    schema = workload.schema
    pool = CandidateGenerator(schema).for_workload(workload)
    query = workload[0]
    original_bound = query.bind(schema)
    calls = []
    original = CandidateGenerator.for_query

    def counting(self, bound):
        calls.append(bound)
        return original(self, bound)

    monkeypatch.setattr(CandidateGenerator, "for_query", counting)
    candidates_for_query(schema, query, pool)
    assert not calls
    assert reprs(candidates_for_query(schema, query, pool, OTHER_OPTIONS)) == reprs(
        reference_candidates_for_query(schema, query, pool, OTHER_OPTIONS)
    )
    assert len(calls) == 2  # served call, then the reference's own
    twin = toy_star_schema()
    assert reprs(candidates_for_query(twin, query, pool)) == reprs(
        reference_candidates_for_query(twin, query, pool)
    )
    assert len(calls) == 4
    # The served call bound against the twin, and the memo now holds that.
    assert calls[2] is query.bind(twin)
    assert calls[2] is not original_bound


def test_returned_lists_are_fresh():
    workload = tpch_workload()
    schema = workload.schema
    pool = CandidateGenerator(schema).for_workload(workload)
    for query in workload:
        first = candidates_for_query(schema, query, pool)
        expected = list(first)
        first.clear()
        first.append(pool[-1])
        assert candidates_for_query(schema, query, pool) == expected
    # The fallback list is fresh too.
    foreign = foreign_pool(workload)
    query = workload[0]
    first = candidates_for_query(schema, query, foreign)
    expected = list(first)
    first.reverse()
    first.append(pool[0])
    assert candidates_for_query(schema, query, foreign) == expected


def test_serves_setup_objects():
    """A served list holds set-up's own index objects, in generated order."""
    workload = tpcds_workload()
    pool = CandidateGenerator(workload.schema).for_workload(workload)
    by_signature = {index_sort_key(index): index for index in pool}
    for query in workload:
        served = candidates_for_query(workload.schema, query, pool)
        assert served == sorted(served, key=index_sort_key)
        assert all(by_signature[index_sort_key(index)] is index for index in served)


# --------------------------------------------------------------------------- #
# differential: small synthesized workloads
# --------------------------------------------------------------------------- #


@cache
def star():
    return toy_star_schema()


OPTIONS = st.builds(
    CandidateGeneratorOptions,
    covering_variants=st.booleans(),
    max_include_columns=st.integers(0, 6),
    max_key_columns=st.integers(1, 3),
    max_candidates_per_query=st.integers(1, 24),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    num_queries=st.integers(1, 6),
    max_joins=st.integers(0, 3),
    setup_options=OPTIONS,
    asked_options=st.one_of(st.none(), OPTIONS),
    keep=st.floats(0.0, 1.0),
    with_foreign=st.booleans(),
)
def test_matches_reference_on_synthesized_workloads(
    seed, num_queries, max_joins, setup_options, asked_options, keep, with_foreign
):
    profile = SynthesisProfile(num_queries=num_queries, max_joins=max_joins)
    workload = WorkloadSynthesizer(star(), profile, seed=seed).generate("w")
    schema = workload.schema
    generated_pool = CandidateGenerator(schema, setup_options).for_workload(workload)
    rng = random.Random(seed)
    pool = [index for index in generated_pool if rng.random() < keep]
    if with_foreign:
        pool += foreign_pool(workload)
    rng.shuffle(pool)
    for _ in range(2):  # the second pass is served from the record
        for query in workload:
            served = candidates_for_query(schema, query, pool, asked_options)
            assert reprs(served) == reprs(
                reference_candidates_for_query(schema, query, pool, asked_options)
            )


def test_a_workload_without_setup_generates_once_per_query(count_binds, monkeypatch):
    workload = toy_workload()
    # The generator's schema is not the workload's, so nothing is recorded.
    pool = CandidateGenerator(toy_star_schema()).for_workload(workload)
    binds = count_binds["binds"]  # set-up bound against the workload's schema
    generated_for = []
    original = CandidateGenerator.for_query

    def counting(self, bound):
        generated_for.append(bound.qid)
        return original(self, bound)

    monkeypatch.setattr(CandidateGenerator, "for_query", counting)
    for _ in range(3):
        for query in workload:
            candidates_for_query(workload.schema, query, pool)
    # The first pass generated and recorded each list, binding nothing new.
    assert generated_for == [query.qid for query in workload]
    assert count_binds["binds"] == binds


def test_query_memo_is_per_object():
    """Equal queries (same qid) keep separate memos."""
    workload = toy_workload()
    query = workload[0]
    twin = Query(qid=query.qid, sql=query.sql)
    assert twin == query
    query.bind(workload.schema)
    assert twin._bound is None


# --------------------------------------------------------------------------- #
# sessions: set-up binds, the session reuses
# --------------------------------------------------------------------------- #


class TestSessionsBindOnce:
    """A set-up plus one session binds each query once (three times for
    TPC-DS MCTS and nearly three for Real-D DTA when each caller bound its
    own copy: set-up, the own-candidate lists, the engine)."""

    def test_tpcds_mcts_session(self, count_binds):
        from repro.config import TuningConstraints
        from repro.tuners import MCTSTuner

        workload = tpcds_workload()
        candidates = CandidateGenerator(workload.schema).for_workload(workload)
        result = MCTSTuner(seed=0).tune(
            workload, 500, TuningConstraints(max_indexes=20), candidates=candidates
        )
        result.true_improvement()
        assert count_binds["binds"] == len(workload) == 99

    def test_real_d_dta_session(self, count_binds):
        from repro.config import ReproConfig, TuningConstraints
        from repro.tuners import DTATuner

        workload = real_d_workload(num_tables=791)
        candidates = CandidateGenerator(workload.schema).for_workload(workload)
        cap = 3 * workload.schema.total_size_bytes
        result = DTATuner().tune(
            workload,
            5000,
            TuningConstraints(max_indexes=20, max_storage_bytes=cap),
            candidates=candidates,
            optimizer_config=ReproConfig(budget_policy="wii"),
        )
        result.true_improvement()
        assert count_binds["binds"] == len(workload) == 32

    def test_tune_without_candidates(self, count_binds):
        from repro.tuners import DTATuner

        workload = tpch_workload()
        DTATuner().tune(workload, 200)
        assert count_binds["binds"] == len(workload)

    def test_cli_tune(self, count_binds, monkeypatch, capsys):
        from repro.cli import main
        from repro.workload.suites import registry

        # A fresh registry: the CLI builds its workload, as a new process does.
        monkeypatch.setattr(registry, "_CACHE", {})
        code = main(
            ["tune", "--workload", "tpch", "--algo", "two_phase", "--budget", "100"]
        )
        assert code == 0
        capsys.readouterr()
        assert count_binds["binds"] == 22


def test_consumers_leave_bound_queries_unchanged():
    """Sharing is safe because nobody writes: set-up, a session's engine and
    own-candidate lists, compression and the CLI report read only."""
    import copy

    from repro.config import TuningConstraints
    from repro.tuners import DTATuner
    from repro.workload.compression import WorkloadCompressor

    workload = tpch_workload()
    bound = {query.qid: query.bind(workload.schema) for query in workload}
    snapshot = copy.deepcopy(bound)
    candidates = CandidateGenerator(workload.schema).for_workload(workload)
    result = DTATuner().tune(
        workload, 300, TuningConstraints(max_indexes=5), candidates=candidates
    )
    result.true_improvement()
    WorkloadCompressor(5).compress(workload)
    for query in workload:
        assert query.bind(workload.schema) is bound[query.qid]
    assert bound == snapshot
