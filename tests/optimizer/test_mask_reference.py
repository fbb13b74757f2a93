"""Differential tests: the position-keyed what-if engine against frozenset references.

The engine keys its cache, its batch dedupe set and its derivation store on
``(qid, mask)``, where a mask is an ``int`` over interned index positions,
and normalizes with one AND against a lazily grown relevance mask. The
references below are the frozenset implementations it replaced — a
per-query memo walk over the configuration (``relevant_subset``, with the
all-accesses :func:`ref_index_is_relevant` scan) and the frozenset-keyed
derivation store — kept as executable specifications. Hypothesis drives
both through the same operation sequence: counted calls, batch prefetches,
cache probes and derived costs over toy, TPC-H and synthesized workloads,
in both ``normalize_cache`` modes, on the analytic and a σ = 0.4 noisy
backend, with merged and widened non-candidate indexes that the engine
first sees after their queries were prepared. Normalized sets, cache
answers, hit/miss/normalized-hit counts, costs and every derivation probe
must agree exactly.
"""

from __future__ import annotations

import math
from functools import cache

from hypothesis import given, settings, strategies as st

from repro.backend.noisy import NoisyBackend
from repro.catalog import Index, index_sort_key
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners.dta import merge_indexes
from repro.workload import CandidateGenerator
from repro.workload.suites.real import enterprise_schema
from repro.workload.suites.toy import toy_workload
from repro.workload.suites.tpch import tpch_workload
from repro.workload.synthesis import SynthesisProfile, WorkloadSynthesizer

# --------------------------------------------------------------------------- #
# references
# --------------------------------------------------------------------------- #


def ref_index_is_relevant(prepared, index: Index) -> bool:
    """Relevance by scanning every access and join step (no table bucket)."""
    table_name = index.table
    first_key = index.key_columns[0]
    for access in prepared.accesses.values():
        if access.table.name != table_name:
            continue
        if (
            first_key in access.equality_selectivity
            or first_key in access.range_selectivity
        ):
            return True
        if index.covers(access.required_columns):
            return True
    for step in prepared.join_steps:
        access = step.access
        if access.table.name != table_name:
            continue
        for column in index.key_columns:
            if column in step.join_columns:
                return True
            if column not in access.equality_selectivity:
                break
    return False


def ref_relevant_subset(prepared, memo: dict, configuration: frozenset) -> frozenset:
    """``configuration ∩ relevant(q)``; the same object when nothing drops."""
    dropped = False
    kept = []
    for index in configuration:
        relevant = memo.get(index)
        if relevant is None:
            relevant = ref_index_is_relevant(prepared, index)
            memo[index] = relevant
        if relevant:
            kept.append(index)
        else:
            dropped = True
    if not dropped:
        return configuration
    return frozenset(kept)


_NO_ENTRIES: dict = {}


class RefDerivation:
    """The frozenset-keyed derivation store (Equation 1)."""

    def __init__(self) -> None:
        self._exact: dict = {}
        self._singletons: dict = {}
        self._compound: dict = {}
        self._by_member: dict = {}
        self._empty: dict = {}

    def record(self, qid: str, configuration: frozenset, cost: float) -> None:
        key = (qid, configuration)
        previous = self._exact.get(key)
        if previous is not None and previous <= cost:
            return
        self._exact[key] = cost
        if not configuration:
            self._empty[qid] = cost
            return
        entry = (configuration, cost)
        if len(configuration) == 1:
            (index,) = configuration
            self._singletons.setdefault(qid, {})[index] = cost
        else:
            self._compound.setdefault(qid, []).append(entry)
        for member in configuration:
            self._by_member.setdefault(member, {}).setdefault(qid, []).append(entry)

    def derived_cost(self, qid: str, configuration: frozenset, empty_cost: float) -> float:
        best = self._empty.get(qid, empty_cost)
        exact = self._exact.get((qid, configuration))
        if exact is not None and exact < best:
            best = exact
        singletons = self._singletons.get(qid)
        if singletons:
            for index in configuration:
                cost = singletons.get(index)
                if cost is not None and cost < best:
                    best = cost
        for entry, cost in self._compound.get(qid, ()):
            if cost < best and entry.issubset(configuration):
                best = cost
        return best

    def lowest_within(self, configuration: frozenset) -> dict[str, float]:
        lowest: dict[str, float] = {}
        for member in configuration:
            for qid, entries in self._by_member.get(member, _NO_ENTRIES).items():
                best = lowest.get(qid, math.inf)
                for entry, cost in entries:
                    if cost < best and entry <= configuration:
                        best = cost
                if best < math.inf:
                    lowest[qid] = best
        return lowest

    def derived_cost_with_extra(
        self, qid: str, base_derived: float, trial: frozenset, extra: Index
    ) -> float:
        best = base_derived
        for entry, cost in self._by_member.get(extra, _NO_ENTRIES).get(qid, ()):
            if cost < best and entry <= trial:
                best = cost
        return best

    def has_observation(self, qid: str, index: Index) -> bool:
        return qid in self._by_member.get(index, _NO_ENTRIES)


class RefEngine:
    """The frozenset-keyed cache bookkeeping, pricing through ``engine``."""

    def __init__(self, engine: WhatIfOptimizer) -> None:
        self.engine = engine
        self.normalize = engine.normalize_cache
        self.memo: dict[str, dict] = {}
        self.cache: dict = {}
        self.derivation = RefDerivation()
        self.hits = self.misses = self.normalized_hits = 0

    def norm(self, query, key: frozenset) -> frozenset:
        if not (self.normalize and key):
            return key
        prepared = self.engine.prepared(query)
        return ref_relevant_subset(prepared, self.memo.setdefault(query.qid, {}), key)

    def empty(self, query) -> float:
        cost = self.engine.empty_cost(query)
        self.derivation.record(query.qid, frozenset(), cost)
        return cost

    def price(self, query, norm: frozenset) -> float:
        return self.engine._evaluate(self.engine.prepared(query), norm)

    def whatif_cost(self, query, key: frozenset) -> float:
        if not key:
            return self.empty(query)
        norm = self.norm(query, key)
        if not norm:
            self.hits += 1
            self.normalized_hits += 1
            return self.empty(query)
        cached = self.cache.get((query.qid, norm))
        if cached is not None:
            self.hits += 1
            if norm is not key:
                self.normalized_hits += 1
            return cached
        cost = self.price(query, norm)
        self.misses += 1
        self.cache[(query.qid, norm)] = cost
        self.derivation.record(query.qid, norm, cost)
        return cost

    def prefetch(self, pairs) -> None:
        seen = set()
        for query, key in pairs:
            if not key:
                continue
            norm = self.norm(query, key)
            if not norm or (query.qid, norm) in self.cache or (query.qid, norm) in seen:
                continue
            seen.add((query.qid, norm))
            cost = self.price(query, norm)
            self.misses += 1
            self.cache[(query.qid, norm)] = cost
            self.derivation.record(query.qid, norm, cost)

    def is_cached(self, query, key: frozenset) -> bool:
        if not key:
            return True
        norm = self.norm(query, key)
        return not norm or (query.qid, norm) in self.cache

    def derived_cost(self, query, key: frozenset) -> float:
        norm = self.norm(query, key) if key else key
        return self.derivation.derived_cost(query.qid, norm, self.empty(query))

    def derived_query_costs(self, key: frozenset) -> list[float]:
        lowest = self.derivation.lowest_within(key) if key else {}
        costs = []
        for query in self.engine.workload:
            empty = self.empty(query)
            cost = lowest.get(query.qid, math.inf)
            costs.append(query.weight * (cost if cost < empty else empty))
        return costs


# --------------------------------------------------------------------------- #
# workloads, pools and engines
# --------------------------------------------------------------------------- #


def _synthesized(seed: int):
    schema = enterprise_schema(
        f"synth{seed}", num_tables=10, target_bytes=2 * 10**9, seed=seed, hub_fraction=0.2
    )
    profile = SynthesisProfile(num_queries=8, min_joins=1, max_joins=4, filters_per_query=1.5)
    return WorkloadSynthesizer(schema, profile, seed=seed + 1).generate(f"synth{seed}")


_BUILDERS = {
    "toy": toy_workload,
    "tpch": tpch_workload,
    "synth-5": lambda: _synthesized(5),
    "synth-17": lambda: _synthesized(17),
}


@cache
def _fixture(name: str):
    """``(workload, candidates, late)``: ``late`` are non-candidate indexes —
    DTA-merged ones and candidates widened by an INCLUDE column."""
    workload = _BUILDERS[name]()
    schema = workload.schema
    candidates = sorted(CandidateGenerator(schema).for_workload(workload), key=index_sort_key)
    known = set(candidates)
    late = [index for index in merge_indexes(candidates, schema) if index not in known]
    for index in candidates[::3]:
        table = schema.table(index.table)
        spare = [
            column.name
            for column in table.columns
            if column.name not in index.key_columns and column.name not in index.include_columns
        ]
        if spare:
            widened = Index.build(table, index.key_columns, (*index.include_columns, spare[0]))
            if widened not in known:
                late.append(widened)
    return workload, candidates, late


_ENGINES = {
    "analytic": lambda workload, normalize: WhatIfOptimizer(
        workload, normalize_cache=normalize
    ),
    "noisy": lambda workload, normalize: NoisyBackend(
        workload, noise=0.4, noise_seed=3, normalize_cache=normalize
    ),
}

_picks = st.lists(st.integers(0, 10**6), max_size=7)
_op = st.tuples(
    st.sampled_from(["cost", "prefetch", "cached", "derived", "workload", "extra"]),
    st.integers(0, 10**6),
    _picks,
    st.integers(0, 10**6),
)


# --------------------------------------------------------------------------- #
# the differential test
# --------------------------------------------------------------------------- #


def _check_normalized(engine, ref, query, key):
    engine.prepared(query)
    mask = engine._mask(key)
    norm = engine._norm(query.qid, mask) if mask else mask
    expected = ref.norm(query, key)
    assert engine._configuration(norm) == expected
    # The collapse rule: the mask survives unchanged iff nothing was dropped.
    assert (norm == mask) == (expected is key or expected == key)


def _run(engine, ref, workload, pool, ops):
    queries = workload.queries

    def configuration(picks):
        return frozenset(pool[pick % len(pool)] for pick in picks)

    for kind, qpick, picks, extra_pick in ops:
        query = queries[qpick % len(queries)]
        key = configuration(picks)
        if kind == "cost":
            _check_normalized(engine, ref, query, key)
            assert engine.whatif_cost(query, key) == ref.whatif_cost(query, key)
        elif kind == "prefetch":
            pairs = [
                (queries[(qpick + offset) % len(queries)], configuration(picks[offset:]))
                for offset in range(len(picks) + 1)
            ]
            engine.whatif_prefetch(pairs)
            ref.prefetch(pairs)
        elif kind == "cached":
            assert engine.is_cached(query, key) == ref.is_cached(query, key)
        elif kind == "derived":
            assert engine.derived_cost(query, key) == ref.derived_cost(query, key)
        elif kind == "workload":
            assert engine.derived_query_costs(key) == ref.derived_query_costs(key)
        else:
            extra = pool[extra_pick % len(pool)]
            calls = [call for call in engine.call_log if call.qid == query.qid]
            if calls and extra_pick % 2:
                # Extend an observation minus one member by that member, so
                # the observation lies inside the trial and contains it.
                observed = calls[extra_pick % len(calls)].configuration
                extra = sorted(observed, key=index_sort_key)[extra_pick % len(observed)]
                key = (key | observed) - {extra}
            trial = key | {extra}
            position = engine.position(extra)
            assert engine.derivation.has_observation(
                query.qid, position
            ) == ref.derivation.has_observation(query.qid, extra)
            base_cost = ref.derived_cost(query, key)
            assert engine.derived_cost(query, key) == base_cost
            assert engine.derivation.derived_cost_with_extra(
                query.qid, base_cost, engine._mask(trial), position
            ) == ref.derivation.derived_cost_with_extra(query.qid, base_cost, trial, extra)
        stats = engine.stats
        assert (stats.cache_hits, stats.cache_misses, stats.normalized_hits) == (
            ref.hits,
            ref.misses,
            ref.normalized_hits,
        )


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(_BUILDERS)),
    backend=st.sampled_from(sorted(_ENGINES)),
    normalize=st.booleans(),
    early=st.lists(_op, max_size=12),
    late=st.lists(_op, min_size=1, max_size=20),
)
def test_engine_matches_frozenset_reference(name, backend, normalize, early, late):
    """Candidate-only operations first (preparing queries and interning
    some candidates), then operations over candidates and non-candidate
    indexes the engine has not seen yet."""
    workload, candidates, late_indexes = _fixture(name)
    engine = _ENGINES[backend](workload, normalize)
    ref = RefEngine(engine)
    _run(engine, ref, workload, candidates, early)
    _run(engine, ref, workload, candidates + late_indexes, late)
    for query in workload:
        prepared = engine.prepared(query)
        for index in late_indexes:
            assert (engine._norm(query.qid, 1 << engine.position(index)) != 0) == (
                not normalize or ref_index_is_relevant(prepared, index)
            )


def test_late_index_gains_its_relevance_bit():
    """An index interned after its query was normalized is still kept."""
    workload, candidates, late = _fixture("toy")
    engine = WhatIfOptimizer(workload)
    query = workload[0]
    prepared = engine.prepared(query)
    engine.is_cached(query, candidates[:1])
    relevant_late = [index for index in late if ref_index_is_relevant(prepared, index)]
    assert relevant_late, "toy workload lost its relevant merged indexes"
    for index in relevant_late:
        bit = 1 << engine.position(index)
        assert engine._norm(query.qid, bit) == bit
