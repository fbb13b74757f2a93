"""Differential tests: greedy probes at cache speed against policy-first references.

``WhatIfOptimizer.trial_cost`` answers a cached ``(qid, normalized key)``
before it consults the budget policy, and ``whatif_prefetch``'s pair scan
takes an ``int`` configuration as its mask, prepares a query only the first
time it sees one and reads the prepared form only for a pair that enters a
wave. :class:`RefProbeOptimizer` keeps the loops these replaced — the
policy-first ``trial_cost`` and the ``_mask``/``prepared``/``_norm`` scan —
as executable specifications. Hypothesis drives both engines through the
same sessions over toy and small synthesized workloads: prefetches (with
limits, masks and index sets), trial probes, counted calls, scoped slice
allowances and checkpoints (Wii's pool release can re-admit a query), under
every budget policy. Return values, raised denials, ``WhatIfStats``, call
logs and event streams must agree exactly.
"""

from __future__ import annotations

from contextlib import ExitStack
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget.policy import POLICY_NAMES, FCFSPolicy, build_policy
from repro.catalog import Index, index_sort_key
from repro.exceptions import BudgetExhaustedError
from repro.optimizer.prepared import PreparedQuery
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners.base import TuningSession
from repro.workload import CandidateGenerator
from repro.workload.suites.real import enterprise_schema
from repro.workload.suites.toy import toy_workload
from repro.workload.synthesis import SynthesisProfile, WorkloadSynthesizer

# --------------------------------------------------------------------------- #
# the reference engine
# --------------------------------------------------------------------------- #


class RefProbeOptimizer(WhatIfOptimizer):
    """The engine with its policy-first probe and full prefetch scan."""

    def trial_cost(self, query, base_cost: float, trial: int, extra: int) -> float:
        if self._policy.admits(query.qid):
            return self.whatif_cost(query, trial)
        self.prepared(query)
        norm = self._norm(query.qid, trial)
        if not norm:
            return self.empty_cost(query)
        cached = self._derivation.known_cost(query.qid, norm)
        if cached is not None:
            self._stats.cache_hits += 1
            if norm != trial:
                self._stats.normalized_hits += 1
            return cached
        return self._derivation.derived_cost_with_extra(
            query.qid, base_cost, trial, extra
        )

    def whatif_prefetch(self, pairs, *, limit: int | None = None) -> int:
        executor = self._ensure_pricing_executor()
        wave_size = executor.wave_size
        pairs_iter = iter(pairs)
        seen: set[tuple[str, int]] = set()
        granted: list[tuple[str, int, frozenset[Index], float]] = []
        try:
            while limit is None or len(granted) < limit:
                room = wave_size if limit is None else min(wave_size, limit - len(granted))
                wave: list[tuple[str, PreparedQuery, frozenset[Index]]] = []
                norms: list[int] = []
                for query, configuration in pairs_iter:
                    mask = self._mask(configuration)
                    if not mask:
                        continue
                    qid = query.qid
                    prepared = self.prepared(query)
                    norm = self._norm(qid, mask)
                    if not norm:
                        continue
                    cache_key = (qid, norm)
                    if self._derivation.known_cost(qid, norm) is not None or cache_key in seen:
                        continue
                    seen.add(cache_key)
                    wave.append((qid, prepared, self._configuration(norm)))
                    norms.append(norm)
                    if len(wave) >= room:
                        break
                if not wave:
                    break
                costs = self._price_wave(wave, executor)
                for pair, norm, cost in zip(wave, norms, costs, strict=True):
                    qid, _, key = pair
                    if cost is None and self._policy.admits(qid):
                        (cost,) = self._price_wave([pair], executor)
                    if not self._policy.try_charge(qid):
                        if cost is not None:
                            self._stats.speculation_wasted += 1
                        continue
                    self._stats.cost_evaluations += 1
                    granted.append((qid, norm, key, cost))
        finally:
            for qid, norm, key, cost in granted:
                self._stats.cache_misses += 1
                self._commit_call(qid, norm, key, cost)
            if granted:
                self._stats.batch_calls += 1
                self._stats.batched_pairs += len(granted)
        return len(granted)


# --------------------------------------------------------------------------- #
# workloads and sessions
# --------------------------------------------------------------------------- #


def _synthesized(seed: int):
    schema = enterprise_schema(
        f"probe{seed}", num_tables=8, target_bytes=2 * 10**9, seed=seed, hub_fraction=0.25
    )
    profile = SynthesisProfile(num_queries=6, min_joins=1, max_joins=3, filters_per_query=1.5)
    return WorkloadSynthesizer(schema, profile, seed=seed + 1).generate(f"probe{seed}")


_BUILDERS = {
    "toy": toy_workload,
    "synth-3": lambda: _synthesized(3),
    "synth-11": lambda: _synthesized(11),
}


@cache
def _fixture(name: str):
    workload = _BUILDERS[name]()
    candidates = sorted(
        CandidateGenerator(workload.schema).for_workload(workload), key=index_sort_key
    )
    return workload, candidates


def _session(engine_cls, workload, candidates, policy: str, budget: int):
    engine = engine_cls(workload, policy=build_policy(policy, budget))
    # Intern the pool in one order for both engines, as greedy does.
    for index in candidates:
        engine.position(index)
    return TuningSession(workload, candidates, backend=engine)


def _observed(session) -> tuple:
    engine = session.optimizer
    stats = engine.stats.as_dict()
    del stats["cost_seconds"]
    calls = [(c.ordinal, c.qid, c.configuration, c.cost) for c in engine.call_log]
    return stats, calls, list(session.events), engine.calls_used


_op = st.tuples(
    st.sampled_from(
        ["prefetch", "prefetch", "trial", "trial", "trial", "cost", "slice", "checkpoint"]
    ),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=5),
    st.integers(0, 10**6),
)


def _drive(session, ops, candidates) -> list:
    """Run ``ops`` on ``session``; every answer, in order."""
    engine = session.optimizer
    queries = session.workload.queries
    positions = [engine.position(index) for index in candidates]
    # Pairs already sent to the engine: probes re-ask them, so cached
    # pairs are probed in the admitted and in the denied regime.
    asked: list = []
    answers: list = []
    with ExitStack() as scopes:
        depth = 0
        for kind, qpick, picks, arg in ops:
            query = queries[qpick % len(queries)]
            mask = 0
            for pick in picks:
                mask |= 1 << positions[pick % len(positions)]
            if kind == "prefetch":
                limit = None if arg % 3 == 0 else arg % 7
                pairs = []
                for offset in range(len(picks) + 1):
                    sub = mask
                    for pick in picks[:offset]:
                        sub &= ~(1 << positions[pick % len(positions)])
                    configuration = sub
                    if offset % 2:
                        # Some pairs as index sets: the scan's ``_mask`` path.
                        configuration = engine._configuration(sub)
                    pair_query = queries[(qpick + offset) % len(queries)]
                    pairs.append((pair_query, configuration))
                    asked.append((pair_query, sub))
                answers.append(("prefetch", engine.whatif_prefetch(pairs, limit=limit)))
            elif kind == "trial":
                extra = positions[arg % len(positions)]
                if asked and arg % 3 == 0:
                    query, mask = asked[qpick % len(asked)]
                    members = [position for position in positions if mask >> position & 1]
                    if members:
                        extra = members[arg % len(members)]
                        mask &= ~(1 << extra)
                # A fixed base cost leaves a query the engine has not seen
                # unprepared until the probe itself.
                base_cost = engine.derived_cost(query, mask) if arg % 2 else 1e12
                answers.append(
                    ("trial", engine.trial_cost(query, base_cost, mask | 1 << extra, extra))
                )
            elif kind == "cost":
                asked.append((query, mask))
                try:
                    answers.append(("cost", engine.whatif_cost(query, mask)))
                except BudgetExhaustedError:
                    answers.append(("cost", "denied"))
            elif kind == "slice":
                if depth < 2 and arg % 3:
                    scopes.enter_context(session.allowance(arg % 5))
                    depth += 1
                elif depth:
                    scopes.close()
                    depth = 0
            else:
                session.checkpoint(engine._configuration(mask))
            answers.append(_observed(session))
    answers.append(_observed(session))
    return answers


# --------------------------------------------------------------------------- #
# the differential test
# --------------------------------------------------------------------------- #


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_BUILDERS)),
    policy=st.sampled_from(POLICY_NAMES),
    budget=st.integers(0, 40),
    ops=st.lists(_op, min_size=1, max_size=30),
)
def test_probes_match_policy_first_reference(name, policy, budget, ops):
    workload, candidates = _fixture(name)
    fast = _session(WhatIfOptimizer, workload, candidates, policy, budget)
    ref = _session(RefProbeOptimizer, workload, candidates, policy, budget)
    assert _drive(fast, ops, candidates) == _drive(ref, ops, candidates)


# --------------------------------------------------------------------------- #
# direct tests
# --------------------------------------------------------------------------- #


class _RefusingToAnswer(FCFSPolicy):
    """A policy that must not be consulted."""

    def admits(self, qid: str) -> bool:
        raise AssertionError(f"admits({qid!r}) consulted for a cached pair")


def test_cached_trial_never_consults_the_policy():
    workload, candidates = _fixture("toy")
    engine = WhatIfOptimizer(workload, budget=50)
    query = workload[0]
    engine.prepared(query)
    extra = next(
        position
        for position in map(engine.position, candidates)
        if engine._norm(query.qid, 1 << position)
    )
    cost = engine.whatif_cost(query, 1 << extra)
    engine.policy = _RefusingToAnswer(engine.meter)
    hits = engine.stats.cache_hits
    assert engine.trial_cost(query, engine.empty_cost(query), 1 << extra, extra) == cost
    assert engine.stats.cache_hits == hits + 1


@pytest.mark.parametrize("admitted", [True, False])
def test_zero_key_counts_a_hit_only_when_admitted(admitted):
    """An all-irrelevant trial is a (normalized) hit in the admitted regime
    and a plain empty-configuration answer in the denied one."""
    workload, candidates = _fixture("toy")
    engine = WhatIfOptimizer(workload, budget=10 if admitted else 0)
    query = workload[0]
    engine.prepared(query)
    extra = next(
        position
        for position in map(engine.position, candidates)
        if not engine._norm(query.qid, 1 << position)
    )
    empty = engine.empty_cost(query)
    assert engine.trial_cost(query, empty, 1 << extra, extra) == empty
    stats = engine.stats
    assert (stats.cache_hits, stats.normalized_hits) == ((1, 1) if admitted else (0, 0))
