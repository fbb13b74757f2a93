"""Differential tests: greedy probes and counted calls against policy-first references.

``WhatIfOptimizer.trial_cost`` answers a cached ``(qid, normalized key)``
before it consults the budget policy; ``whatif_prefetch``'s pair scan
takes an ``int`` configuration as its mask, prepares a query only the first
time it sees one, carries each pair of a wave as its normalized mask, and
denies a refused pair that would open a wave without building it; a wave's
first decision is granted without asking the policy again; a one-pair wave
is priced without the executor's containers; granted calls are committed
in one pass over the batch; events are built by setting their slots; and
``greedy_step_costs`` answers a whole greedy step from one scan, sending
only the pairs the store cannot answer on to the prefetch and the probe.
:class:`RefProbeOptimizer` keeps the loops these replaced — the
policy-first ``trial_cost``, the ``_mask``/``prepared``/``_norm`` scan
with its frozenset waves (and its own copy of the wave pricer), a decide
loop that calls ``try_charge`` for every pair (:func:`ref_try_charge`, its
own copy), a counted ``whatif_cost`` that checks and charges, a
per-call commit, keyword-built events (:class:`RefEventLog`), and a step
as a prefetch of every pair followed by one ``trial_cost`` per pair — as
executable specifications. Hypothesis drives both engines through the
same sessions over toy and small synthesized workloads, each with a cold
or a partly warm persistent store and, when drawn, a cost observer:
prefetches (with masks and index sets, some with a pricing fault
injected mid-batch), trial probes, greedy steps, counted calls, scoped
slice allowances and checkpoints (Wii's pool release can re-admit a
query), under every budget policy. Return values (step totals bit for
bit), raised denials and faults, ``WhatIfStats``, call logs, ordered
event streams with their payloads, observed costs and the store's shard
bytes must agree exactly, and every charged call must be committed.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from contextlib import ExitStack, contextmanager, nullcontext
from functools import cache
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.cache import canonical_key
from repro.budget.events import EVENT_KINDS, EventLog, SessionEvent
from repro.budget.meter import BudgetMeter
from repro.budget.policy import POLICY_NAMES, FCFSPolicy, build_policy
from repro.catalog import Index, index_sort_key
from repro.config import ReproConfig
from repro.exceptions import BudgetExhaustedError, TuningError
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


class RefEventLog(EventLog):
    """The event stream with each event built by its keyword ``__init__``."""

    def emit(self, kind: str, calls_used: int, **payload) -> SessionEvent:
        if kind not in EVENT_KINDS:
            raise TuningError(f"unknown session event kind {kind!r}")
        event = SessionEvent(
            ordinal=len(self._events) + 1,
            kind=kind,
            calls_used=calls_used,
            payload=payload,
        )
        self._events.append(event)
        for observer in self._observers:
            observer(event)
        return event


def _ref_grant(policy, qid: str) -> None:
    policy._consume(qid)
    if policy._events is not None:
        policy._events.emit(
            "budget_grant", calls_used=policy.spent, qid=qid, policy=policy.name
        )


def ref_try_charge(policy, qid: str) -> bool:
    """``BudgetPolicy.try_charge`` as it was: ask, then consume and log."""
    if not policy.admits(qid):
        policy._emit_deny(qid)
        return False
    _ref_grant(policy, qid)
    return True


def ref_charge(policy, qid: str) -> None:
    """``BudgetPolicy.charge`` as it was: check, then consume and log."""
    policy.check(qid)
    _ref_grant(policy, qid)


class RefProbeOptimizer(WhatIfOptimizer):
    """The engine with its policy-first probe, full prefetch scan,
    ``try_charge`` per pair and per-call commits."""

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

    def whatif_cost(self, query, configuration) -> float:
        mask = self._mask(configuration)
        if not mask:
            return self.empty_cost(query)
        qid = query.qid
        prepared = self.prepared(query)
        norm = self._norm(qid, mask)
        if not norm:
            self._stats.cache_hits += 1
            self._stats.normalized_hits += 1
            return self.empty_cost(query)
        cached = self._derivation.known_cost(qid, norm)
        if cached is not None:
            self._stats.cache_hits += 1
            if norm != mask:
                self._stats.normalized_hits += 1
            return cached
        self._policy.check(qid)
        cost = self._price(prepared, norm)
        ref_charge(self._policy, qid)
        self._stats.cache_misses += 1
        self._commit_call(qid, norm, cost)
        return cost

    def _commit_call(self, qid: str, norm: int, cost: float) -> None:
        self._derivation.record(qid, norm, cost)
        self._log.append((qid, norm, cost))
        if self._cost_observers:
            self._notify_cost(qid, self._configuration(norm), cost)
        if self._events is not None:
            self._events.emit(
                "whatif_call",
                calls_used=self._policy.spent,
                qid=qid,
                size=norm.bit_count(),
                cost=cost,
            )

    def whatif_prefetch(self, pairs) -> int:
        executor = self._ensure_pricing_executor()
        wave_size = executor.wave_size
        pairs_iter = iter(pairs)
        seen: set[tuple[str, int]] = set()
        granted: list[tuple[str, int, frozenset[Index], float]] = []
        try:
            while True:
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
                    if len(wave) >= wave_size:
                        break
                if not wave:
                    break
                costs = self._price_wave(wave, executor)
                for pair, norm, cost in zip(wave, norms, costs, strict=True):
                    qid, _, key = pair
                    if cost is None and self._policy.admits(qid):
                        (cost,) = self._price_wave([pair], executor)
                    if not ref_try_charge(self._policy, qid):
                        if cost is not None:
                            self._stats.speculation_wasted += 1
                        continue
                    self._stats.cost_evaluations += 1
                    granted.append((qid, norm, key, cost))
        finally:
            for qid, norm, key, cost in granted:
                self._stats.cache_misses += 1
                self._commit_call(qid, norm, cost)
            if granted:
                self._stats.batch_calls += 1
                self._stats.batched_pairs += len(granted)
        return len(granted)

    def _price_wave(self, wave, executor) -> list[float | None]:
        """The frozenset wave pricer: the policy asked per pair at pricing
        time, shard keys from ``canonical_key``."""
        costs: list[float | None] = [None] * len(wave)
        entries: dict[int, tuple] = {}
        misses: list[int] = []
        speculative = executor.jobs > 1
        recall = self._whatif_cache is not None
        for position, (qid, _, key) in enumerate(wave):
            if not self._policy.admits(qid):
                continue
            if speculative:
                self._stats.speculative_priced += 1
            recalled = None
            if recall:
                entries[position] = (qid, canonical_key(key))
                recalled = self._persistent_cache().recall(entries[position])
                if recalled is not None:
                    self._stats.persistent_hits += 1
            if recalled is None:
                misses.append(position)
            else:
                costs[position] = recalled
        if misses:
            start = perf_counter()
            fresh = executor.map_shards(
                self._price_shard, [wave[position] for position in misses]
            )
            self._stats.cost_seconds += perf_counter() - start
            for position, cost in zip(misses, fresh, strict=True):
                costs[position] = cost
                if recall:
                    self._persistent_cache().put_entry(entries[position], cost)
        return costs


def ref_step_costs(engine, session, trials, current, best_cost) -> list[float]:
    """A greedy step as the loop it was: prefetch every pair, then probe
    each with ``trial_cost`` in (trial, query) order."""
    if not session.exhausted:
        engine.whatif_prefetch(
            (query, mask) for mask, _, queries in trials for query in queries
        )
    totals = []
    for mask, extra, queries in trials:
        total = best_cost
        for query in queries:
            base = current[query.qid]
            total += query.weight * (engine.trial_cost(query, base, mask, extra) - base)
        totals.append(total)
    return totals


def fast_step_costs(engine, session, trials, current, best_cost) -> list[float]:
    return engine.greedy_step_costs(trials, current, best_cost)


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


def _session(
    engine_cls, workload, candidates, policy: str, budget: int, store=None, observed=None
):
    """A session on a fresh ``engine_cls``; the reference gets its
    keyword-built event stream. ``observed``, when given, collects every
    cost the engine reports to cost observers."""
    engine = engine_cls(
        workload,
        policy=build_policy(policy, budget),
        config=ReproConfig(whatif_cache=None if store is None else str(store)),
    )
    # Intern the pool in one order for both engines, as greedy does.
    for index in candidates:
        engine.position(index)
    if observed is not None:
        engine.add_cost_observer(
            lambda qid, key, cost: observed.append((qid, key, cost.hex()))
        )
    events = RefEventLog() if isinstance(engine, RefProbeOptimizer) else None
    return TuningSession(workload, candidates, backend=engine, events=events)


def _observed(session) -> tuple:
    engine = session.optimizer
    stats = engine.stats.as_dict()
    del stats["cost_seconds"]
    calls = [(c.ordinal, c.qid, c.configuration, c.cost) for c in engine.call_log]
    return stats, calls, list(session.events), engine.calls_used


class InjectedFault(RuntimeError):
    """A pricing fault planted by :func:`_fault_at`."""


@contextmanager
def _fault_at(engine, evaluation: int):
    """Make the engine's ``evaluation``-th fresh pricing from now raise, once.

    Every fresh pricing goes through ``_evaluate``; an instance attribute
    shadows it for the block. The count is shared by a wave's pricing
    threads, and the fault fires once, so which wave it aborts does not
    depend on scheduling."""
    evaluate = engine._evaluate
    count = itertools.count(1)

    def faulty(prepared, key):
        if next(count) == evaluation:
            raise InjectedFault(f"pricing fault at evaluation {evaluation}")
        return evaluate(prepared, key)

    engine._evaluate = faulty
    try:
        yield
    finally:
        del engine._evaluate


_op = st.tuples(
    st.sampled_from(
        [
            "prefetch", "prefetch", "trial", "trial", "trial", "step", "step",
            "cost", "slice", "checkpoint",
        ]
    ),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 10**6), max_size=5),
    st.integers(0, 10**6),
)


def _drive(session, ops, candidates, step=fast_step_costs) -> list:
    """Run ``ops`` on ``session``; every answer, in order. ``step`` runs a
    greedy step op."""
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
                # One prefetch in four has a pricing fault planted at one
                # of its first three fresh pricings.
                planted = arg % 4 == 1
                with _fault_at(engine, 1 + arg // 4 % 3) if planted else nullcontext():
                    try:
                        answers.append(("prefetch", engine.whatif_prefetch(pairs)))
                    except InjectedFault:
                        answers.append(("prefetch", "fault"))
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
            elif kind == "step":
                # Trials over one base configuration, as greedy's, or over
                # pairs already asked (cached, or denied earlier).
                base = mask
                trials = []
                for offset, pick in enumerate(picks or [arg]):
                    extra = positions[(pick + arg) % len(positions)]
                    trial = base | 1 << extra
                    if asked and pick % 3 == 0:
                        _, asked_mask = asked[pick % len(asked)]
                        members = [p for p in positions if asked_mask >> p & 1]
                        if members:
                            extra = members[pick % len(members)]
                            trial = asked_mask
                    count = 1 + (pick + offset) % len(queries)
                    affected = [
                        queries[(qpick + offset + k) % len(queries)] for k in range(count)
                    ]
                    trials.append((trial, extra, affected))
                    asked.extend((query, trial) for query in affected)
                current = {
                    query.qid: engine.derived_cost(query, base) if arg % 2 else 1e12
                    for query in queries
                }
                best_cost = sum(query.weight * current[query.qid] for query in queries)
                totals = step(engine, session, trials, current, best_cost)
                answers.append(("step", [total.hex() for total in totals]))
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
            observed = _observed(session)
            # No charge without its commit, faults included.
            assert observed[3] == len(observed[1])
            answers.append(observed)
    answers.append(_observed(session))
    return answers


# --------------------------------------------------------------------------- #
# the differential test
# --------------------------------------------------------------------------- #


def _shard_bytes(session) -> bytes | None:
    session.optimizer.close()
    shard = session.optimizer.whatif_shard
    return None if shard is None else shard.read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_BUILDERS)),
    policy=st.sampled_from(POLICY_NAMES),
    budget=st.integers(0, 40),
    ops=st.lists(_op, min_size=1, max_size=30),
    warm=st.none() | st.integers(0, 30),
    observe=st.booleans(),
)
def test_probes_match_policy_first_reference(name, policy, budget, ops, warm, observe):
    """Both engines price through a persistent store: a cold one, or one a
    plain session filled with the first ``warm`` ops. With ``observe``,
    each has a cost observer, and both must report the same costs."""
    workload, candidates = _fixture(name)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        if warm is not None:
            filler = _session(
                WhatIfOptimizer, workload, candidates, policy, budget, root / "warm"
            )
            _drive(filler, ops[:warm], candidates)
            filler.optimizer.close()
        stores = (root / "fast", root / "ref")
        if (root / "warm").exists():
            for store in stores:
                shutil.copytree(root / "warm", store)
        observed = ([], []) if observe else (None, None)
        fast = _session(
            WhatIfOptimizer, workload, candidates, policy, budget, stores[0], observed[0]
        )
        ref = _session(
            RefProbeOptimizer, workload, candidates, policy, budget, stores[1], observed[1]
        )
        assert _drive(fast, ops, candidates) == _drive(
            ref, ops, candidates, step=ref_step_costs
        )
        assert observed[0] == observed[1]
        assert _shard_bytes(fast) == _shard_bytes(ref)


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


class _RefusesOne(FCFSPolicy):
    """FCFS that never admits one query, so a refused pair can open a wave."""

    def __init__(self, meter, refused: str):
        super().__init__(meter)
        self._refused = refused

    def admits(self, qid: str) -> bool:
        return qid != self._refused and super().admits(qid)


class _FastAtTwoJobs(WhatIfOptimizer):
    pricing_jobs = 2


class _RefAtTwoJobs(RefProbeOptimizer):
    pricing_jobs = 2


def test_refused_opener_keeps_its_wave_slot(tmp_path):
    """At two jobs a wave holds 16 pairs. A refused pair that opens one is
    denied before the wave is built, yet it fills its slot: the pairs
    priced ahead of their decisions, and so the speculative counters and
    the shard, are the reference's."""
    workload, candidates = _fixture("toy")
    refused, admitted = workload[0], workload[3]
    observed = []
    for engine_cls, store in ((_FastAtTwoJobs, "fast"), (_RefAtTwoJobs, "ref")):
        engine = engine_cls(
            workload,
            policy=_RefusesOne(BudgetMeter(10), refused.qid),
            config=ReproConfig(whatif_cache=str(tmp_path / store)),
        )
        events = RefEventLog() if isinstance(engine, RefProbeOptimizer) else EventLog()
        engine.attach_events(events)
        positions = [engine.position(index) for index in candidates]
        for query in (refused, admitted):
            engine.prepared(query)
        opener = next(p for p in positions if engine._norm(refused.qid, 1 << p))
        relevant = [p for p in positions if engine._norm(admitted.qid, 1 << p)]
        pairs = [(refused, 1 << opener)] + [(admitted, 1 << p) for p in relevant[:20]]
        assert engine.whatif_prefetch(pairs) == 10
        engine.close()
        stats = engine.stats.as_dict()
        del stats["cost_seconds"]
        calls = [(c.ordinal, c.qid, c.configuration, c.cost) for c in engine.call_log]
        observed.append((stats, calls, list(events), engine.whatif_shard.read_bytes()))
    assert observed[0][0]["speculative_priced"] == 15
    assert observed[0] == observed[1]
