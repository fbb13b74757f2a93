"""The what-if call interface: budget metering and the what-if cache.

:class:`WhatIfOptimizer` is what every enumeration algorithm talks to. It
mirrors the AutoAdmin "what-if" API [Chaudhuri & Narasayya, SIGMOD'98]:

* :meth:`whatif_cost` — one *counted* optimizer invocation for a
  (query, configuration) pair, unless the pair was already evaluated: a
  call is counted iff ``(qid, C ∩ relevant(q))`` is uncached (the
  counting rule, DESIGN §1);
* :meth:`derived_cost` — the free upper-bound approximation of Section 3.1,
  delegated to :class:`~repro.optimizer.derivation.CostDerivation`;
* a :class:`~repro.budget.policy.BudgetPolicy` (FCFS over a
  :class:`~repro.budget.meter.BudgetMeter` by default) that every *counted*
  call is authorised through, and a call log that records the layout of the
  budget allocation matrix actually realised by a tuning run. Budget
  accounting itself lives in :mod:`repro.budget`; the optimizer only asks
  the policy ``admits``/``charge`` questions and reports committed calls to
  the session event stream when one is attached.

Three layers make the simulated optimizer fast; the second also sets
the key a call is counted under (DESIGN §1):

* **Position-keyed configurations** — the engine interns every index to a
  position the first time it sees one and works on ``int`` bitmasks over
  those positions: the in-memory cache, the batch dedupe set and the
  :class:`~repro.optimizer.derivation.CostDerivation` store are keyed on
  ``(qid, mask)``. Every public method takes a configuration either as an
  iterable of indexes or as a mask (:meth:`WhatIfOptimizer.position` gives
  an index's bit), so greedy search carries one mask per step and probes
  ``step | bit`` without hashing an index. ``frozenset[Index]`` is built
  only where one is consumed: pricing (the cost model, the persistent
  shard key, the noise factor, the Postgres sync), cost observers, the
  call log, and :meth:`WhatIfOptimizer.explain`.
* **Relevant-index cache normalization** — every cache key is collapsed to
  ``C ∩ relevant(q)`` (see
  :func:`~repro.optimizer.prepared.index_is_relevant`), one AND with the
  query's relevance mask, so configurations differing only in indexes the
  query cannot use share one cache entry and one derivation record. The
  relevance mask grows lazily: positions interned after the query was
  prepared are tested (on their own table only) the first time a mask
  reaches them. Costs are bit-identical because irrelevant indexes
  contribute no plan options.
* **Batched costing** — :meth:`whatif_prefetch` (and
  :meth:`whatif_workload_costs` on top of it) is one pipeline: uncached
  (query, key) pairs are gathered into waves, each wave is priced through
  the :class:`~repro.backend.concurrent.PricingExecutor`, then a serial
  loop issues the policy ``try_charge`` sequence and commits cache / log /
  events strictly in issue order. The pricer sets the job count
  (:attr:`WhatIfOptimizer.pricing_jobs`): on a serial pricer (analytic,
  noisy, replay) a wave is one pair, priced inline right before its
  budget decision; the postgres backend prices ``jobs × 8`` pairs
  concurrently over its connection pool. Grants, denials, stats, and the
  event stream are bit-identical for every job count.

A further layer removes pricing work without changing any outcome:

* **Persistent cross-session cache** (``whatif_cache``) — a shard file per
  backend fingerprint (:mod:`repro.backend.cache`) remembers priced pairs
  across sessions. A hit replaces the pricing *work* of a call, never its
  budget charge, cache commit, log entry, or event, so warm runs stay
  bit-identical to cold ones while re-pricing nothing. The shard is also
  the session's record: the replay backend serves a session from it
  through the same recall path.

Cheap counters (:class:`WhatIfStats`) expose cache hits/misses, calls saved
by normalization, and cumulative cost-model wall time so perf regressions
stay visible in eval reports, the CLI, and the throughput benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.budget.events import EventLog
from repro.budget.meter import BudgetMeter
from repro.budget.policy import BudgetPolicy, FCFSPolicy
from repro.catalog import Index
from repro.config import ReproConfig
from repro.exceptions import TuningError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.derivation import CostDerivation, mask_positions
from repro.optimizer.prepared import PreparedQuery, index_is_relevant
from repro.workload.query import Query, Workload


@dataclass(frozen=True, slots=True)
class WhatIfCall:
    """One counted what-if call, in issue order (a layout entry, Def. 1)."""

    ordinal: int
    qid: str
    configuration: frozenset[Index]
    cost: float


@dataclass(slots=True)
class WhatIfStats:
    """Hot-path counters for one :class:`WhatIfOptimizer`.

    Attributes:
        cache_hits: Free lookups answered from the what-if cache.
        cache_misses: Counted calls (each priced the cost model once).
        normalized_hits: Free lookups whose key lost an index to
            relevant-set normalization (``C ∩ relevant(q) ≠ C``).
        cost_evaluations: Cost-model pricings, counted and uncounted
            (ground-truth evaluation included).
        cost_seconds: Cumulative wall-clock spent inside
            :meth:`CostModel.cost` (for batches: each wave's pricing wall
            time).
        batch_calls: Batched pricing passes issued.
        batched_pairs: Uncached pairs priced by those passes.
        speculative_priced: Pairs resolved (priced or recalled) by a
            concurrent wave *ahead of* their budget decision (always 0 on
            a serial pricer: analytic, noisy, or replay).
        speculation_wasted: Speculatively priced pairs later denied by the
            budget policy and discarded — work spent, but never charged or
            committed.
        persistent_hits: Pricings served from the persistent cross-session
            cache instead of the cost model / DBMS (always 0 when
            ``whatif_cache`` is off; every pricing on the replay backend).
    """

    cache_hits: int = 0
    cache_misses: int = 0
    normalized_hits: int = 0
    cost_evaluations: int = 0
    cost_seconds: float = 0.0
    batch_calls: int = 0
    batched_pairs: int = 0
    speculative_priced: int = 0
    speculation_wasted: int = 0
    persistent_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups answered for free (0 when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Scalar view for reports and JSON export."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "normalized_hits": self.normalized_hits,
            "cost_evaluations": self.cost_evaluations,
            "cost_seconds": self.cost_seconds,
            "batch_calls": self.batch_calls,
            "batched_pairs": self.batched_pairs,
            "speculative_priced": self.speculative_priced,
            "speculation_wasted": self.speculation_wasted,
            "persistent_hits": self.persistent_hits,
        }


@dataclass(slots=True)
class _Relevance:
    """A query's relevance mask over the positions below ``known``."""

    mask: int = 0
    known: int = 0


class WhatIfOptimizer:
    """Budget-metered, cached what-if costing for one workload.

    Args:
        workload: The workload being tuned.
        budget: Budget ``B`` on counted what-if calls (``None`` = unlimited).
        cost_model: Optional pre-built cost model (defaults to a fresh
            :class:`~repro.optimizer.cost_model.CostModel` over the
            workload's schema).
        whatif_cache: Persistent cross-session cache directory (``None``
            defers to ``config``; unset disables). Never affects results.
        config: Engine knobs; defaults to
            :meth:`~repro.config.ReproConfig.from_env` so the
            ``REPRO_WHATIF_CACHE`` environment knob applies to any run
            that does not pass an explicit config.
        policy: Budget policy authorising counted calls. Defaults to
            :class:`~repro.budget.policy.FCFSPolicy` over ``budget`` (the
            pre-session discipline, bit-identical to a bare meter).
            Mutually exclusive with ``budget``.
        events: Optional session event stream; committed counted calls are
            reported as ``whatif_call`` events.
    """

    #: Pricing jobs for batch waves — a property of the pricer, not a
    #: knob. At 1 a wave is one pair, priced inline right before its
    #: budget decision. Threads only help a pricer that waits on a server
    #: (the analytic cost model holds the GIL), so only the postgres
    #: backend raises this, to its connection-pool size.
    pricing_jobs = 1

    def __init__(
        self,
        workload: Workload,
        budget: int | None = None,
        cost_model: CostModel | None = None,
        *,
        whatif_cache: str | Path | None = None,
        config: ReproConfig | None = None,
        policy: BudgetPolicy | None = None,
        events: EventLog | None = None,
    ):
        base = config or ReproConfig.from_env()
        self._workload = workload
        self._model = cost_model or CostModel(workload.schema)
        if policy is not None and budget is not None:
            raise TuningError(
                "pass either budget or policy to WhatIfOptimizer, not both "
                "(the policy owns the meter)"
            )
        self._policy = policy if policy is not None else FCFSPolicy(BudgetMeter(budget))
        self._events = events
        if events is not None and policy is None:
            self._policy.attach(events)
        self._whatif_cache = (
            base.whatif_cache if whatif_cache is None else whatif_cache
        )
        self._pcache = None
        self._pricing_executor = None
        self._prepared: dict[str, PreparedQuery] = {}
        self._relevance: dict[str, _Relevance] = {}
        self._indexes: list[Index] = []
        self._index_positions: dict[Index, int] = {}
        self._cache: dict[tuple[str, int], float] = {}
        self._derivation = CostDerivation()
        self._log: list[tuple[str, int, float]] = []
        self._empty_costs: dict[str, float] = {}
        self._weighted_empties: list[float] | None = None
        self._positions = {query.qid: position for position, query in enumerate(workload)}
        self._stats = WhatIfStats()
        self._cost_observers: list = []

    # ------------------------------------------------------------------ #
    # bookkeeping accessors
    # ------------------------------------------------------------------ #

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def meter(self) -> BudgetMeter:
        """The global budget meter (owned by the active policy)."""
        return self._policy.meter

    @property
    def policy(self) -> BudgetPolicy:
        """The budget policy admitting counted calls."""
        return self._policy

    @policy.setter
    def policy(self, policy: BudgetPolicy) -> None:
        """Swap the active policy (used by scoped session allowances)."""
        self._policy = policy

    @property
    def events(self) -> EventLog | None:
        """The session event stream, if one is attached."""
        return self._events

    def attach_events(self, events: EventLog | None) -> None:
        """Connect the session event stream to the optimizer and policy."""
        self._events = events
        self._policy.attach(events)

    @property
    def calls_used(self) -> int:
        """Counted what-if calls issued so far."""
        return self._policy.spent

    @property
    def call_log(self) -> list[WhatIfCall]:
        """The realised layout: counted calls in issue order.

        The engine logs ``(qid, mask, cost)``; each read builds the calls'
        configurations afresh.
        """
        return [
            WhatIfCall(
                ordinal=ordinal, qid=qid, configuration=self._configuration(norm), cost=cost
            )
            for ordinal, (qid, norm, cost) in enumerate(self._log, start=1)
        ]

    @property
    def derivation(self) -> CostDerivation:
        return self._derivation

    @property
    def stats(self) -> WhatIfStats:
        """Live hot-path counters (cache hits/misses, wall time, …)."""
        return self._stats

    @property
    def cost_model(self) -> CostModel:
        """The underlying analytic cost model (query prep + raw pricing)."""
        return self._model

    def add_cost_observer(self, observer) -> None:
        """Register ``observer(qid, configuration, cost)`` on every pricing.

        Observers see each *fresh* cost-model output — counted what-if
        calls, the free empty-configuration costs, and uncounted
        ground-truth evaluations — keyed by the normalized configuration.
        Cached lookups are not re-reported. This is the hook the opt-in
        :class:`~repro.lint.sanitizers.MonotonicityChecker` installs on; an
        observer that raises aborts the costing operation.
        """
        self._cost_observers.append(observer)

    @property
    def cost_observers(self) -> tuple:
        """The registered cost observers (read-only view)."""
        return tuple(self._cost_observers)

    def _notify_cost(self, qid: str, key: frozenset[Index], cost: float) -> None:
        for observer in self._cost_observers:
            observer(qid, key, cost)

    def prepared(self, query: Query) -> PreparedQuery:
        """The prepared form of ``query`` (prepared and cached on first use,
        from the bound form :meth:`~repro.workload.query.Query.bind` keeps)."""
        cached = self._prepared.get(query.qid)
        if cached is None:
            cached = self._model.prepare(query.bind(self._workload.schema))
            self._prepared[query.qid] = cached
            self._relevance[query.qid] = _Relevance()
        return cached

    @property
    def whatif_cache(self) -> str | Path | None:
        """The persistent-cache directory selection, if any."""
        return self._whatif_cache

    @property
    def whatif_shard(self) -> Path | None:
        """The persistent cache's shard file, once a pricing has opened it."""
        return None if self._pcache is None else self._pcache.path

    def close(self) -> None:
        """Flush the persistent cache and shut down the pricing executor.

        Safe to call repeatedly; the optimizer stays usable afterwards
        (the executor and the cache reopen lazily on the next pricing), so
        evaluation helpers may keep costing after a session is closed.
        """
        if self._pricing_executor is not None:
            self._pricing_executor.shutdown()
            self._pricing_executor = None
        if self._pcache is not None:
            self._pcache.flush()

    # ------------------------------------------------------------------ #
    # key normalization and pricing helpers
    # ------------------------------------------------------------------ #

    def position(self, index: Index) -> int:
        """The position ``index`` is interned at (its bit is ``1 << position``).

        Positions are handed out in first-sight order and never change for
        the optimizer's lifetime; equal indexes share one position.
        """
        position = self._index_positions.get(index)
        if position is None:
            position = len(self._indexes)
            self._indexes.append(index)
            self._index_positions[index] = position
        return position

    def _mask(self, configuration) -> int:
        """A configuration — a mask, or an iterable of indexes — as a mask."""
        if isinstance(configuration, int):
            return configuration
        positions = self._index_positions
        mask = 0
        for index in configuration:
            position = positions.get(index)
            if position is None:
                position = self.position(index)
            mask |= 1 << position
        return mask

    def _configuration(self, mask: int) -> frozenset[Index]:
        """The indexes of ``mask``, as a frozenset built in position order.

        Built only where a consumer needs indexes (pricing, the call log,
        cost observers, plans): costs are minima of per-index values plus a
        sum over the fixed join order, so the order of construction never
        changes a price.
        """
        return frozenset([self._indexes[position] for position in mask_positions(mask)])

    def _norm(self, qid: str, mask: int) -> int:
        """``mask ∩ relevant(q)``: the key a call is cached and counted under.

        The query must have been :meth:`prepared`. A result equal to
        ``mask`` means nothing was dropped. Positions interned since the
        query's relevance was last extended are tested the first time a
        mask reaches them.
        """
        relevance = self._relevance[qid]
        if mask.bit_length() > relevance.known:
            self._extend_relevance(qid, relevance)
        return mask & relevance.mask

    def _extend_relevance(self, qid: str, relevance: _Relevance) -> None:
        """Test every position interned since ``relevance`` was last extended."""
        prepared = self._prepared[qid]
        indexes = self._indexes
        mask = relevance.mask
        for position in range(relevance.known, len(indexes)):
            if index_is_relevant(prepared, indexes[position]):
                mask |= 1 << position
        relevance.mask = mask
        relevance.known = len(indexes)

    def _evaluate(self, prepared: PreparedQuery, key: frozenset[Index]) -> float:
        """One raw cost evaluation — the single cost-backend seam.

        Every fresh pricing (counted calls, free empty-configuration costs,
        uncounted ground-truth evaluations, batch waves) funnels through
        here; subclasses in :mod:`repro.backend` override it to perturb
        (:class:`~repro.backend.noisy.NoisyBackend`), replace
        (:class:`~repro.backend.postgres.PostgresBackend`) or refuse
        (:class:`~repro.backend.replay.ReplayBackend`) the analytic cost
        model without touching caching, normalization, or budget accounting.
        """
        return self._model.cost(prepared, key)

    # ------------------------------------------------------------------ #
    # persistent cross-session cache
    # ------------------------------------------------------------------ #

    def cache_identity(self) -> dict:
        """Identity facts keying the persistent cross-session cache.

        Two sessions sharing a shard file must be guaranteed to price every
        (qid, normalized key) pair to the same float; the fingerprint hashes
        everything that guarantee depends on. Subclasses extend the mapping
        with whatever else their pricing reads (noise seed, DSN/server
        identity) so any change lands in a fresh shard file.
        """
        from repro.backend.cache import workload_fingerprint

        return {
            "backend": getattr(type(self), "name", "analytic"),
            "workload": workload_fingerprint(self._workload),
            # Keys are always normalized (DESIGN §1). The constant keeps
            # every shard fingerprint as it was; replay rejects a shard
            # whose header records whole keys.
            "normalize_cache": True,
        }

    def _persistent_cache(self):
        """The shard-backed persistent cache, or ``None`` when disabled."""
        if self._whatif_cache is None:
            return None
        if self._pcache is None:
            from repro.backend.cache import PersistentWhatIfCache

            self._pcache = PersistentWhatIfCache(
                self._whatif_cache, self.cache_identity()
            )
        return self._pcache

    def _recall(self, qid: str, key: frozenset[Index]) -> tuple[float | None, tuple]:
        """The persistent cache's cost for a pair (``None`` on a miss) and its entry.

        Only called with the persistent cache enabled. Serving a cost here
        replaces pricing *work* only — callers still charge budget, commit
        caches, and emit events exactly as for a fresh evaluation
        (REP001/REP101 discipline). A miss's fresh pricing is stored under
        the returned entry (:meth:`_store`), so a pair's shard key is built
        once.
        """
        cost, entry = self._persistent_cache().lookup(qid, key)
        if cost is not None:
            self._stats.persistent_hits += 1
        return cost, entry

    def _store(self, entry: tuple, cost: float) -> None:
        """Queue a fresh pricing under the entry :meth:`_recall` returned."""
        self._persistent_cache().put_entry(entry, cost)

    def _price(self, prepared: PreparedQuery, key: frozenset[Index]) -> float:
        """One instrumented cost evaluation (persistent-cache aware)."""
        entry = None
        if self._whatif_cache is not None:
            cost, entry = self._recall(prepared.qid, key)
            if cost is not None:
                self._stats.cost_evaluations += 1
                return cost
        start = perf_counter()
        cost = self._evaluate(prepared, key)
        self._stats.cost_seconds += perf_counter() - start
        self._stats.cost_evaluations += 1
        if entry is not None:
            self._store(entry, cost)
        return cost

    def _commit_call(
        self, qid: str, norm: int, key: frozenset[Index], cost: float
    ) -> None:
        """Record one counted call: cache, derivation store, and layout log.

        ``norm`` is the normalized mask and ``key`` the same configuration
        as indexes (the one that was priced, handed to cost observers).
        """
        self._cache[(qid, norm)] = cost
        self._derivation.record(qid, norm, cost)
        self._log.append((qid, norm, cost))
        if self._cost_observers:
            self._notify_cost(qid, key, cost)
        if self._events is not None:
            self._events.emit(
                "whatif_call",
                calls_used=self._policy.spent,
                qid=qid,
                size=len(key),
                cost=cost,
            )

    # ------------------------------------------------------------------ #
    # costing
    # ------------------------------------------------------------------ #

    def empty_cost(self, query: Query) -> float:
        """``c(q, ∅)`` — free: tuners always know the current cost.

        Real tuners obtain the existing-configuration cost once as part of
        workload analysis; following the paper we do not charge it against
        the enumeration budget.
        """
        cost = self._empty_costs.get(query.qid)
        if cost is None:
            cost = self._price(self.prepared(query), frozenset())
            self._empty_costs[query.qid] = cost
            self._derivation.record(query.qid, 0, cost)
            if self._cost_observers:
                self._notify_cost(query.qid, frozenset(), cost)
        return cost

    def empty_workload_cost(self) -> float:
        """``cost(W, ∅)`` summed over the workload (weighted)."""
        return sum(q.weight * self.empty_cost(q) for q in self._workload)

    def is_cached(self, query: Query, configuration) -> bool:
        """Whether ``whatif_cost`` for this pair would be free."""
        mask = self._mask(configuration)
        if not mask:
            return True
        self.prepared(query)
        norm = self._norm(query.qid, mask)
        return not norm or (query.qid, norm) in self._cache

    def whatif_cost(self, query: Query, configuration) -> float:
        """``c(q, C)`` via a counted what-if call (cached pairs are free).

        The call is counted iff the *normalized* key is uncached (DESIGN
        §1); the policy is charged only after a successful costing, so a
        cost-model failure never leaks a budget unit.

        Raises:
            BudgetExhaustedError: If the pair is uncached and the budget
                policy denies the call.
        """
        mask = self._mask(configuration)
        if not mask:
            return self.empty_cost(query)
        qid = query.qid
        prepared = self.prepared(query)
        norm = self._norm(qid, mask)
        if not norm:
            # Every index was irrelevant: the plan is the empty-config plan.
            self._stats.cache_hits += 1
            self._stats.normalized_hits += 1
            return self.empty_cost(query)
        cached = self._cache.get((qid, norm))
        if cached is not None:
            self._stats.cache_hits += 1
            if norm != mask:
                self._stats.normalized_hits += 1
            return cached
        self._policy.check(qid)
        key = self._configuration(norm)
        cost = self._price(prepared, key)
        self._policy.charge(qid)
        self._stats.cache_misses += 1
        self._commit_call(qid, norm, key, cost)
        return cost

    def trial_cost(self, query: Query, base_cost: float, trial: int, extra: int) -> float:
        """FCFS cost of ``C ∪ {extra}`` given ``base_cost = cost(q, C)``.

        The greedy hot path: ``trial`` is the mask of ``C ∪ {extra}`` and
        ``extra`` the added index's :meth:`position`. A cached pair is
        answered before the policy is consulted: both regimes would answer
        it with the same cost and the same hit counts, and ``admits`` is
        pure. Otherwise, while the policy admits the query this is a counted
        what-if call; afterwards it derives incrementally — only
        observations containing ``extra`` can improve on ``base_cost``.
        """
        qid = query.qid
        if qid not in self._relevance:
            self.prepared(query)
        norm = self._norm(qid, trial)
        if norm:
            cached = self._cache.get((qid, norm))
            if cached is not None:
                self._stats.cache_hits += 1
                if norm != trial:
                    self._stats.normalized_hits += 1
                return cached
        # A zero key goes through the policy: only the admitted regime
        # counts it as a (normalized) hit.
        if self._policy.admits(qid):
            # Invariant: admits() is pure and guarantees the immediately
            # following charge succeeds, so whatif_cost cannot raise here.
            # The denied regime is handled explicitly below, so no
            # try/except or post-hoc cache re-check is needed.
            return self.whatif_cost(query, trial)
        if not norm:
            return self.empty_cost(query)
        return self._derivation.derived_cost_with_extra(qid, base_cost, trial, extra)

    # ------------------------------------------------------------------ #
    # batched costing
    # ------------------------------------------------------------------ #

    def whatif_prefetch(self, pairs, *, limit: int | None = None) -> int:
        """Price and commit uncached (query, configuration) pairs in bulk.

        Pairs are normalized and deduplicated *in issue order* and gathered
        into waves of :attr:`~repro.backend.concurrent.PricingExecutor.wave_size`
        pairs (one when :attr:`pricing_jobs` is 1), never more than what is
        left of ``limit``. The scan is lean because most pairs are cached:
        an ``int`` configuration is its own mask, a query is prepared only
        the first time one is seen, and its prepared form is read only for a
        pair that enters a wave. :meth:`_price_wave` prices a wave's admitted
        pairs, then each pair reserves its counted call through the budget
        policy's :meth:`~repro.budget.policy.BudgetPolicy.try_charge` in issue order
        (denied pairs are skipped and left uncached). Granted pairs are
        committed to the cache, derivation store, and call log in issue
        order when the batch ends — also when a pricing raises, so no
        charge is left without its commit. Under FCFS the granted set is
        exactly the budget-sized prefix, so the result is bit-identical to
        issuing :meth:`whatif_cost` sequentially for the same pairs, for
        every job count.

        Unlike :meth:`whatif_cost` this never raises on exhaustion: it
        prices what fits and leaves the rest uncached.

        Args:
            pairs: Iterable of ``(query, configuration)``.
            limit: Optional extra cap on counted calls (scoped allowances
                use this to enforce local slices).

        Returns:
            Number of counted calls issued.
        """
        executor = self._ensure_pricing_executor()
        wave_size = executor.wave_size
        relevance = self._relevance
        cache = self._cache
        pairs_iter = iter(pairs)
        seen: set[tuple[str, int]] = set()
        granted: list[tuple[str, int, frozenset[Index], float]] = []
        try:
            while limit is None or len(granted) < limit:
                room = wave_size if limit is None else min(wave_size, limit - len(granted))
                wave: list[tuple[str, PreparedQuery, frozenset[Index]]] = []
                norms: list[int] = []
                for query, configuration in pairs_iter:
                    mask = (
                        configuration
                        if isinstance(configuration, int)
                        else self._mask(configuration)
                    )
                    if not mask:
                        continue
                    qid = query.qid
                    if qid not in relevance:
                        self.prepared(query)
                    norm = self._norm(qid, mask)
                    if not norm:
                        continue
                    cache_key = (qid, norm)
                    if cache_key in cache or cache_key in seen:
                        continue
                    seen.add(cache_key)
                    wave.append((qid, self._prepared[qid], self._configuration(norm)))
                    norms.append(norm)
                    if len(wave) >= room:
                        break
                if not wave:
                    break
                costs = self._price_wave(wave, executor)
                for pair, norm, cost in zip(wave, norms, costs, strict=True):
                    qid, _, key = pair
                    if cost is None and self._policy.admits(qid):
                        # Refused when the wave was priced, admitted now (no
                        # shipped policy does this): price before charging.
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

    def _price_wave(self, wave, executor) -> list[float | None]:
        """Resolve one wave's costs; ``None`` where the policy refuses the query.

        A pair is priced only if the policy admits its query right now, so
        a one-pair wave is never priced ahead of its own budget decision.
        Persistent-cache recalls happen here, on the main thread; only
        fresh evaluations go through the executor to :meth:`_price_shard`
        (inline at one job).
        """
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
                recalled, entries[position] = self._recall(qid, key)
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
                    self._store(entries[position], cost)
        return costs

    def _price_shard(
        self, shard: list[tuple[str, PreparedQuery, frozenset[Index]]]
    ) -> list[float]:
        """Price one contiguous shard of a wave (executor worker entry).

        Runs on a worker thread when :attr:`pricing_jobs` exceeds 1:
        implementations must only *compute* — no stats, cache, policy, or
        event mutation belongs here; the commit loop owns all bookkeeping.
        The postgres backend overrides this to price its shard over one
        pooled connection.
        """
        return [self._evaluate(prepared, key) for _, prepared, key in shard]

    def _ensure_pricing_executor(self):
        """The wave executor (lazy; one inline job when pricing is serial)."""
        if self._pricing_executor is None:
            from repro.backend.concurrent import PricingExecutor

            self._pricing_executor = PricingExecutor(self.pricing_jobs)
        return self._pricing_executor

    def whatif_workload_costs(
        self, configurations, *, on_exhausted: str = "raise"
    ) -> list[float]:
        """``[c(W, C) for C in configurations]`` with batched pricing.

        Uncached pairs go through one :meth:`whatif_prefetch` (issue order:
        queries in workload order within each configuration, configurations
        in given order) and are committed deterministically, so the call-log layout
        matches a sequential :meth:`whatif_workload_cost` loop exactly.

        Args:
            configurations: Iterable of configurations.
            on_exhausted: ``"raise"`` mirrors the sequential loop — commit
                the calls the budget admits, then raise at the first pair
                that does not fit; ``"derived"`` substitutes the derived
                cost for pairs past the budget (FCFS) and always returns.

        Raises:
            BudgetExhaustedError: In ``"raise"`` mode when the budget cannot
                cover every uncached pair.
        """
        if on_exhausted not in ("raise", "derived"):
            raise TuningError(f"unknown on_exhausted mode {on_exhausted!r}")
        masks = [self._mask(c) for c in configurations]
        queries = list(self._workload)
        self.whatif_prefetch((q, mask) for mask in masks for q in queries)

        totals: list[float] = []
        for mask in masks:
            total = 0.0
            for query in queries:
                if not mask:
                    total += query.weight * self.empty_cost(query)
                    continue
                self.prepared(query)
                norm = self._norm(query.qid, mask)
                if not norm:
                    self._stats.cache_hits += 1
                    self._stats.normalized_hits += 1
                    total += query.weight * self.empty_cost(query)
                    continue
                cached = self._cache.get((query.qid, norm))
                if cached is not None:
                    self._stats.cache_hits += 1
                    if norm != mask:
                        self._stats.normalized_hits += 1
                    total += query.weight * cached
                    continue
                # Uncached past the budget: the prefetch priced everything
                # the policy admitted, so this pair did not fit.
                if on_exhausted == "raise":
                    self._policy.check(query.qid)
                total += query.weight * self._derivation.derived_cost(
                    query.qid, norm, self.empty_cost(query)
                )
            totals.append(total)
        return totals

    def whatif_workload_cost(self, configuration) -> float:
        """``c(W, C)``: one counted call per query (cached pairs free)."""
        return self.whatif_workload_costs([configuration])[0]

    # ------------------------------------------------------------------ #
    # derived (free) costing
    # ------------------------------------------------------------------ #

    def derived_cost(self, query: Query, configuration) -> float:
        """``d(q, C)`` per Equation 1 — free, uses only known what-if costs."""
        mask = self._mask(configuration)
        if mask:
            self.prepared(query)
            mask = self._norm(query.qid, mask)
        return self._derivation.derived_cost(query.qid, mask, self.empty_cost(query))

    def derived_query_costs(self, configuration) -> list[float]:
        """Per-query *weighted* derived costs, in workload order (one pass).

        The batched form of :meth:`derived_cost` used by episode evaluation
        hot loops: every query starts at its empty cost, and only queries
        with an observation inside the configuration are lowered, found
        through the store's member-keyed index
        (:meth:`~repro.optimizer.derivation.CostDerivation.lowest_within`).
        Keys need no per-query normalization: every key the store records
        already is normalized.
        """
        if self._weighted_empties is None:
            self._weighted_empties = [
                query.weight * self.empty_cost(query) for query in self._workload
            ]
        costs = self._weighted_empties.copy()
        mask = self._mask(configuration)
        if mask:
            empties = self._empty_costs
            positions = self._positions
            for qid, cost in self._derivation.lowest_within(mask).items():
                position = positions.get(qid)
                if position is not None and cost < empties[qid]:
                    costs[position] = self._workload[position].weight * cost
        return costs

    def derived_workload_cost(self, configuration) -> float:
        """``d(W, C)`` summed over the workload (weighted)."""
        return sum(self.derived_query_costs(configuration))

    # ------------------------------------------------------------------ #
    # evaluation-only access
    # ------------------------------------------------------------------ #

    def true_cost(self, query: Query, configuration) -> float:
        """Uncounted ground-truth cost — for *evaluation only*, never search.

        The paper measures final improvements "in terms of the actual
        what-if cost" (Section 7); this is that measurement hook.
        """
        mask = self._mask(configuration)
        if not mask:
            return self.empty_cost(query)
        prepared = self.prepared(query)
        norm = self._norm(query.qid, mask)
        if not norm:
            return self.empty_cost(query)
        cached = self._cache.get((query.qid, norm))
        if cached is not None:
            return cached
        key = self._configuration(norm)
        cost = self._price(prepared, key)
        if self._cost_observers:
            self._notify_cost(query.qid, key, cost)
        return cost

    def explain(self, query: Query, configuration):
        """The plan behind a what-if cost (uncounted).

        Real what-if calls return the hypothetical plan alongside its cost;
        tuners that featurize on plan structure (e.g. the DBA-bandits
        baseline attributing rewards to the indexes a plan used) read it
        from here after paying for the call via :meth:`whatif_cost`.
        Irrelevant indexes never appear in plans, so normalization leaves
        the returned plan unchanged.
        """
        key = self._normalized_key(query, configuration)
        return self._model.explain(self.prepared(query), key)

    def _normalized_key(self, query: Query, configuration) -> frozenset[Index]:
        """``configuration`` normalized for ``query``, as indexes."""
        mask = self._mask(configuration)
        if mask:
            self.prepared(query)
            mask = self._norm(query.qid, mask)
        return self._configuration(mask)

    def true_workload_cost(self, configuration) -> float:
        """Uncounted ground-truth workload cost (evaluation only)."""
        mask = self._mask(configuration)
        return sum(q.weight * self.true_cost(q, mask) for q in self._workload)
