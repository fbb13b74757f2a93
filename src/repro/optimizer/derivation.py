"""Cost derivation (Section 3.1).

The derived cost of a configuration ``C`` for a query ``q`` is the minimum
known what-if cost over subsets of ``C``::

    d(q, C) = min_{S ⊆ C, c(q,S) known} c(q, S)          (Equation 1)

Under the monotonicity assumption (Assumption 1) this is an upper bound on
the true what-if cost, and it equals the what-if cost whenever ``c(q, C)``
itself is known. The restriction to singleton subsets (Equation 2) — the
form for which the paper proves submodularity (Theorem 1) — is exposed as
:meth:`CostDerivation.singleton_derived_cost`.

Configurations are bitmasks over index *positions*: the
:class:`~repro.optimizer.whatif.WhatIfOptimizer` interns every index it
sees to a position and hands the store ``int`` masks, so "observation
``S`` ⊆ ``C``" is the single test ``S & ~C == 0``. The store keeps
singleton observations in a per-query dict keyed by position (O(|C|)
probes) and larger observations in a per-query list scanned with that
subset test; in budget-constrained runs the latter stays short (at most
one entry per counted call on the query), keeping derivation cheap enough
to be treated as "free" the way the paper does. Member-keyed indexes
answer the whole-workload and incremental probes by touching only the
observations that share an index with the probed configuration: one flat
list per position for :meth:`CostDerivation.lowest_within`, and one list
per position and query for :meth:`CostDerivation.derived_cost_with_extra`
and :meth:`CostDerivation.has_observation`. An observation is one
``(mask, cost, qid)`` tuple, shared by every list that holds it.
"""

from __future__ import annotations

import math

#: A recorded non-empty observation: ``(mask, cost, qid)``.
Observation = tuple[int, float, str]

_NO_ENTRIES: dict[str, list[Observation]] = {}
_NO_COSTS: dict[int, float] = {}


def mask_positions(mask: int) -> list[int]:
    """The positions of ``mask``'s set bits, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


class CostDerivation:
    """Incrementally maintained store of known what-if costs per query."""

    def __init__(self) -> None:
        # Per query, the lowest recorded cost of each exact mask (one dict
        # per query, so an observation carries no (qid, mask) key tuple).
        self._exact: dict[str, dict[int, float]] = {}
        self._singletons: dict[str, dict[int, float]] = {}
        self._compound: dict[str, list[Observation]] = {}
        # Every non-empty observation under each of its members, once in a
        # flat list and once per query: a probe of C touches only the
        # observations sharing an index with C.
        self._by_member: dict[int, list[Observation]] = {}
        self._by_member_query: dict[int, dict[str, list[Observation]]] = {}
        self._empty: dict[str, float] = {}

    # ------------------------------------------------------------------ #

    def record(
        self,
        qid: str,
        configuration: int,
        cost: float,
        members: list[int] | None = None,
    ) -> None:
        """Record an observed what-if cost ``c(q, C)`` (``C`` as a mask).

        ``members`` are ``mask_positions(configuration)`` when the caller
        has them already.
        """
        exact = self._exact.get(qid)
        if exact is None:
            exact = self._exact[qid] = {}
        previous = exact.get(configuration)
        if previous is not None and previous <= cost:
            return
        exact[configuration] = cost
        if not configuration:
            self._empty[qid] = cost
            return
        entry = (configuration, cost, qid)
        if members is None:
            members = mask_positions(configuration)
        if len(members) == 1:
            singletons = self._singletons.get(qid)
            if singletons is None:
                singletons = self._singletons[qid] = {}
            singletons[members[0]] = cost
        else:
            compound = self._compound.get(qid)
            if compound is None:
                self._compound[qid] = [entry]
            else:
                compound.append(entry)
        by_member, by_member_query = self._by_member, self._by_member_query
        for member in members:
            flat = by_member.get(member)
            if flat is None:
                by_member[member] = [entry]
            else:
                flat.append(entry)
            per_query = by_member_query.get(member)
            if per_query is None:
                by_member_query[member] = {qid: [entry]}
                continue
            entries = per_query.get(qid)
            if entries is None:
                per_query[qid] = [entry]
            else:
                entries.append(entry)

    def known_cost(self, qid: str, configuration: int) -> float | None:
        """The recorded what-if cost for the exact pair, if any.

        The engine keeps exact costs nowhere else: a normalized non-empty
        pair is cached (its next call is free) iff this is not ``None``.
        """
        return self._exact.get(qid, _NO_COSTS).get(configuration)

    def exact_costs(self, qid: str) -> dict[int, float]:
        """``qid``'s exact costs by mask: the live map :meth:`known_cost` reads.

        For a caller that looks up many masks of one query; it must not
        write to it. A query with no cost yet gets its (empty) map here, so
        the map stays live as costs are recorded.
        """
        exact = self._exact.get(qid)
        if exact is None:
            exact = self._exact[qid] = {}
        return exact

    def observations(self, qid: str) -> int:
        """Number of distinct recorded configurations for ``qid``."""
        return (
            (1 if qid in self._empty else 0)
            + len(self._singletons.get(qid, ()))
            + len(self._compound.get(qid, ()))
        )

    # ------------------------------------------------------------------ #

    def derived_cost(self, qid: str, configuration: int, empty_cost: float) -> float:
        """``d(q, C)`` per Equation 1.

        Args:
            qid: Query id.
            configuration: The configuration (mask) to derive a cost for.
            empty_cost: ``c(q, ∅)`` — always a known subset cost.
        """
        best = self._empty.get(qid, empty_cost)
        exact = self._exact.get(qid, _NO_COSTS).get(configuration)
        if exact is not None and exact < best:
            best = exact
        singletons = self._singletons.get(qid)
        if singletons:
            for member in mask_positions(configuration):
                cost = singletons.get(member)
                if cost is not None and cost < best:
                    best = cost
        outside = ~configuration
        for entry, cost, _ in self._compound.get(qid, ()):
            if cost < best and not entry & outside:
                best = cost
        return best

    def lowest_within(self, configuration: int) -> dict[str, float]:
        """Per query, the lowest recorded cost of a non-empty subset of ``C``.

        Queries with no observation inside ``configuration`` are absent, so
        ``d(q, C)`` is ``min(c(q, ∅), lowest[q])`` where present and
        ``c(q, ∅)`` elsewhere. Recorded keys are compared with
        ``configuration`` as given, which is Equation 1 for a query whenever
        its keys are normalized: a key inside ``relevant(q)`` is a subset of
        ``C`` exactly when it is a subset of ``C ∩ relevant(q)``.
        """
        lowest: dict[str, float] = {}
        by_member = self._by_member
        outside = ~configuration
        inf = math.inf
        for member in mask_positions(configuration):
            for entry, cost, qid in by_member.get(member, ()):
                if not entry & outside and cost < lowest.get(qid, inf):
                    lowest[qid] = cost
        return lowest

    def derived_cost_with_extra(
        self,
        qid: str,
        base_derived: float,
        configuration_with_extra: int,
        extra: int,
    ) -> float:
        """``d(q, C ∪ {z})`` given ``base_derived = d(q, C)``.

        ``extra`` is the position of ``z``. Only observations *containing*
        ``z`` can tighten the base value, so the probe touches just the
        entries listed under ``z``.
        """
        best = base_derived
        outside = ~configuration_with_extra
        for entry, cost, _ in self._by_member_query.get(extra, _NO_ENTRIES).get(qid, ()):
            if cost < best and not entry & outside:
                best = cost
        return best

    def singleton_derived_cost(
        self, qid: str, configuration: int, empty_cost: float
    ) -> float:
        """``d(q, C)`` restricted to singleton subsets (Equation 2)."""
        best = self._empty.get(qid, empty_cost)
        singletons = self._singletons.get(qid)
        if singletons:
            for member in mask_positions(configuration):
                cost = singletons.get(member)
                if cost is not None and cost < best:
                    best = cost
        return best

    def has_observation(self, qid: str, index: int) -> bool:
        """Whether any recorded configuration for ``qid`` contains position ``index``.

        When false, ``d(q, C ∪ {index}) = d(q, C)`` for every ``C`` — no
        observation can tighten the bound — so derived-only search can skip
        the pair entirely.
        """
        return qid in self._by_member_query.get(index, _NO_ENTRIES)

    def singleton_costs(self, qid: str) -> dict[int, float]:
        """All recorded singleton costs for ``qid``, by position (copy)."""
        return dict(self._singletons.get(qid, ()))
