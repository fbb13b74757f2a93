"""Stateful property testing of the what-if interface.

Drives a :class:`WhatIfOptimizer` through random interleavings of counted
calls, derived-cost queries and trial probes, checking the paper's
bookkeeping invariants after every step:

* the meter never exceeds the budget, and cached pairs never consume it;
* derived cost always upper-bounds the true cost (Assumption 1 + Eq. 1)
  and never increases as more observations arrive;
* derived cost equals the exact cost once the pair has been evaluated;
* the incremental trial probe agrees with the full derivation.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.catalog import ColumnType, SchemaBuilder
from repro.exceptions import BudgetExhaustedError
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload import CandidateGenerator, SynthesisProfile, WorkloadSynthesizer

_BUDGET = 25


def _build_fixture():
    schema = (
        SchemaBuilder("sm")
        .table("f", rows=200_000)
        .column("k1", distinct=500)
        .column("k2", distinct=100)
        .column("v", ColumnType.DECIMAL, distinct=5_000, lo=0, hi=5_000)
        .table("d", rows=500)
        .column("id", distinct=500)
        .column("a", distinct=10)
        .foreign_key("f", "k1", "d", "id")
        .build()
    )
    profile = SynthesisProfile(num_queries=6, max_joins=1, filters_per_query=1.5)
    workload = WorkloadSynthesizer(schema, profile, seed=11).generate("sm")
    candidates = CandidateGenerator(schema).for_workload(workload)[:8]
    return workload, candidates


_WORKLOAD, _CANDIDATES = _build_fixture()


class WhatIfMachine(RuleBasedStateMachine):
    """Random walk over the what-if API with invariant checking."""

    @initialize()
    def setup(self):
        self.optimizer = WhatIfOptimizer(_WORKLOAD, budget=_BUDGET)
        self.derived_history: dict[tuple[str, frozenset], float] = {}

    # ------------------------------- rules ------------------------------- #

    @rule(
        qpos=st.integers(0, len(_WORKLOAD) - 1),
        mask=st.integers(1, 2 ** len(_CANDIDATES) - 1),
    )
    def counted_call(self, qpos, mask):
        query = _WORKLOAD[qpos]
        config = frozenset(
            ix for i, ix in enumerate(_CANDIDATES) if mask & (1 << i)
        )
        spent_before = self.optimizer.calls_used
        was_cached = self.optimizer.is_cached(query, config)
        try:
            cost = self.optimizer.whatif_cost(query, config)
        except BudgetExhaustedError:
            assert self.optimizer.meter.exhausted
            return
        if was_cached:
            assert self.optimizer.calls_used == spent_before
        else:
            assert self.optimizer.calls_used == spent_before + 1
        assert cost == pytest.approx(self.optimizer.true_cost(query, config))

    @rule(
        qpos=st.integers(0, len(_WORKLOAD) - 1),
        mask=st.integers(0, 2 ** len(_CANDIDATES) - 1),
    )
    def derived_query(self, qpos, mask):
        query = _WORKLOAD[qpos]
        config = frozenset(
            ix for i, ix in enumerate(_CANDIDATES) if mask & (1 << i)
        )
        spent_before = self.optimizer.calls_used
        derived = self.optimizer.derived_cost(query, config)
        assert self.optimizer.calls_used == spent_before  # always free
        true = self.optimizer.true_cost(query, config)
        assert derived >= true - 1e-9  # Eq. 1 upper bound (Assumption 1)
        key = (query.qid, config)
        if key in self.derived_history:
            # More knowledge can only tighten the bound.
            assert derived <= self.derived_history[key] + 1e-9
        self.derived_history[key] = derived

    @rule(
        qpos=st.integers(0, len(_WORKLOAD) - 1),
        base_mask=st.integers(0, 2 ** len(_CANDIDATES) - 1),
        extra=st.integers(0, len(_CANDIDATES) - 1),
    )
    def trial_probe_agrees(self, qpos, base_mask, extra):
        if not self.optimizer.meter.exhausted:
            return  # the incremental path is the post-budget regime
        query = _WORKLOAD[qpos]
        base = frozenset(
            ix for i, ix in enumerate(_CANDIDATES) if base_mask & (1 << i)
        )
        extra_index = _CANDIDATES[extra]
        if extra_index in base:
            return
        trial = base | {extra_index}
        base_cost = self.optimizer.derived_cost(query, base)
        fast = self.optimizer.trial_cost(
            query,
            base_cost,
            self.optimizer._mask(trial),
            self.optimizer.position(extra_index),
        )
        full = self.optimizer.derived_cost(query, trial)
        assert fast == pytest.approx(full)

    # ----------------------------- invariants ---------------------------- #

    @invariant()
    def budget_never_exceeded(self):
        if hasattr(self, "optimizer"):
            assert self.optimizer.calls_used <= _BUDGET

    @invariant()
    def log_matches_meter(self):
        if hasattr(self, "optimizer"):
            assert len(self.optimizer.call_log) == self.optimizer.calls_used


TestWhatIfStateMachine = WhatIfMachine.TestCase
TestWhatIfStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
