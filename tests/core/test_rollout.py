"""Rollout policy tests (Section 6.2)."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.catalog import Index
from repro.config import MCTSConfig, TuningConstraints
from repro.core.rollout import RolloutPolicy


@pytest.fixture
def actions(star_schema):
    """The candidates; a rollout's actions are positions into this list."""
    fact = star_schema.table("fact")
    return [Index.build(fact, [c]) for c in ("fk1", "fk2", "cat", "val", "flag")]


def positions(start=0, stop=5):
    return np.arange(start, stop)


def make_policy(candidates, rollout="myopic", step=0, selection="epsilon_greedy", k=5):
    config = MCTSConfig(
        rollout_policy=rollout, myopic_step=step, selection_policy=selection
    )
    return RolloutPolicy(config, TuningConstraints(max_indexes=k), candidates)


class TestMyopicRollout:
    def test_step_zero_returns_state(self, actions):
        policy = make_policy(actions, step=0)
        state = frozenset(actions[:2])
        assert policy.rollout(state, positions(2), random.Random(0)) == state

    def test_fixed_step_adds_exactly_l(self, actions):
        policy = make_policy(actions, step=2)
        result = policy.rollout(frozenset(), positions(), random.Random(0))
        assert len(result) == 2

    def test_step_clamped_by_cardinality(self, actions):
        policy = make_policy(actions, step=5, k=3)
        state = frozenset(actions[:2])
        result = policy.rollout(state, positions(2), random.Random(0))
        assert len(result) <= 3


class TestRandomRollout:
    def test_step_within_remaining_depth(self, actions):
        policy = make_policy(actions, rollout="random", k=4)
        for seed in range(30):
            result = policy.rollout(frozenset(actions[:1]), positions(1), random.Random(seed))
            assert 1 <= len(result) <= 4

    def test_includes_original_state(self, actions):
        policy = make_policy(actions, rollout="random")
        state = frozenset(actions[:1])
        for seed in range(10):
            result = policy.rollout(state, positions(1), random.Random(seed))
            assert state <= result

    def test_uct_flavour_uniform(self, actions):
        policy = make_policy(actions, rollout="random", selection="uct")
        seen = Counter()
        for seed in range(200):
            result = policy.rollout(frozenset(), positions(), random.Random(seed))
            seen.update(result)
        assert len(seen) == len(actions)


class TestPriorWeighting:
    def test_prior_weighted_sampling_prefers_high_prior(self, actions):
        priors = np.array([0.9, 0.05, 0.0, 0.0, 0.0])
        config = MCTSConfig(rollout_policy="myopic", myopic_step=1)
        policy = RolloutPolicy(config, TuningConstraints(max_indexes=5), actions, priors)
        counts = Counter()
        for seed in range(400):
            result = policy.rollout(frozenset(), positions(), random.Random(seed))
            counts.update(result)
        assert counts[actions[0]] > 300

    def test_zero_priors_fall_back_to_uniform(self, actions):
        config = MCTSConfig(rollout_policy="myopic", myopic_step=1)
        policy = RolloutPolicy(config, TuningConstraints(max_indexes=5), actions)
        counts = Counter()
        for seed in range(400):
            counts.update(policy.rollout(frozenset(), positions(), random.Random(seed)))
        assert len(counts) == len(actions)


class TestStorageConstraint:
    def test_additions_respect_storage(self, actions):
        budget_bytes = actions[0].estimated_size_bytes + actions[1].estimated_size_bytes
        constraints = TuningConstraints(max_indexes=5, max_storage_bytes=budget_bytes)
        config = MCTSConfig(rollout_policy="random")
        policy = RolloutPolicy(config, constraints, actions)
        for seed in range(30):
            result = policy.rollout(frozenset(), positions(), random.Random(seed))
            total = sum(ix.estimated_size_bytes for ix in result)
            assert total <= budget_bytes
