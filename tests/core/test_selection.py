"""Action-selection policy tests (UCT and ε-greedy, Section 6.1)."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.node import TreeNode
from repro.core.selection import BoltzmannPolicy, EpsilonGreedyPriorPolicy, UCTPolicy


@pytest.fixture
def actions():
    """Four actions; with these positions a node's slot equals its action."""
    return np.arange(4)


class TestUCT:
    def test_unvisited_scores_infinite(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.visits = 1
        assert UCTPolicy().scores(node)[0] == math.inf

    def test_unvisited_selected_first(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.update(actions[0], 0.9)
        rng = random.Random(0)
        for _ in range(20):
            chosen = UCTPolicy().select(node, rng)
            assert chosen != 0 or all(node.action_visits > 0)

    def test_score_formula(self, actions):
        node = TreeNode.create(frozenset(), actions)
        for _ in range(3):
            node.update(0, 0.6)
        node.update(1, 0.2)
        policy = UCTPolicy(exploration=math.sqrt(2))
        expected = 0.6 + math.sqrt(2) * math.sqrt(math.log(4) / 3)
        assert policy.scores(node)[0] == pytest.approx(expected)

    def test_exploitation_with_zero_lambda(self, actions):
        node = TreeNode.create(frozenset(), actions)
        for slot, reward in enumerate((0.1, 0.9, 0.3, 0.2)):
            node.update(slot, reward)
        policy = UCTPolicy(exploration=0.0)
        assert policy.select(node, random.Random(0)) == 1

    def test_exploration_bonus_prefers_rarely_visited(self, actions):
        node = TreeNode.create(frozenset(), actions)
        # Same Q, very different visit counts.
        for _ in range(100):
            node.update(0, 0.5)
        node.update(1, 0.5)
        node.update(2, 0.5)
        node.update(3, 0.5)
        policy = UCTPolicy(exploration=1.0)
        chosen = policy.select(node, random.Random(0))
        assert chosen != 0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            UCTPolicy(exploration=-1.0)


class TestEpsilonGreedyPrior:
    def test_proportional_sampling(self, actions):
        node = TreeNode.create(frozenset(), actions, np.array([0.8, 0.2, 0.0, 0.0]))
        rng = random.Random(7)
        counts = Counter(
            EpsilonGreedyPriorPolicy().select(node, rng) for _ in range(2000)
        )
        # Eq. 6: Pr(a0) = 0.8, Pr(a1) = 0.2, others 0.
        assert counts[0] > counts[1] > 0
        assert counts[2] == 0
        assert counts[0] / 2000 == pytest.approx(0.8, abs=0.05)

    def test_uniform_when_no_signal(self, actions):
        node = TreeNode.create(frozenset(), actions)
        rng = random.Random(3)
        counts = Counter(
            EpsilonGreedyPriorPolicy().select(node, rng) for _ in range(2000)
        )
        assert len(counts) == len(actions)

    def test_observed_rewards_override_priors(self, actions):
        node = TreeNode.create(frozenset(), actions, np.array([0.9, 0.0, 0.0, 0.0]))
        # Visiting the prior-favoured action reveals it is bad.
        for _ in range(5):
            node.update(0, 0.0)
        node.update(1, 0.9)
        rng = random.Random(11)
        counts = Counter(
            EpsilonGreedyPriorPolicy().select(node, rng) for _ in range(500)
        )
        assert counts[1] > counts[0]


class TestBoltzmann:
    def test_greedier_at_low_temperature(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.update(0, 1.0)
        node.update(1, 0.5)
        node.update(2, 0.2)
        node.update(3, 0.1)
        rng = random.Random(5)
        cold = Counter(
            BoltzmannPolicy(temperature=0.01).select(node, rng) for _ in range(300)
        )
        assert cold[0] >= 295

    def test_uniform_at_high_temperature(self, actions):
        node = TreeNode.create(frozenset(), actions)
        node.update(0, 1.0)
        node.update(1, 0.0)
        rng = random.Random(5)
        hot = Counter(
            BoltzmannPolicy(temperature=100.0).select(node, rng) for _ in range(2000)
        )
        assert all(count > 300 for count in hot.values())

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            BoltzmannPolicy(temperature=0.0)
