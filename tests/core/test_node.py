"""Search-tree node bookkeeping tests."""

import numpy as np
import pytest

from repro.core.node import TreeNode

#: Three actions, as candidate positions.
ACTIONS = np.arange(3)


class TestTreeNode:
    def test_prior_before_visits(self):
        node = TreeNode.create(frozenset(), ACTIONS, np.array([0.4, 0.0, 0.0]))
        assert node.q[0] == 0.4

    def test_mean_after_visits(self):
        node = TreeNode.create(frozenset(), ACTIONS, np.array([0.4, 0.0, 0.0]))
        node.update(0, 0.2)
        node.update(0, 0.6)
        assert node.q[0] == pytest.approx(0.4)
        assert node.action_visits[0] == 2

    def test_create_seeds_priors(self):
        node = TreeNode.create(frozenset(), ACTIONS, np.array([0.7, 0.0, 0.0]))
        assert node.q[0] == 0.7
        assert node.q[1] == 0.0

    def test_negative_prior_clamped(self):
        node = TreeNode.create(frozenset(), ACTIONS, np.array([-0.5, 0.0, 0.0]))
        assert node.q[0] == 0.0

    def test_priors_sliced_by_position(self):
        node = TreeNode.create(frozenset(), np.array([0, 2]), np.array([0.1, 0.2, 0.3]))
        assert node.q.tolist() == [0.1, 0.3]

    def test_update_counts_visits(self):
        node = TreeNode.create(frozenset(), ACTIONS)
        node.update(0, 0.5)
        node.update(1, 0.1)
        assert node.visits == 2
        assert node.action_visits[0] == 1

    def test_leaf_and_terminal(self):
        node = TreeNode.create(frozenset(), ACTIONS)
        assert node.is_leaf
        assert not node.is_terminal
        terminal = TreeNode.create(frozenset(), np.empty(0, dtype=np.intp))
        assert terminal.is_terminal

    def test_subtree_size(self):
        root = TreeNode.create(frozenset(), ACTIONS)
        child = TreeNode.create(frozenset(), ACTIONS[1:])
        root.children[0] = child
        grandchild = TreeNode.create(frozenset(), ACTIONS[2:])
        child.children[1] = grandchild
        assert root.subtree_size() == 3
