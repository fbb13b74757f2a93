"""Search-tree nodes (the CreateNode bookkeeping of Algorithm 3).

Each node represents a state (configuration). Its outgoing actions are
candidate positions (see :meth:`~repro.core.mdp.IndexTuningMDP.actions`),
and the per-action statistics live in NumPy arrays parallel to them; an
index into those arrays is a *slot*. Per slot the node keeps ``n(s, a)``
(visits), the summed observed return, and ``Q̂(s, a)`` — the prior
(Section 6.1.2) before the first visit, the mean observed return (a
fraction in ``[0, 1]``) after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.catalog import Index


@dataclass(eq=False)
class TreeNode:
    """One state in the MCTS search tree.

    Attributes:
        state: The configuration this node represents.
        actions: Candidate positions of the available actions, ascending
            (fixed at creation).
        q: ``Q̂(s, a)`` per slot.
        action_visits: ``n(s, a)`` per slot.
        action_returns: Summed observed return per slot.
        children: Expanded successors keyed by candidate position.
        visits: ``N(s)`` — times an episode passed through this node.
        rolled_out: Whether the node has had its first (rollout) visit; a
            leaf that has not been rolled out is simulated, one that has is
            expanded (Algorithm 3's "visited before" test).
    """

    state: frozenset[Index]
    actions: np.ndarray
    q: np.ndarray
    action_visits: np.ndarray
    action_returns: np.ndarray
    children: dict[int, "TreeNode"] = field(default_factory=dict)
    visits: int = 0
    rolled_out: bool = False

    @classmethod
    def create(
        cls,
        state: frozenset[Index],
        actions: np.ndarray,
        priors: np.ndarray | None = None,
    ) -> "TreeNode":
        """CreateNode: zeroed statistics, ``Q̂`` sliced from the prior vector.

        Args:
            state: The node's configuration.
            actions: Candidate positions of its actions.
            priors: Prior per candidate position, clamped at zero (``None``:
                every prior is zero).
        """
        count = len(actions)
        q = np.zeros(count) if priors is None else np.maximum(priors[actions], 0.0)
        return cls(state, actions, q, np.zeros(count, dtype=np.int64), np.zeros(count))

    @property
    def is_leaf(self) -> bool:
        """A node with no expanded children is a tree leaf."""
        return not self.children

    @property
    def is_terminal(self) -> bool:
        """Terminal states have no actions at all."""
        return len(self.actions) == 0

    def update(self, slot: int, reward: float) -> None:
        """Fold one observed episode return into this node's statistics."""
        self.visits += 1
        self.action_visits[slot] += 1
        self.action_returns[slot] += reward
        self.q[slot] = self.action_returns[slot] / self.action_visits[slot]

    def subtree_size(self) -> int:
        """Number of nodes in this subtree (diagnostics)."""
        return 1 + sum(child.subtree_size() for child in self.children.values())
