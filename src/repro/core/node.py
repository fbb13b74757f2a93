"""Search-tree nodes (the CreateNode bookkeeping of Algorithm 3).

Each node represents a state (configuration). Its outgoing actions are
candidate positions (see :meth:`~repro.core.mdp.IndexTuningMDP.actions`),
and the per-action statistics live in NumPy arrays parallel to them; an
index into those arrays is a *slot*. Per slot the node keeps ``n(s, a)``
(visits), the summed observed return, and ``Q̂(s, a)`` — the prior
(Section 6.1.2) before the first visit, the mean observed return (a
fraction in ``[0, 1]``) after it.

The statistics arrays are allocated on first access, which in a search is
the node's first selection. Most nodes never get one: a leaf is rolled out
once, and a rollout reads only ``state`` and ``actions`` (1,525 of the
2,108 nodes of a seed-0 TPC-DS session at B = 500 are never selected).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.catalog import Index


@dataclass(eq=False, slots=True)
class TreeNode:
    """One state in the MCTS search tree.

    Attributes:
        state: The configuration this node represents.
        actions: Candidate positions of the available actions, ascending
            (fixed at creation).
        priors: Prior per candidate position, shared with the search
            (``None``: every prior is zero); ``q`` is gathered from it.
        children: Expanded successors keyed by candidate position.
        visits: ``N(s)`` — times an episode passed through this node.
        rolled_out: Whether the node has had its first (rollout) visit; a
            leaf that has not been rolled out is simulated, one that has is
            expanded (Algorithm 3's "visited before" test).
    """

    state: frozenset[Index]
    actions: np.ndarray
    priors: np.ndarray | None = field(default=None, repr=False)
    children: dict[int, "TreeNode"] = field(default_factory=dict)
    visits: int = 0
    rolled_out: bool = False
    _q: np.ndarray | None = field(default=None, init=False, repr=False)
    _action_visits: np.ndarray | None = field(default=None, init=False, repr=False)
    _action_returns: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def create(
        cls,
        state: frozenset[Index],
        actions: np.ndarray,
        priors: np.ndarray | None = None,
    ) -> "TreeNode":
        """CreateNode: the statistics come later, on first access.

        Args:
            state: The node's configuration.
            actions: Candidate positions of its actions.
            priors: Prior per candidate position, clamped at zero when
                ``q`` is gathered (``None``: every prior is zero).
        """
        return cls(state, actions, priors)

    def _allocate(self) -> None:
        """Zeroed visits and returns; ``Q̂`` gathered from the priors."""
        count = len(self.actions)
        if self.priors is None:
            q = np.zeros(count)
        else:
            q = self.priors[self.actions]
            np.maximum(q, 0.0, out=q)
        self._q = q
        # A count never exceeds the search's episode cap, max(1000, 20·B),
        # so uint32 holds it; ``returns / visits`` and UCT's ``log / visits``
        # still divide in float64.
        self._action_visits = np.zeros(count, dtype=np.uint32)
        self._action_returns = np.zeros(count)

    @property
    def has_statistics(self) -> bool:
        """Whether the per-slot arrays exist yet."""
        return self._q is not None

    @property
    def q(self) -> np.ndarray:
        """``Q̂(s, a)`` per slot."""
        if self._q is None:
            self._allocate()
        return self._q

    @property
    def action_visits(self) -> np.ndarray:
        """``n(s, a)`` per slot."""
        if self._q is None:
            self._allocate()
        return self._action_visits

    @property
    def action_returns(self) -> np.ndarray:
        """Summed observed return per slot."""
        if self._q is None:
            self._allocate()
        return self._action_returns

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
        q = self.q
        visits, returns = self._action_visits, self._action_returns
        self.visits += 1
        visits[slot] += 1
        returns[slot] += reward
        q[slot] = returns[slot] / visits[slot]

    def subtree_size(self) -> int:
        """Number of nodes in this subtree (diagnostics)."""
        return 1 + sum(child.subtree_size() for child in self.children.values())
