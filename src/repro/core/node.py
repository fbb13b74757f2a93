"""Search-tree nodes (the CreateNode bookkeeping of Algorithm 3).

Each node represents a state (configuration). Its outgoing actions are
candidate positions (see :meth:`~repro.core.mdp.IndexTuningMDP.actions`);
an index into them is a *slot*. Per slot the node keeps ``n(s, a)``
(visits), the summed observed return, and ``Q̂(s, a)`` — the prior
(Section 6.1.2) before the first visit, the mean observed return (a
fraction in ``[0, 1]``) after it.

Only ``Q̂`` is a dense array, because the sampling policies read every
slot of it. Visits and returns are kept for the visited slots alone (a
selected node of a seed-0 TPC-DS session at B = 500 has visited 3.6 of its
759 slots on average); :attr:`TreeNode.action_visits` and
:attr:`TreeNode.action_returns` build the dense arrays when read. UCT reads
the visits at every selection, so a node keeps them dense once read.

The statistics are allocated on first access, which in a search is the
node's first selection. Most nodes never get one: a leaf is rolled out
once, and a rollout reads only ``state`` and ``actions`` (1,525 of the
2,108 nodes of that session are never selected). The search drops such a
leaf's ``actions`` after its rollout and re-derives them if an episode
steps into the node again (:class:`~repro.core.search.MCTSSearch`).
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
        actions: Candidate positions of the available actions, ascending;
            ``None`` from a non-root leaf's rollout until an episode enters
            the node again, when the search restores the same array.
        priors: Prior per candidate position, shared with the search
            (``None``: every prior is zero); ``q`` is gathered from it.
        children: Expanded successors keyed by candidate position.
        visits: ``N(s)`` — times an episode passed through this node.
        rolled_out: Whether the node has had its first (rollout) visit; a
            leaf that has not been rolled out is simulated, one that has is
            expanded (Algorithm 3's "visited before" test).
    """

    state: frozenset[Index]
    actions: np.ndarray | None
    priors: np.ndarray | None = field(default=None, repr=False)
    children: dict[int, "TreeNode"] = field(default_factory=dict)
    visits: int = 0
    rolled_out: bool = False
    _q: np.ndarray | None = field(default=None, init=False, repr=False)
    # slot → n(s, a) and slot → summed return, for the visited slots only.
    _counts: dict[int, int] | None = field(default=None, init=False, repr=False)
    _returns: dict[int, float] | None = field(default=None, init=False, repr=False)
    # Dense n(s, a) from the first read of ``action_visits`` on.
    _visits: np.ndarray | None = field(default=None, init=False, repr=False)

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
        """``Q̂`` gathered from the priors; no slot visited yet."""
        if self.priors is None:
            q = np.zeros(len(self.actions))
        else:
            q = self.priors[self.actions]
            np.maximum(q, 0.0, out=q)
        self._q = q
        self._counts = {}
        self._returns = {}

    @property
    def has_statistics(self) -> bool:
        """Whether the node's statistics exist yet."""
        return self._q is not None

    @property
    def q(self) -> np.ndarray:
        """``Q̂(s, a)`` per slot."""
        if self._q is None:
            self._allocate()
        return self._q

    @property
    def action_visits(self) -> np.ndarray:
        """``n(s, a)`` per slot: built on the first read, kept up to date
        by :meth:`update` from then on.

        A count never exceeds the search's episode cap, max(1000, 20·B), so
        ``uint32`` holds it; UCT's ``log / visits`` still divides in float64.
        """
        if self._visits is None:
            visits = np.zeros(len(self.q), dtype=np.uint32)
            if self._counts:
                visits[list(self._counts)] = list(self._counts.values())
            self._visits = visits
        return self._visits

    @property
    def action_returns(self) -> np.ndarray:
        """Summed observed return per slot, built on read."""
        returns = np.zeros(len(self.q))
        if self._returns:
            returns[list(self._returns)] = list(self._returns.values())
        return returns

    @property
    def is_leaf(self) -> bool:
        """A node with no expanded children is a tree leaf."""
        return not self.children

    @property
    def is_terminal(self) -> bool:
        """Terminal states have no actions at all (dropped ones had some)."""
        return self.actions is not None and len(self.actions) == 0

    def update(self, slot: int, reward: float) -> None:
        """Fold one observed episode return into this node's statistics."""
        q = self.q
        counts, returns = self._counts, self._returns
        self.visits += 1
        count = counts.get(slot, 0) + 1
        total = returns.get(slot, 0.0) + reward
        counts[slot] = count
        returns[slot] = total
        q[slot] = total / count
        if self._visits is not None:
            self._visits[slot] = count

    def subtree_size(self) -> int:
        """Number of nodes in this subtree (diagnostics)."""
        return 1 + sum(child.subtree_size() for child in self.children.values())
