"""Action-selection policies (Section 6.1).

Every policy reads the node's ``Q̂`` vector and returns a *slot* — an index
into ``node.actions``:

* :class:`UCTPolicy` — Equation 5: pick ``argmax_a [ Q̂(s,a) + λ·sqrt(ln N(s)
  / n(s,a)) ]``; unvisited actions score infinity, so every child must be
  visited once before any is revisited (the slow-progress behaviour the
  paper observes under small budgets).
* :class:`EpsilonGreedyPriorPolicy` — the paper's variant of ε-greedy
  (Equation 6): sample action ``a`` with probability proportional to
  ``Q̂(s,a)``, where unvisited actions carry the singleton-improvement
  prior computed by Algorithm 4.
* :class:`BoltzmannPolicy` — softmax sampling over ``Q̂ / τ``.

The sampling policies draw one ``rng.random()`` per step and return the
first slot whose left-to-right cumulative weight reaches ``random() ×
total`` (a sequential ``np.add.accumulate`` plus a left ``searchsorted``),
the total being the last cumulative weight.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Callable

import numpy as np

from repro.core.node import TreeNode

#: Signature of an action-value accessor: the ``Q̂`` vector over a node's
#: slots. Defaults to ``node.q`` but a search may substitute a blended
#: estimate (e.g. RAVE, Section 8).
QFunction = Callable[[TreeNode], np.ndarray]


def _default_q(node: TreeNode) -> np.ndarray:
    return node.q


class SelectionPolicy(abc.ABC):
    """Strategy interface for SelectAction in Algorithm 3."""

    def __init__(self, q_fn: QFunction | None = None):
        self._q = q_fn or _default_q

    @abc.abstractmethod
    def select(self, node: TreeNode, rng: random.Random) -> int:
        """Pick a slot of ``node.actions`` (non-empty)."""


class UCTPolicy(SelectionPolicy):
    """UCB1-based selection (Kocsis & Szepesvári), Equation 5."""

    def __init__(self, exploration: float = 2.0**0.5, q_fn: QFunction | None = None):
        super().__init__(q_fn)
        if exploration < 0:
            raise ValueError(f"exploration constant must be >= 0, got {exploration}")
        self._lambda = exploration

    @property
    def exploration(self) -> float:
        return self._lambda

    def scores(self, node: TreeNode) -> np.ndarray:
        """The UCB score per slot (infinite where the action is unvisited)."""
        visits = node.action_visits
        visited = visits > 0
        bonus = np.full(len(visits), math.inf)
        bonus[visited] = self._lambda * np.sqrt(
            math.log(max(node.visits, 1)) / visits[visited]
        )
        return self._q(node) + bonus

    def select(self, node: TreeNode, rng: random.Random) -> int:
        unvisited = np.flatnonzero(node.action_visits == 0)
        if len(unvisited):
            return int(rng.choice(unvisited))
        return int(np.argmax(self.scores(node)))


class EpsilonGreedyPriorPolicy(SelectionPolicy):
    """Prior-seeded proportional sampling (Equation 6).

    ``Pr(a|s) = Q̂(s,a) / Σ_b Q̂(s,b)`` where ``Q̂`` falls back to the action
    prior before the first visit. Degenerates to uniform sampling when every
    Q̂ is zero (e.g. no priors computed and no rewards observed yet).
    """

    def select(self, node: TreeNode, rng: random.Random) -> int:
        # One fresh array per step: clamped, then accumulated in place.
        cumulative = np.maximum(self._q(node), 0.0)
        np.add.accumulate(cumulative, out=cumulative)
        total = cumulative[-1]
        if total <= 0.0:
            return rng.randrange(len(cumulative))
        return int(cumulative.searchsorted(rng.random() * total))


class BoltzmannPolicy(SelectionPolicy):
    """Boltzmann (softmax) exploration — the classic ε-greedy variant the
    paper's Equation 6 simplifies (kept for ablations).

    Args:
        temperature: τ > 0; lower values are greedier.
    """

    def __init__(self, temperature: float = 0.1, q_fn: QFunction | None = None):
        super().__init__(q_fn)
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self._tau = temperature

    @property
    def temperature(self) -> float:
        return self._tau

    def select(self, node: TreeNode, rng: random.Random) -> int:
        values = self._q(node) / self._tau
        cumulative = np.cumsum(np.exp(values - values.max()))
        return int(np.searchsorted(cumulative, rng.random() * cumulative[-1], "left"))
