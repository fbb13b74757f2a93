"""Rollout policies (Section 6.2).

A rollout extends a leaf's configuration by ``l`` randomly chosen indexes:

* **random step** — ``l`` uniform in ``{0, .., K − d}`` (the standard,
  unbiased policy);
* **myopic step** — fixed ``l`` (the paper's best setting is ``l = 0``:
  evaluate the leaf's own configuration, exploring the neighbourhood of the
  current state rather than remote regions).

Index choice within the rollout follows the action-selection flavour:
uniform under UCT, prior-proportional under ε-greedy. Like the search
tree, a rollout sees actions as positions into the candidate tuple.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.catalog import Index
from repro.config import MCTSConfig, TuningConstraints


class RolloutPolicy:
    """Generates a configuration by randomly inserting indexes from a state.

    Args:
        config: MCTS knobs (rollout flavour, step size, selection policy).
        constraints: Cardinality/storage constraints the rollout respects.
        candidates: The candidate indexes that action positions refer to.
        priors: Singleton prior per candidate position, clamped at zero,
            for prior-weighted sampling (``None``: every prior is zero).
    """

    def __init__(
        self,
        config: MCTSConfig,
        constraints: TuningConstraints,
        candidates: Sequence[Index],
        priors: np.ndarray | None = None,
    ):
        self._config = config
        self._constraints = constraints
        self._candidates = candidates
        self._priors = (
            np.zeros(len(candidates)) if priors is None else np.maximum(priors, 0.0)
        )

    def _step_size(self, depth: int, rng: random.Random) -> int:
        """The look-ahead step size ``l``."""
        remaining = max(0, self._constraints.max_indexes - depth)
        if self._config.rollout_policy == "myopic":
            return min(self._config.myopic_step, remaining)
        return rng.randint(0, remaining)

    def _sample_weighted(
        self, pool: list[int], count: int, rng: random.Random
    ) -> list[int]:
        """Sample ``count`` distinct positions, prior-proportional (Eq. 6)."""
        chosen: list[int] = []
        available = list(pool)
        for _ in range(count):
            if not available:
                break
            weights = self._priors[available].tolist()
            total = sum(weights)
            if total <= 0.0:
                pick = rng.choice(available)
            else:
                threshold = rng.random() * total
                cumulative = 0.0
                pick = available[-1]
                for position, weight in zip(available, weights, strict=True):
                    cumulative += weight
                    if cumulative >= threshold:
                        pick = position
                        break
            chosen.append(pick)
            available.remove(pick)
        return chosen

    def rollout(
        self,
        state: frozenset[Index],
        actions: np.ndarray,
        rng: random.Random,
    ) -> frozenset[Index]:
        """Produce the sampled configuration for a leaf at ``state``.

        Args:
            state: The leaf's configuration.
            actions: The leaf's action positions.
            rng: The search's RNG.
        """
        step = self._step_size(len(state), rng)
        if step == 0 or len(actions) == 0:
            return state
        pool = actions.tolist()
        if self._config.selection_policy == "uct":
            count = min(step, len(pool))
            additions = rng.sample(pool, count)
        else:
            additions = self._sample_weighted(pool, step, rng)
        configuration = set(state)
        for position in additions:
            index = self._candidates[position]
            if not self._constraints.admits(
                configuration, extra_bytes=index.estimated_size_bytes
            ):
                continue
            configuration.add(index)
        return frozenset(configuration)
