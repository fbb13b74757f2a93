"""Algorithm 3: MCTS for budget-aware index tuning.

Each episode walks the tree from the root (selection), expands one node when
it steps off the frontier, rolls out from unvisited leaves (simulation),
evaluates the sampled configuration with *one* counted what-if call plus
derived costs (budget allocation, the EvaluateCostWithBudget procedure), and
propagates the observed percentage improvement back up the path (update).

Episodes repeat until the what-if budget is exhausted, after which the best
configuration is extracted (Section 6.3).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.catalog import Index
from repro.config import MCTSConfig
from repro.core.extraction import BestExploredTracker, extract_best
from repro.core.mdp import IndexTuningMDP
from repro.core.node import TreeNode
from repro.core.priors import (
    compute_singleton_priors,
    prior_pair_count,
    relevant_by_query,
)
from repro.core.rollout import RolloutPolicy
from repro.core.selection import (
    BoltzmannPolicy,
    EpsilonGreedyPriorPolicy,
    SelectionPolicy,
    UCTPolicy,
)
from repro.tuners.base import TuningSession


class MCTSSearch:
    """One MCTS tuning session over a fixed workload and candidate set.

    Args:
        session: The running tuning session: the candidates ``I``, the
            constraints ``Γ`` and the budget every episode draws through.
        config: Policy knobs (defaults reproduce the paper's best setting).
        seed: RNG seed; MCTS is stochastic and the paper reports the mean of
            five seeds.
    """

    def __init__(
        self,
        session: TuningSession,
        config: MCTSConfig | None = None,
        seed: int | None = None,
    ):
        self._session = session
        self._optimizer = session.optimizer
        self._constraints = session.constraints
        self._config = config or MCTSConfig()
        self._rng = random.Random(0 if seed is None else seed)
        self._mdp = IndexTuningMDP(session.candidates, session.constraints)
        self._candidates = list(self._mdp.candidates)
        # RAVE's all-moves-as-first statistics per candidate position.
        self._amaf_visits = np.zeros(len(self._candidates), dtype=np.int64)
        self._amaf_returns = np.zeros(len(self._candidates))
        self._episode_cursor = 0
        self._policy = self._build_policy()
        self._priors: dict[Index, float] = {}
        self._prior_vector: np.ndarray | None = None
        self._root: TreeNode | None = None
        self._rollout: RolloutPolicy | None = None
        self._episodes = 0

    # ------------------------------------------------------------------ #

    def _rave_q(self, node: TreeNode) -> np.ndarray:
        """Q̂ blended with the all-moves-as-first (RAVE) statistic."""
        visits = self._amaf_visits[node.actions]
        seen = visits > 0
        amaf = self._amaf_returns[node.actions][seen] / visits[seen]
        beta = self._config.rave_weight
        blended = node.q.copy()
        blended[seen] = (1.0 - beta) * blended[seen] + beta * amaf
        return blended

    def _build_policy(self) -> SelectionPolicy:
        q_fn = self._rave_q if self._config.rave_weight > 0 else None
        if self._config.selection_policy == "uct":
            return UCTPolicy(exploration=self._config.uct_lambda, q_fn=q_fn)
        if self._config.selection_policy == "boltzmann":
            return BoltzmannPolicy(
                temperature=self._config.boltzmann_temperature, q_fn=q_fn
            )
        return EpsilonGreedyPriorPolicy(q_fn=q_fn)

    @property
    def root(self) -> TreeNode | None:
        """The search tree root (available after :meth:`run`)."""
        return self._root

    @property
    def priors(self) -> dict[Index, float]:
        """Singleton priors computed by Algorithm 4 (empty when disabled)."""
        return dict(self._priors)

    @property
    def episodes(self) -> int:
        """Episodes executed by the last :meth:`run`."""
        return self._episodes

    # ------------------------------------------------------------------ #

    def run(self) -> tuple[frozenset[Index], list[tuple[int, frozenset[Index]]]]:
        """Execute the full tuning session.

        Returns:
            ``(configuration, history)`` — the extracted best configuration
            and the chronological ``(calls_used, best_explored)`` checkpoints.
        """
        session = self._session
        optimizer = self._optimizer

        if self._config.use_priors:
            session.phase("priors")
            self._priors = self._compute_priors()
        if self._priors:
            self._prior_vector = np.array(
                [self._priors.get(index, 0.0) for index in self._candidates]
            )
        session.phase("episodes")

        self._root = TreeNode.create(
            self._mdp.initial_state,
            self._mdp.actions(self._mdp.initial_state),
            self._prior_vector,
        )
        self._rollout = RolloutPolicy(
            self._config, self._constraints, self._candidates, self._prior_vector
        )
        tracker = BestExploredTracker(optimizer, self._constraints)
        baseline = optimizer.empty_workload_cost()
        # Run-local slice of the session history: run() keeps returning its
        # own checkpoints while the session accumulates the full stream.
        history_start = len(session.history)

        # Seed the explored set with the best prior singleton so BCE never
        # returns the empty configuration when priors found improvements.
        for index, prior in self._priors.items():
            if prior > 0.0:
                singleton = frozenset({index})
                tracker.observe(
                    singleton, optimizer.derived_workload_cost(singleton)
                )
        if tracker.best:
            session.checkpoint(tracker.best)

        budget = session.budget
        episode_cap = max(1000, 20 * budget) if budget is not None else 1000
        stall_limit = 2000  # consecutive episodes without budget consumption
        stalled = 0
        self._episodes = 0
        while self._episodes < episode_cap and not session.exhausted:
            self._episodes += 1
            path: list[tuple[TreeNode, int]] = []
            spent_before = session.calls_used
            configuration = self._sample_configuration(self._root, path)
            cost = self._evaluate_with_budget(configuration)
            if session.calls_used == spent_before:
                stalled += 1
                if stalled >= stall_limit:
                    break
            else:
                stalled = 0
            reward = 0.0
            if baseline > 0:
                reward = max(0.0, min(1.0, 1.0 - cost / baseline))
            for node, slot in path:
                node.update(slot, reward)
            if self._config.rave_weight > 0:
                played = [self._mdp.position(index) for index in configuration]
                self._amaf_visits[played] += 1
                self._amaf_returns[played] += reward
            if tracker.observe(configuration, cost):
                session.checkpoint(tracker.best)

        session.phase("extraction")
        tracker.refresh()
        best = extract_best(
            self._config.extraction,
            session,
            tracker,
            hybrid=self._config.hybrid_extraction,
        )
        session.checkpoint(best)
        return best, session.history[history_start:]

    # ------------------------------------------------------------------ #

    def _compute_priors(self) -> dict[Index, float]:
        budget = self._session.budget
        relevant = relevant_by_query(self._optimizer, self._candidates)
        pairs = prior_pair_count(relevant)
        if budget is None:
            sub_budget = pairs
        else:
            sub_budget = min(
                int(budget * self._config.prior_budget_fraction), pairs
            )
        if sub_budget <= 0:
            return {}
        return compute_singleton_priors(
            self._optimizer,
            self._candidates,
            sub_budget,
            self._rng,
            query_selection=self._config.prior_query_selection,
            index_selection=self._config.prior_index_selection,
            relevant=relevant,
        )

    def _sample_configuration(
        self, node: TreeNode, path: list[tuple[TreeNode, int]]
    ) -> frozenset[Index]:
        """SampleConfiguration: selection / expansion / simulation."""
        candidates = self._candidates
        while True:
            if node.is_terminal:
                return node.state
            if node.is_leaf and not node.rolled_out:
                node.rolled_out = True
                configuration = self._rollout.rollout(
                    node.state, node.actions, self._rng
                )
                if path:
                    # Most rolled-out leaves are never entered again; one
                    # that is gets its actions back below.
                    node.actions = None
                return configuration
            slot = self._policy.select(node, self._rng)
            path.append((node, slot))
            actions = node.actions
            position = int(actions[slot])
            child = node.children.get(position)
            if child is None:
                child_state = self._mdp.transition(node.state, candidates[position])
                child = TreeNode.create(
                    child_state,
                    self._mdp.child_actions(actions, slot, child_state),
                    self._prior_vector,
                )
                node.children[position] = child
            elif child.actions is None:
                # The array the child was created with: the same parent
                # actions, slot and state.
                child.actions = self._mdp.child_actions(actions, slot, child.state)
            node = child

    def _pick_episode_query(self, derived: list[float]) -> int:
        """The workload position of the query receiving the episode's counted call.

        The paper draws it with probability proportional to its derived
        cost; uniform and round-robin alternatives are exposed as knobs
        ("other strategies are possible", Section 5.2).
        """
        mode = self._config.episode_query_selection
        count = len(derived)
        if mode == "uniform":
            return self._rng.choice(range(count))
        if mode == "round_robin":
            position = self._episode_cursor % count
            self._episode_cursor += 1
            return position
        # random.choices(range(count), weights=[max(1e-12, value) ...], k=1),
        # inline: the same cumulative floats, total and single random() draw.
        cumulative = list(
            accumulate([value if value > 1e-12 else 1e-12 for value in derived])
        )
        total = cumulative[-1]
        if not math.isfinite(total):
            raise ValueError("Total of weights must be finite")
        return bisect_right(cumulative, self._rng.random() * total, 0, count - 1)

    def _evaluate_with_budget(self, configuration: frozenset[Index]) -> float:
        """EvaluateCostWithBudget: one counted call, derived for the rest."""
        optimizer = self._optimizer
        # The engine mask, built once for the derivation, the cache test
        # and the counted call (positions interned in iteration order).
        mask = 0
        for index in configuration:
            mask |= 1 << optimizer.position(index)
        derived = optimizer.derived_query_costs(mask)
        total = sum(derived)
        if not mask:
            return total
        position = self._pick_episode_query(derived)
        target = optimizer.workload[position]
        if not (optimizer.policy.admits(target.qid) or optimizer.is_cached(target, mask)):
            # Denied: return the all-derived total unchanged. Substituting
            # derived[i] back in would perturb the float sum (IEEE addition
            # is not associative) and break bit-identity with the FCFS
            # baseline, so the short-circuit is load-bearing.
            return total
        exact = optimizer.whatif_cost(target, mask)
        return total - derived[position] + target.weight * exact
