"""The MDP view of index configuration search (Section 5.1).

* **States** — index configurations: all subsets of the candidate set
  ``I`` (so ``|S| = 2^{|I|}``); a state is represented as a
  ``frozenset[Index]``.
* **Actions** — ``A(s) = I − s``: the indexes that can still be added,
  represented by their *positions* in the MDP's sorted candidate tuple.
* **Transitions** — deterministic: ``s' = f(s, a) = s ∪ {a}`` with
  probability 1.
* **Rewards / returns** — the expected percentage improvement (Equation 4)
  of configurations containing ``s``, evaluated with derived costs under
  budget constraints. Rewards are kept as fractions in ``[0, 1]`` (the
  paper's UCT discussion assumes this range).

States with ``|s| = K`` — or states whose every remaining action would
violate the storage constraint — are *terminal*: they have no outgoing
transitions.
"""

from __future__ import annotations

import numpy as np

from repro.catalog import Index, index_sort_key
from repro.config import TuningConstraints

#: A state of the MDP: an index configuration.
State = frozenset


class IndexTuningMDP:
    """The deterministic MDP over configurations of a fixed candidate set.

    Args:
        candidates: The candidate indexes ``I`` spanning the state space.
        constraints: Cardinality (``K``) and optional storage constraints;
            both restrict the action sets.
    """

    def __init__(self, candidates: list[Index], constraints: TuningConstraints):
        self._candidates = tuple(sorted(candidates, key=index_sort_key))
        self._constraints = constraints
        self._positions = {index: position for position, index in enumerate(self._candidates)}
        self._sizes = np.array(
            [index.estimated_size_bytes for index in self._candidates], dtype=np.int64
        )
        # Every position, in the narrowest dtype that holds them all.
        count = len(self._candidates)
        self._all_positions = np.arange(count, dtype=np.min_scalar_type(count))

    @property
    def candidates(self) -> tuple[Index, ...]:
        return self._candidates

    @property
    def constraints(self) -> TuningConstraints:
        return self._constraints

    @property
    def initial_state(self) -> frozenset[Index]:
        """The root state: the existing (empty hypothetical) configuration."""
        return frozenset()

    def position(self, index: Index) -> int:
        """The position of a candidate in :attr:`candidates`."""
        return self._positions[index]

    def actions(self, state: frozenset[Index]) -> np.ndarray:
        """``A(s)``: positions of the addable candidates, ascending.

        One boolean mask over the candidates: those in ``state`` are out,
        and under a storage cap so is every candidate whose size would push
        the state's total past it. The positions come in the narrowest
        unsigned dtype that holds ``len(candidates)`` (``uint16`` for
        TPC-DS's 761): convert one with ``int()`` before Python-int
        arithmetic, where a narrow ``1 << p`` would wrap.
        """
        constraints = self._constraints
        if len(state) >= constraints.max_indexes:
            return self._all_positions[:0]
        addable = np.ones(len(self._candidates), dtype=bool)
        positions = self._positions
        addable[[positions[index] for index in state if index in positions]] = False
        cap = constraints.max_storage_bytes
        if cap is not None:
            used = sum(index.estimated_size_bytes for index in state)
            addable &= self._sizes + used <= cap
        return self._all_positions[addable]

    def child_actions(
        self, actions: np.ndarray, slot: int, child_state: frozenset[Index]
    ) -> np.ndarray:
        """``A(s ∪ {a})`` from ``actions = A(s)``, where ``a = actions[slot]``.

        The same array :meth:`actions` builds for ``child_state``, without
        a pass over every candidate: adding ``a`` removes it, and under a
        storage cap can only remove more (sizes are non-negative), so the
        child's actions are the parent's minus the slot, filtered by the cap.
        """
        constraints = self._constraints
        if len(child_state) >= constraints.max_indexes:
            return self._all_positions[:0]
        cap = constraints.max_storage_bytes
        if cap is None:
            return np.concatenate((actions[:slot], actions[slot + 1 :]))
        used = sum(index.estimated_size_bytes for index in child_state)
        keep = self._sizes[actions] + used <= cap
        keep[slot] = False
        return actions[keep]

    def transition(self, state: frozenset[Index], action: Index) -> frozenset[Index]:
        """``f(s, a) = s ∪ {a}`` — the (only) successor with probability 1."""
        if action in state:
            raise ValueError(f"action {action.display()} already in state")
        return state | {action}

    def is_terminal(self, state: frozenset[Index]) -> bool:
        """Whether ``state`` has no outgoing transitions."""
        return len(self.actions(state)) == 0

    def max_depth_from(self, state: frozenset[Index]) -> int:
        """``K − d``: how many more indexes may be added below ``state``."""
        return max(0, self._constraints.max_indexes - len(state))
