"""The MCTS tuner — the paper's budget-aware enumeration algorithm.

A thin facade over :class:`repro.core.search.MCTSSearch` fitting the common
:class:`~repro.tuners.base.Tuner` interface. The default configuration is
the paper's reported best setting: ε-greedy action selection seeded with
singleton priors (Algorithm 4), myopic rollout with step size 0, and greedy
(BG) extraction.
"""

from __future__ import annotations

from repro.catalog import Index
from repro.config import MCTSConfig
from repro.core.search import MCTSSearch
from repro.tuners.base import Tuner, TuningSession


class MCTSTuner(Tuner):
    """Budget-aware MCTS configuration enumeration (Sections 5-6).

    Args:
        config: MCTS policy knobs; defaults to the paper's best setting.
        seed: RNG seed (the paper averages five seeds per data point).
    """

    name = "mcts"

    def __init__(self, config: MCTSConfig | None = None, seed: int | None = None):
        self._config = config or MCTSConfig()
        self._seed = seed
        self._last_search: MCTSSearch | None = None

    @property
    def config(self) -> MCTSConfig:
        return self._config

    @property
    def last_search(self) -> MCTSSearch | None:
        """The search object of the most recent :meth:`tune` (diagnostics)."""
        return self._last_search

    def _enumerate(self, session: TuningSession) -> frozenset[Index]:
        search = MCTSSearch(session, self._config, self._seed)
        self._last_search = search
        best, _ = search.run()
        return best
