"""AutoAdmin greedy: two-phase search over atomic configurations.

Identical two-phase structure to :class:`~repro.tuners.twophase.TwoPhaseGreedyTuner`
but, per Section 4.2.2, phase 1 spends budget only on *atomic configurations*
(singletons here, matching the paper's "atomic configurations of size 1") —
the bounded column-major layout of Figure 5(d). The per-query winner is the
best atomic configuration rather than a per-query greedy run, which is what
bounds the fill.
"""

from __future__ import annotations

from repro.catalog import Index
from repro.tuners.base import Tuner, TuningSession
from repro.tuners.greedy import greedy_enumerate
from repro.workload.candidates import atomic_configurations, candidates_for_query


class AutoAdminGreedyTuner(Tuner):
    """Two-phase greedy restricted to atomic configurations in phase 1.

    Args:
        atomic_size: Maximum atomic-configuration size considered in
            phase 1; the paper's experiments use 1 (singletons).
        winners_per_query: How many of the best atomic configurations each
            query contributes to the refined candidate set.
    """

    name = "autoadmin_greedy"

    def __init__(self, atomic_size: int = 1, winners_per_query: int = 3):
        self._atomic_size = atomic_size
        self._winners_per_query = winners_per_query

    def _enumerate(self, session: TuningSession) -> frozenset[Index]:
        optimizer = session.optimizer
        workload = session.workload
        candidates = session.candidates
        constraints = session.constraints

        refined: list[Index] = []
        seen: set[Index] = set()
        members = set(candidates)
        session.phase("atomic_configurations")
        for query in workload:
            local = candidates_for_query(
                workload.schema, query, candidates, pool_set=members
            )
            atoms = atomic_configurations(local, max_size=self._atomic_size)
            scored: list[tuple[float, frozenset[Index]]] = []
            base = optimizer.empty_cost(query)
            for atom in atoms:
                if not constraints.admits(atom):
                    continue
                cost = session.evaluated_cost(query, atom)
                if cost < base:
                    scored.append((cost, atom))
            scored.sort(key=lambda item: item[0])
            for _, atom in scored[: self._winners_per_query]:
                for index in atom:
                    if index not in seen:
                        seen.add(index)
                        refined.append(index)
            if session.exhausted:
                break

        if not refined:
            refined = list(candidates)

        session.phase("workload_greedy")
        return greedy_enumerate(session, refined, constraints, checkpoints=True)
