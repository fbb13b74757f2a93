"""Two-phase greedy search (Algorithm 2) with session-drawn budget.

Phase 1 tunes every query as a singleton workload with Algorithm 1 — a
column-major fill of the budget allocation matrix (Figure 5(c)). Phase 2
takes the union of the per-query winners as a refined candidate set and runs
Algorithm 1 once more over the whole workload.
"""

from __future__ import annotations

from repro.catalog import Index
from repro.tuners.base import Tuner, TuningSession
from repro.tuners.greedy import greedy_enumerate
from repro.workload.candidates import candidates_for_query
from repro.workload.query import Workload


class TwoPhaseGreedyTuner(Tuner):
    """Algorithm 2: per-query greedy, then workload-level greedy.

    Args:
        per_query_candidates: When true (default), phase 1 restricts each
            query to *its own* generated candidates (the paper's ``I_{q}``);
            when false, every query sees the full candidate set.
    """

    name = "two_phase_greedy"

    def __init__(self, per_query_candidates: bool = True):
        self._per_query_candidates = per_query_candidates

    def _enumerate(self, session: TuningSession) -> frozenset[Index]:
        workload = session.workload
        candidates = session.candidates
        constraints = session.constraints
        refined: list[Index] = []
        seen: set[Index] = set()
        members = set(candidates)

        # Phase 1: tune each query as a singleton workload.
        session.phase("per_query_greedy")
        for query in workload:
            query_candidates = (
                candidates_for_query(workload.schema, query, candidates, pool_set=members)
                if self._per_query_candidates
                else candidates
            )
            if not query_candidates:
                continue
            singleton = Workload(
                name=f"{workload.name}:{query.qid}",
                schema=workload.schema,
                queries=[query],
            )
            winner = greedy_enumerate(
                session, query_candidates, constraints, workload=singleton
            )
            for index in winner:
                if index not in seen:
                    seen.add(index)
                    refined.append(index)
            if session.exhausted:
                break

        if not refined:
            # Degenerate small-budget case: phase 1 produced nothing useful;
            # fall back to the full candidate set for phase 2.
            refined = list(candidates)

        # Phase 2: workload-level greedy over the refined candidates.
        session.phase("workload_greedy")
        return greedy_enumerate(session, refined, constraints, checkpoints=True)
