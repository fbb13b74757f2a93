"""Regenerate ``mcts_variants.json`` — the MCTS variant differential pin.

Fourteen MCTS variants (selection, rollout, extraction, RAVE, episode-query
and prior knobs) tune TPC-H at B = 300, K = 10, with and without a storage
cap of 0.3× the database, under seeds 0 and 1: 56 sessions. Each session's
recommendation, spent budget, episode count, tree size, event-kind counts
and ground-truth improvement are pinned, and its counted-call log as the
SHA-256 of its ``qid cost.hex()`` lines (the log itself would be about
0.6 MB). A change to the episode loop that is meant to keep every output
must reproduce them exactly.

Run from the repo root to regenerate (only when a variant's *semantics*
deliberately change — never to paper over a regression)::

    PYTHONPATH=src python tests/fixtures/gen_mcts_variants.py
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from repro.config import MCTSConfig, TuningConstraints
from repro.tuners import MCTSTuner
from repro.workload.suites.tpch import tpch_workload

BUDGET = 300
MAX_INDEXES = 10
#: The storage cap of the capped runs, as a fraction of the database size.
CAP_FRACTION = 0.3
SEEDS = (0, 1)

#: (label, config) per variant.
VARIANTS = [
    ("default", MCTSConfig()),
    ("uct", MCTSConfig(selection_policy="uct")),
    ("uct_no_priors", MCTSConfig(selection_policy="uct", use_priors=False)),
    ("boltzmann", MCTSConfig(selection_policy="boltzmann")),
    ("rave", MCTSConfig(rave_weight=0.3)),
    ("rave_uct", MCTSConfig(selection_policy="uct", rave_weight=0.3)),
    ("random_rollout", MCTSConfig(rollout_policy="random")),
    ("random_rollout_uct", MCTSConfig(selection_policy="uct", rollout_policy="random")),
    ("myopic_2", MCTSConfig(myopic_step=2)),
    ("bce", MCTSConfig(extraction="bce")),
    ("hybrid", MCTSConfig(hybrid_extraction=True)),
    ("uniform_queries", MCTSConfig(episode_query_selection="uniform")),
    ("round_robin_queries", MCTSConfig(episode_query_selection="round_robin")),
    ("no_priors", MCTSConfig(use_priors=False)),
]


def cases():
    """``(key, config, capped, seed)`` for every pinned session."""
    return [
        (f"{label}/{'capped' if capped else 'uncapped'}/seed{seed}", config, capped, seed)
        for label, config in VARIANTS
        for capped in (False, True)
        for seed in SEEDS
    ]


def constraints_for(workload, capped: bool) -> TuningConstraints:
    cap = int(CAP_FRACTION * workload.schema.total_size_bytes) if capped else None
    return TuningConstraints(max_indexes=MAX_INDEXES, max_storage_bytes=cap)


def run_case(workload, config: MCTSConfig, capped: bool, seed: int) -> dict:
    """One session, flattened into JSON-stable form."""
    tuner = MCTSTuner(config=config, seed=seed)
    result = tuner.tune(workload, BUDGET, constraints_for(workload, capped))
    search = tuner.last_search
    log = "".join(
        f"{call.qid} {call.cost.hex()}\n" for call in result.optimizer.call_log
    )
    return {
        "configuration": sorted(index.display() for index in result.configuration),
        "storage_bytes": sum(index.estimated_size_bytes for index in result.configuration),
        "calls_used": result.calls_used,
        "episodes": search.episodes,
        "tree_size": search.root.subtree_size(),
        "call_log_sha256": hashlib.sha256(log.encode()).hexdigest(),
        "events": dict(sorted(Counter(event.kind for event in result.events).items())),
        "true_improvement": result.true_improvement().hex(),
    }


def main() -> None:
    workload = tpch_workload()
    pins = {
        key: run_case(workload, config, capped, seed)
        for key, config, capped, seed in cases()
    }
    out = Path(__file__).with_name("mcts_variants.json")
    out.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {out} ({len(pins)} sessions)")


if __name__ == "__main__":
    main()
