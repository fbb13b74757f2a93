"""Golden serial-vs-parallel test: the determinism contract of repro.parallel.

A grid run with ``parallel=N`` must produce records bit-identical to
``parallel=1`` on every deterministic field — same per-seed RNG streams,
same aggregation — for any N. Only the wall-clock measurements
(``seconds``, ``cost_seconds``) may differ.
"""

from __future__ import annotations

import pytest

from repro.eval.runner import ExperimentRunner
from repro.tuners import DTATuner, MCTSTuner, VanillaGreedyTuner

#: RunRecord fields that must match exactly across executors. Everything
#: except ``seconds``/``cost_seconds`` (wall-clock) and ``results`` (not
#: retained under parallel execution).
DETERMINISTIC_FIELDS = (
    "workload",
    "tuner",
    "max_indexes",
    "budget",
    "improvement_mean",
    "improvement_std",
    "calls_used",
    "cache_hit_rate",
    "normalized_hits",
    "budget_policy",
    "event_counts",
    "stop_reasons",
    "seeds",
)

#: Wall-clock keys stripped from per-seed metrics before comparison.
_WALL_CLOCK_KEYS = {"seconds", "cost_seconds"}


def _roster():
    return {
        "vanilla_greedy": (lambda seed: VanillaGreedyTuner(), False),
        "dta": (lambda seed: DTATuner(), False),
        "mcts": (lambda seed: MCTSTuner(seed=seed), True),
    }


def _strip_wall_clock(metrics):
    return [
        {k: v for k, v in entry.items() if k not in _WALL_CLOCK_KEYS}
        for entry in metrics
    ]


def assert_records_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        for name in DETERMINISTIC_FIELDS:
            assert getattr(a, name) == getattr(b, name), (
                f"{a.tuner} K={a.max_indexes} B={a.budget}: "
                f"field {name!r} diverged"
            )
        assert _strip_wall_clock(a.seed_metrics) == _strip_wall_clock(
            b.seed_metrics
        ), f"{a.tuner} K={a.max_indexes} B={a.budget}: seed_metrics diverged"


def _run_grid(workload, candidates, jobs):
    runner = ExperimentRunner(
        workload,
        candidates=candidates,
        seeds=[7, 11],
        keep_results=False,
        parallel=jobs,
    )
    return runner.run_grid(_roster(), budgets=[20, 40], k_values=[3])


class TestToyGrid:
    @pytest.fixture(scope="class")
    def serial_records(self, toy_workload, toy_candidates):
        return _run_grid(toy_workload, toy_candidates, jobs=1)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_grid_bit_identical(
        self, toy_workload, toy_candidates, serial_records, jobs
    ):
        parallel_records = _run_grid(toy_workload, toy_candidates, jobs)
        assert_records_identical(serial_records, parallel_records)

    def test_cell_bit_identical(self, toy_workload, toy_candidates):
        def cell(jobs):
            runner = ExperimentRunner(
                toy_workload,
                candidates=toy_candidates,
                seeds=[7, 11, 13],
                keep_results=False,
                parallel=jobs,
            )
            from repro.config import TuningConstraints

            return runner.run_cell(
                lambda seed: MCTSTuner(seed=seed),
                budget=30,
                constraints=TuningConstraints(max_indexes=3),
            )

        assert_records_identical([cell(1)], [cell(2)])

    def test_budget_sweep_bit_identical(self, toy_workload, toy_candidates):
        from repro.config import TuningConstraints

        def sweep(jobs):
            runner = ExperimentRunner(
                toy_workload,
                candidates=toy_candidates,
                seeds=[7, 11],
                keep_results=False,
                parallel=jobs,
            )
            return runner.run_budget_sweep(
                lambda seed: MCTSTuner(seed=seed),
                budgets=[20, 40],
                constraints=TuningConstraints(max_indexes=3),
            )

        assert_records_identical(sweep(1), sweep(2))


@pytest.mark.slow
class TestTpchGrid:
    """The acceptance-criterion grid: TPC-H across greedy/DTA/MCTS."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_grid_bit_identical(self, tpch, jobs):
        from repro.workload.candidates import CandidateGenerator

        candidates = CandidateGenerator(tpch.schema).for_workload(tpch)
        serial = _run_grid(tpch, candidates, jobs=1)
        parallel = _run_grid(tpch, candidates, jobs=jobs)
        assert_records_identical(serial, parallel)


class TestSpawnedWorkers:
    """Workers that do not share the parent's string-hash seed (spawn on
    macOS and Windows, forkserver on Linux from Python 3.14) receive pickled
    candidates and build equal indexes of their own; both must hash alike."""

    def test_spawn_pool_grid_matches_serial(self, tpch, monkeypatch):
        import functools
        import os
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        import repro.parallel.executor as executor
        from repro.workload.candidates import CandidateGenerator

        candidates = CandidateGenerator(tpch.schema).for_workload(tpch)
        roster = {
            "dta": (lambda seed: DTATuner(), False),
            "vanilla_greedy": (lambda seed: VanillaGreedyTuner(), False),
        }

        def grid(jobs):
            runner = ExperimentRunner(
                tpch, candidates=candidates, seeds=[1, 2], keep_results=False, parallel=jobs
            )
            return runner.run_grid(roster, budgets=[60], k_values=[5])

        serial = grid(1)
        # Spawned workers take the hash seed from the environment: pick one
        # that differs from this process's.
        worker_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        monkeypatch.setenv("PYTHONHASHSEED", worker_seed)
        monkeypatch.setattr(
            executor,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=get_context("spawn")),
        )
        assert_records_identical(serial, grid(2))
