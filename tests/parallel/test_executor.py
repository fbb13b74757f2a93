"""Executor edge cases: argument validation, worker exceptions, hard crashes.

A failed worker must surface a :class:`ParallelExecutionError` naming the
cell and seed — never hang the pool or return partial results.
"""

from __future__ import annotations

import os

import pytest

from repro.config import ReproConfig, TuningConstraints
from repro.eval.runner import ExperimentRunner
from repro.exceptions import ParallelExecutionError, ReproError, TuningError
from repro.parallel import CellSpec, execute_specs
from repro.tuners import VanillaGreedyTuner


class FailingTuner:
    """Raises inside ``tune()`` — module-level so it pickles to workers."""

    name = "failing"

    def tune(self, workload, *, budget=None, constraints=None,
             candidates=None, optimizer_config=None):
        raise RuntimeError("simulated tuner failure")


class HardCrashTuner:
    """Kills the worker process outright (no exception to pickle back)."""

    name = "hard_crash"

    def tune(self, workload, *, budget=None, constraints=None,
             candidates=None, optimizer_config=None):
        os._exit(17)


class PidTuner:
    """Fails with the id of the process it ran in."""

    name = "pid"

    def tune(self, workload, *, budget=None, constraints=None,
             candidates=None, optimizer_config=None):
        raise RuntimeError(f"ran in pid {os.getpid()}")


def _failing_pid(specs, jobs):
    """The process id the first (failing) cell of ``specs`` ran in."""
    with pytest.raises(ParallelExecutionError) as excinfo:
        execute_specs(specs, jobs=jobs)
    return int(str(excinfo.value).rsplit(" ", 1)[1])


class SearchFailingTuner(VanillaGreedyTuner):
    """Raises inside its search, after the session is built."""

    name = "search_failing"

    def _enumerate(self, session):
        raise RuntimeError("simulated search failure")


def _spec(tuner, seed=3, label="cell"):
    return CellSpec(
        label=label,
        workload=None,
        candidates=(),
        tuner=tuner,
        budget=10,
        constraints=TuningConstraints(max_indexes=2),
        seed=seed,
        config=ReproConfig.from_env(),
    )


class TestArgumentValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ReproError, match="jobs"):
            execute_specs([_spec(FailingTuner())], jobs=0)

    def test_runner_rejects_zero_parallel(self, toy_workload, toy_candidates):
        with pytest.raises(TuningError, match="parallel"):
            ExperimentRunner(
                toy_workload, candidates=toy_candidates, parallel=0
            )

    def test_runner_rejects_parallel_with_keep_results(
        self, toy_workload, toy_candidates
    ):
        with pytest.raises(TuningError, match="keep_results"):
            ExperimentRunner(
                toy_workload,
                candidates=toy_candidates,
                keep_results=True,
                parallel=2,
            )

    def test_empty_spec_list(self):
        assert execute_specs([], jobs=4) == []


class TestWorkerFailures:
    def test_in_process_exception_is_wrapped(self):
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_specs([_spec(FailingTuner(), seed=9, label="bad")], jobs=1)
        assert "bad" in str(excinfo.value)
        assert excinfo.value.label == "bad"
        assert excinfo.value.seed == 9

    def test_pool_exception_is_wrapped(self):
        specs = [_spec(FailingTuner(), seed=s, label=f"bad{s}") for s in (1, 2)]
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_specs(specs, jobs=2)
        assert "simulated tuner failure" in str(excinfo.value)
        assert excinfo.value.seed in (1, 2)

    def test_hard_crash_surfaces_without_hanging(self):
        specs = [
            _spec(HardCrashTuner(), seed=s, label=f"crash{s}") for s in (1, 2)
        ]
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_specs(specs, jobs=2)
        assert "worker process died" in str(excinfo.value)

    def test_mixed_good_and_crashing_cells_fail_loudly(
        self, toy_workload, toy_candidates
    ):
        good = CellSpec(
            label="greedy",
            workload=toy_workload,
            candidates=tuple(toy_candidates),
            tuner=VanillaGreedyTuner(),
            budget=10,
            constraints=TuningConstraints(max_indexes=2),
            seed=1,
            config=ReproConfig.from_env(),
        )
        with pytest.raises(ParallelExecutionError):
            execute_specs([good, _spec(FailingTuner(), label="bad")], jobs=2)


class TestRunnerFailures:
    @pytest.mark.parametrize("parallel", [1, 2])
    def test_failing_cell_names_itself_at_every_job_count(
        self, toy_workload, toy_candidates, parallel
    ):
        runner = ExperimentRunner(
            toy_workload,
            candidates=toy_candidates,
            seeds=[4, 7],
            keep_results=parallel == 1,
            parallel=parallel,
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            runner.run_cell(
                lambda seed: SearchFailingTuner(),
                10,
                TuningConstraints(max_indexes=2),
                config=ReproConfig(),
            )
        assert (excinfo.value.label, excinfo.value.seed) == ("search_failing", 4)
        assert "simulated search failure" in str(excinfo.value)


class TestSuccessPath:
    def test_pool_runs_cells_in_worker_processes(self):
        specs = [_spec(PidTuner(), seed=s, label=f"pid{s}") for s in (1, 2)]
        assert _failing_pid(specs, jobs=2) != os.getpid()

    def test_single_spec_runs_in_process(self):
        assert _failing_pid([_spec(PidTuner())], jobs=4) == os.getpid()

    def test_serial_path_matches_the_pool(self, toy_workload, toy_candidates):
        specs = [
            CellSpec(
                label=f"greedy{seed}",
                workload=toy_workload,
                candidates=tuple(toy_candidates),
                tuner=VanillaGreedyTuner(),
                budget=20,
                constraints=TuningConstraints(max_indexes=2),
                seed=seed,
                config=ReproConfig(),
            )
            for seed in (2, 6)
        ]

        def scalars(jobs):
            # Everything but ``seconds``, the one wall-clock field.
            return [
                (o.label, o.seed, o.tuner_name, o.improvement, o.calls_used,
                 o.budget, o.stop_reason, o.event_counts())
                for o in execute_specs(specs, jobs=jobs)
            ]

        assert scalars(1) == scalars(2)

    def test_outcomes_in_input_order(self, toy_workload, toy_candidates):
        specs = [
            CellSpec(
                label=f"greedy{seed}",
                workload=toy_workload,
                candidates=tuple(toy_candidates),
                tuner=VanillaGreedyTuner(),
                budget=20,
                constraints=TuningConstraints(max_indexes=2),
                seed=seed,
                config=ReproConfig.from_env(),
            )
            for seed in (5, 3, 8)
        ]
        outcomes = execute_specs(specs, jobs=2)
        assert [o.seed for o in outcomes] == [5, 3, 8]
        assert [o.label for o in outcomes] == ["greedy5", "greedy3", "greedy8"]
        assert all(o.tuner_name == "vanilla_greedy" for o in outcomes)
        assert all(o.calls_used <= 20 for o in outcomes)
