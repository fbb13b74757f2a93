"""AnalyticBackend bit-identity: the factory path vs the pre-backend oracle.

``tests/budget/test_fcfs_golden.py`` pins the *default* tune path against
``fcfs_golden.json``; this suite pins an explicit config selecting
``BackendSpec(name="analytic")`` — with the environment clear and with it
selecting another backend and policy, which an explicit config ignores —
and the parallel executor carrying a config across the process pool.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.backend import BackendSpec
from repro.config import ReproConfig, TuningConstraints
from repro.eval.runner import ExperimentRunner
from repro.tuners import MCTSTuner

_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_fcfs_golden", _FIXTURES / "gen_fcfs_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GEN = _load_generator()
_GOLDEN = json.loads((_FIXTURES / "fcfs_golden.json").read_text())


@pytest.fixture(scope="module")
def workloads(tpch):
    return {"toy": _GEN.build_toy_workload(), "tpch": tpch}


@pytest.mark.parametrize(
    "label,workload_name,factory,budget,seed",
    _GEN.CASES,
    ids=[case[0] for case in _GEN.CASES],
)
@pytest.mark.parametrize(
    "environment",
    [{}, {"REPRO_BACKEND": "noisy", "REPRO_BUDGET_POLICY": "wii"}],
    ids=["clear", "overridden"],
)
def test_explicit_analytic_backend_matches_the_oracle(
    workloads, label, workload_name, factory, budget, seed, environment, monkeypatch
):
    # The sanitizers follow the suite's REPRO_SANITIZE, read before the
    # overrides: an explicit config takes nothing else from the environment.
    sanitize = ReproConfig.from_env().sanitize
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    expected = _GOLDEN[label]
    result = factory(seed).tune(
        workloads[workload_name],
        budget=budget,
        optimizer_config=ReproConfig(
            backend=BackendSpec(name="analytic"), sanitize=sanitize
        ),
    )
    assert bool(result.optimizer.cost_observers) is sanitize
    snapshot = _GEN.snapshot_result(result)
    assert snapshot["configuration"] == expected["configuration"]
    assert snapshot["estimated_cost"] == expected["estimated_cost"]
    assert snapshot["baseline_cost"] == expected["baseline_cost"]
    assert snapshot["calls_used"] == expected["calls_used"]
    assert snapshot["history"] == expected["history"]
    assert snapshot["call_log"] == expected["call_log"]


def test_backend_spec_survives_the_process_pool(toy_workload, toy_candidates):
    """A noisy config shipped to 2 workers reproduces the serial cell exactly."""

    def cell(jobs):
        runner = ExperimentRunner(
            toy_workload,
            candidates=toy_candidates,
            seeds=[7, 11],
            keep_results=False,
            parallel=jobs,
        )
        return runner.run_cell(
            lambda seed: MCTSTuner(seed=seed),
            budget=30,
            constraints=TuningConstraints(max_indexes=3),
            config=ReproConfig.from_env(
                backend=BackendSpec(name="noisy", noise=0.2, noise_seed=5)
            ),
        )

    serial, pooled = cell(1), cell(2)
    assert serial.backend == pooled.backend == "noisy"
    assert serial.improvement_mean == pooled.improvement_mean
    assert serial.calls_used == pooled.calls_used
    assert serial.event_counts == pooled.event_counts
    assert serial.seeds == pooled.seeds
