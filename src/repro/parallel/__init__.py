"""Parallel experiment execution with a deterministic merge.

The paper's evaluation grids — per workload, every (algorithm, K, B) cell
averaged over seeds — are embarrassingly parallel, and at full scale
(``REPRO_SCALE=1``) serial runs take hours. This package fans the
independent (tuner, K, B, seed) cells of
:class:`~repro.eval.runner.ExperimentRunner` out to worker processes and
merges the outcomes in deterministic grid order.

Determinism contract: a parallel run is **bit-identical** to the serial
one — same per-seed RNG streams (each cell is a self-contained tuning run
seeded in the parent), same :class:`~repro.eval.runner.RunRecord`
aggregation (workers ship scalar :class:`SeedOutcome` payloads, including
the full event stream and what-if counters, and the merge side runs the
same aggregation loop the serial path uses). Only wall-clock fields
(``seconds``, ``cost_seconds``) differ, because they measure time.

Entry points: ``ExperimentRunner(parallel=N)``, the ``REPRO_JOBS``
environment knob consumed by :mod:`repro.eval.experiments`, and the
``--jobs`` flags of the ``tune``/``eval`` CLI commands and the benchmark
suite. :func:`execute_specs` is the package's one process pool.
"""

from repro.exceptions import ParallelExecutionError
from repro.parallel.executor import execute_specs
from repro.parallel.spec import CellSpec, SeedOutcome
from repro.parallel.worker import run_seed, run_seed_with_result

__all__ = [
    "CellSpec",
    "ParallelExecutionError",
    "SeedOutcome",
    "execute_specs",
    "run_seed",
    "run_seed_with_result",
]
