"""Process-pool execution of cell specs with a deterministic merge.

:func:`execute_specs` fans :class:`~repro.parallel.spec.CellSpec` tasks out
to a :class:`~concurrent.futures.ProcessPoolExecutor` and returns outcomes
in **input order** regardless of completion order — the merge side then
aggregates them exactly as the serial loop would have, which is what makes
the parallel path bit-identical to the serial one.

Failure handling: the first failing cell (in input order) aborts the run
with a :class:`~repro.exceptions.ParallelExecutionError` naming the cell's
roster label and seed; remaining queued cells are cancelled so a crashed
worker never hangs the pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.exceptions import ParallelExecutionError, ReproError
from repro.parallel.spec import CellSpec, SeedOutcome
from repro.parallel.worker import run_seed, run_seed_with_result
from repro.tuners.base import TuningResult


def run_in_process(spec: CellSpec) -> tuple[SeedOutcome, TuningResult]:
    """Run one cell in this process and return its outcome and live result,
    with the pool path's error surface: a failing cell raises
    :class:`ParallelExecutionError` naming its label and seed."""
    try:
        return run_seed_with_result(spec)
    except Exception as error:
        raise ParallelExecutionError(
            f"parallel cell {spec.label!r} (seed {spec.seed}) "
            f"failed: {error}",
            label=spec.label,
            seed=spec.seed,
        ) from error


def execute_specs(
    specs: list[CellSpec],
    jobs: int,
) -> list[SeedOutcome]:
    """Run every spec and return outcomes in input (grid) order.

    Args:
        specs: The cells to run. Order defines the merge order.
        jobs: Worker process count. ``1`` runs in-process (no pool, no
            pickling) — the reference serial path.

    Raises:
        ParallelExecutionError: A cell raised in its worker, a cell failed
            to pickle, or a worker process died. The error names the cell.
        ReproError: ``jobs`` is not positive.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(specs) <= 1:
        return [run_in_process(spec)[0] for spec in specs]

    workers = min(jobs, len(specs))
    pool = ProcessPoolExecutor(max_workers=workers)
    outcomes: list[SeedOutcome] = []
    try:
        futures = [pool.submit(run_seed, spec) for spec in specs]
        for spec, future in zip(specs, futures, strict=True):
            try:
                outcomes.append(future.result())
            except ParallelExecutionError:
                raise
            except BrokenProcessPool as error:
                raise ParallelExecutionError(
                    f"worker process died while running cell "
                    f"{spec.label!r} (seed {spec.seed}); the pool is broken "
                    f"and remaining cells were cancelled",
                    label=spec.label,
                    seed=spec.seed,
                ) from error
            except Exception as error:
                raise ParallelExecutionError(
                    f"parallel cell {spec.label!r} (seed {spec.seed}) "
                    f"failed: {error}",
                    label=spec.label,
                    seed=spec.seed,
                ) from error
    finally:
        # cancel_futures: a failed cell must not wait for the whole queue.
        pool.shutdown(wait=True, cancel_futures=True)
    return outcomes
