"""Session benchmark: MCTS, greedy and DTA tuning sessions, end to end and per layer.

Run from the repository root::

    python3 sessionbench/run.py --workload mcts_tpcds --seed 0 --seconds 55 --trace 0
    python3 sessionbench/run.py --smoke

``--trace 0`` measures untraced sessions and reports the end-to-end
metrics; ``--trace 1`` splits the time between untraced and traced
sessions and reports the per-layer metrics. The last line of standard
output is the result object; earlier lines carry the sample counts,
the hash seed and any failed check. ``--smoke`` runs the same harness on
toy and TPC-H inputs with tiny budgets and checks the harness itself.

The process re-executes itself with a pinned ``PYTHONHASHSEED``: Real-M
candidate generation depends on string-hash order (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HASH_SEED = "0"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _pin_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="mcts_tpcds, dta_reald, or greedy_realm (by hand)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0: the repo's suites)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the harness in seconds")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness
    import workloads

    work_dir = ROOT / ".bench_build" / "sessionbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            import smoke

            return smoke.main(work_dir)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        print(f"sessionbench: PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}", flush=True)
        result = harness.run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
