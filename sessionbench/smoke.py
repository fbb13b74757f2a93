"""The benchmark's own test: the same harness on small inputs, in seconds.

Runs each smoke workload (toy and TPC-H, tiny budgets) once untraced and
once traced and checks that

* every metric ``BENCHMARK.json`` names is emitted, in the mode that
  reports it;
* each workload drives the per-layer metrics of the layers it exercises
  above zero and leaves those of the layers it bypasses at zero;
* traced and untraced sessions agree on every outcome (the harness
  counts any disagreement as a failed session).

Exit status 0 when everything holds.
"""

from __future__ import annotations

import json
from pathlib import Path

import harness
from workloads import SMOKE_WORKLOADS


def _declared() -> tuple[set[str], set[str]]:
    root = Path(harness.__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"] for m in declared["end_to_end"]},
        {m["name"] for m in declared["per_layer"]},
    )


def check(work_dir: Path) -> list[str]:
    problems: list[str] = []
    end_to_end, per_layer = _declared()
    for spec in SMOKE_WORKLOADS.values():
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            mode = "traced" if trace else "untraced"
            result = harness.run(spec, 0, 0.0, trace, work_dir / f"{spec.name}-{mode}", sessions=1)
            metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{spec.name} {mode}: run not correct ({result['failed']} failed)")
            missing = expected - set(metrics)
            if missing:
                problems.append(f"{spec.name} {mode}: missing metrics {sorted(missing)}")
            if not trace:
                continue
            for name in spec.exercised:
                if not metrics.get(name, 0) > 0:
                    problems.append(f"{spec.name}: {name} = {metrics.get(name)} (layer exercised)")
            for name in spec.bypassed:
                if metrics.get(name) != 0:
                    problems.append(f"{spec.name}: {name} = {metrics.get(name)} (layer bypassed)")
    return problems


def main(work_dir: Path) -> int:
    problems = check(work_dir)
    for problem in problems:
        print(f"smoke: {problem}", flush=True)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems", flush=True)
    return 0 if not problems else 1
