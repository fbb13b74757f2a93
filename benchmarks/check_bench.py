"""CI gate for the machine-readable bench archive.

Fails (exit 1) when no ``BENCH_*.json`` archives exist, or when any archive
is empty (neither records nor series), contains NaN/Inf values, records
without seeds, names an unregistered backend, carries ``backend: postgres``
records without live-DBMS provenance (server/hypopg versions), or lacks
provenance (figure id / git SHA) — exactly the failure modes that would
silently upload a useless artifact.

Usage:
    PYTHONPATH=src python benchmarks/check_bench.py [PATH ...]

With no arguments, checks every ``BENCH_*.json`` under
``benchmarks/reports/``.
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.eval.report import validate_bench_payload

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def main(argv: list[str]) -> int:
    if argv:
        paths = [pathlib.Path(arg) for arg in argv]
    else:
        paths = sorted(REPORT_DIR.glob("BENCH_*.json"))
    if not paths:
        print(f"error: no BENCH_*.json archives found under {REPORT_DIR}",
              file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"FAIL {path}: unreadable ({error})", file=sys.stderr)
            failures += 1
            continue
        problems = validate_bench_payload(payload)
        if problems:
            failures += 1
            for problem in problems:
                print(f"FAIL {path}: {problem}", file=sys.stderr)
        else:
            n_records = len(payload.get("records") or [])
            n_series = len(payload.get("series") or {})
            sha = str(payload.get("git_sha"))
            dirty = "-dirty" if sha.endswith("-dirty") else ""
            print(f"ok   {path.name}: {n_records} records, {n_series} series "
                  f"(sha {sha[:12]}{dirty})")
    if failures:
        print(f"{failures}/{len(paths)} archives failed validation",
              file=sys.stderr)
        return 1
    print(f"all {len(paths)} BENCH archives valid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
