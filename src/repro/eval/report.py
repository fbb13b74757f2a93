"""Text reports mirroring the paper's figures and tables.

Every benchmark target prints its artifact through these formatters, so a
bench run produces the same rows/series the corresponding paper figure
plots: one line per algorithm, one column per budget, mean ± std for
stochastic algorithms.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

from repro.backend.factory import BACKEND_NAMES
from repro.eval.runner import RunRecord

#: Version of the ``BENCH_*.json`` archive layout (bump on breaking change).
BENCH_SCHEMA_VERSION = 1


def record_to_dict(record: RunRecord) -> dict:
    """One record as JSON-ready scalars.

    Aggregates follow the :class:`~repro.eval.runner.RunRecord`
    conventions — means across seeds for ``calls_used``/``seconds``/cache
    counters, a **sum** across seeds for ``event_counts`` — and
    ``seed_metrics`` carries the raw per-seed values those aggregates were
    computed from, so downstream tools can re-derive or re-weight them.
    (Live per-seed result objects are never exported.)
    """
    return {
        "workload": record.workload,
        "tuner": record.tuner,
        "max_indexes": record.max_indexes,
        "budget": record.budget,
        "improvement_mean": record.improvement_mean,
        "improvement_std": record.improvement_std,
        "calls_used": record.calls_used,
        "seconds": record.seconds,
        "cache_hit_rate": record.cache_hit_rate,
        "normalized_hits": record.normalized_hits,
        "cost_seconds": record.cost_seconds,
        "persistent_hits": record.persistent_hits,
        "budget_policy": record.budget_policy,
        "backend": record.backend,
        "event_counts": record.event_counts,
        "stop_reasons": record.stop_reasons,
        "seeds": record.seeds,
        "seed_metrics": record.seed_metrics,
    }


def records_to_json(records: list[RunRecord], indent: int | None = 2) -> str:
    """Serialise records for downstream plotting tools."""
    return json.dumps([record_to_dict(r) for r in records], indent=indent)


def _git_sha() -> str:
    """The current commit SHA (CI env first, then git, else ``unknown``)."""
    for var in ("GITHUB_SHA", "CI_COMMIT_SHA"):
        sha = os.environ.get(var)
        if sha:
            return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_payload(
    figure: str,
    settings=None,
    records: list[RunRecord] | None = None,
    series: dict | None = None,
    extra: dict | None = None,
    postgres: dict | None = None,
) -> dict:
    """The machine-readable ``BENCH_<figure>.json`` archive payload.

    Schema (version :data:`BENCH_SCHEMA_VERSION`):

    - ``figure``, ``schema_version``, ``git_sha``, ``generated_at``
      (epoch seconds), ``python`` — provenance;
    - ``settings`` — the scale/seed/K/jobs knobs the run used
      (an :class:`~repro.eval.experiments.ExperimentSettings` or a plain
      dict);
    - ``records`` — per-cell aggregates **plus raw per-seed metrics**
      (:func:`record_to_dict`), so means/stds are reconstructible;
    - ``series`` — non-grid data (convergence rounds, time breakdowns);
    - ``postgres`` — live-DBMS provenance (``server_version``,
      ``hypopg_version``); required by the validator whenever a record
      ran on the postgres backend, since those numbers depend on the
      server's planner version, not just the repo's git SHA;
    - anything passed via ``extra`` is merged at the top level.
    """
    if settings is None:
        settings_dict: dict = {}
    elif isinstance(settings, dict):
        settings_dict = dict(settings)
    else:
        settings_dict = {
            "scale": settings.scale,
            "seeds": settings.seeds,
            "k_values": list(settings.k_values),
            "jobs": settings.jobs,
        }
    payload = {
        "figure": figure,
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "generated_at": time.time(),
        "python": sys.version.split()[0],
        "settings": settings_dict,
        "records": [record_to_dict(r) for r in records] if records else [],
        "series": series or {},
    }
    if postgres:
        payload["postgres"] = dict(postgres)
    if extra:
        payload.update(extra)
    return payload


def _non_finite_paths(node, path: str, problems: list[str]) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            problems.append(f"non-finite value at {path}: {node!r}")
        return
    if isinstance(node, dict):
        for key, value in node.items():
            _non_finite_paths(value, f"{path}.{key}", problems)
        return
    if isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _non_finite_paths(value, f"{path}[{i}]", problems)


def validate_bench_payload(payload: dict) -> list[str]:
    """Sanity-check one BENCH archive; returns problems (empty = valid).

    Flags what CI must never upload silently: a payload with neither
    records nor series, records with no seeds, NaN/Inf anywhere in the
    numeric data, empty series lists, missing provenance (figure id or
    git SHA), records naming an unregistered backend, and
    postgres-backend records without live-DBMS provenance (the planner's
    numbers depend on the server/extension versions).
    """
    problems: list[str] = []
    if not payload.get("figure"):
        problems.append("missing figure id")
    if not payload.get("git_sha") or payload.get("git_sha") == "unknown":
        problems.append("missing git SHA")
    records = payload.get("records") or []
    series = payload.get("series") or {}
    if not records and not series:
        problems.append("payload has neither records nor series")
    needs_pg_provenance = False
    for i, record in enumerate(records):
        if not record.get("seeds"):
            problems.append(f"records[{i}] has no seeds")
        backend = record.get("backend", "analytic")
        if backend not in BACKEND_NAMES:
            problems.append(f"records[{i}] names unknown backend {backend!r}")
        elif backend == "postgres":
            needs_pg_provenance = True
    if needs_pg_provenance:
        provenance = payload.get("postgres")
        if not isinstance(provenance, dict) or not (
            provenance.get("server_version") and provenance.get("hypopg_version")
        ):
            problems.append(
                "postgres-backend records require payload-level 'postgres' "
                "provenance with server_version and hypopg_version"
            )
    for label, points in series.items() if isinstance(series, dict) else []:
        if isinstance(points, (list, tuple)) and not points:
            problems.append(f"series {label!r} is empty")
    _non_finite_paths(records, "records", problems)
    _non_finite_paths(series, "series", problems)
    return problems


def format_records(records: list[RunRecord]) -> str:
    """Flat table of all records (diagnostic view)."""
    header = (
        f"{'workload':10s} {'tuner':18s} {'K':>3s} {'budget':>7s} "
        f"{'improve%':>9s} {'std':>6s} {'calls':>7s} {'sec':>7s} "
        f"{'hit%':>6s} {'norm':>7s} {'cost_s':>7s}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r.workload:10s} {r.tuner:18s} {r.max_indexes:3d} {r.budget:7d} "
            f"{r.improvement_mean:9.1f} {r.improvement_std:6.1f} "
            f"{r.calls_used:7.0f} {r.seconds:7.2f} "
            f"{100.0 * r.cache_hit_rate:6.1f} {r.normalized_hits:7.0f} "
            f"{r.cost_seconds:7.3f}"
        )
    return "\n".join(lines)


def format_grid(
    records: list[RunRecord],
    title: str,
    minute_labels: dict[int, float] | None = None,
) -> str:
    """One paper-style panel per K: tuners as rows, budgets as columns.

    Args:
        records: Grid records (any order).
        title: Panel caption, e.g. ``"Figure 8: TPC-DS, greedy baselines"``.
        minute_labels: Optional ``{budget: minutes}`` annotations matching
            the paper's ``1000(20)`` axis style.
    """
    k_values = sorted({r.max_indexes for r in records})
    budgets = sorted({r.budget for r in records})
    tuners = list(dict.fromkeys(r.tuner for r in records))
    by_key = {(r.tuner, r.max_indexes, r.budget): r for r in records}

    def budget_label(budget: int) -> str:
        if minute_labels and budget in minute_labels:
            return f"{budget}({minute_labels[budget]:.0f})"
        return str(budget)

    blocks = [title]
    for k in k_values:
        blocks.append(f"\n  K = {k}  (improvement %, mean and std over seeds)")
        columns = [budget_label(b) for b in budgets]
        header = f"    {'tuner':20s}" + "".join(f"{c:>16s}" for c in columns)
        blocks.append(header)
        blocks.append("    " + "-" * (len(header) - 4))
        for tuner in tuners:
            cells = []
            for budget in budgets:
                record = by_key.get((tuner, k, budget))
                if record is None:
                    cells.append(f"{'--':>16s}")
                elif record.improvement_std > 0.05:
                    cells.append(
                        f"{record.improvement_mean:10.1f}±{record.improvement_std:4.1f} "
                    )
                else:
                    cells.append(f"{record.improvement_mean:15.1f} ")
            blocks.append(f"    {tuner:20s}" + "".join(cells))
    return "\n".join(blocks)


def format_series(
    title: str,
    series: dict[str, list[tuple[int, float]]],
    x_label: str = "round",
) -> str:
    """A convergence plot as text: one row per x value, one column per series.

    Args:
        title: Caption, e.g. ``"Figure 14(a): TPC-DS convergence"``.
        series: ``{label: [(x, improvement%), ...]}``.
        x_label: Name of the shared x axis.
    """
    labels = list(series)
    xs = sorted({x for points in series.values() for x, _ in points})
    by_label = {
        label: dict(points) for label, points in series.items()
    }
    lines = [title]
    header = f"  {x_label:>8s}" + "".join(f"{label:>16s}" for label in labels)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    last_seen: dict[str, float] = {label: 0.0 for label in labels}
    for x in xs:
        cells = []
        for label in labels:
            if x in by_label[label]:
                last_seen[label] = by_label[label][x]
                cells.append(f"{by_label[label][x]:16.1f}")
            else:
                cells.append(f"{last_seen[label]:15.1f}*")
        lines.append(f"  {x:8d}" + "".join(cells))
    if any("*" in cell for cell in lines[-1:]):
        lines.append("  (* carried forward from an earlier round)")
    return "\n".join(lines)
