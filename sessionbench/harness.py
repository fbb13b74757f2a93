"""Closed-loop tuning sessions and the metrics the benchmark reports.

One client runs sessions back to back in one process and one thread.
A *session* is set-up (build the workload and generate its candidates,
fresh each time, as every CLI run pays it) followed by one
``Tuner.tune`` call and the ``close()`` that flushes the session's cost
store. Only the tune-and-close part is the session time. Times are
reported at host speed: wall seconds divided by how much the host slowed
a fixed probe during the session (:mod:`hostspeed`).

Untraced runs give the end-to-end metrics. Traced runs first repeat the
untraced loop for half the time, then wrap the program's entry points
(:mod:`tracer`) for the other half and report the per-layer split plus
the tracing overhead between the two halves.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import tracer as tracing
from repro.config import ReproConfig
from repro.exceptions import InvariantViolationError
from repro.lint.sanitizers import EventStreamValidator
from repro.workload.candidates import CandidateGenerator
from workloads import WorkloadSpec

#: Per-layer time metrics: metric -> span whose self time it sums.
TIME_METRICS = {
    "workload.build_s": "workload.build",
    "workload.candidates_s": "workload.candidates",
    "core.select_s": "core.select",
    "core.node_create_s": "core.node_create",
    "core.actions_s": "core.actions",
    "core.priors_s": "core.priors",
    "core.extract_s": "core.extract",
    "core.search_self_s": "core.search",
    "runtime.gc_s": tracing.GC_SPAN,
    "tuners.greedy_s": "tuners.greedy",
    "tuners.tune_self_s": "tuners.tune",
    "budget.admits_s": "budget.admits",
    "budget.checkpoint_s": "budget.checkpoint",
    "optimizer.prepare_s": "optimizer.prepare",
    "optimizer.prefetch_s": "optimizer.prefetch",
    "optimizer.whatif_cost_s": "optimizer.whatif_cost",
    "optimizer.trial_cost_s": "optimizer.trial_cost",
    "optimizer.derived_s": "optimizer.derived",
    "backend.price_s": "backend.price",
    "backend.cache_load_s": "backend.cache_load",
    "backend.cache_flush_s": "backend.cache_flush",
}

#: Per-layer call counts: metric -> span whose calls it counts.
CALL_METRICS = {
    "core.select_calls": "core.select",
    "core.nodes": "core.node_create",
    "core.actions_calls": "core.actions",
    "tuners.greedy_calls": "tuners.greedy",
    "budget.admits_calls": "budget.admits",
    "budget.checkpoints": "budget.checkpoint",
    "optimizer.prepared_queries": "optimizer.prepare",
    "optimizer.prefetch_calls": "optimizer.prefetch",
    "optimizer.whatif_cost_calls": "optimizer.whatif_cost",
    "optimizer.trial_cost_calls": "optimizer.trial_cost",
    "optimizer.derived_calls": "optimizer.derived",
    "backend.evaluations": "backend.price",
    "runtime.gc_collections": tracing.GC_SPAN + ".collections",
}

#: Spans timed during set-up rather than inside the session.
SETUP_SPANS = ("workload.build", "workload.candidates")

#: Count metrics that need no tracing (events, WhatIfStats, the tuner).
OUTCOME_METRICS = (
    "workload.candidates",
    "core.episodes",
    "core.charged_episode_ratio",
    "budget.denials",
    "budget.grant_ratio",
    "optimizer.counted_calls",
    "optimizer.hit_rate",
    "optimizer.normalized_hits",
    "backend.recalls",
    "backend.recall_rate",
    "backend.cache_bytes_written",
)

#: Collection counts follow allocation history, which the first session
#: of a process does not share with later ones; every other count repeats.
_UNSTABLE_COUNTS = ("runtime.gc_collections",)

_RATIOS = (
    "core.charged_episode_ratio",
    "budget.grant_ratio",
    "optimizer.hit_rate",
    "backend.recall_rate",
)
#: Per-layer units; every other per-layer metric is a count.
UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "ratio" for name in _RATIOS},
    "backend.cache_bytes_written": "bytes",
    "runtime.trace_overhead_pct": "%",
}

PER_LAYER = (
    tuple(TIME_METRICS) + tuple(CALL_METRICS) + OUTCOME_METRICS + ("runtime.trace_overhead_pct",)
)
END_TO_END = {
    "session_s": "s",
    "whatif_calls_per_s": "1/s",
    "setup_s": "s",
    "improvement_pct": "%",
    "peak_rss_mb": "MB",
}


@dataclass
class Session:
    """What one session measured."""

    setup_s: float
    session_s: float
    improvement: float
    outcome: dict
    counts: dict[str, float]
    problems: list[str] = field(default_factory=list)
    setup_tally: dict = field(default_factory=dict)
    tally: dict = field(default_factory=dict)
    #: ``perf_counter()`` at the start of the set-up and the end of the session.
    window: tuple[float, float] = (0.0, 0.0)
    #: Host slowdown over ``window`` (see :mod:`hostspeed`).
    slowdown: float = 1.0


class Runner:
    """Runs one workload's sessions for a given workload seed."""

    def __init__(self, spec: WorkloadSpec, seed: int, work_dir: Path):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self._golden: Path | None = None
        self._session_cache: Path | None = None
        self._ordinal = 0

    # -- cost store ----------------------------------------------------- #

    def prefill(self) -> None:
        """Fill the persistent what-if cache the timed sessions start from."""
        if self.spec.prefill_budget is None:
            return
        self._golden = self.work_dir / "golden"
        self._session_cache = self.work_dir / "session"
        workload = self.spec.build(self.seed)
        candidates = CandidateGenerator(workload.schema).for_workload(workload)
        result = self.spec.tuner(self.seed).tune(
            workload,
            self.spec.prefill_budget,
            self.spec.constraints(workload),
            candidates=candidates,
            optimizer_config=self._config(self._golden),
        )
        result.optimizer.close()

    def _config(self, cache: Path | None) -> ReproConfig:
        # Explicit rather than from the environment: one pricing thread, no
        # pool, no sanitizers, whatever REPRO_* the caller has set.
        return ReproConfig(
            budget_policy=self.spec.budget_policy,
            whatif_cache=str(cache) if cache is not None else None,
        )

    def _fresh_cache(self) -> Path | None:
        if self._golden is None:
            return None
        shutil.rmtree(self._session_cache, ignore_errors=True)
        shutil.copytree(self._golden, self._session_cache)
        return self._session_cache

    # -- one session ---------------------------------------------------- #

    def session(self, tracer: tracing.Tracer | None) -> Session:
        spec = self.spec
        self._ordinal += 1
        cache = self._fresh_cache()
        cache_bytes = _dir_bytes(cache)
        # Every session starts from a collected heap, as a fresh process would.
        gc.collect()

        if tracer is not None:
            tracer.begin_session(self._ordinal)
        began = start = perf_counter()
        with tracer.span("workload.build") if tracer is not None else nullcontext():
            workload = spec.build(self.seed)
        candidates = CandidateGenerator(workload.schema).for_workload(workload)
        setup_s = perf_counter() - start
        setup_tally = tracer.end_session() if tracer is not None else {}

        tuner = spec.tuner(self.seed)
        constraints = spec.constraints(workload)
        config = self._config(cache)
        if tracer is not None:
            tracer.begin_session(self._ordinal)
        start = perf_counter()
        result = tuner.tune(
            workload, spec.budget, constraints, candidates=candidates, optimizer_config=config
        )
        result.optimizer.close()
        ended = perf_counter()
        session_s = ended - start
        tally = tracer.end_session() if tracer is not None else {}

        # Read the session's counts first: true_improvement() prices the
        # ground truth through the same optimizer and cost store.
        counts = _outcome_counts(result, tuner, len(candidates), _dir_bytes(cache) - cache_bytes)
        stats = result.optimizer.stats.as_dict()
        improvement = result.true_improvement()
        problems = _check(spec, result, constraints, counts)
        return Session(
            setup_s=setup_s,
            session_s=session_s,
            improvement=improvement,
            outcome=_signature(result, improvement, counts, stats),
            counts=counts,
            problems=problems,
            setup_tally=setup_tally,
            tally=tally,
            window=(began, ended),
        )

    def loop(self, seconds: float, sessions: int | None, tracer=None) -> tuple[list, int]:
        """Run sessions for ``seconds`` (or exactly ``sessions``).

        A new session starts only while a typical one still fits in the
        time left, so a run measures about ``seconds`` and never much more.
        The host is sampled throughout (:mod:`hostspeed`). Returns the
        completed sessions and the number that raised.
        """
        done: list[Session] = []
        raised = 0
        lengths: list[float] = []
        start = perf_counter()
        with hostspeed.Sampler() as sampler:
            while True:
                began = perf_counter()
                try:
                    done.append(self.session(tracer))
                except Exception:
                    # A session that raises is a failed session, not a failed run.
                    raised += 1
                    traceback.print_exc(file=sys.stdout)
                    if tracer is not None and tracer.active:
                        tracer.end_session()
                lengths.append(perf_counter() - began)
                attempted = len(lengths)
                if sessions is not None:
                    if attempted >= sessions:
                        break
                elif perf_counter() - start + statistics.median(lengths) > seconds:
                    break
        for s in done:
            s.slowdown = sampler.slowdown(*s.window)
        return done, raised


def _dir_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


def _outcome_counts(result, tuner, candidates: int, bytes_written: int) -> dict[str, float]:
    """Count metrics read from the event stream, WhatIfStats and the tuner."""
    kinds = Counter(event.kind for event in result.events)
    grants, denials = kinds["budget_grant"], kinds["budget_deny"]
    stats = result.optimizer.stats
    search = getattr(tuner, "last_search", None)
    episodes = search.episodes if search is not None else 0
    charged = 0
    phase = None
    for event in result.events:
        if event.kind == "phase":
            phase = event.payload.get("name")
        elif event.kind == "whatif_call" and phase == "episodes":
            charged += 1
    return {
        "workload.candidates": candidates,
        "core.episodes": episodes,
        "core.charged_episode_ratio": charged / episodes if episodes else 0.0,
        "budget.denials": denials,
        "budget.grant_ratio": grants / (grants + denials) if grants + denials else 0.0,
        "optimizer.counted_calls": result.calls_used,
        "optimizer.hit_rate": stats.hit_rate,
        "optimizer.normalized_hits": stats.normalized_hits,
        "backend.recalls": stats.persistent_hits,
        "backend.recall_rate": (
            stats.persistent_hits / stats.cost_evaluations if stats.cost_evaluations else 0.0
        ),
        "backend.cache_bytes_written": bytes_written,
    }


def _check(spec: WorkloadSpec, result, constraints, counts) -> list[str]:
    """The output checks; any problem fails the session."""
    problems = []
    if result.calls_used > spec.budget:
        problems.append(f"calls_used {result.calls_used} exceeds B={spec.budget}")
    if len(result.configuration) > spec.max_indexes:
        problems.append(f"|C|={len(result.configuration)} exceeds K={spec.max_indexes}")
    cap = constraints.max_storage_bytes
    if cap is not None:
        used = sum(index.estimated_size_bytes for index in result.configuration)
        if used > cap:
            problems.append(f"recommendation uses {used} bytes over the cap {cap}")
    try:
        EventStreamValidator.validate(result.events, budget=spec.budget)
    except InvariantViolationError as exc:
        problems.append(f"event stream invalid: {exc}")
    if spec.prefill_budget is not None and counts["backend.recalls"] <= 0:
        problems.append("no pricing was recalled from the pre-filled cache")
    return problems


def _signature(result, improvement: float, counts: dict, stats: dict) -> dict:
    """Everything about a session's outcome that must repeat exactly."""
    stats.pop("cost_seconds")
    return {
        "improvement": improvement,
        "configuration": sorted(index.display() for index in result.configuration),
        "events": sorted(Counter(event.kind for event in result.events).items()),
        "stats": stats,
        "counts": counts,
    }


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #


def _at_host_speed(sessions: list[Session], attr: str) -> float:
    """Median over ``sessions`` of a wall time divided by the session's slowdown."""
    return statistics.median(getattr(s, attr) / s.slowdown for s in sessions)


def end_to_end(sessions: list[Session]) -> dict[str, float]:
    session_s = _at_host_speed(sessions, "session_s")
    return {
        "session_s": session_s,
        # Counted calls are part of the outcome every session must repeat.
        "whatif_calls_per_s": sessions[0].counts["optimizer.counted_calls"] / session_s,
        "setup_s": _at_host_speed(sessions, "setup_s"),
        # The sessions' improvements are checked identical, so the median is
        # exact; a mean rounds differently with the number of sessions.
        "improvement_pct": statistics.median(s.improvement for s in sessions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _tally(session: Session, span: str) -> tuple[int, int]:
    """``(self ns, calls)`` of ``span`` in one session, set-up spans included."""
    tally = session.setup_tally if span in SETUP_SPANS else session.tally
    return tally.get(span, (0, 0))


def per_layer(traced: list[Session], untraced: list[Session]) -> tuple[dict, list[str]]:
    """Per-layer metrics (means over traced sessions, times at host speed)
    and consistency problems."""
    problems: list[str] = []
    n = len(traced)
    values: dict[str, float] = {}
    for metric, span in TIME_METRICS.items():
        values[metric] = sum(_tally(s, span)[0] / s.slowdown for s in traced) / n / 1e9
    per_session: dict[str, list[float]] = {}
    for metric, span in CALL_METRICS.items():
        per_session[metric] = [_tally(s, span)[1] for s in traced]
    for metric in OUTCOME_METRICS:
        per_session[metric] = [s.counts[metric] for s in traced]
    for metric, observed in per_session.items():
        values[metric] = statistics.fmean(observed)
        if metric not in _UNSTABLE_COUNTS and len(set(observed)) > 1:
            problems.append(f"{metric} differs between traced sessions: {observed}")
    for s in traced:
        layered = sum(ns for ns, _ in s.tally.values()) / 1e9
        if abs(layered - s.session_s) > 0.01 * s.session_s + 0.002:
            problems.append(
                f"layer self-times sum to {layered:.4f} s, session took {s.session_s:.4f} s"
            )
    ratio = _at_host_speed(traced, "session_s") / _at_host_speed(untraced, "session_s")
    values["runtime.trace_overhead_pct"] = (ratio - 1.0) * 100.0
    return values, problems


def run(spec: WorkloadSpec, seed: int, seconds: float, trace: bool, work_dir: Path,
        sessions: int | None = None) -> dict:
    """Run one workload; returns the result object the benchmark prints.

    With ``sessions`` set, each loop runs exactly that many sessions
    instead of filling ``seconds`` (the smoke setting).
    """
    runner = Runner(spec, seed, work_dir)
    runner.prefill()
    share = seconds / 2 if trace else seconds
    untraced, raised = runner.loop(share, sessions)
    traced: list[Session] = []
    problems: list[str] = []
    if trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced, traced_raised = runner.loop(share, sessions, tracer)
        finally:
            tracing.uninstall(tracer, restore)
        raised += traced_raised
        spans = tracer.write_spans(work_dir.parent / f"spans-{spec.name}-seed{seed}.jsonl")
        print(f"sessionbench: wrote {spans} spans", flush=True)

    everything = untraced + traced
    failed = raised + sum(1 for s in everything if s.problems)
    for s in everything:
        for problem in s.problems:
            print(f"check failed: {problem}", flush=True)
    if everything:
        reference = everything[0].outcome
        mismatched = [s for s in everything[1:] if s.outcome != reference]
        for s in mismatched:
            if not s.problems:
                failed += 1
            print("check failed: session outcome differs from the first session's", flush=True)

    metrics: dict[str, float] = {}
    if trace and traced and untraced:
        metrics, problems = per_layer(traced, untraced)
    elif not trace and untraced:
        metrics = end_to_end(untraced)
    for problem in problems:
        print(f"check failed: {problem}", flush=True)
    attempted = len(everything) + raised
    complete = set(metrics) == set(PER_LAYER if trace else END_TO_END)
    _report(spec, seed, untraced, traced, attempted, failed)
    units = UNITS if trace else END_TO_END
    return {
        "correct": failed == 0 and not problems and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "count")}
            for name, value in metrics.items()
        },
    }


def _report(spec, seed, untraced, traced, attempted, failed) -> None:
    """Human-readable lines ahead of the result (sample counts, spread)."""
    for label, group in (("untraced", untraced), ("traced", traced)):
        if not group:
            continue
        times = sorted(s.session_s for s in group)
        setups = sorted(s.setup_s for s in group)
        slowdowns = sorted(s.slowdown for s in group)
        fastest = min(s.session_s / s.slowdown for s in group)
        print(
            f"sessionbench: {spec.name} seed={seed} {label}: {len(group)} sessions, "
            f"wall session_s median {statistics.median(times):.4f} "
            f"[min {times[0]:.4f}, max {times[-1]:.4f}], "
            f"wall setup_s median {statistics.median(setups):.4f} "
            f"[min {setups[0]:.4f}, max {setups[-1]:.4f}], "
            f"host slowdown [{slowdowns[0]:.3f}, {slowdowns[-1]:.3f}], "
            f"at host speed: session_s {_at_host_speed(group, 'session_s'):.4f} "
            f"(fastest {fastest:.4f}), setup_s {_at_host_speed(group, 'setup_s'):.4f}, "
            f"improvement {group[0].improvement:.4f}%",
            flush=True,
        )
    print(
        f"sessionbench: failure_rate {failed / attempted:.4f} ({failed} of {attempted} sessions)",
        flush=True,
    )
