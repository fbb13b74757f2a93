"""Record → replay: a ``--whatif-cache`` shard replays its session bit-identically.

A session is recorded by running it with a persistent what-if cache; the
replay backend serves the same session from that shard alone, with zero
cost-model invocations, and never writes the file.
"""

from __future__ import annotations

import json

import pytest

from repro.backend import BackendSpec, ReplayBackend, build_backend
from repro.backend.cache import PersistentWhatIfCache, workload_fingerprint
from repro.exceptions import TraceError, TraceMissError, TuningError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners import MCTSTuner, VanillaGreedyTuner
from repro.workload.suites.real import real_d_workload


def _tune(workload, backend_spec, tuner):
    return tuner.tune(workload, budget=60, backend=backend_spec)


def _recorder(workload, tmp_path, name="analytic", budget=None, **spec):
    """A backend recording into a fresh cache directory."""
    spec = BackendSpec(name=name, whatif_cache=str(tmp_path / "pcache"), **spec)
    return build_backend(spec, workload, budget=budget)


def _replayer(workload, shard, budget=None, **spec):
    spec = BackendSpec(name="replay", trace_path=str(shard), **spec)
    return build_backend(spec, workload, budget=budget)


def _no_cost_model(monkeypatch):
    def boom(self, prepared, key):  # pragma: no cover - must never run
        raise AssertionError("replay must not invoke the cost model")

    monkeypatch.setattr(CostModel, "cost", boom)


@pytest.fixture(
    params=[
        ("greedy", lambda: VanillaGreedyTuner()),
        ("mcts", lambda: MCTSTuner(seed=0)),
    ],
    ids=lambda p: p[0],
)
def tuner_factory(request):
    return request.param[1]


def test_replay_reproduces_the_session_without_the_cost_model(
    tmp_path, toy_workload, tuner_factory, monkeypatch
):
    recorded = _tune(
        toy_workload,
        BackendSpec(name="analytic", whatif_cache=str(tmp_path / "pcache")),
        tuner_factory(),
    )
    recorded_improvement = recorded.true_improvement()
    # Close only after the ground-truth evaluation so the shard also holds
    # the uncounted pricings a replayed session will need.
    recorded.optimizer.close()
    shard = recorded.optimizer.whatif_shard

    _no_cost_model(monkeypatch)
    replayed = _tune(
        toy_workload, BackendSpec(name="replay", trace_path=str(shard)), tuner_factory()
    )

    assert replayed.configuration == recorded.configuration
    assert replayed.estimated_cost == recorded.estimated_cost
    assert replayed.baseline_cost == recorded.baseline_cost
    assert replayed.calls_used == recorded.calls_used
    assert replayed.true_improvement() == recorded_improvement
    assert [
        (c.ordinal, c.qid, c.configuration, c.cost)
        for c in replayed.optimizer.call_log
    ] == [
        (c.ordinal, c.qid, c.configuration, c.cost)
        for c in recorded.optimizer.call_log
    ]
    stats = replayed.optimizer.stats
    assert stats.persistent_hits == stats.cost_evaluations > 0


def test_replay_rejects_a_foreign_workload(tmp_path, toy_workload, figure3_workload):
    recorder = _recorder(toy_workload, tmp_path)
    recorder.empty_workload_cost()
    recorder.close()
    with pytest.raises(TraceError, match="workload"):
        _replayer(figure3_workload, recorder.whatif_shard)


def test_replay_rejects_the_same_workload_over_another_database(tmp_path):
    """Name and query count agree; the catalog statistics do not."""
    small, large = real_d_workload(num_tables=40), real_d_workload(num_tables=60)
    assert small.name == large.name and len(small) == len(large)
    assert workload_fingerprint(small) != workload_fingerprint(large)
    recorder = _recorder(small, tmp_path)
    recorder.empty_workload_cost()
    recorder.close()
    with pytest.raises(TraceError, match="workload 'real_d'"):
        _replayer(large, recorder.whatif_shard)


def test_replay_misses_raise_with_the_pair(tmp_path, toy_workload, toy_candidates):
    recorder = _recorder(toy_workload, tmp_path)
    recorder.empty_workload_cost()
    recorder.close()

    replayer = _replayer(toy_workload, recorder.whatif_shard)
    query = toy_workload.queries[0]
    with pytest.raises(TraceMissError) as excinfo:
        for config in (frozenset([ix]) for ix in toy_candidates):
            replayer.whatif_cost(query, config)
    assert excinfo.value.qid == query.qid
    assert excinfo.value.key


def test_trace_file_layout(tmp_path, toy_workload, counting_pairs):
    recorder = _recorder(toy_workload, tmp_path)
    for query, config in counting_pairs[:3]:
        recorder.whatif_cost(query, config)
    recorder.close()

    lines = [json.loads(line) for line in recorder.whatif_shard.read_text().splitlines()]
    header = lines[0]
    assert header["type"] == "header"
    assert header["identity"]["workload"] == workload_fingerprint(toy_workload)
    assert [line["type"] for line in lines[1:]] == ["cost"] * 3
    opened = PersistentWhatIfCache.open_shard(recorder.whatif_shard)
    assert opened.identity == header["identity"]
    assert len(opened) == 3


def test_record_requires_a_trace_path(toy_workload):
    # Recording is a run with --whatif-cache; only replay takes a path,
    # and it is checked when the backend is built: the trace may come from
    # a flag applied after the environment selected replay.
    with pytest.raises(TuningError, match="unknown backend 'record'"):
        BackendSpec(name="record")
    with pytest.raises(TuningError, match="trace path"):
        build_backend(BackendSpec(name="replay"), toy_workload)


def test_replay_prices_serially_at_any_job_count(
    tmp_path, toy_workload, toy_candidates, monkeypatch
):
    """A concurrent wave would look up pairs past the recording's budget."""
    pairs = [
        (query, frozenset([ix])) for ix in toy_candidates for query in toy_workload
    ]
    monkeypatch.setattr(WhatIfOptimizer, "pricing_jobs", 1)
    recorder = _recorder(toy_workload, tmp_path, budget=5)
    assert recorder.whatif_prefetch(pairs) == 5
    recorder.close()

    monkeypatch.setattr(WhatIfOptimizer, "pricing_jobs", 2)
    replayer = _replayer(toy_workload, recorder.whatif_shard, budget=5)
    assert isinstance(replayer, ReplayBackend)
    assert replayer.whatif_prefetch(pairs) == 5
    assert replayer.call_log == recorder.call_log


# --------------------------------------------------------------------- #
# faults: replay never writes, and a damaged shard serves what it can
# --------------------------------------------------------------------- #


def test_closing_after_a_miss_leaves_the_shard_unchanged(
    tmp_path, toy_workload, toy_candidates
):
    recorder = _recorder(toy_workload, tmp_path)
    recorder.empty_workload_cost()
    recorder.close()
    shard = recorder.whatif_shard
    before = shard.read_bytes()

    replayer = _replayer(toy_workload, shard)
    with pytest.raises(TraceMissError):
        replayer.whatif_cost(toy_workload.queries[0], frozenset(toy_candidates[:1]))
    replayer.close()
    assert shard.read_bytes() == before


def test_a_torn_last_line_misses_only_its_pair(tmp_path, toy_workload, monkeypatch):
    recorder = _recorder(toy_workload, tmp_path)
    recorder.empty_workload_cost()
    recorder.close()
    shard = recorder.whatif_shard
    text = shard.read_text(encoding="utf-8")
    torn_qid = json.loads(text.splitlines()[-1])["qid"]
    shard.write_text(text[: text.rindex('"qid"')], encoding="utf-8")
    torn = shard.read_bytes()

    _no_cost_model(monkeypatch)
    replayer = _replayer(toy_workload, shard)
    served, missed = [], []
    for query in toy_workload:
        try:
            assert replayer.empty_cost(query) == recorder.empty_cost(query)
            served.append(query.qid)
        except TraceMissError as exc:
            missed.append(exc.qid)
    replayer.close()
    assert missed == [torn_qid]
    assert len(served) == len(toy_workload) - 1
    assert shard.read_bytes() == torn


def test_open_shard_requires_a_readable_file_with_a_header(tmp_path, toy_workload):
    with pytest.raises(TraceError, match="cannot read"):
        PersistentWhatIfCache.open_shard(tmp_path / "missing.jsonl")

    recorder = _recorder(toy_workload, tmp_path)
    recorder.empty_workload_cost()
    recorder.close()
    headless = tmp_path / "headless.jsonl"
    headless.write_text(
        "".join(recorder.whatif_shard.read_text().splitlines(keepends=True)[1:])
    )
    with pytest.raises(TraceError, match="header"):
        PersistentWhatIfCache.open_shard(headless)
    with pytest.raises(TraceError, match="header"):
        _replayer(toy_workload, headless)


def test_replay_refuses_a_noisy_shard(tmp_path, toy_workload):
    recorder = _recorder(toy_workload, tmp_path, name="noisy", noise=0.2)
    recorder.empty_workload_cost()
    recorder.close()
    with pytest.raises(TraceError, match="noisy"):
        _replayer(toy_workload, recorder.whatif_shard)


def test_replay_refuses_a_whole_key_shard(tmp_path, toy_workload, toy_candidates):
    """Keys are always normalized, so a shard whose header records whole
    keys cannot be replayed."""
    identity = {**WhatIfOptimizer(toy_workload).cache_identity(), "normalize_cache": False}
    shard = PersistentWhatIfCache(tmp_path, identity)
    _, entry = shard.lookup(toy_workload.queries[0].qid, frozenset(toy_candidates[:1]))
    shard.put_entry(entry, 1.0)
    assert shard.flush() == 1
    assert PersistentWhatIfCache.open_shard(shard.path).identity == identity
    with pytest.raises(TraceError, match="whole-key"):
        _replayer(toy_workload, shard.path)
