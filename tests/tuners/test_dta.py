"""DTA simulation tests."""

import random

from repro.config import TuningConstraints
from repro.tuners import DTATuner
from repro.tuners.dta import merge_indexes


class TestIndexMerging:
    def test_same_key_prefix_merged(self, star_schema):
        from repro.catalog import Index

        fact = star_schema.table("fact")
        a = Index.build(fact, ["fk1"], ["val"])
        b = Index.build(fact, ["fk1"], ["cat"])
        merged = merge_indexes([a, b], star_schema)
        assert len(merged) == 1
        assert set(merged[0].include_columns) == {"val", "cat"}

    def test_different_keys_kept(self, star_schema):
        from repro.catalog import Index

        fact = star_schema.table("fact")
        a = Index.build(fact, ["fk1"])
        b = Index.build(fact, ["fk2"])
        assert len(merge_indexes([a, b], star_schema)) == 2

    def test_key_columns_never_included(self, star_schema):
        from repro.catalog import Index

        fact = star_schema.table("fact")
        a = Index.build(fact, ["fk1"], ["val"])
        b = Index.build(fact, ["fk1"], [])
        merged = merge_indexes([a, b], star_schema)
        assert "fk1" not in merged[0].include_columns

    def test_built_map_keeps_unchanged_groups(self, star_schema):
        from repro.catalog import Index

        fact = star_schema.table("fact")
        a = Index.build(fact, ["fk1"], ["val"])
        b = Index.build(fact, ["fk2"])
        c = Index.build(fact, ["fk2"], ["cat"])
        built = {}
        first = merge_indexes([a, b], star_schema, built)
        second = merge_indexes([a, b, c], star_schema, built)
        assert second[0] is first[0]  # the fk1 group did not change
        assert second[1] is not first[1]  # the fk2 group gained a payload
        assert second == merge_indexes([a, b, c], star_schema)
        assert [repr(ix) for ix in second] == [
            repr(ix) for ix in merge_indexes([a, b, c], star_schema)
        ]


class TestDTA:
    def test_respects_budget_and_cardinality(self, toy_workload, toy_candidates):
        result = DTATuner().tune(
            toy_workload,
            budget=60,
            constraints=TuningConstraints(max_indexes=4),
            candidates=toy_candidates,
        )
        assert result.calls_used <= 60
        assert len(result.configuration) <= 4

    def test_anytime_history(self, toy_workload, toy_candidates):
        """A recommendation exists after every time slice."""
        result = DTATuner(slice_queries=2).tune(
            toy_workload, budget=200, candidates=toy_candidates
        )
        assert len(result.history) >= 2

    def test_finds_improvement_with_budget(self, toy_workload, toy_candidates):
        result = DTATuner().tune(
            toy_workload, budget=300, candidates=toy_candidates
        )
        assert result.true_improvement() > 0.0

    def test_merging_disabled_still_runs(self, toy_workload, toy_candidates):
        result = DTATuner(merging=False).tune(
            toy_workload, budget=100, candidates=toy_candidates
        )
        assert result.calls_used <= 100

    def test_storage_constraint(self, toy_workload, toy_candidates):
        cap = 3 * min(ix.estimated_size_bytes for ix in toy_candidates)
        result = DTATuner().tune(
            toy_workload,
            budget=200,
            constraints=TuningConstraints(max_indexes=10, max_storage_bytes=cap),
            candidates=toy_candidates,
        )
        used = sum(ix.estimated_size_bytes for ix in result.configuration)
        assert used <= cap

    def test_priority_queue_tunes_costly_queries_first(self, toy_workload, toy_candidates):
        result = DTATuner(slice_queries=1).tune(
            toy_workload, budget=30, candidates=toy_candidates
        )
        optimizer = result.optimizer
        costs = {q.qid: optimizer.empty_cost(q) for q in toy_workload}
        most_expensive = max(costs, key=costs.get)
        first_qids = {entry.qid for entry in optimizer.call_log[:5]}
        assert most_expensive in first_qids


class TestMergeDeterminism:
    """The merge pass sorts its key space (REP004 discipline), so its output
    — and everything downstream — cannot depend on pool arrival order."""

    def test_merge_stable_under_shuffles(self, star_schema, toy_candidates):
        reference = merge_indexes(list(toy_candidates), star_schema)
        for seed in range(5):
            shuffled = list(toy_candidates)
            random.Random(seed).shuffle(shuffled)
            assert merge_indexes(shuffled, star_schema) == reference

    def test_dta_run_is_seed_stable(self, toy_workload, toy_candidates):
        """Two identical runs produce bit-identical outcomes and layouts."""

        def run():
            return DTATuner(slice_queries=2).tune(
                toy_workload,
                budget=120,
                constraints=TuningConstraints(max_indexes=5),
                candidates=list(toy_candidates),
            )

        first, second = run(), run()
        assert first.configuration == second.configuration
        assert first.calls_used == second.calls_used
        assert first.estimated_cost == second.estimated_cost
        assert [
            (c.ordinal, c.qid, c.configuration, c.cost)
            for c in first.optimizer.call_log
        ] == [
            (c.ordinal, c.qid, c.configuration, c.cost)
            for c in second.optimizer.call_log
        ]


class TestMergeAcrossSlices:
    """DTA keeps one merge map per run: a merged index whose group did not
    change between two slices is the same object in both."""

    def test_unchanged_groups_keep_their_objects(
        self, monkeypatch, toy_workload, toy_candidates
    ):
        from repro.catalog import index_sort_key
        from repro.tuners import dta

        passes = []
        original = dta.merge_indexes

        def recording(pool, schema, *args):
            merged = original(pool, schema, *args)
            passes.append(merged)
            return merged

        monkeypatch.setattr(dta, "merge_indexes", recording)
        DTATuner(slice_queries=2).tune(
            toy_workload,
            120,
            TuningConstraints(max_indexes=5),
            candidates=list(toy_candidates),
        )
        assert len(passes) > 1
        shared = 0
        for before, after in zip(passes, passes[1:]):
            earlier = {index_sort_key(index): index for index in before}
            for index in after:
                same = earlier.get(index_sort_key(index))
                if same is not None:
                    assert same is index
                    shared += 1
        assert shared


class TestShardKeysBuiltOnce:
    """A pricing builds its persistent-cache shard key once: one call of
    the engine's key builder per lookup (a fresh pricing is stored under
    the key its missed lookup built), on a cold and on a warm run of the
    pinned Real-D session, whose shard stays byte-identical. The builder
    reads display strings per index position; every key it builds equals
    ``canonical_key`` of the pair's configuration."""

    def test_one_key_per_lookup(self, tmp_path, monkeypatch):
        import hashlib

        from repro.backend.cache import canonical_key
        from repro.config import ReproConfig
        from repro.optimizer.derivation import mask_positions
        from repro.optimizer.whatif import WhatIfOptimizer
        from repro.workload.suites.real import real_d_workload

        built = []
        original = WhatIfOptimizer._shard_key

        def counting(self, norm, members=None):
            # The engine hands over the positions it computed once.
            assert members == mask_positions(norm)
            key = original(self, norm, members)
            assert key == canonical_key(self._configuration(norm))
            built.append(key)
            return key

        monkeypatch.setattr(WhatIfOptimizer, "_shard_key", counting)

        def session():
            workload = real_d_workload(num_tables=791)
            cap = 3 * workload.schema.total_size_bytes
            built.clear()
            result = DTATuner().tune(
                workload,
                5000,
                TuningConstraints(max_indexes=20, max_storage_bytes=cap),
                optimizer_config=ReproConfig(
                    budget_policy="wii", whatif_cache=str(tmp_path)
                ),
            )
            result.optimizer.close()
            (shard,) = tmp_path.glob("whatif-*.jsonl")
            digest = hashlib.sha256(shard.read_bytes()).hexdigest()
            return result.optimizer.stats, len(built), digest

        cold, cold_keys, cold_digest = session()
        assert cold.persistent_hits == 0
        assert cold_keys == cold.cost_evaluations == 5032
        assert cold_digest == PINNED_REAL_D_SHARD
        warm, warm_keys, warm_digest = session()
        assert warm_keys == warm.persistent_hits == warm.cost_evaluations == 5032
        assert warm_digest == PINNED_REAL_D_SHARD


class TestRealDSessionPin:
    """DTA on Real-D (791 tables) under Wii and a storage cap, recording a
    what-if cache shard: the engine's heaviest workload, pinned to the values
    the frozenset-keyed what-if engine produced."""

    def test_real_d_session_is_pinned(self, tmp_path, session_summary):
        import hashlib

        from repro.config import ReproConfig
        from repro.workload.suites.real import real_d_workload

        workload = real_d_workload(num_tables=791)
        cap = 3 * workload.schema.total_size_bytes
        result = DTATuner().tune(
            workload,
            5000,
            TuningConstraints(max_indexes=20, max_storage_bytes=cap),
            optimizer_config=ReproConfig(budget_policy="wii", whatif_cache=str(tmp_path)),
        )
        summary = session_summary(result)
        improvement = result.true_improvement()
        result.optimizer.close()
        (shard,) = tmp_path.glob("whatif-*.jsonl")
        assert summary == PINNED_REAL_D
        assert improvement == PINNED_REAL_D_IMPROVEMENT
        assert hashlib.sha256(shard.read_bytes()).hexdigest() == PINNED_REAL_D_SHARD


PINNED_REAL_D = {
    "call_log": "9aeeafe81e42dc6656820620d10cb77688acd74872a07a9c19f86e2c307ebd02",
    "calls_used": 5000,
    "configuration": [
        "t00000(a2) INCLUDE (id)",
        "t00000(id) INCLUDE (a1)",
        "t00001(id)",
        "t00002(fk_t00000) INCLUDE (id)",
        "t00002(id) INCLUDE (fk_t00000)",
        "t00004(id) INCLUDE (a0)",
        "t00026(fk_t00002) INCLUDE (id)",
        "t00038(fk_t00001) INCLUDE (id)",
        "t00090(fk_t00001) INCLUDE (id)",
        "t00090(fk_t00002) INCLUDE (a0, id)",
        "t00090(id)",
        "t00161(fk_t00002) INCLUDE (a5)",
        "t00161(id) INCLUDE (fk_t00002)",
        "t00234(fk_t00091) INCLUDE (a1, a2)",
        "t00414(id)",
        "t00424(fk_t00002)",
        "t00461(id)",
        "t00486(fk_t00095) INCLUDE (fk_t00001, id)",
        "t00721(id)",
        "t00770(id)"
    ],
    "events": {
        "budget_deny": 24,
        "budget_grant": 5000,
        "checkpoint": 14,
        "phase": 14,
        "whatif_call": 5000
    },
    "stats": {
        "batch_calls": 397,
        "batched_pairs": 5000,
        "cache_hits": 71727,
        "cache_misses": 5000,
        "cost_evaluations": 5032,
        "normalized_hits": 61753,
        "persistent_hits": 0,
        "speculation_wasted": 0,
        "speculative_priced": 0
    }
}
PINNED_REAL_D_IMPROVEMENT = 84.04217997810758
PINNED_REAL_D_SHARD = (
    "d264551479b3f061be2b3598cf97dc136b325bd4dacec4c63279d59514c24a22"
)


class TestRealDStoragePin:
    """The Real-D session with a storage cap that binds: 0.2× the database
    size rejects 7,151 of 30,396 greedy trials, so the storage test of the
    greedy step is pinned (the 3× cap above rejects none)."""

    def test_real_d_storage_session_is_pinned(self, tmp_path, session_summary):
        import hashlib

        from repro.config import ReproConfig
        from repro.workload.suites.real import real_d_workload

        workload = real_d_workload(num_tables=791)
        cap = int(0.2 * workload.schema.total_size_bytes)
        result = DTATuner().tune(
            workload,
            5000,
            TuningConstraints(max_indexes=20, max_storage_bytes=cap),
            optimizer_config=ReproConfig(budget_policy="wii", whatif_cache=str(tmp_path)),
        )
        summary = session_summary(result)
        improvement = result.true_improvement()
        result.optimizer.close()
        (shard,) = tmp_path.glob("whatif-*.jsonl")
        assert summary == PINNED_REAL_D_STORAGE
        assert improvement == PINNED_REAL_D_STORAGE_IMPROVEMENT
        assert hashlib.sha256(shard.read_bytes()).hexdigest() == PINNED_REAL_D_STORAGE_SHARD
        assert sum(index.estimated_size_bytes for index in result.configuration) <= cap


PINNED_REAL_D_STORAGE = {
    "call_log": "e2f5fb16332eccefd9cf8f3e2cca1a810dd77d595d828c16df3c8ca28f549e45",
    "calls_used": 5000,
    "configuration": [
        "t00000(id) INCLUDE (a1)",
        "t00001(id)",
        "t00002(id) INCLUDE (fk_t00000)",
        "t00004(id) INCLUDE (a0)",
        "t00026(fk_t00002) INCLUDE (id)",
        "t00090(id)",
        "t00161(fk_t00002) INCLUDE (a5)",
        "t00161(id) INCLUDE (fk_t00002)",
        "t00316(fk_t00001)",
        "t00461(id)",
        "t00534(fk_t00002)",
        "t00561(fk_t00002)",
        "t00729(fk_t00002)",
        "t00762(fk_t00002)"
    ],
    "events": {
        "budget_deny": 14,
        "budget_grant": 5000,
        "checkpoint": 14,
        "phase": 14,
        "whatif_call": 5000
    },
    "stats": {
        "batch_calls": 383,
        "batched_pairs": 5000,
        "cache_hits": 36945,
        "cache_misses": 5000,
        "cost_evaluations": 5032,
        "normalized_hits": 26514,
        "persistent_hits": 0,
        "speculation_wasted": 0,
        "speculative_priced": 0
    }
}
PINNED_REAL_D_STORAGE_IMPROVEMENT = 76.32381591109502
PINNED_REAL_D_STORAGE_SHARD = (
    "94e416be4508a90bbed3c67748133692a501e71e94bc6b65a687915ad53c2200"
)
