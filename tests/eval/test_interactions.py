"""Index interaction analysis tests."""

import pytest

from repro.catalog import Index
from repro.eval.interactions import (
    format_interactions,
    pair_interaction,
    workload_interactions,
)
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.query import Query, Workload


class TestPairInteraction:
    def test_non_negative_under_monotone_model(self, toy_workload, toy_candidates):
        """doi >= 0 always: the pair can't be worse than its best member."""
        optimizer = WhatIfOptimizer(toy_workload)
        for a, b in zip(toy_candidates[:6], toy_candidates[6:12]):
            for query in toy_workload:
                assert pair_interaction(optimizer, query, a, b) >= -1e-9

    def test_synergy_detected(self, star_schema):
        """A probe index + the index filtering its outer side interact."""
        query = Query(
            qid="q",
            sql=(
                "SELECT fact.val FROM fact, dim1 "
                "WHERE fact.fk1 = dim1.id AND dim1.attr = 3"
            ),
        )
        workload = Workload(name="w", schema=star_schema, queries=[query])
        optimizer = WhatIfOptimizer(workload)
        probe = Index.build(star_schema.table("fact"), ["fk1"], ["val"])
        outer = Index.build(star_schema.table("dim1"), ["attr"], ["id"])
        degree = pair_interaction(optimizer, query, probe, outer)
        assert degree >= 0.0

    def test_redundant_pair_zero(self, star_schema):
        """Two indexes on tables the query never combines: no interaction."""
        query = Query(qid="q", sql="SELECT val FROM fact WHERE fk1 = 1")
        workload = Workload(name="w", schema=star_schema, queries=[query])
        optimizer = WhatIfOptimizer(workload)
        a = Index.build(star_schema.table("fact"), ["fk1"], ["val"])
        b = Index.build(star_schema.table("fact"), ["fk1", "cat"], ["val"])
        # Both serve the same seek; the pair is no better than the best one.
        assert pair_interaction(optimizer, query, a, b) == pytest.approx(0.0, abs=1e-9)


class TestWorkloadInteractions:
    def test_records_sorted_desc(self, toy_workload, toy_candidates):
        records = workload_interactions(toy_workload, toy_candidates[:10])
        degrees = [record.degree for record in records]
        assert degrees == sorted(degrees, reverse=True)

    def test_threshold_filters(self, toy_workload, toy_candidates):
        low = workload_interactions(toy_workload, toy_candidates[:10], threshold=1e-6)
        high = workload_interactions(toy_workload, toy_candidates[:10], threshold=0.5)
        assert len(high) <= len(low)

    def test_max_pairs_cap(self, toy_workload, toy_candidates):
        records = workload_interactions(
            toy_workload, toy_candidates, max_pairs=3
        )
        assert len(records) <= 3

    @pytest.mark.parametrize(
        "name,value", [("REPRO_BUDGET_POLICY", "bogus"), ("REPRO_SANITIZE", "maybe")]
    )
    def test_reads_no_setting(
        self, env_reads, monkeypatch, toy_workload, toy_candidates, name, value
    ):
        """A ground-truth analysis runs on the default settings, whatever the
        environment holds."""
        plain = workload_interactions(toy_workload, toy_candidates, threshold=1e-6)
        monkeypatch.setenv(name, value)
        assert plain
        assert workload_interactions(toy_workload, toy_candidates, threshold=1e-6) == plain
        assert env_reads == []

    def test_formatting(self, toy_workload, toy_candidates):
        records = workload_interactions(toy_workload, toy_candidates[:10])
        text = format_interactions(records)
        assert "pair" in text

    def test_formatting_empty(self):
        assert "no interactions" in format_interactions([])
