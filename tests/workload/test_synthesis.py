"""Workload synthesizer tests."""

import statistics

import pytest

from repro.exceptions import TuningError
from repro.workload.analysis import bind_query
from repro.workload.synthesis import SynthesisProfile, WorkloadSynthesizer


class TestProfileValidation:
    def test_rejects_zero_queries(self):
        with pytest.raises(TuningError):
            SynthesisProfile(num_queries=0)

    def test_rejects_inverted_join_range(self):
        with pytest.raises(TuningError):
            SynthesisProfile(min_joins=5, max_joins=2)

    def test_rejects_unknown_bias(self):
        with pytest.raises(TuningError):
            SynthesisProfile(start_table_bias="weird")

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_blowup_factor(self, factor):
        # A zero cap rejects every edge: each query would have no joins.
        with pytest.raises(TuningError, match="max_blowup_factor"):
            SynthesisProfile(min_joins=3, max_joins=5, max_blowup_factor=factor)

    @pytest.mark.parametrize(
        "name",
        [
            "equality_fraction",
            "aggregate_probability",
            "group_by_probability",
            "order_by_probability",
            "dim_filter_bias",
        ],
    )
    @pytest.mark.parametrize("value", [-0.2, 1.7, float("nan")])
    def test_rejects_fraction_outside_unit_interval(self, name, value):
        with pytest.raises(TuningError, match=name):
            SynthesisProfile(**{name: value})

    @pytest.mark.parametrize("name", ["equality_fraction", "dim_filter_bias"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_accepts_unit_interval_bounds(self, name, value):
        assert getattr(SynthesisProfile(**{name: value}), name) == value

    @pytest.mark.parametrize("mean", [-3, -0.5, float("nan")])
    def test_rejects_negative_filters_per_query(self, mean):
        with pytest.raises(TuningError, match="filters_per_query"):
            SynthesisProfile(filters_per_query=mean)

    def test_accepts_zero_filters_per_query(self):
        assert SynthesisProfile(filters_per_query=0).filters_per_query == 0

    @pytest.mark.parametrize("width", [0, -1])
    def test_rejects_projection_columns_below_one(self, width):
        with pytest.raises(TuningError, match="projection_columns"):
            SynthesisProfile(projection_columns=width)


class TestGeneration:
    def test_query_count(self, star_schema):
        profile = SynthesisProfile(num_queries=7)
        workload = WorkloadSynthesizer(star_schema, profile, seed=1).generate("w")
        assert len(workload) == 7

    def test_deterministic_for_seed(self, star_schema):
        profile = SynthesisProfile(num_queries=5)
        first = WorkloadSynthesizer(star_schema, profile, seed=9).generate("w")
        second = WorkloadSynthesizer(star_schema, profile, seed=9).generate("w")
        assert [q.sql for q in first] == [q.sql for q in second]

    def test_different_seeds_differ(self, star_schema):
        profile = SynthesisProfile(num_queries=5)
        first = WorkloadSynthesizer(star_schema, profile, seed=1).generate("w")
        second = WorkloadSynthesizer(star_schema, profile, seed=2).generate("w")
        assert [q.sql for q in first] != [q.sql for q in second]

    def test_all_queries_parse_and_bind(self, star_schema):
        profile = SynthesisProfile(num_queries=20, max_joins=2, filters_per_query=2)
        workload = WorkloadSynthesizer(star_schema, profile, seed=4).generate("w")
        for query in workload:
            bound = bind_query(star_schema, query.statement, query.qid)
            assert bound.num_scans >= 1

    def test_join_counts_within_bounds(self, star_schema):
        profile = SynthesisProfile(num_queries=20, min_joins=1, max_joins=2)
        workload = WorkloadSynthesizer(star_schema, profile, seed=5).generate("w")
        for query in workload:
            bound = bind_query(star_schema, query.statement, query.qid)
            assert 0 <= bound.num_joins <= 2  # walk may stop early at 0/1

    def test_mean_filters_tracks_profile(self, star_schema):
        profile = SynthesisProfile(
            num_queries=60, max_joins=1, filters_per_query=2.0
        )
        workload = WorkloadSynthesizer(star_schema, profile, seed=6).generate("w")
        means = statistics.mean(
            bind_query(star_schema, q.statement, q.qid).num_filters for q in workload
        )
        assert 1.0 <= means <= 3.0

    def test_single_table_profile(self, star_schema):
        profile = SynthesisProfile(num_queries=10, min_joins=0, max_joins=0)
        workload = WorkloadSynthesizer(star_schema, profile, seed=7).generate("w")
        for query in workload:
            bound = bind_query(star_schema, query.statement, query.qid)
            assert bound.num_scans == 1

    def test_hot_bias_concentrates_starts(self, star_schema):
        profile = SynthesisProfile(
            num_queries=40,
            max_joins=0,
            start_table_bias="hot",
            hot_table_count=1,
        )
        workload = WorkloadSynthesizer(star_schema, profile, seed=8).generate("w")
        hot_hits = sum(
            1
            for q in workload
            if "fact" in bind_query(star_schema, q.statement, q.qid).tables
        )
        assert hot_hits >= len(workload) * 0.6
