"""Differential test: the frontier join order against the rebuild-every-step loop.

``_choose_join_order`` keeps an adjacency list and a frontier — the
remaining neighbours of the joined prefix — instead of rebuilding the
connected set from every join and every joined binding at each step.
:func:`ref_join_order` is the loop it replaced, kept as the executable
specification: both must give the same order for every registered query
and for Hypothesis join graphs with disconnected parts, self-joins,
repeated edges and tied row estimates.
"""

from __future__ import annotations

from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.optimizer.prepared import _choose_join_order, prepare_query
from repro.workload.analysis import BoundJoin
from repro.workload.suites.job import job_workload
from repro.workload.suites.real import real_d_workload, real_m_workload
from repro.workload.suites.toy import toy_workload
from repro.workload.suites.tpcds import tpcds_workload
from repro.workload.suites.tpch import tpch_workload


def ref_join_order(accesses, joins) -> list[str]:
    """The old greedy order: at each step, the connected set rebuilt from
    every join and every joined binding."""
    remaining = set(accesses)
    order: list[str] = []
    current = min(remaining, key=lambda b: (accesses[b].output_rows, b))
    order.append(current)
    remaining.discard(current)
    joined = {current}
    while remaining:
        connected = {
            join.other_binding(binding)
            for join in joins
            for binding in joined
            if join.touches(binding) and join.other_binding(binding) in remaining
        }
        pool = connected or remaining
        nxt = min(pool, key=lambda b: (accesses[b].output_rows, b))
        order.append(nxt)
        remaining.discard(nxt)
        joined.add(nxt)
    return order


#: Every registered suite at the sizes the repo's sessions use.
_SUITES = {
    "toy": toy_workload,
    "tpch": tpch_workload,
    "tpcds": tpcds_workload,
    "job": job_workload,
    "real_d-791": lambda: real_d_workload(num_tables=791),
    "real_m-48": lambda: real_m_workload(num_tables=48),
}


@cache
def _bound_queries(name: str):
    workload = _SUITES[name]()
    return workload.schema, [query.bind(workload.schema) for query in workload]


@pytest.mark.parametrize("name", sorted(_SUITES))
def test_every_registered_query_keeps_its_order(name):
    schema, bounds = _bound_queries(name)
    assert bounds
    for bound in bounds:
        prepared = prepare_query(schema, bound)
        expected = ref_join_order(prepared.accesses, bound.joins)
        assert _choose_join_order(prepared.accesses, bound.joins) == expected
        # The order the prepared query runs is that order.
        assert [prepared.first_binding] + [
            step.access.binding for step in prepared.join_steps
        ] == expected


def _join(left: str, right: str) -> BoundJoin:
    return BoundJoin(left, f"t_{left}", "a", right, f"t_{right}", "b")


@st.composite
def _join_graphs(draw):
    count = draw(st.integers(1, 9))
    bindings = [f"b{number}" for number in draw(st.permutations(range(count)))]
    # Few distinct row estimates, so ties (broken by name) are common.
    rows = draw(st.lists(st.sampled_from([1.0, 2.0, 10.0, 1e6]), min_size=count, max_size=count))
    accesses = {
        binding: SimpleNamespace(output_rows=value)
        for binding, value in zip(bindings, rows, strict=True)
    }
    # Edges among the bindings, self-joins and repeats included; a graph
    # with few edges falls apart into disconnected parts.
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(bindings), st.sampled_from(bindings)),
            max_size=2 * count,
        )
    )
    return accesses, [_join(left, right) for left, right in edges]


@settings(max_examples=400, deadline=None)
@given(graph=_join_graphs())
def test_join_graphs_match_reference(graph):
    accesses, joins = graph
    assert _choose_join_order(accesses, joins) == ref_join_order(accesses, joins)


def test_disconnected_parts_fall_back_to_a_cross_product():
    """A component is finished before the cheapest binding of the next."""
    accesses = {
        name: SimpleNamespace(output_rows=rows)
        for name, rows in (("a", 5.0), ("b", 1.0), ("c", 3.0), ("d", 2.0))
    }
    joins = [_join("b", "a"), _join("d", "c"), _join("c", "c")]
    assert _choose_join_order(accesses, joins) == ["b", "a", "d", "c"]
    assert ref_join_order(accesses, joins) == ["b", "a", "d", "c"]
