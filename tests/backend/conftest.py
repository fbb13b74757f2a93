"""Shared fixtures for the cost-backend conformance suite.

The conformance tests price only (query, configuration) pairs from a fixed
"covered" universe — the empty configuration plus all singletons and pairs
over the first few toy candidates — so the replay backend can serve every
test from one pre-recorded what-if cache shard.
"""

from __future__ import annotations

import os

import pytest

from repro.backend import BACKEND_NAMES, BackendSpec, build_backend
from repro.backend.dbms import materialize_workload, psycopg_available
from repro.config import ReproConfig

#: Number of leading toy candidates the conformance universe is built from.
N_CANDIDATES = 4


def covered_configs(candidates):
    """The configuration universe conformance tests may price."""
    head = list(candidates[:N_CANDIDATES])
    configs = [frozenset()]
    configs += [frozenset([ix]) for ix in head]
    configs += [
        frozenset([head[i], head[j]])
        for i in range(len(head))
        for j in range(i + 1, len(head))
    ]
    return configs


@pytest.fixture(scope="session")
def toy_trace(tmp_path_factory, toy_workload, toy_candidates):
    """A shard covering the whole conformance universe for every query."""
    cache = tmp_path_factory.mktemp("backend") / "pcache"
    recorder = build_backend(
        "analytic", toy_workload, config=ReproConfig(whatif_cache=str(cache))
    )
    for query in toy_workload:
        for config in covered_configs(toy_candidates):
            recorder.whatif_cost(query, config)
        recorder.true_workload_cost(covered_configs(toy_candidates)[-1])
    recorder.close()
    return recorder.whatif_shard


@pytest.fixture(scope="session")
def universe(toy_candidates):
    """The covered configuration universe as a fixture (list of frozensets)."""
    return covered_configs(toy_candidates)


@pytest.fixture(scope="session")
def counting_pairs(toy_workload, universe):
    """(query, config) pairs that consume budget when priced in this order.

    Normalization is backend-independent, so pairs probed as counted on the
    analytic engine are counted on every backend. Replaying the list on a
    fresh backend consumes exactly ``len(counting_pairs)`` budget units.
    """
    probe = build_backend("analytic", toy_workload)
    pairs = []
    for query in toy_workload.queries:
        for config in universe[1:]:
            before = probe.calls_used
            probe.whatif_cost(query, config)
            if probe.calls_used > before:
                pairs.append((query, config))
    assert len(pairs) >= 4, "toy universe too small for the conformance suite"
    return pairs


@pytest.fixture(params=sorted(BACKEND_NAMES))
def backend_name(request):
    return request.param


@pytest.fixture(scope="session")
def postgres_toy_dsn(toy_workload):
    """DSN of a live Postgres+HypoPG with the toy workload materialized.

    Skips — rather than fails — when no ``REPRO_PG_DSN`` is configured or
    the optional ``psycopg`` driver is missing, so the conformance matrix
    stays green on machines without a database. Materialization (DDL +
    deterministic data + ``CREATE EXTENSION hypopg``) runs once per
    session at a small scale; costs only need to be *consistent*, not
    realistic.
    """
    dsn = os.environ.get("REPRO_PG_DSN")
    if not dsn:
        pytest.skip("REPRO_PG_DSN not set; no live Postgres")
    if not psycopg_available():
        pytest.skip("psycopg not installed (pip install 'repro[postgres]')")
    materialize_workload(dsn, toy_workload, scale=0.01)
    return dsn


@pytest.fixture
def make_backend(request, backend_name, toy_workload, toy_trace):
    """Factory building the parametrized backend over the toy workload."""

    def make(budget=None, **kwargs):
        if backend_name == "replay":
            spec = BackendSpec(name="replay", trace_path=str(toy_trace))
        elif backend_name == "noisy":
            spec = BackendSpec(name="noisy", noise=0.25, noise_seed=7)
        elif backend_name == "postgres":
            # Resolved lazily so only the postgres cells skip (or run live).
            spec = BackendSpec(
                name="postgres",
                pg_dsn=request.getfixturevalue("postgres_toy_dsn"),
            )
        else:
            spec = BackendSpec(name="analytic")
        return build_backend(spec, toy_workload, budget=budget, **kwargs)

    return make
