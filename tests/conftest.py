"""Shared fixtures: a small star schema, a deterministic toy workload, and
session-cached benchmark workloads; plus the ``--pricing-jobs N`` option,
which re-runs the suite with the engine's batch waves priced on N jobs.

The suite runs under the library defaults whatever ``REPRO_*`` settings
the caller exports (see :func:`_library_defaults`)."""

from __future__ import annotations

import os

import pytest

from repro.catalog import SchemaBuilder
from repro.config import TuningConstraints
from repro.optimizer.prepared import index_is_relevant
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload import CandidateGenerator
from repro.workload.query import Query, Workload
from repro.workload.suites.toy import TOY_PROFILE, TOY_SEED, toy_star_schema


def pytest_addoption(parser):
    parser.addoption(
        "--pricing-jobs",
        type=int,
        default=None,
        metavar="N",
        help="price batch waves on N jobs in every pricer that does not set "
        "its own job count (the analytic and noisy backends); results must "
        "be bit-identical to serial pricing",
    )


def pytest_configure(config):
    """Apply ``--pricing-jobs`` to the engine's default job count."""
    jobs = config.getoption("--pricing-jobs")
    if jobs is not None:
        if jobs < 1:
            raise pytest.UsageError(f"--pricing-jobs must be at least 1, got {jobs}")
        WhatIfOptimizer.pricing_jobs = jobs


def pytest_collection_modifyitems(config, items):
    """Skip ``requires_postgres`` tests unless a live DSN is configured."""
    if os.environ.get("REPRO_PG_DSN"):
        return
    skip = pytest.mark.skip(reason="REPRO_PG_DSN not set; no live Postgres")
    for item in items:
        if "requires_postgres" in item.keywords:
            item.add_marker(skip)


#: The settings ``ReproConfig.from_env`` and ``BackendSpec.from_env`` read,
#: except ``REPRO_SANITIZE`` (a CI job sets it to run the suite under the
#: sanitizers) and ``REPRO_PG_DSN``/``REPRO_PG_SCHEMA`` (the live Postgres
#: tests need them).
_CLEARED_SETTINGS = (
    "REPRO_BACKEND",
    "REPRO_BACKEND_TRACE",
    "REPRO_NOISE",
    "REPRO_NOISE_SEED",
    "REPRO_WHATIF_CACHE",
    "REPRO_BUDGET_POLICY",
    "REPRO_WII_RELEASE_RATE",
    "REPRO_ESC_PATIENCE",
    "REPRO_ESC_MIN_DELTA",
)


@pytest.fixture(scope="session", autouse=True)
def _library_defaults():
    """Unset the caller's ``REPRO_*`` settings for the whole session.

    Library calls without an explicit config read the environment, so a
    pin would otherwise test whatever backend or policy the shell selects.
    Session scope clears them before any module fixture runs a session; a
    test's own ``monkeypatch.setenv`` still applies on top.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name in _CLEARED_SETTINGS:
            patch.delenv(name, raising=False)
        yield


@pytest.fixture
def env_reads(monkeypatch):
    """Environment reads: calls of either ``from_env`` not made by the
    other (``ReproConfig.from_env`` reads the backend's variables through
    ``BackendSpec.from_env``), as a list of the classes called."""
    from repro.config import BackendSpec, ReproConfig

    reads = []
    depth = [0]

    def counting(owner):
        original = owner.from_env.__func__

        def from_env(cls, **flags):
            if not depth[0]:
                reads.append(cls)
            depth[0] += 1
            try:
                return original(cls, **flags)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(owner, "from_env", classmethod(from_env))

    counting(ReproConfig)
    counting(BackendSpec)
    return reads


@pytest.fixture(scope="session")
def star_schema():
    """A 1M-row fact table with two dimensions — the standard test schema.

    Delegates to :func:`repro.workload.suites.toy.toy_star_schema` (a
    fresh build, not the registry cache) so the fixtures and the runtime
    ``toy`` suite can never drift apart.
    """
    return toy_star_schema()


@pytest.fixture(scope="session")
def toy_workload(star_schema):
    """A deterministic 12-query synthesized workload over the star schema."""
    from repro.workload.synthesis import WorkloadSynthesizer

    return WorkloadSynthesizer(star_schema, TOY_PROFILE, seed=TOY_SEED).generate("toy")


@pytest.fixture(scope="session")
def toy_candidates(star_schema, toy_workload):
    return CandidateGenerator(star_schema).for_workload(toy_workload)


@pytest.fixture(scope="session")
def toy_relevant(toy_workload, toy_candidates):
    """Per toy query id, the candidates relevant to it, in candidate order.

    A key of relevant indexes normalizes to itself, so a pair built from
    them is a counted call (DESIGN §1)."""
    optimizer = WhatIfOptimizer(toy_workload)
    return {
        query.qid: [
            index
            for index in toy_candidates
            if index_is_relevant(optimizer.prepared(query), index)
        ]
        for query in toy_workload
    }


@pytest.fixture(scope="session")
def figure3_schema():
    """The R(a, b) / S(c, d) schema of the paper's Figure 3 example."""
    return (
        SchemaBuilder("figure3")
        .table("R", rows=100_000)
        .column("a", distinct=1_000, lo=0, hi=1_000)
        .column("b", distinct=5_000)
        .table("S", rows=200_000)
        .column("c", distinct=5_000)
        .column("d", distinct=2_000, lo=0, hi=2_000)
        .foreign_key("R", "b", "S", "c")
        .build()
    )


@pytest.fixture(scope="session")
def figure3_workload(figure3_schema):
    """The two-query workload of Figure 3."""
    q1 = Query(
        qid="Q1",
        sql="SELECT a, d FROM R, S WHERE R.b = S.c AND R.a = 5 AND S.d > 200",
    )
    q2 = Query(qid="Q2", sql="SELECT a FROM R, S WHERE R.b = S.c AND R.a = 40")
    return Workload(name="figure3", schema=figure3_schema, queries=[q1, q2])


@pytest.fixture
def small_constraints():
    return TuningConstraints(max_indexes=5)


@pytest.fixture(scope="session")
def tpch():
    from repro.workload.suites.tpch import tpch_workload

    return tpch_workload()
