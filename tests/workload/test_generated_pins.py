"""Byte-identity pins for every generated workload.

Each digest covers the schema (table names, row counts, every column's
name, type and statistics, the foreign-key list), every query's qid and
SQL text, and the ``repr`` of each candidate from
:meth:`CandidateGenerator.for_workload` — so an index's
``estimated_size_bytes`` is pinned along with its columns. The digests
are the same under every ``PYTHONHASHSEED``; a set-up change that keeps
them has changed no schema, query or candidate.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.workload import CandidateGenerator
from repro.workload.query import Workload
from repro.workload.suites.job import job_workload
from repro.workload.suites.real import real_d_workload, real_m_workload
from repro.workload.suites.toy import toy_workload
from repro.workload.suites.tpcds import tpcds_workload


def workload_digest(workload: Workload) -> str:
    """sha256 over the schema, the queries and the workload's candidates."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update(repr(parts).encode())
        digest.update(b"\n")

    schema = workload.schema
    for table in schema.tables:
        feed("table", table.name, table.row_count)
        for column in table.columns:
            feed("column", column.name, column.ctype.value, dataclasses.astuple(column.stats))
    for fk in schema.foreign_keys:
        feed("fk", fk.child_table, fk.child_column, fk.parent_table, fk.parent_column)
    for query in workload:
        feed("query", query.qid, query.sql)
    for index in CandidateGenerator(schema).for_workload(workload):
        feed("candidate", repr(index))
    return digest.hexdigest()


PINS = {
    "toy": (
        toy_workload,
        "fa4eaa04e836988ab093598a79f3505a68a638ed5982cd67b27a3d1eb72a55c7",
    ),
    "tpcds": (
        tpcds_workload,
        "e82ee7dcda371f69c4874f16cf0e27a8e5cba56078896fb9bad20e4f4c4072f6",
    ),
    "job-synthesized": (
        lambda: job_workload(synthesized=True),
        "3e3b3493e34a1bb810cbd5c56fdedb7eee8087054fce0591866ec998b9ad1971",
    ),
    "real_d-791": (
        lambda: real_d_workload(num_tables=791),
        "14dc5ec9f42e4a6f4b397892d64fe56b6101ecd6e3393ecf4e12f9ce7bf0109d",
    ),
    "real_d-7912": (
        lambda: real_d_workload(num_tables=7_912),
        "9e096b4c7d8158f48ca31a6255cd617f7c631c5d2c9b36691eb01181bd162525",
    ),
    "real_m-48": (
        lambda: real_m_workload(num_tables=48),
        "f57720ff4169a4c2f54a52f40933742eb2f87a1b465628387a56a5ec02a3a4a6",
    ),
    "real_m-474": (
        lambda: real_m_workload(num_tables=474),
        "8c69847409154e6c5032b01d6659e36d03ca7e0477564f3c16a5d9aa5524301a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_generated_workload_is_pinned(name):
    build, expected = PINS[name]
    assert workload_digest(build()) == expected
