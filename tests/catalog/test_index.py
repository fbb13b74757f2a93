"""Index definition and size model tests."""

import pytest

from repro.catalog import Column, ColumnStats, Index, Table, index_storage_bytes
from repro.exceptions import InvalidIndexError


@pytest.fixture
def table():
    columns = [
        Column(name=name, stats=ColumnStats(distinct_count=100, avg_width=8))
        for name in ("a", "b", "c", "d")
    ]
    return Table(name="t", columns=columns, row_count=100_000)


class TestConstruction:
    def test_build_valid(self, table):
        index = Index.build(table, ["a", "b"], ["c"])
        assert index.key_columns == ("a", "b")
        assert index.include_columns == ("c",)
        assert index.estimated_size_bytes > 0

    def test_rejects_empty_keys(self):
        with pytest.raises(InvalidIndexError):
            Index(table="t", key_columns=())

    def test_rejects_duplicate_key(self):
        with pytest.raises(InvalidIndexError):
            Index(table="t", key_columns=("a", "a"))

    def test_rejects_key_repeated_in_include(self):
        with pytest.raises(InvalidIndexError):
            Index(table="t", key_columns=("a",), include_columns=("a",))

    def test_build_rejects_unknown_column(self, table):
        with pytest.raises(InvalidIndexError):
            Index.build(table, ["zz"])


class TestAccessors:
    def test_all_columns_order(self, table):
        index = Index.build(table, ["b"], ["a", "c"])
        assert index.all_columns == ("b", "a", "c")

    def test_column_set(self, table):
        index = Index.build(table, ["a"], ["b"])
        assert index.column_set == frozenset({"a", "b"})

    def test_covers(self, table):
        index = Index.build(table, ["a"], ["b", "c"])
        assert index.covers({"a", "b"})
        assert not index.covers({"a", "d"})

    def test_covers_empty_set(self, table):
        assert Index.build(table, ["a"]).covers(set())

    def test_display_with_includes(self, table):
        index = Index.build(table, ["a", "b"], ["c"])
        assert index.display() == "t(a, b) INCLUDE (c)"

    def test_display_without_includes(self, table):
        assert Index.build(table, ["a"]).display() == "t(a)"


class TestKeyPrefix:
    def test_full_prefix(self, table):
        index = Index.build(table, ["a", "b", "c"])
        assert index.key_prefix_length({"a", "b", "c"}) == 3

    def test_partial_prefix(self, table):
        index = Index.build(table, ["a", "b", "c"])
        assert index.key_prefix_length({"a", "c"}) == 1

    def test_no_prefix(self, table):
        index = Index.build(table, ["a", "b"])
        assert index.key_prefix_length({"b"}) == 0


class TestSizeModel:
    def test_wider_index_is_larger(self, table):
        narrow = index_storage_bytes(table, ("a",))
        wide = index_storage_bytes(table, ("a",), ("b", "c", "d"))
        assert wide > narrow

    def test_size_scales_with_rows(self, table):
        big = Table(name="big", columns=list(table.columns), row_count=10_000_000)
        assert index_storage_bytes(big, ("a",)) > 50 * index_storage_bytes(
            table, ("a",)
        )

    def test_index_smaller_than_heap_for_narrow_keys(self, table):
        index = Index.build(table, ["a"])
        assert index.estimated_size_bytes < table.size_bytes

    def test_equality_includes_size(self, table):
        first = Index.build(table, ["a"])
        second = Index.build(table, ["a"])
        assert first == second
        assert hash(first) == hash(second)


class TestPickling:
    """An unpickled index hashes under the receiving process's hash seed."""

    _DUMP = (
        "import pickle, sys\n"
        "from repro.catalog import Index\n"
        "index = Index(table='orders', key_columns=('o_custkey', 'o_orderdate'),"
        " include_columns=('o_totalprice',), estimated_size_bytes=8192)\n"
        "sys.stdout.buffer.write(pickle.dumps([index, index]))\n"
    )
    _LOAD = (
        "import pickle, sys\n"
        "from repro.catalog import Index\n"
        "loaded, again = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = Index(table='orders', key_columns=('o_custkey', 'o_orderdate'),"
        " include_columns=('o_totalprice',), estimated_size_bytes=8192)\n"
        "assert loaded is again\n"
        "assert loaded == fresh\n"
        "assert hash(loaded) == hash(fresh), (hash(loaded), hash(fresh))\n"
        "assert loaded in {fresh} and fresh in {loaded}\n"
        "assert {loaded: 1}[fresh] == 1\n"
        "print('ok')\n"
    )

    def test_round_trip_keeps_fields(self, table):
        import pickle

        index = Index.build(table, ["a", "b"], ["c"])
        copy = pickle.loads(pickle.dumps(index))
        assert copy == index
        assert copy.estimated_size_bytes == index.estimated_size_bytes
        assert hash(copy) == hash(index)

    def test_hash_follows_the_loading_process_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])

        def run(code, seed, stdin=None):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code],
                input=stdin,
                env=env,
                capture_output=True,
                check=True,
            ).stdout

        dumped = run(self._DUMP, "0")
        assert run(self._LOAD, "1", dumped).strip() == b"ok"
