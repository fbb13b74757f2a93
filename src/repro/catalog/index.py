"""Index definitions and the index size model.

An :class:`Index` is a *covering* index in the AutoAdmin sense: an ordered
list of key columns plus an optional list of included (payload) columns.
Indexes here are hypothetical — nothing is ever materialised; the size model
estimates what the index *would* occupy, which feeds the storage constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.table import PAGE_BYTES, Table
from repro.exceptions import InvalidIndexError

#: Per-entry overhead in a leaf page (row locator + slot entry).
ENTRY_OVERHEAD_BYTES = 12

#: B-tree fill factor applied to leaf pages.
FILL_FACTOR = 0.75


@dataclass(frozen=True)
class Index:
    """A (hypothetical) covering index.

    Attributes:
        table: Name of the indexed table.
        key_columns: Ordered key columns; the index supports seeks on any
            prefix of this list and provides output ordered by it.
        include_columns: Non-key payload columns stored in the leaves,
            enabling index-only plans for queries they cover.
        estimated_size_bytes: Size estimate used by the storage constraint;
            computed by :func:`index_storage_bytes` when built through
            :meth:`build`.
    """

    table: str
    key_columns: tuple[str, ...]
    include_columns: tuple[str, ...] = ()
    estimated_size_bytes: int = 0

    def __post_init__(self) -> None:
        if not self.key_columns:
            raise InvalidIndexError(f"index on {self.table!r} must have key columns")
        seen: set[str] = set()
        for name in (*self.key_columns, *self.include_columns):
            if name in seen:
                raise InvalidIndexError(
                    f"column {name!r} appears twice in index on {self.table!r}"
                )
            seen.add(name)
        # Indexes live in hot sets/dicts throughout enumeration; cache the
        # hash instead of re-hashing four tuples per lookup.
        object.__setattr__(
            self,
            "_cached_hash",
            hash((self.table, self.key_columns, self.include_columns)),
        )

    def __hash__(self) -> int:
        return self._cached_hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Unpickle through the constructor, so the receiving process hashes
        # under its own string-hash seed: a copied ``_cached_hash`` from a
        # parent with another seed would break set and dict membership
        # against equal indexes the receiver builds itself.
        return (
            type(self),
            (self.table, self.key_columns, self.include_columns, self.estimated_size_bytes),
        )

    @classmethod
    def build(
        cls,
        table: Table,
        key_columns: list[str] | tuple[str, ...],
        include_columns: list[str] | tuple[str, ...] = (),
    ) -> "Index":
        """Create an index on ``table``, validating columns and sizing it.

        Raises:
            InvalidIndexError: If a named column does not exist on ``table``.
        """
        for name in (*key_columns, *include_columns):
            if not table.has_column(name):
                raise InvalidIndexError(
                    f"table {table.name!r} has no column {name!r} for index"
                )
        index = cls(
            table=table.name,
            key_columns=tuple(key_columns),
            include_columns=tuple(include_columns),
            estimated_size_bytes=index_storage_bytes(
                table, tuple(key_columns), tuple(include_columns)
            ),
        )
        return index

    @property
    def all_columns(self) -> tuple[str, ...]:
        """Key columns followed by include columns."""
        return self.key_columns + self.include_columns

    @property
    def column_set(self) -> frozenset[str]:
        """All columns carried by the index, as a set."""
        return frozenset(self.all_columns)

    def covers(self, required_columns: set[str] | frozenset[str]) -> bool:
        """Return whether the index carries every column in ``required_columns``."""
        return self.column_set.issuperset(required_columns)

    def key_prefix_length(self, equality_columns: set[str]) -> int:
        """Length of the leading key prefix fully bound by equality columns.

        This is what a seek can consume: the optimizer may seek on key
        columns ``key_columns[:p]`` when each of them appears in an equality
        predicate of the query.
        """
        length = 0
        for column in self.key_columns:
            if column in equality_columns:
                length += 1
            else:
                break
        return length

    def display(self) -> str:
        """Human-readable rendering, e.g. ``R(a, b) INCLUDE (d)``."""
        keys = ", ".join(self.key_columns)
        if self.include_columns:
            payload = ", ".join(self.include_columns)
            return f"{self.table}({keys}) INCLUDE ({payload})"
        return f"{self.table}({keys})"


def index_sort_key(index: Index) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Canonical deterministic ordering key for indexes.

    ``Index`` hashes on strings, so set/frozenset iteration order varies
    with ``PYTHONHASHSEED``; any loop whose order can reach costs, budget
    charges, or RNG draws must sort by this key instead (enforced by lint
    rule REP004).
    """
    return (index.table, index.key_columns, index.include_columns)


def index_storage_bytes(
    table: Table,
    key_columns: tuple[str, ...],
    include_columns: tuple[str, ...] = (),
) -> int:
    """Estimate the leaf-level storage of an index over ``table``.

    The estimate is ``rows * entry_width / fill_factor`` rounded up to whole
    pages, where ``entry_width`` is the summed column widths plus a fixed
    per-entry overhead. Internal B-tree levels add roughly 1%.
    """
    entry_width = ENTRY_OVERHEAD_BYTES + sum(
        table.column(name).width for name in (*key_columns, *include_columns)
    )
    leaf_bytes = table.row_count * entry_width / FILL_FACTOR
    total_bytes = leaf_bytes * 1.01
    pages = max(1, -(-int(total_bytes) // PAGE_BYTES))
    return pages * PAGE_BYTES
