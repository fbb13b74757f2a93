"""Query and Workload containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.catalog import Index, Schema
from repro.exceptions import TuningError
from repro.sqlparser import ast, parse_select
from repro.workload.analysis import BoundQuery, bind_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.candidates import CandidateGeneratorOptions


@dataclass
class Query:
    """One workload statement.

    A query keeps what analysing it yields (DESIGN §5n): its AST
    (:attr:`statement`), its bound form (:meth:`bind`) and its own
    candidate list (:meth:`own_candidates`). The last two are keyed on
    the schema *object*, never on the qid, which other workloads reuse.

    Attributes:
        qid: Stable identifier, unique within its workload (e.g. ``"q7"``).
        sql: The SQL text.
        weight: Relative frequency/importance; workload cost sums
            ``weight * cost(q, C)``. The paper's single-instance protocol
            uses weight 1 everywhere.
    """

    qid: str
    sql: str
    weight: float = 1.0

    _statement: ast.SelectStatement | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _bound: tuple[Schema, BoundQuery] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _own: tuple[Schema, "CandidateGeneratorOptions", tuple[Index, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise TuningError(f"query {self.qid!r} has non-positive weight")

    def __hash__(self) -> int:
        return hash(self.qid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Query) and other.qid == self.qid

    def __getstate__(self) -> dict:
        """Pickle without the schema-keyed memos (each holds a whole
        catalog); an unpickled query binds afresh. The AST travels."""
        return {**self.__dict__, "_bound": None, "_own": None}

    @property
    def statement(self) -> ast.SelectStatement:
        """The parsed AST (parsed lazily, cached)."""
        if self._statement is None:
            self._statement = parse_select(self.sql)
        return self._statement

    def bind(self, schema: Schema) -> BoundQuery:
        """This query bound against ``schema``, once per schema object.

        The memoized entry point to
        :func:`~repro.workload.analysis.bind_query`. Every consumer shares
        the result, so treat it as read-only.
        """
        memo = self._bound
        if memo is None or memo[0] is not schema:
            memo = self._bound = (schema, bind_query(schema, self.statement, self.qid))
        return memo[1]

    def own_candidates(
        self, schema: Schema, options: "CandidateGeneratorOptions"
    ) -> tuple[Index, ...] | None:
        """The list :meth:`record_own_candidates` kept for this schema
        object and equal ``options``, else ``None``."""
        memo = self._own
        if memo is not None and memo[0] is schema and memo[1] == options:
            return memo[2]
        return None

    def record_own_candidates(
        self,
        schema: Schema,
        options: "CandidateGeneratorOptions",
        indexes: list[Index],
    ) -> tuple[Index, ...]:
        """Keep the candidates generated for this query (read-only tuple)."""
        own = tuple(indexes)
        self._own = (schema, options, own)
        return own


@dataclass
class Workload:
    """An ordered collection of queries over one schema.

    Attributes:
        name: Workload name for reports (e.g. ``"tpch"``).
        schema: The schema the queries run against.
        queries: The statements, in tuning order.
    """

    name: str
    schema: Schema
    queries: list[Query]

    def __post_init__(self) -> None:
        if not self.queries:
            raise TuningError(f"workload {self.name!r} has no queries")
        seen: set[str] = set()
        for query in self.queries:
            if query.qid in seen:
                raise TuningError(f"duplicate query id {query.qid!r}")
            seen.add(query.qid)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __getitem__(self, position: int) -> Query:
        return self.queries[position]

    def query(self, qid: str) -> Query:
        """Return the query with id ``qid``.

        Raises:
            TuningError: If no query has that id.
        """
        for candidate in self.queries:
            if candidate.qid == qid:
                return candidate
        raise TuningError(f"workload {self.name!r} has no query {qid!r}")

    def subset(self, qids: list[str]) -> "Workload":
        """Return a new workload restricted to ``qids`` (kept in given order)."""
        return Workload(
            name=f"{self.name}[{len(qids)}]",
            schema=self.schema,
            queries=[self.query(qid) for qid in qids],
        )
