"""Semantic analysis: bind a parsed statement against a schema.

Binding resolves aliases and unqualified column references, classifies each
WHERE predicate as a *filter* (sargable equality / range / unsargable) or a
*join* edge, and computes, per table access, the set of columns the query
needs from that table. The result — a :class:`BoundQuery` — is everything
the what-if optimizer and the candidate-index generator consume; the raw AST
is not used beyond this point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.catalog import Schema
from repro.exceptions import UnknownColumnError, UnknownTableError
from repro.sqlparser import ast


class PredicateKind(enum.Enum):
    """Classification of a bound filter predicate.

    * ``EQUALITY`` — ``col = literal``, ``col IN (..)``, ``col IS NULL``;
      can bind an index key column exactly.
    * ``RANGE`` — ``<``, ``>``, ``<=``, ``>=``, ``BETWEEN``, and prefix
      ``LIKE``; can bind the *last* column of an index seek.
    * ``RESIDUAL`` — unsargable (``<>``, ``NOT LIKE``, leading-wildcard
      ``LIKE``, ``IS NOT NULL``); evaluated as a post-access filter only.
    """

    EQUALITY = "equality"
    RANGE = "range"
    RESIDUAL = "residual"


@dataclass(frozen=True)
class BoundPredicate:
    """A filter predicate bound to a specific table access.

    Attributes:
        binding: The table-access binding (alias) the predicate applies to.
        table: The underlying table name.
        column: The filtered column.
        kind: Sargability classification.
        op: Original operator (``=``, ``<``, ``BETWEEN``, ``IN``, ``LIKE``,
            ``IS NULL`` ...), kept for selectivity estimation.
        values: Literal payload — comparison value, ``(low, high)`` for
            BETWEEN, the IN list, or the LIKE pattern.
    """

    binding: str
    table: str
    column: str
    kind: PredicateKind
    op: str
    values: tuple[float | str, ...] = ()


@dataclass(frozen=True)
class BoundJoin:
    """An equi-join edge between two table accesses."""

    left_binding: str
    left_table: str
    left_column: str
    right_binding: str
    right_table: str
    right_column: str

    def touches(self, binding: str) -> bool:
        return binding in (self.left_binding, self.right_binding)

    def side(self, binding: str) -> tuple[str, str]:
        """Return ``(table, column)`` for the endpoint on ``binding``."""
        if binding == self.left_binding:
            return (self.left_table, self.left_column)
        if binding == self.right_binding:
            return (self.right_table, self.right_column)
        raise KeyError(binding)

    def other_binding(self, binding: str) -> str:
        if binding == self.left_binding:
            return self.right_binding
        if binding == self.right_binding:
            return self.left_binding
        raise KeyError(binding)


@dataclass
class TableAccess:
    """One FROM-clause entry after binding.

    Read-only once bound (see :class:`BoundQuery`).

    Attributes:
        binding: Alias (or table name when unaliased); unique per query.
        table: Underlying table name.
        filters: Filter predicates on this access.
        required_columns: Every column of this table the query touches —
            projection, filters, joins, grouping and ordering. An index
            covering these admits an index-only plan for the access.
    """

    binding: str
    table: str
    filters: list[BoundPredicate] = field(default_factory=list)
    required_columns: set[str] = field(default_factory=set)

    @property
    def equality_columns(self) -> set[str]:
        return {
            f.column for f in self.filters if f.kind is PredicateKind.EQUALITY
        }

    @property
    def range_columns(self) -> set[str]:
        return {f.column for f in self.filters if f.kind is PredicateKind.RANGE}


@dataclass
class BoundQuery:
    """A fully-bound query ready for costing and candidate generation.

    Read-only once bound: :meth:`Query.bind <repro.workload.query.Query.bind>`
    shares one instance per schema among all consumers, none of which
    mutates it or its accesses.

    Attributes:
        qid: Id of the source :class:`~repro.workload.Query`.
        accesses: Table accesses keyed by binding, in FROM order.
        joins: Equi-join edges.
        group_by: ``(binding, column)`` pairs of the GROUP BY clause.
        order_by: ``(binding, column, descending)`` triples of ORDER BY.
        select_star: Whether the projection is a bare ``*``.
    """

    qid: str
    accesses: dict[str, TableAccess]
    joins: list[BoundJoin]
    group_by: list[tuple[str, str]]
    order_by: list[tuple[str, str, bool]]
    select_star: bool = False

    @property
    def bindings(self) -> list[str]:
        return list(self.accesses.keys())

    @property
    def tables(self) -> set[str]:
        return {access.table for access in self.accesses.values()}

    def joins_of(self, binding: str) -> list[BoundJoin]:
        return [join for join in self.joins if join.touches(binding)]

    @property
    def num_joins(self) -> int:
        return len(self.joins)

    @property
    def num_filters(self) -> int:
        return sum(len(access.filters) for access in self.accesses.values())

    @property
    def num_scans(self) -> int:
        return len(self.accesses)


class _Binder:
    """Single-use binder for one statement (see :func:`bind_query`)."""

    def __init__(self, schema: Schema, statement: ast.SelectStatement, qid: str):
        self._schema = schema
        self._statement = statement
        self._qid = qid
        self._accesses: dict[str, TableAccess] = {}

    def bind(self) -> BoundQuery:
        self._bind_tables()
        joins, filters = self._bind_predicates()
        group_by = [self._resolve(ref) for ref in self._statement.group_by]
        order_by = [
            (*self._resolve(item.column), item.descending)
            for item in self._statement.order_by
        ]
        select_star = any(
            item.expression == "*" for item in self._statement.select_items
        )
        bound = BoundQuery(
            qid=self._qid,
            accesses=self._accesses,
            joins=joins,
            group_by=group_by,
            order_by=order_by,
            select_star=select_star,
        )
        for predicate in filters:
            self._accesses[predicate.binding].filters.append(predicate)
        self._collect_required_columns(bound)
        return bound

    # -------------------------------------------------------------- #

    def _bind_tables(self) -> None:
        for ref in self._statement.tables:
            if not self._schema.has_table(ref.table):
                raise UnknownTableError(
                    f"query {self._qid!r} references unknown table {ref.table!r}"
                )
            binding = ref.binding
            if binding in self._accesses:
                raise UnknownTableError(
                    f"query {self._qid!r} binds {binding!r} twice; alias self-joins"
                )
            self._accesses[binding] = TableAccess(binding=binding, table=ref.table)

    def _resolve(self, ref: ast.ColumnRef) -> tuple[str, str]:
        """Resolve a column reference to ``(binding, column)``."""
        if ref.table is not None:
            access = self._accesses.get(ref.table)
            if access is None:
                raise UnknownTableError(
                    f"query {self._qid!r} references unbound alias {ref.table!r}"
                )
            if not self._schema.table(access.table).has_column(ref.column):
                raise UnknownColumnError(
                    f"table {access.table!r} has no column {ref.column!r}"
                )
            return (ref.table, ref.column)
        owners = [
            binding
            for binding, access in self._accesses.items()
            if self._schema.table(access.table).has_column(ref.column)
        ]
        if not owners:
            raise UnknownColumnError(
                f"query {self._qid!r}: column {ref.column!r} not found in scope"
            )
        if len(owners) > 1:
            raise UnknownColumnError(
                f"query {self._qid!r}: column {ref.column!r} is ambiguous "
                f"among {owners}"
            )
        return (owners[0], ref.column)

    def _bind_predicates(self) -> tuple[list[BoundJoin], list[BoundPredicate]]:
        joins: list[BoundJoin] = []
        filters: list[BoundPredicate] = []
        for predicate in self._statement.predicates:
            if isinstance(predicate, ast.Comparison) and predicate.is_join:
                joins.append(self._bind_join(predicate))
            else:
                filters.append(self._bind_filter(predicate))
        return joins, filters

    def _bind_join(self, predicate: ast.Comparison) -> BoundJoin:
        assert isinstance(predicate.left, ast.ColumnRef)
        assert isinstance(predicate.right, ast.ColumnRef)
        if predicate.op != "=":
            # Non-equi column comparisons are treated as join edges only when
            # equality; otherwise they become residual filters on the left
            # binding — but since they reference two tables, the safest
            # faithful treatment is to reject them (the workloads never
            # produce them).
            raise UnknownColumnError(
                f"query {self._qid!r}: non-equi join predicates are unsupported"
            )
        left_binding, left_column = self._resolve(predicate.left)
        right_binding, right_column = self._resolve(predicate.right)
        return BoundJoin(
            left_binding=left_binding,
            left_table=self._accesses[left_binding].table,
            left_column=left_column,
            right_binding=right_binding,
            right_table=self._accesses[right_binding].table,
            right_column=right_column,
        )

    def _bind_filter(self, predicate: ast.Predicate) -> BoundPredicate:
        if isinstance(predicate, ast.Comparison):
            return self._bind_comparison(predicate)
        if isinstance(predicate, ast.Between):
            binding, column = self._resolve(predicate.column)
            return BoundPredicate(
                binding=binding,
                table=self._accesses[binding].table,
                column=column,
                kind=PredicateKind.RANGE,
                op="BETWEEN",
                values=(predicate.low.value, predicate.high.value),
            )
        if isinstance(predicate, ast.InList):
            binding, column = self._resolve(predicate.column)
            return BoundPredicate(
                binding=binding,
                table=self._accesses[binding].table,
                column=column,
                kind=PredicateKind.EQUALITY,
                op="IN",
                values=tuple(v.value for v in predicate.values),
            )
        if isinstance(predicate, ast.Like):
            binding, column = self._resolve(predicate.column)
            sargable = not predicate.negated and not predicate.has_leading_wildcard
            return BoundPredicate(
                binding=binding,
                table=self._accesses[binding].table,
                column=column,
                kind=PredicateKind.RANGE if sargable else PredicateKind.RESIDUAL,
                op="NOT LIKE" if predicate.negated else "LIKE",
                values=(predicate.pattern,),
            )
        if isinstance(predicate, ast.IsNull):
            binding, column = self._resolve(predicate.column)
            return BoundPredicate(
                binding=binding,
                table=self._accesses[binding].table,
                column=column,
                kind=(
                    PredicateKind.RESIDUAL
                    if predicate.negated
                    else PredicateKind.EQUALITY
                ),
                op="IS NOT NULL" if predicate.negated else "IS NULL",
            )
        raise UnknownColumnError(
            f"query {self._qid!r}: unsupported predicate {predicate!r}"
        )

    def _bind_comparison(self, predicate: ast.Comparison) -> BoundPredicate:
        # Normalise so the column is on the left.
        left, op, right = predicate.left, predicate.op, predicate.right
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            left, right = right, left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        if not isinstance(left, ast.ColumnRef) or not isinstance(right, ast.Literal):
            raise UnknownColumnError(
                f"query {self._qid!r}: unsupported comparison {predicate!r}"
            )
        binding, column = self._resolve(left)
        if op == "=":
            kind = PredicateKind.EQUALITY
        elif op == "<>":
            kind = PredicateKind.RESIDUAL
        else:
            kind = PredicateKind.RANGE
        return BoundPredicate(
            binding=binding,
            table=self._accesses[binding].table,
            column=column,
            kind=kind,
            op=op,
            values=(right.value,),
        )

    def _collect_required_columns(self, bound: BoundQuery) -> None:
        for item in self._statement.select_items:
            expression = item.expression
            if expression == "*":
                for access in bound.accesses.values():
                    access.required_columns.update(
                        self._schema.table(access.table).column_names
                    )
            elif isinstance(expression, ast.Aggregate):
                if expression.argument is not None:
                    binding, column = self._resolve(expression.argument)
                    bound.accesses[binding].required_columns.add(column)
            elif isinstance(expression, ast.ColumnRef):
                binding, column = self._resolve(expression)
                bound.accesses[binding].required_columns.add(column)
        for access in bound.accesses.values():
            access.required_columns.update(f.column for f in access.filters)
        for join in bound.joins:
            bound.accesses[join.left_binding].required_columns.add(join.left_column)
            bound.accesses[join.right_binding].required_columns.add(join.right_column)
        for binding, column in bound.group_by:
            bound.accesses[binding].required_columns.add(column)
        for binding, column, _ in bound.order_by:
            bound.accesses[binding].required_columns.add(column)


def bind_query(schema: Schema, statement: ast.SelectStatement, qid: str) -> BoundQuery:
    """Bind ``statement`` against ``schema`` (workload code binds through
    :meth:`Query.bind <repro.workload.query.Query.bind>`, which memoizes).

    Raises:
        UnknownTableError: For unknown tables or duplicate bindings.
        UnknownColumnError: For unknown/ambiguous columns or unsupported
            predicate shapes.
    """
    return _Binder(schema, statement, qid).bind()
