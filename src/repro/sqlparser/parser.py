"""Recursive-descent parser for the supported SELECT subset.

Grammar (informal)::

    select    := SELECT [DISTINCT] items FROM tables [WHERE conj]
                 [GROUP BY cols] [ORDER BY orders] [LIMIT n] [;]
    items     := item (',' item)*            item := '*' | agg | colref [AS id]
    tables    := tableref (',' tableref)* | tableref (JOIN tableref ON cmp)*
    conj      := predicate (AND predicate)*
    predicate := cmp | colref BETWEEN lit AND lit | colref IN '(' lits ')'
               | colref [NOT] LIKE string | colref IS [NOT] NULL
    cmp       := operand op operand          op := = | <> | < | > | <= | >=
"""

from __future__ import annotations

from repro.exceptions import SQLSyntaxError
from repro.sqlparser import ast
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.tokens import Token, TokenType

_AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
_MIRRORED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}

# Module-level aliases: an enum member lookup costs a class attribute access.
_KEYWORD = TokenType.KEYWORD
_IDENTIFIER = TokenType.IDENTIFIER
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_OPERATOR = TokenType.OPERATOR
_COMMA = TokenType.COMMA
_DOT = TokenType.DOT
_STAR = TokenType.STAR
_MINUS = TokenType.MINUS
_EOF = TokenType.EOF
_LITERAL_STARTS = (_NUMBER, _STRING, _MINUS)


class Parser:
    """Parses one SELECT statement from a token stream."""

    def __init__(self, sql: str):
        self._sql = sql
        self._next_token = iter(tokenize(sql)).__next__
        self._current = self._next_token()

    # ------------------------------------------------------------------ #
    # token-stream helpers
    # ------------------------------------------------------------------ #

    def _advance(self) -> Token:
        token = self._current
        if token.ttype is not _EOF:
            self._current = self._next_token()
        return token

    def _error(self, message: str, token: Token | None = None) -> SQLSyntaxError:
        """An error at ``token`` (by default the current token)."""
        if token is None:
            token = self._current
        return SQLSyntaxError(
            f"{message} (found {token.value!r} at position {token.position})",
            sql=self._sql,
            position=token.position,
        )

    # Keywords lex uppercased, and callers pass them uppercased.
    def _expect_keyword(self, word: str) -> Token:
        token = self._current
        if token.value != word or token.ttype is not _KEYWORD:
            raise self._error(f"expected keyword {word}")
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        token = self._current
        if token.value == word and token.ttype is _KEYWORD:
            self._advance()
            return True
        return False

    def _expect(self, ttype: TokenType) -> Token:
        if self._current.ttype is not ttype:
            raise self._error(f"expected {ttype.value}")
        return self._advance()

    def _accept(self, ttype: TokenType) -> bool:
        if self._current.ttype is ttype:
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------ #
    # grammar productions
    # ------------------------------------------------------------------ #

    def parse(self) -> ast.SelectStatement:
        """Parse the full input as a single SELECT statement."""
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = self._select_items()
        self._expect_keyword("FROM")
        tables, join_predicates = self._table_list()
        predicates: list[ast.Predicate] = list(join_predicates)
        if self._accept_keyword("WHERE"):
            predicates.extend(self._conjunction())
        group_by = self._group_by()
        order_by = self._order_by()
        limit = self._limit()
        self._accept(TokenType.SEMICOLON)
        if self._current.ttype is not _EOF:
            raise self._error("unexpected trailing input")
        return ast.SelectStatement(
            select_items=tuple(items),
            tables=tuple(tables),
            predicates=tuple(predicates),
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            distinct=distinct,
            limit=limit,
        )

    def _select_items(self) -> list[ast.SelectItem]:
        items = [self._select_item()]
        while self._accept(_COMMA):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        token = self._current
        if token.ttype is _STAR:
            self._advance()
            return ast.SelectItem(expression="*")
        if token.ttype is _KEYWORD and token.value in _AGG_FUNCS:
            expr: ast.ColumnRef | ast.Aggregate = self._aggregate()
        else:
            expr = self._column_ref()
        return ast.SelectItem(expression=expr, alias=self._alias())

    def _alias(self) -> str | None:
        """An optional ``[AS] identifier`` after a select item or table."""
        if self._accept_keyword("AS"):
            return self._expect(_IDENTIFIER).value
        if self._current.ttype is _IDENTIFIER:
            return self._advance().value
        return None

    def _aggregate(self) -> ast.Aggregate:
        func = self._advance().value
        self._expect(TokenType.LPAREN)
        if self._current.ttype is _STAR:
            self._advance()
            argument = None
        else:
            self._accept_keyword("DISTINCT")
            argument = self._column_ref()
        self._expect(TokenType.RPAREN)
        return ast.Aggregate(func=func, argument=argument)

    def _column_ref(self) -> ast.ColumnRef:
        first = self._expect(_IDENTIFIER).value
        if self._current.ttype is _DOT:
            self._advance()
            return ast.ColumnRef(column=self._expect(_IDENTIFIER).value, table=first)
        return ast.ColumnRef(column=first)

    def _table_list(self) -> tuple[list[ast.TableRef], list[ast.Comparison]]:
        tables = [self._table_ref()]
        join_predicates: list[ast.Comparison] = []
        while True:
            token = self._current
            if token.ttype is _COMMA:
                self._advance()
                tables.append(self._table_ref())
            elif token.ttype is _KEYWORD and token.value in ("JOIN", "INNER"):
                self._accept_keyword("INNER")
                self._expect_keyword("JOIN")
                tables.append(self._table_ref())
                self._expect_keyword("ON")
                predicate = self._comparison_with_left(self._operand())
                if not predicate.is_join:
                    raise self._error("JOIN .. ON requires a column = column predicate")
                join_predicates.append(predicate)
            else:
                return tables, join_predicates

    def _table_ref(self) -> ast.TableRef:
        name = self._expect(_IDENTIFIER).value
        return ast.TableRef(table=name, alias=self._alias())

    def _conjunction(self) -> list[ast.Predicate]:
        predicates = [self._predicate()]
        while self._accept_keyword("AND"):
            predicates.append(self._predicate())
        if self._current.value == "OR" and self._current.ttype is _KEYWORD:
            raise self._error("OR predicates are not supported")
        return predicates

    def _predicate(self) -> ast.Predicate:
        if self._current.ttype in _LITERAL_STARTS:
            # Literal-first comparison, e.g. ``5 < a``.
            return self._comparison_with_left(self._literal())
        column = self._column_ref()
        token = self._current
        word = token.value if token.ttype is _KEYWORD else None
        if word == "BETWEEN":
            self._advance()
            low = self._literal()
            self._expect_keyword("AND")
            high = self._literal()
            return ast.Between(column=column, low=low, high=high)
        if word == "IN":
            self._advance()
            self._expect(TokenType.LPAREN)
            values = [self._literal()]
            while self._accept(_COMMA):
                values.append(self._literal())
            self._expect(TokenType.RPAREN)
            return ast.InList(column=column, values=tuple(values))
        if word == "NOT" or word == "LIKE":
            self._advance()
            negated = word == "NOT"
            if negated and not self._accept_keyword("LIKE"):
                raise self._error("expected LIKE after NOT")
            pattern = self._expect(_STRING).value
            return ast.Like(column=column, pattern=pattern, negated=negated)
        if word == "IS":
            self._advance()
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(column=column, negated=negated)
        return self._comparison_with_left(column)

    def _comparison_with_left(
        self, left: ast.ColumnRef | ast.Literal
    ) -> ast.Comparison:
        if self._current.ttype is not _OPERATOR:
            raise self._error("expected comparison operator")
        op = self._advance().value
        right = self._operand()
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            # Canonicalise literal-first comparisons: ``5 < a`` → ``a > 5``.
            left, right = right, left
            op = _MIRRORED.get(op, op)
        return ast.Comparison(left=left, op=op, right=right)

    def _operand(self) -> ast.ColumnRef | ast.Literal:
        if self._current.ttype in _LITERAL_STARTS:
            return self._literal()
        return self._column_ref()

    def _literal(self) -> ast.Literal:
        token = self._current
        if token.ttype is _MINUS:
            self._advance()
            return ast.Literal(value=-self._number(self._expect(_NUMBER)))
        if token.ttype is _NUMBER:
            self._advance()
            return ast.Literal(value=self._number(token))
        if token.ttype is _STRING:
            self._advance()
            return ast.Literal(value=token.value)
        raise self._error("expected literal")

    def _number(self, token: Token) -> float:
        """A NUMBER token's value; ``float`` rejects digits like ``²``."""
        try:
            return float(token.value)
        except ValueError:
            raise self._error("malformed number", token) from None

    def _group_by(self) -> list[ast.ColumnRef]:
        if not self._accept_keyword("GROUP"):
            return []
        self._expect_keyword("BY")
        columns = [self._column_ref()]
        while self._accept(_COMMA):
            columns.append(self._column_ref())
        return columns

    def _order_by(self) -> list[ast.OrderItem]:
        if not self._accept_keyword("ORDER"):
            return []
        self._expect_keyword("BY")
        items = [self._order_item()]
        while self._accept(_COMMA):
            items.append(self._order_item())
        return items

    def _order_item(self) -> ast.OrderItem:
        column = self._column_ref()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(column=column, descending=descending)

    def _limit(self) -> int | None:
        if not self._accept_keyword("LIMIT"):
            return None
        token = self._expect(_NUMBER)
        value = self._number(token)
        # is_integer() is false for inf too (a LIMIT past the float range).
        if not value.is_integer() or value < 0:
            raise self._error("LIMIT must be a non-negative integer", token)
        return int(value)


def parse_select(sql: str) -> ast.SelectStatement:
    """Parse ``sql`` as a single SELECT statement.

    Raises:
        SQLSyntaxError: On any lexical or grammatical error.
    """
    return Parser(sql).parse()
