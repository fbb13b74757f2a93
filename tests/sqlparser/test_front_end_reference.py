"""Differential tests: the master-pattern lexer and lean parser against the
character-loop lexer and parser they replaced.

:func:`repro.sqlparser.tokenize` lexes with one compiled pattern and hands
non-ASCII tokens to a ``str``-predicate scan; :class:`~repro.sqlparser.Parser`
keeps its current token in an attribute and compares keywords directly.
:class:`RefLexer` and :class:`RefParser` are the loops they replaced, kept
as executable specifications (with their frozen-dataclass token). Hypothesis
draws strings over ASCII SQL and the characters where a regex class and a
``str`` predicate part ways (``²`` and ``፩`` are ``isdigit`` but not ``\\d``,
``½`` and ``Ⅷ`` are ``\\w`` but not ``isalpha``, ``ſ`` uppercases to ``S``,
``\\x1c`` and ``\\u2028`` are whitespace): every string must give the same
``(ttype, value, position)`` stream, or the same ``SQLSyntaxError`` message
and position. The parser must build the same AST or raise the same error;
two differences are allowed. A NUMBER that ``float`` rejects makes the
reference leak ``ValueError`` (or ``OverflowError`` for a LIMIT past the
float range), where the parser now raises ``SQLSyntaxError`` at that token.
A fractional LIMIT gets the reference's message at the number, where the
reference reported the token after it. Every registered suite query must
lex and parse identically too.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SQLSyntaxError
from repro.sqlparser import ast, parse_select, tokenize
from repro.sqlparser.tokens import KEYWORDS, TokenType
from repro.workload.suites.job import job_workload
from repro.workload.suites.real import real_d_workload, real_m_workload
from repro.workload.suites.toy import toy_workload
from repro.workload.suites.tpcds import tpcds_workload
from repro.workload.suites.tpch import tpch_workload

# --------------------------------------------------------------------------- #
# the reference lexer and parser
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RefToken:
    """The frozen-dataclass token the lexer used to build."""

    ttype: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.ttype is TokenType.KEYWORD and self.value == word.upper()


_OPERATOR_STARTS = "=<>!"
_TWO_CHAR_OPERATORS = {"<=", ">=", "<>", "!="}
_AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class RefLexer:
    """The character loop: ``str`` predicates, one method per token kind."""

    def __init__(self, sql: str):
        self._sql = sql
        self._pos = 0
        self._length = len(sql)

    def tokens(self) -> list[RefToken]:
        result: list[RefToken] = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.ttype is TokenType.EOF:
                return result

    def _error(self, message: str) -> SQLSyntaxError:
        return SQLSyntaxError(
            f"{message} at position {self._pos}", sql=self._sql, position=self._pos
        )

    def _skip_trivia(self) -> None:
        while self._pos < self._length:
            ch = self._sql[self._pos]
            if ch.isspace():
                self._pos += 1
            elif self._sql.startswith("--", self._pos):
                newline = self._sql.find("\n", self._pos)
                self._pos = self._length if newline == -1 else newline + 1
            else:
                return

    def _next_token(self) -> RefToken:
        self._skip_trivia()
        if self._pos >= self._length:
            return RefToken(TokenType.EOF, "", self._pos)

        start = self._pos
        ch = self._sql[start]

        if ch.isalpha() or ch == "_":
            return self._lex_word(start)
        if ch.isdigit() or (ch == "." and self._peek_digit(start + 1)):
            return self._lex_number(start)
        if ch == "'":
            return self._lex_string(start)
        if ch in _OPERATOR_STARTS:
            return self._lex_operator(start)

        single = {
            ",": TokenType.COMMA,
            ".": TokenType.DOT,
            "(": TokenType.LPAREN,
            ")": TokenType.RPAREN,
            "*": TokenType.STAR,
            "-": TokenType.MINUS,
            ";": TokenType.SEMICOLON,
        }
        if ch in single:
            self._pos += 1
            return RefToken(single[ch], ch, start)

        raise self._error(f"unexpected character {ch!r}")

    def _peek_digit(self, pos: int) -> bool:
        return pos < self._length and self._sql[pos].isdigit()

    def _lex_word(self, start: int) -> RefToken:
        end = start
        while end < self._length and (self._sql[end].isalnum() or self._sql[end] == "_"):
            end += 1
        self._pos = end
        word = self._sql[start:end]
        upper = word.upper()
        if upper in KEYWORDS:
            return RefToken(TokenType.KEYWORD, upper, start)
        return RefToken(TokenType.IDENTIFIER, word, start)

    def _lex_number(self, start: int) -> RefToken:
        end = start
        seen_dot = False
        while end < self._length:
            ch = self._sql[end]
            if ch.isdigit():
                end += 1
            elif ch == "." and not seen_dot:
                seen_dot = True
                end += 1
            else:
                break
        self._pos = end
        return RefToken(TokenType.NUMBER, self._sql[start:end], start)

    def _lex_string(self, start: int) -> RefToken:
        end = start + 1
        pieces: list[str] = []
        while end < self._length:
            ch = self._sql[end]
            if ch == "'":
                if end + 1 < self._length and self._sql[end + 1] == "'":
                    pieces.append("'")
                    end += 2
                    continue
                self._pos = end + 1
                return RefToken(TokenType.STRING, "".join(pieces), start)
            pieces.append(ch)
            end += 1
        self._pos = start
        raise self._error("unterminated string literal")

    def _lex_operator(self, start: int) -> RefToken:
        two = self._sql[start : start + 2]
        if two in _TWO_CHAR_OPERATORS:
            self._pos = start + 2
            return RefToken(TokenType.OPERATOR, "<>" if two == "!=" else two, start)
        ch = self._sql[start]
        if ch in "=<>":
            self._pos = start + 1
            return RefToken(TokenType.OPERATOR, ch, start)
        raise self._error(f"unexpected operator character {ch!r}")


class RefParser:
    """The parser indexing its token list through a property, with
    ``is_keyword`` tests and the ``_comparison_tail`` wrapper."""

    def __init__(self, sql: str):
        self._sql = sql
        self._tokens = RefLexer(sql).tokens()
        self._index = 0

    @property
    def _current(self) -> RefToken:
        return self._tokens[self._index]

    def _advance(self) -> RefToken:
        token = self._current
        if token.ttype is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self._current
        return SQLSyntaxError(
            f"{message} (found {token.value!r} at position {token.position})",
            sql=self._sql,
            position=token.position,
        )

    def _expect_keyword(self, word: str) -> RefToken:
        if not self._current.is_keyword(word):
            raise self._error(f"expected keyword {word}")
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._current.is_keyword(word):
            self._advance()
            return True
        return False

    def _expect(self, ttype: TokenType) -> RefToken:
        if self._current.ttype is not ttype:
            raise self._error(f"expected {ttype.value}")
        return self._advance()

    def _accept(self, ttype: TokenType) -> bool:
        if self._current.ttype is ttype:
            self._advance()
            return True
        return False

    def parse(self) -> ast.SelectStatement:
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
        if self._current.ttype is not TokenType.EOF:
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
        while self._accept(TokenType.COMMA):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        if self._current.ttype is TokenType.STAR:
            self._advance()
            return ast.SelectItem(expression="*")
        if self._current.ttype is TokenType.KEYWORD and self._current.value in _AGG_FUNCS:
            expr: ast.ColumnRef | ast.Aggregate = self._aggregate()
        else:
            expr = self._column_ref()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENTIFIER).value
        elif self._current.ttype is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expression=expr, alias=alias)

    def _aggregate(self) -> ast.Aggregate:
        func = self._advance().value
        self._expect(TokenType.LPAREN)
        if self._current.ttype is TokenType.STAR:
            self._advance()
            argument = None
        else:
            self._accept_keyword("DISTINCT")
            argument = self._column_ref()
        self._expect(TokenType.RPAREN)
        return ast.Aggregate(func=func, argument=argument)

    def _column_ref(self) -> ast.ColumnRef:
        first = self._expect(TokenType.IDENTIFIER).value
        if self._accept(TokenType.DOT):
            second = self._expect(TokenType.IDENTIFIER).value
            return ast.ColumnRef(column=second, table=first)
        return ast.ColumnRef(column=first)

    def _table_list(self) -> tuple[list[ast.TableRef], list[ast.Comparison]]:
        tables = [self._table_ref()]
        join_predicates: list[ast.Comparison] = []
        while True:
            if self._accept(TokenType.COMMA):
                tables.append(self._table_ref())
            elif self._current.is_keyword("JOIN") or self._current.is_keyword("INNER"):
                self._accept_keyword("INNER")
                self._expect_keyword("JOIN")
                tables.append(self._table_ref())
                self._expect_keyword("ON")
                predicate = self._comparison()
                if not (isinstance(predicate, ast.Comparison) and predicate.is_join):
                    raise self._error("JOIN .. ON requires a column = column predicate")
                join_predicates.append(predicate)
            else:
                return tables, join_predicates

    def _table_ref(self) -> ast.TableRef:
        name = self._expect(TokenType.IDENTIFIER).value
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENTIFIER).value
        elif self._current.ttype is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.TableRef(table=name, alias=alias)

    def _conjunction(self) -> list[ast.Predicate]:
        predicates = [self._predicate()]
        while self._accept_keyword("AND"):
            predicates.append(self._predicate())
        if self._current.is_keyword("OR"):
            raise self._error("OR predicates are not supported")
        return predicates

    def _predicate(self) -> ast.Predicate:
        if self._current.ttype in (TokenType.NUMBER, TokenType.STRING, TokenType.MINUS):
            return self._comparison_with_left(self._literal())
        column = self._column_ref()
        if self._accept_keyword("BETWEEN"):
            low = self._literal()
            self._expect_keyword("AND")
            high = self._literal()
            return ast.Between(column=column, low=low, high=high)
        if self._accept_keyword("IN"):
            self._expect(TokenType.LPAREN)
            values = [self._literal()]
            while self._accept(TokenType.COMMA):
                values.append(self._literal())
            self._expect(TokenType.RPAREN)
            return ast.InList(column=column, values=tuple(values))
        negated = self._accept_keyword("NOT")
        if self._accept_keyword("LIKE"):
            pattern = self._expect(TokenType.STRING).value
            return ast.Like(column=column, pattern=pattern, negated=negated)
        if negated:
            raise self._error("expected LIKE after NOT")
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(column=column, negated=negated)
        return self._comparison_tail(column)

    def _comparison(self) -> ast.Comparison:
        left = self._operand()
        return self._comparison_with_left(left)

    def _comparison_tail(self, left: ast.ColumnRef) -> ast.Comparison:
        return self._comparison_with_left(left)

    def _comparison_with_left(self, left: ast.ColumnRef | ast.Literal) -> ast.Comparison:
        if self._current.ttype is not TokenType.OPERATOR:
            raise self._error("expected comparison operator")
        op = self._advance().value
        right = self._operand()
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            left, right = right, left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        return ast.Comparison(left=left, op=op, right=right)

    def _operand(self) -> ast.ColumnRef | ast.Literal:
        if self._current.ttype in (TokenType.NUMBER, TokenType.STRING, TokenType.MINUS):
            return self._literal()
        return self._column_ref()

    def _literal(self) -> ast.Literal:
        if self._accept(TokenType.MINUS):
            token = self._expect(TokenType.NUMBER)
            return ast.Literal(value=-float(token.value))
        token = self._current
        if token.ttype is TokenType.NUMBER:
            self._advance()
            return ast.Literal(value=float(token.value))
        if token.ttype is TokenType.STRING:
            self._advance()
            return ast.Literal(value=token.value)
        raise self._error("expected literal")

    def _group_by(self) -> list[ast.ColumnRef]:
        if not self._accept_keyword("GROUP"):
            return []
        self._expect_keyword("BY")
        columns = [self._column_ref()]
        while self._accept(TokenType.COMMA):
            columns.append(self._column_ref())
        return columns

    def _order_by(self) -> list[ast.OrderItem]:
        if not self._accept_keyword("ORDER"):
            return []
        self._expect_keyword("BY")
        items = [self._order_item()]
        while self._accept(TokenType.COMMA):
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
        token = self._expect(TokenType.NUMBER)
        value = float(token.value)
        if value != int(value) or value < 0:
            raise self._error("LIMIT must be a non-negative integer")
        return int(value)


# --------------------------------------------------------------------------- #
# comparison helpers
# --------------------------------------------------------------------------- #


def _lex_outcome(lex, sql: str):
    """The ``(ttype, value, position)`` stream, or the error's message and position."""
    try:
        return [(t.ttype, t.value, t.position) for t in lex(sql)]
    except SQLSyntaxError as exc:
        return ("error", str(exc), exc.position)


def _parse_outcome(parse, sql: str):
    """The AST, or the error's message and position."""
    try:
        return parse(sql)
    except SQLSyntaxError as exc:
        return ("error", str(exc), exc.position)


_LIMIT_ERROR = "LIMIT must be a non-negative integer"


def assert_same_front_end(sql: str) -> None:
    """Tokens, AST and errors agree, bar the two allowed differences."""
    assert _lex_outcome(tokenize, sql) == _lex_outcome(
        lambda text: RefLexer(text).tokens(), sql
    )
    try:
        expected = _parse_outcome(lambda text: RefParser(text).parse(), sql)
    except ValueError:
        # float() rejected a NUMBER token: now an error at that token.
        with pytest.raises(SQLSyntaxError, match="^malformed number ") as excinfo:
            parse_select(sql)
        (token,) = [t for t in tokenize(sql) if t.position == excinfo.value.position]
        assert token.ttype is TokenType.NUMBER
        with pytest.raises(ValueError):
            float(token.value)
        return
    except OverflowError:
        # A LIMIT past the float range: now rejected like a fractional one.
        with pytest.raises(SQLSyntaxError, match="^LIMIT must be a non-negative integer"):
            parse_select(sql)
        return
    if isinstance(expected, tuple) and expected[1].startswith(_LIMIT_ERROR):
        # A fractional LIMIT: the same error, at the number instead of the
        # token after it.
        tokens = tokenize(sql)
        (after,) = [i for i, t in enumerate(tokens) if t.position == expected[2]]
        number = tokens[after - 1]
        assert number.ttype is TokenType.NUMBER
        assert _parse_outcome(parse_select, sql) == (
            "error",
            f"{_LIMIT_ERROR} (found {number.value!r} at position {number.position})",
            number.position,
        )
        return
    assert _parse_outcome(parse_select, sql) == expected


# --------------------------------------------------------------------------- #
# Hypothesis: strings where regex classes and str predicates part ways
# --------------------------------------------------------------------------- #

_UNICODE = ["²", "፩", "½", "Ⅷ", "é", "٣", "\xa0", "\x1c", "\u2028", "ſ", "ﬆ", "ß"]
_FRAGMENTS = st.sampled_from(
    [
        # keywords, identifiers and numbers
        "SELECT", "select", "FROM", "WHERE", "AND", "OR", "NOT", "LIKE", "IN",
        "BETWEEN", "IS", "NULL", "JOIN", "INNER", "ON", "AS", "GROUP", "ORDER",
        "BY", "LIMIT", "DISTINCT", "COUNT", "DESC", "a", "t", "x_1", "_",
        "0", "1", "42", "3.5",
        # punctuation, operators, quotes and trivia
        ",", ".", "(", ")", "*", "-", ";", "=", "<", ">", "!", "<=", ">=",
        "<>", "!=", "'", "''", "--", " ", "\n", "\t", "@",
        *_UNICODE,
    ]
)
_TEXT = st.lists(_FRAGMENTS, max_size=30).map("".join)


@st.composite
def _near_statements(draw):
    """A statement of the subset with a few fragments spliced in or swapped."""
    column = draw(st.sampled_from(["a", "t.a", "x_1", "t.é", "Ⅷ"]))
    predicate = draw(
        st.sampled_from(
            [
                f"{column} = 1", f"{column} < 2.5", f"7 >= {column}",
                f"{column} BETWEEN -1 AND 9", f"{column} IN (1, '2', -3)",
                f"{column} NOT LIKE 'x''%'", f"{column} IS NOT NULL",
                f"{column} = t.b", f"{column} <> '½'",
            ]
        )
    )
    tail = draw(st.sampled_from(["", " GROUP BY a", " ORDER BY a DESC", " LIMIT 10", ";"]))
    words = (
        f"SELECT DISTINCT {column}, COUNT(*) AS n FROM t AS s "
        f"INNER JOIN u ON s.a = u.b WHERE {predicate}{tail}"
    ).split(" ")
    for _ in range(draw(st.integers(0, 3))):
        spot = draw(st.integers(0, len(words)))
        fragment = draw(_FRAGMENTS)
        if draw(st.booleans()) and spot < len(words):
            words[spot] = fragment
        else:
            words.insert(spot, fragment)
    return " ".join(words)


@settings(max_examples=600, deadline=None)
@given(sql=_TEXT)
def test_random_text_lexes_and_parses_like_the_reference(sql):
    assert_same_front_end(sql)


@settings(max_examples=600, deadline=None)
@given(sql=_TEXT)
def test_statement_prefixed_text_parses_like_the_reference(sql):
    assert_same_front_end("SELECT a FROM t WHERE a = " + sql)


@settings(max_examples=600, deadline=None)
@given(sql=_near_statements())
def test_near_statements_parse_like_the_reference(sql):
    assert_same_front_end(sql)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a FROM t LIMIT ²",
        "SELECT a FROM t WHERE a = 1²",
        "SELECT a FROM t WHERE a = -፩",
        "SELECT a FROM t WHERE a IN (1, .²)",
        "SELECT a FROM t LIMIT " + "9" * 400,
        "SELECT a FROM t WHERE a = ٣",
        "SELECT ſelect FROM t",
        "SELECT DIﬆINCT a FROM t",
        "SELECT a FROM t WHERE a = 1.2.3",
        "SELECT a FROM t WHERE a = 'it''s'''",
        "SELECT a FROM t WHERE a = 'open''",
        "SELECT\u2028a\x1cFROM\xa0t -- ½\n",
        "SELECT a FROM t WHERE a = .5.",
        "SELECT a FROM t WHERE a = 12.5²",
        "SELECT a FROM t WHERE a = 1.é",
        "SELECT a FROM t WHERE a != 1 AND b !",
        "SELECT a FROM t LIMIT 1.5",
        "SELECT a FROM t LIMIT 1.5 ;",
    ],
)
def test_edge_cases_match_the_reference(sql):
    assert_same_front_end(sql)


# --------------------------------------------------------------------------- #
# every registered suite query
# --------------------------------------------------------------------------- #

_SUITES = {
    "toy": toy_workload,
    "tpch": tpch_workload,
    "tpcds": tpcds_workload,
    "job": job_workload,
    "real_d-791": lambda: real_d_workload(num_tables=791),
    "real_d-7912": lambda: real_d_workload(num_tables=7_912),
    "real_m-48": lambda: real_m_workload(num_tables=48),
    "real_m-474": lambda: real_m_workload(num_tables=474),
}


@pytest.mark.parametrize("name", sorted(_SUITES))
def test_suite_queries_lex_and_parse_like_the_reference(name):
    workload = _SUITES[name]()
    assert len(workload) > 0
    for query in workload:
        assert _lex_outcome(tokenize, query.sql) == _lex_outcome(
            lambda text: RefLexer(text).tokens(), query.sql
        ), query.qid
        assert parse_select(query.sql) == RefParser(query.sql).parse(), query.qid
