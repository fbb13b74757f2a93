"""Token definitions for the SQL lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"  # = <> < > <= >=
    COMMA = "comma"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    STAR = "star"
    MINUS = "minus"
    SEMICOLON = "semicolon"
    EOF = "eof"


#: Reserved words recognised by the lexer (uppercased canonical form).
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "GROUP",
        "ORDER",
        "BY",
        "HAVING",
        "AS",
        "AND",
        "OR",
        "NOT",
        "IN",
        "BETWEEN",
        "LIKE",
        "IS",
        "NULL",
        "ASC",
        "DESC",
        "JOIN",
        "INNER",
        "ON",
        "LIMIT",
        "COUNT",
        "SUM",
        "AVG",
        "MIN",
        "MAX",
    }
)


class Token(NamedTuple):
    """One lexical token, a ``(ttype, value, position)`` tuple.

    Attributes:
        ttype: Token category.
        value: Canonical text — keywords are uppercased, identifiers keep
            their original spelling, string literals are unquoted.
        position: Character offset of the token's first character in the
            source text (for error messages).
    """

    ttype: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        """Return whether this token is the keyword ``word`` (case-insensitive)."""
        return self.ttype is TokenType.KEYWORD and self.value == word.upper()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.ttype.name}, {self.value!r}@{self.position})"
