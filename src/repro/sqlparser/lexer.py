"""SQL lexer: one compiled master pattern, one match per token.

A match skips trivia (whitespace, ``--`` comments to end of line) and takes
one token, named by its group. ``\\s`` and ``\\w`` accept exactly what
``str.isspace`` and ``isalnum() or "_"`` accept, but no class is exactly
``isalpha`` or ``isdigit`` (``\\d`` misses ``²``), so word starts and
numbers use ASCII classes: a token that starts at a non-ASCII character, or
a number or dot that runs into one, matches the empty ``other`` group, and
:meth:`Lexer._scan` reads it with the ``str`` predicates. That non-ASCII
path also raises every lexical error. A group that could give characters
back ends in a lookahead that refuses any shorter token (DESIGN §5o).
"""

from __future__ import annotations

import re

from repro.exceptions import SQLSyntaxError
from repro.sqlparser.tokens import KEYWORDS, Token, TokenType

_TOKEN = re.compile(
    r"""\s*(?:--[^\n]*\s*)*
    (?:(?P<word>[A-Za-z_]\w*)
    |(?P<number>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?![.0-9]|[^\x00-\x7f])
    |(?P<punctuation>[,()*;-]|\.(?![0-9]|[^\x00-\x7f]))
    |(?P<operator>[<>!]=|<>|[=<>])
    |(?P<string>'[^']*(?:''[^']*)*')(?!')
    |(?P<eof>\Z)
    |(?P<other>))""",
    re.VERBOSE,
)

_PUNCTUATION = {
    ",": TokenType.COMMA, ".": TokenType.DOT, "(": TokenType.LPAREN, ")": TokenType.RPAREN,
    "*": TokenType.STAR, "-": TokenType.MINUS, ";": TokenType.SEMICOLON,
}
_KEYWORD = TokenType.KEYWORD
_IDENTIFIER = TokenType.IDENTIFIER
_NUMBER = TokenType.NUMBER
_OPERATOR = TokenType.OPERATOR
_STRING = TokenType.STRING
_EOF = TokenType.EOF
# Builds a Token without the Python-level ``__new__`` a NamedTuple call runs.
_new = tuple.__new__


def _word(word: str, start: int) -> Token:
    upper = word.upper()
    if upper in KEYWORDS:
        return _new(Token, (_KEYWORD, upper, start))
    return _new(Token, (_IDENTIFIER, word, start))


class Lexer:
    """Converts SQL text into a token stream.

    The lexer is line-agnostic; positions are character offsets. Comments
    (``-- ..`` to end of line) and arbitrary whitespace are skipped.
    """

    def __init__(self, sql: str):
        self._sql = sql

    def tokens(self) -> list[Token]:
        """Lex the whole input and return all tokens plus a trailing EOF."""
        sql = self._sql
        result: list[Token] = []
        append = result.append
        pos = 0
        while True:
            # Matches are contiguous: the pattern matches at every position.
            for found in _TOKEN.finditer(sql, pos):
                kind = found.lastgroup
                if kind == "word":
                    append(_word(found[kind], found.start(kind)))
                elif kind == "punctuation":
                    text = found[kind]
                    append(_new(Token, (_PUNCTUATION[text], text, found.start(kind))))
                elif kind == "number":
                    append(_new(Token, (_NUMBER, found[kind], found.start(kind))))
                elif kind == "operator":
                    text = found[kind]
                    value = "<>" if text == "!=" else text
                    append(_new(Token, (_OPERATOR, value, found.start(kind))))
                elif kind == "string":
                    value = found[kind][1:-1].replace("''", "'")
                    append(_new(Token, (_STRING, value, found.start(kind))))
                elif kind == "eof":
                    append(_new(Token, (_EOF, "", found.start(kind))))
                    return result
                else:  # "other": the predicate path reads this token
                    break
            token, pos = self._scan(found.end())
            append(token)

    def _error(self, message: str, position: int) -> SQLSyntaxError:
        return SQLSyntaxError(
            f"{message} at position {position}", sql=self._sql, position=position
        )

    def _scan(self, start: int) -> tuple[Token, int]:
        """The token at ``start``, read with the ``str`` predicates, and its end."""
        sql = self._sql
        length = len(sql)
        ch = sql[start]
        end = start + 1
        if ch.isalpha() or ch == "_":
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            return _word(sql[start:end], start), end
        if ch.isdigit() or (ch == "." and sql[end : end + 1].isdigit()):
            seen_dot = ch == "."
            while end < length:
                if sql[end].isdigit():
                    end += 1
                elif sql[end] == "." and not seen_dot:
                    seen_dot = True
                    end += 1
                else:
                    break
            return _new(Token, (_NUMBER, sql[start:end], start)), end
        if ch == ".":
            return _new(Token, (TokenType.DOT, ch, start)), end
        if ch == "'":
            raise self._error("unterminated string literal", start)
        if ch == "!":
            raise self._error(f"unexpected operator character {ch!r}", start)
        raise self._error(f"unexpected character {ch!r}", start)


def tokenize(sql: str) -> list[Token]:
    """Convenience wrapper: lex ``sql`` into a token list ending in EOF."""
    return Lexer(sql).tokens()
