"""Each character class of the lexer's master pattern against its ``str`` predicate.

The lexer is exact only if every class it uses accepts precisely the code
points the ``str`` predicate it stands for accepts: ``\\s`` is
``str.isspace`` and ``\\w`` is ``isalnum() or "_"`` everywhere, and the ASCII
classes are ``isalpha``/``isdigit`` restricted to ASCII (non-ASCII word
starts and digits take the predicate path). Each CPython release ships its
own Unicode database, so this runs over every code point on whichever
interpreter runs the suite.
"""

from __future__ import annotations

import re
import sys
from itertools import filterfalse

import pytest

from repro.sqlparser.lexer import _TOKEN

EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))

PREDICATES = {
    r"\s": str.isspace,
    r"\w": lambda c: c.isalnum() or c == "_",
    "[A-Za-z_]": lambda c: c.isascii() and (c.isalpha() or c == "_"),
    "[0-9]": lambda c: c.isascii() and c.isdigit(),
    "[.0-9]": lambda c: c == "." or (c.isascii() and c.isdigit()),
    r"[^\x00-\x7f]": lambda c: not c.isascii(),
    r"[^\n]": lambda c: c != "\n",
    "[^']": lambda c: c != "'",
    "[,()*;-]": lambda c: c in ",()*;-",
    "[<>!]": lambda c: c in "<>!",
    "[=<>]": lambda c: c in "=<>",
}


def test_every_class_in_the_pattern_is_checked():
    found = set(re.findall(r"\\[sSwWdD]|\[(?:\\.|[^\]\\])+\]", _TOKEN.pattern))
    assert found == set(PREDICATES)


@pytest.mark.parametrize("cls", sorted(PREDICATES))
def test_class_accepts_exactly_its_predicate(cls):
    # Compare what each rejects: short strings for the negated classes.
    rejected = re.sub(cls, "", EVERY_CODE_POINT)
    expected = "".join(filterfalse(PREDICATES[cls], EVERY_CODE_POINT))
    assert rejected == expected, sorted(set(rejected) ^ set(expected))[:10]


def test_no_class_is_isdigit_or_isalpha():
    # Why numbers and word starts need the predicate path.
    assert "²".isdigit() and re.fullmatch(r"\d", "²") is None
    assert not "½".isalpha() and re.fullmatch(r"[^\W\d]", "½")
