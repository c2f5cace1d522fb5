"""SQL tokenizer for the supported single-block fragment."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ParseError

KEYWORDS = {
    "SELECT",
    "DISTINCT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "AND",
    "OR",
    "NOT",
    "LIKE",
    "AS",
    "TRUE",
    "FALSE",
    "ORDER",
    "ASC",
    "DESC",
}

#: One alternative per token class, tried in order at each position.
#: Whitespace, ``--`` comments and ``;`` match no named group and are
#: skipped.  A string's closing quote is the first one not followed by
#: another (``''`` is an escaped quote), so ``'abc''`` is unterminated.
#: Numbers are decimal digits (``\d``) with at most one inner dot; a
#: word starts with any word character but a decimal digit.  Whatever
#: else is left is one ``error`` character.
_SCANNER = re.compile(
    r"""
      \s+ | --[^\n]* | ;
    | (?P<string> '(?:[^']|'')*'(?!') )
    | (?P<number> \d+(?:\.\d+)? | \.\d+ )
    | (?P<ident> [^\W\d]\w* )
    | (?P<op> <> | != | <= | >= | [=<>+\-*/(),.] )
    | (?P<error> . )
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "keyword" | "ident" | "number" | "string" | "op" | "eof"
    value: str
    position: int

    def is_keyword(self, *names):
        return self.kind == "keyword" and self.value in names

    def is_op(self, *ops):
        return self.kind == "op" and self.value in ops


def tokenize(text):
    """Tokenize SQL text into a list of :class:`Token` (ending with EOF)."""
    tokens = []
    for match in _SCANNER.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        value = match.group()
        position = match.start()
        if kind == "string":
            value = value[1:-1].replace("''", "'")
        elif kind == "ident":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "keyword", upper
        elif kind == "op" and value == "!=":
            value = "<>"
        elif kind == "error":
            if value == "'":
                raise ParseError("unterminated string literal", position)
            raise ParseError(f"unexpected character {value!r}", position)
        tokens.append(Token(kind, value, position))
    tokens.append(Token("eof", "", len(text)))
    return tokens
