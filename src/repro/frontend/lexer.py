"""Tokenizer for the mini-FORTRAN language.

Statements are newline-terminated; blocks close with ``end``.  Comments
run from ``#`` to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.frontend.errors import LexError

KEYWORDS = frozenset(
    {
        "routine",
        "integer",
        "real",
        "do",
        "while",
        "if",
        "then",
        "else",
        "elseif",
        "end",
        "return",
        "call",
        "and",
        "or",
        "not",
        "int",
    }
)

_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+)
    | (?P<ID>[A-Za-z_]\w*)
    | (?P<OP><=|>=|==|!=|->|[-+*/(),:<>=\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is NUMBER, ID, a keyword (its own spelling), an operator
    spelling, NEWLINE, or EOF.  ``value`` carries the parsed number or the
    identifier text.
    """

    kind: str
    value: object
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.value!r}, line={self.line})"


def _strip_comment(line: str) -> str:
    # only ``#`` starts a comment: ``!`` would collide with ``!=``
    if "#" in line:
        line = line[: line.index("#")]
    return line


def tokenize(source: str) -> list[Token]:
    """Tokenize source text; raises :class:`LexError` on bad input."""
    tokens: list[Token] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        pos = 0
        emitted_any = False
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise LexError(f"unexpected character {line[pos]!r}", line_no)
            pos = m.end()
            emitted_any = True
            if m.lastgroup == "NUMBER":
                text = m.group("NUMBER")
                if any(ch in text for ch in ".eE"):
                    tokens.append(Token("NUMBER", float(text), line_no))
                else:
                    tokens.append(Token("NUMBER", int(text), line_no))
            elif m.lastgroup == "ID":
                text = m.group("ID")
                if text in KEYWORDS:
                    tokens.append(Token(text, text, line_no))
                else:
                    tokens.append(Token("ID", text, line_no))
            else:
                text = m.group("OP")
                tokens.append(Token(text, text, line_no))
        if emitted_any:
            tokens.append(Token("NEWLINE", None, line_no))
    tokens.append(Token("EOF", None, len(source.splitlines()) + 1))
    return tokens
