"""Tokenizer for the mini-C frontend."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Optional


KEYWORDS = {
    "int",
    "unsigned",
    "char",
    "void",
    "struct",
    "const",
    "if",
    "else",
    "while",
    "return",
    "sizeof",
    "NULL",
    "extern",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<num>0[xX][0-9a-fA-F]+|\d+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op><=|>=|==|!=|->|&&|\|\||[-+*/%<>=!&|(){}\[\];,.])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'ident', 'keyword', 'op', 'eof'
    value: str
    position: int
    line: int


class LexError(ValueError):
    pass


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    length = len(source)
    while position < length:
        match = _TOKEN_RE.match(source, position)
        if match is None:
            line = source.count("\n", 0, position) + 1
            raise LexError(f"unexpected character {source[position]!r} at line {line}")
        position = match.end()
        if match.lastgroup == "ws":
            continue
        line = source.count("\n", 0, match.start()) + 1
        kind = match.lastgroup
        value = match.group()
        if kind == "ident" and value in KEYWORDS:
            kind = "keyword"
        elif kind == "num" and len(value) > 1 and value[0] == "0" and value[1] not in "xX":
            raise LexError(f"unsupported octal literal {value!r} at line {line}")
        tokens.append(Token(kind, value, match.start(), line))
    tokens.append(Token("eof", "", length, source.count("\n") + 1))
    return tokens
