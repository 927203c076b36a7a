"""Lexer for the textual task-graph DSL (paper Listing 1).

Token kinds:

* ``KEYWORD`` — ``object extends App tg nodes end_nodes edges end_edges
  node end connect link to i is``
* ``IDENT``   — a bare word that is not a keyword (the project name in
  ``object otsu extends App``)
* ``STRING``  — double-quoted node/port names, e.g. ``"MUL"``
* ``SYMBOL``  — quoted Scala symbols; only ``'soc`` is legal
* punctuation — ``{ } ; ( ) ,``

Scala-style line comments (``//``) are skipped so example files can be
annotated.

The scanner runs one precompiled alternation (:data:`_TOKEN_RE`) over
each line: one regex step per token with the blanks before it, the
column read off the match, and tokens built as plain tuples — the shape
of the C lexer (:mod:`repro.hls.clex`).
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from repro.util.errors import DslSyntaxError, SourceLocation

KEYWORDS = frozenset(
    {
        "object",
        "extends",
        "App",
        "tg",
        "nodes",
        "end_nodes",
        "edges",
        "end_edges",
        "node",
        "end",
        "connect",
        "link",
        "to",
        "i",
        "is",
    }
)

PUNCT = frozenset("{};(),")


class TokKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    STRING = "string"
    SYMBOL = "symbol"
    PUNCT = "punct"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokKind
    value: str
    loc: SourceLocation

    def is_kw(self, word: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.value == word

    def is_punct(self, ch: str) -> bool:
        return self.kind is TokKind.PUNCT and self.value == ch


#: One token, after the blanks before it, per match; :func:`tokenize`
#: runs it over one line at a time.  ``\s`` is exactly ``str.isspace``
#: and ``\w`` exactly ``str.isalnum`` plus ``_``; a word must still
#: start with a letter or ``_``, which :func:`tokenize` checks
#: (``[^\W\d]`` would accept non-decimal digits such as ``²``).  A quote
#: with no closing quote on its line is ``badstring``; ``ws`` only
#: matches the blanks that end a line, so ``bad`` never sees a blank.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    + "|".join(
        (
            r"(?P<word>\w+)",
            r'(?P<string>"[^"]*")',
            "(?P<punct>[" + re.escape("".join(sorted(PUNCT))) + "])",
            r"(?P<comment>//)",
            r"(?P<symbol>'\w*)",
            r'(?P<badstring>")',
            r"(?P<bad>\S)",
            r"(?P<ws>\s)",
        )
    )
    + ")"
)


def tokenize(text: str, filename: str = "<dsl>") -> list[Token]:
    """Tokenize *text*; raises :class:`DslSyntaxError` on illegal input.

    Only ``\\n`` ends a line, and every other character, whitespace
    included, is one column.  A comment runs to the end of its line and
    occupies no columns: the end token after a trailing comment sits
    where the comment starts.
    """
    tokens: list[Token] = []
    append = tokens.append
    # ``tuple.__new__`` builds a token without a Python-level __new__ frame.
    new = tuple.__new__
    KEYWORD, IDENT, STRING, PUNCT_ = (
        TokKind.KEYWORD, TokKind.IDENT, TokKind.STRING, TokKind.PUNCT
    )
    finditer = _TOKEN_RE.finditer
    line = 0
    for text_line in text.split("\n"):
        line += 1
        eof_col = len(text_line) + 1
        for m in finditer(text_line):
            kind = m.lastgroup
            if kind == "ws":
                continue
            start, end = m.span(kind)
            if kind == "comment":
                eof_col = start + 1
                break
            loc = SourceLocation(line, start + 1, filename)
            if kind == "word":
                word = text_line[start:end]
                if word in KEYWORDS:
                    append(new(Token, (KEYWORD, word, loc)))
                elif word[0] == "_" or word[0].isalpha():
                    append(new(Token, (IDENT, word, loc)))
                else:
                    raise DslSyntaxError(f"illegal character {word[0]!r}", loc)
            elif kind == "string":
                append(new(Token, (STRING, text_line[start + 1 : end - 1], loc)))
            elif kind == "punct":
                append(new(Token, (PUNCT_, text_line[start], loc)))
            elif kind == "symbol":
                if end - start == 1:
                    raise DslSyntaxError("empty symbol after quote", loc)
                append(new(Token, (TokKind.SYMBOL, text_line[start + 1 : end], loc)))
            elif kind == "badstring":
                raise DslSyntaxError("unterminated string literal", loc)
            else:  # bad
                raise DslSyntaxError(f"illegal character {text_line[start]!r}", loc)
    append(Token(TokKind.EOF, "", SourceLocation(line, eof_col, filename)))
    return tokens
