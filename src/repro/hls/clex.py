"""Lexer for the synthesizable C subset.

Produces a flat token list.  Multi-word type spellings (``unsigned
char``, ``unsigned short``, ``unsigned int``) are fused into a single
type token so the parser sees one spelling.  ``//`` and ``/* */``
comments are skipped; ``#`` preprocessor lines are rejected with a
pointer to use ``const int`` globals instead.

The scanner is a single precompiled alternation (:data:`_TOKEN_RE`):
one regex step per token, tokens built as plain tuples, and the
``unsigned`` fusion done in the same scan.  The per-function cache keys
its front end on the token stream (:func:`token_fingerprint`) so that
comment and whitespace edits never invalidate post-lex stages; on a
cold compile the token list that produced the fingerprint is handed
straight to the parser, so each source is lexed once.
"""

from __future__ import annotations

import hashlib
import re
from enum import Enum
from typing import NamedTuple

from repro.util.errors import CSyntaxError, SourceLocation

KEYWORDS = frozenset(
    {
        "void",
        "bool",
        "char",
        "short",
        "int",
        "unsigned",
        "float",
        "uint8",
        "int16",
        "uint16",
        "uint",
        "const",
        "if",
        "else",
        "for",
        "while",
        "do",
        "switch",
        "case",
        "default",
        "return",
        "break",
        "continue",
        "true",
        "false",
    }
)

# Order matters: longest operators first.
OPERATORS = [
    "<<=",
    ">>=",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ",",
    ";",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
]

_TYPE_WORDS = {"char", "short", "int"}


class CTokKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    OP = "op"
    EOF = "eof"


#: kind -> its fingerprint spelling (``Enum.value`` is a property lookup).
_KIND_TAG = {kind: kind.value for kind in CTokKind}


class CToken(NamedTuple):
    kind: CTokKind
    value: str
    loc: SourceLocation

    def is_kw(self, word: str) -> bool:
        return self.kind is CTokKind.KEYWORD and self.value == word

    def is_op(self, op: str) -> bool:
        return self.kind is CTokKind.OP and self.value == op


#: One alternation, tried left to right — the token table, compiled once.
#: Only comments overlap another alternative (the ``/`` operator), so
#: they come first of the two; whitespace and words, the commonest
#: tokens, are tried before everything else.  Operators are matched
#: longest-first: the multi-character ones as literals, the single
#: characters as one class.
_TOKEN_RE = re.compile(
    "|".join(
        (
            r"(?P<ws>\s+)",
            r"(?P<word>[^\W\d]\w*)",
            r"(?P<comment>//[^\n]*|/\*.*?\*/)",
            r"(?P<badcomment>/\*)",  # `/*` with no closing `*/` anywhere
            "(?P<op>"
            + "|".join(re.escape(op) for op in OPERATORS if len(op) > 1)
            + "|["
            + "".join(re.escape(op) for op in OPERATORS if len(op) == 1)
            + "])",
            r"(?P<hex>0[xX][0-9a-fA-F]*)",
            # digits [. digits*] [exponent] | . digits+ [exponent],
            # optionally suffixed f/F; the exponent needs at least one
            # digit or it is left for the identifier that follows.
            r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?[fF]?)",
            r"(?P<bad>.)",
        )
    ),
    re.DOTALL,
)

_FLOAT_MARKS = frozenset(".eEfF")


def clex(text: str, filename: str = "<c>") -> list[CToken]:
    """Tokenize C source *text*; raises :class:`CSyntaxError` on bad input.

    ``unsigned char|short|int`` is fused into one keyword token as the
    scan goes (the fused token keeps the location of ``unsigned``), so
    there is no second pass over the list.
    """
    tokens: list[CToken] = []
    append = tokens.append
    # ``tuple.__new__`` builds a token without a Python-level __new__ frame.
    new = tuple.__new__
    KEYWORD, IDENT, OP = CTokKind.KEYWORD, CTokKind.IDENT, CTokKind.OP
    line = 1
    line_start = 0  # offset of the first character of the current line
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            word = m.group()
            nl = word.count("\n")
            if nl:
                line += nl
                line_start = m.start() + word.rfind("\n") + 1
            pos = m.end()
            continue
        start, pos = m.span()
        word = text[start:pos]
        loc = SourceLocation(line, start - line_start + 1, filename)
        if kind == "op":
            append(new(CToken, (OP, word, loc)))
        elif kind == "word":
            if word not in KEYWORDS:
                append(new(CToken, (IDENT, word, loc)))
            elif word in _TYPE_WORDS and tokens and tokens[-1].value == "unsigned":
                tokens[-1] = new(CToken, (KEYWORD, f"unsigned_{word}", tokens[-1].loc))
            else:
                append(new(CToken, (KEYWORD, word, loc)))
        elif kind == "num":
            if any(c in _FLOAT_MARKS for c in word):
                if word[-1] in "fF":
                    word = word[:-1]
                append(new(CToken, (CTokKind.FLOAT, word, loc)))
            else:
                append(new(CToken, (CTokKind.INT, word, loc)))
        elif kind == "hex":
            append(new(CToken, (CTokKind.INT, word, loc)))
        elif kind == "badcomment":
            raise CSyntaxError("unterminated block comment", loc)
        else:  # bad
            if word == "#":
                raise CSyntaxError(
                    "preprocessor directives are not supported; "
                    "use 'const int NAME = ...;' globals instead",
                    loc,
                )
            raise CSyntaxError(f"illegal character {word!r}", loc)
    append(
        CToken(CTokKind.EOF, "", SourceLocation(line, pos - line_start + 1, filename))
    )
    return tokens


def token_fingerprint(tokens: list[CToken]) -> str:
    """SHA-256 over the token stream, ignoring source locations.

    Two sources share a fingerprint iff they lex to the same (kind,
    value) sequence — so editing comments, whitespace or line breaks
    never changes it, while any single-character semantic edit does.
    The per-function compilation cache keys its front-end stage on this.
    """
    tag = _KIND_TAG
    return hashlib.sha256(
        "".join([f"{tag[tok.kind]}\x00{tok.value}\x01" for tok in tokens]).encode()
    ).hexdigest()
