"""The C lexer against a reference implementation kept in this file.

The reference is the two-pass lexer ``clex`` replaced: a token loop over
the same token table, ordered as the original (comments first), that
builds every token and then fuses ``unsigned char|short|int`` in a
second pass over the list.  The one-pass lexer must produce the same
(kind, value, location) sequence, raise the same errors, and hash to the
same fingerprint as the original four-``update`` digest.
"""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.audio import build_audio_app
from repro.apps.filters2d import gauss2d_src, sobel2d_src
from repro.apps.generator import random_task_graph
from repro.apps.kernels import edge_src, gauss_src
from repro.apps.otsu.csrc import all_sources
from repro.hls.clex import KEYWORDS, OPERATORS, CTokKind, clex, token_fingerprint
from repro.hls.cparse import parse_c
from repro.util.errors import CSyntaxError, SourceLocation

# -- the reference ----------------------------------------------------------

_REF_RE = re.compile(
    "|".join(
        (
            r"(?P<comment>//[^\n]*|/\*.*?\*/)",
            r"(?P<badcomment>/\*)",
            r"(?P<hex>0[xX][0-9a-fA-F]*)",
            r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?[fF]?)",
            r"(?P<word>[^\W\d]\w*)",
            "(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + ")",
            r"(?P<ws>\s+)",
            r"(?P<bad>.)",
        )
    ),
    re.DOTALL,
)


def _ref_lex(text, filename="<c>"):
    """(kind, value, loc) triples, then the separate fusion pass."""
    tokens = []
    line, line_start, pos = 1, 0, 0
    for m in _REF_RE.finditer(text):
        start, kind, word = m.start(), m.lastgroup, m.group()
        if kind in ("ws", "comment"):
            nl = word.count("\n")
            if nl:
                line += nl
                line_start = start + word.rfind("\n") + 1
            pos = m.end()
            continue
        loc = SourceLocation(line, start - line_start + 1, filename)
        if kind == "word":
            tokens.append(
                (CTokKind.KEYWORD if word in KEYWORDS else CTokKind.IDENT, word, loc)
            )
        elif kind == "op":
            tokens.append((CTokKind.OP, word, loc))
        elif kind == "num":
            if any(c in ".eEfF" for c in word):
                if word[-1] in "fF":
                    word = word[:-1]
                tokens.append((CTokKind.FLOAT, word, loc))
            else:
                tokens.append((CTokKind.INT, word, loc))
        elif kind == "hex":
            tokens.append((CTokKind.INT, word, loc))
        elif kind == "badcomment":
            raise CSyntaxError("unterminated block comment", loc)
        elif word == "#":
            raise CSyntaxError(
                "preprocessor directives are not supported; "
                "use 'const int NAME = ...;' globals instead",
                loc,
            )
        else:
            raise CSyntaxError(f"illegal character {word!r}", loc)
        pos = m.end()
    tokens.append((CTokKind.EOF, "", SourceLocation(line, pos - line_start + 1, filename)))
    return _ref_fuse_unsigned(tokens)


def _ref_fuse_unsigned(tokens):
    out = []
    i = 0
    while i < len(tokens):
        kind, value, loc = tokens[i]
        if (
            kind is CTokKind.KEYWORD
            and value == "unsigned"
            and i + 1 < len(tokens)
            and tokens[i + 1][1] in ("char", "short", "int")
        ):
            out.append((CTokKind.KEYWORD, f"unsigned_{tokens[i + 1][1]}", loc))
            i += 2
            continue
        out.append(tokens[i])
        i += 1
    return out


def _ref_fingerprint(triples):
    h = hashlib.sha256()
    for kind, value, _loc in triples:
        h.update(kind.value.encode())
        h.update(b"\x00")
        h.update(value.encode())
        h.update(b"\x01")
    return h.hexdigest()


def _flat(triples):
    return [(k, v, loc.line, loc.column, loc.filename) for k, v, loc in triples]


def _outcome(lex, text):
    try:
        return _flat(lex(text))
    except CSyntaxError as exc:
        return ("error", str(exc))


def _app_sources():
    sources = dict(all_sources(24 * 24))
    sources["gauss"] = gauss_src(64)
    sources["edge"] = edge_src(64)
    sources["GAUSS2D"] = gauss2d_src(32, 32)
    sources["SOBEL2D"] = sobel2d_src(32, 32)
    sources.update(build_audio_app(n=1024, frame=64)[3])
    for seed in (0, 1, 2018, 2019):
        _graph, generated = random_task_graph(
            lite_nodes=4, stream_chains=2, chain_length=7, stream_depth=32, seed=seed
        )
        sources.update({f"{seed}:{k}": v for k, v in generated.items()})
    return sources


# -- equivalence -----------------------------------------------------------


@pytest.mark.parametrize("name, text", sorted(_app_sources().items()))
def test_app_sources_lex_as_reference(name, text):
    tokens = clex(text)
    assert _flat(tokens) == _flat(_ref_lex(text))
    assert token_fingerprint(tokens) == _ref_fingerprint(_ref_lex(text))


@pytest.mark.parametrize(
    "text, values",
    [
        ("unsigned /*c*/ int x;", ["unsigned_int", "x", ";"]),
        ("unsigned unsigned int", ["unsigned", "unsigned_int"]),
        ("unsigned", ["unsigned"]),
        ("int unsigned", ["int", "unsigned"]),
        ("unsigned\n  char // c\n short", ["unsigned_char", "short"]),
        ("unsigned_int unsigned float", ["unsigned_int", "unsigned", "float"]),
    ],
)
def test_unsigned_fusion_corners(text, values):
    tokens = clex(text)
    assert [t.value for t in tokens[:-1]] == values
    assert _flat(tokens) == _flat(_ref_lex(text))


def test_fused_token_keeps_the_unsigned_location():
    tok = clex("x;\n  unsigned /* gap */ short y;")[2]
    assert (tok.value, tok.loc.line, tok.loc.column) == ("unsigned_short", 2, 3)


_SOUP = st.sampled_from(
    [
        "unsigned", "int", "char", "short", "float", "uint8", "x", "_y1", "a",
        "0", "42", "0x1F", "0X", "1.5", "2e3", "7.0f", ".25", "3e", "1.e+2F",
        "<<=", ">>", "<", "=", "==", "!", "&&", "&", "|", "||", "+", "++", "-",
        "--", "/", "*", "%", "^", "~", "?", ":", ",", ";", "(", ")", "[", "]",
        "{", "}", ".",
        " ", "  ", "\t", "\n", "\n\n  ", "\x0b", "\r\n",
        "/*c*/", "/* a\nb */", "// x\n", "//", "/*", "#", "@", "$", "'", "é",
    ]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_SOUP, max_size=24))
def test_token_soups_lex_as_reference(parts):
    text = "".join(parts)
    outcome = _outcome(clex, text)
    assert outcome == _outcome(_ref_lex, text)
    if outcome[0] != "error":
        assert token_fingerprint(clex(text)) == _ref_fingerprint(_ref_lex(text))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab1 .x_\t\n/*+-<>=!&#@eEfF0", max_size=30))
def test_character_soups_lex_as_reference(text):
    assert _outcome(clex, text) == _outcome(_ref_lex, text)


# -- fingerprint ------------------------------------------------------------


def test_fingerprint_matches_the_four_update_digest():
    text = "int f(unsigned char a) { return a << 2; } // tail"
    assert token_fingerprint(clex(text)) == _ref_fingerprint(_ref_lex(text))


def test_fingerprint_is_pinned():
    assert token_fingerprint(clex("int x = 0x1F;")) == (
        "50803486500f3e0de69d16ec489a88443d245844d941ab59f185bebfa15a5856"
    )


# -- tokens and the parser ------------------------------------------------


def test_tokens_are_tuples_with_helpers():
    tok = clex("int")[0]
    assert tok.is_kw("int") and not tok.is_op("int")
    assert tuple(tok)[:2] == (CTokKind.KEYWORD, "int")


def test_parser_accepts_the_lexed_tokens():
    text = "int f(int a) { return a + 1; }"
    from_tokens = parse_c(text, tokens=clex(text))
    assert from_tokens.func("f").name == parse_c(text).func("f").name
