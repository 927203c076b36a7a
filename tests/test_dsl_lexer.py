"""The DSL lexer against a reference implementation kept in this file.

The reference is the character-at-a-time ``tokenize`` the one-pass
regex scanner replaced, kept verbatim apart from its name.  The scanner
must produce the same (kind, value, location) sequence and raise the
same error class with the same message at the same location, on
arbitrary text and on every DSL text the examples and apps emit.
"""

import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.audio import build_audio_app
from repro.apps.generator import random_task_graph
from repro.apps.kernels import fig4_graph
from repro.apps.otsu.app import build_otsu_custom, buildable_hw_sets
from repro.dsl import emit_dsl, graph_from_htg
from repro.dsl.lexer import KEYWORDS, PUNCT, TokKind, Token, tokenize
from repro.util.errors import DslSyntaxError, SourceLocation

EXAMPLES = Path(__file__).parent.parent / "examples"

# -- the reference ----------------------------------------------------------


def _ref_tokenize(text: str, filename: str = "<dsl>") -> list[Token]:
    """Tokenize *text*; raises :class:`DslSyntaxError` on illegal input."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def loc() -> SourceLocation:
        return SourceLocation(line, col, filename)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in PUNCT:
            tokens.append(Token(TokKind.PUNCT, c, loc()))
            i += 1
            col += 1
            continue
        if c == '"':
            start = loc()
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise DslSyntaxError("unterminated string literal", start)
                j += 1
            if j >= n:
                raise DslSyntaxError("unterminated string literal", start)
            value = text[i + 1 : j]
            tokens.append(Token(TokKind.STRING, value, start))
            col += j + 1 - i
            i = j + 1
            continue
        if c == "'":
            start = loc()
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            value = text[i + 1 : j]
            if not value:
                raise DslSyntaxError("empty symbol after quote", start)
            tokens.append(Token(TokKind.SYMBOL, value, start))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            start = loc()
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = TokKind.KEYWORD if word in KEYWORDS else TokKind.IDENT
            tokens.append(Token(kind, word, start))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(f"illegal character {c!r}", loc())

    tokens.append(Token(TokKind.EOF, "", loc()))
    return tokens


def _flat(tokens):
    return [(t.kind, t.value, t.loc.line, t.loc.column, t.loc.filename) for t in tokens]


def _outcome(lex, text):
    try:
        return _flat(lex(text, "f.tg"))
    except DslSyntaxError as exc:
        loc = exc.location
        return ("error", type(exc), str(exc), loc.line, loc.column, loc.filename)


def _emitted_texts():
    """Every DSL text the app builders and the examples produce."""
    texts = {}
    for hw in buildable_hw_sets():
        app = build_otsu_custom(hw, width=8, height=8)
        if app.phase_name is not None:
            texts["otsu:" + "+".join(sorted(hw))] = emit_dsl(app.dsl_graph())
    texts["fig4"] = emit_dsl(fig4_graph())
    texts["fig4:bare"] = emit_dsl(fig4_graph(), wrap_object=False)
    htg, partition, *_ = build_audio_app(n=256, frame=64)
    texts["audio"] = emit_dsl(graph_from_htg(htg, partition))
    for seed in (0, 1, 2018, 2019):
        graph, _sources = random_task_graph(
            lite_nodes=4, stream_chains=2, chain_length=7, stream_depth=32, seed=seed
        )
        texts[f"random:{seed}"] = emit_dsl(graph)
    texts["example:textual_dsl"] = runpy.run_path(str(EXAMPLES / "textual_dsl.py"))[
        "DSL_FILE"
    ]
    return texts


# -- equivalence -----------------------------------------------------------


@pytest.mark.parametrize("name, text", sorted(_emitted_texts().items()))
def test_emitted_texts_lex_as_reference(name, text):
    tokens = tokenize(text, "f.tg")
    assert _flat(tokens) == _flat(_ref_tokenize(text, "f.tg"))
    assert len(tokens) > 10


@pytest.mark.parametrize(
    "text",
    [
        "",
        "tg // trailing comment",
        "tg //",
        "// only a comment\n",
        "a\tb\rc\x0bd\x0ce",
        "x\x1cy\x1dz\x1e_\x1f",
        "x\x85y z",  # whitespace that is not a newline
        "²",  # a digit, not a letter: illegal as a word start
        "a²",  # ... but legal inside a word
        "'²x",  # and as a symbol's first character
        "½",
        "_1 1_",
        "é",  # combining mark after a letter
        "́",
        '"abc\ndef"',
        '"abc',
        '"a"b"',
        '""',
        "'",
        "''soc",
        "'soc",
        "/",
        "/ /",
        "{};(),",
        "café über",
        '"é\t\x1c" x',
    ],
)
def test_corners_lex_as_reference(text):
    assert _outcome(tokenize, text) == _outcome(_ref_tokenize, text)


_SOUP = st.sampled_from(
    [
        "tg", "node", "nodes", "end", "link", "to", "i", "is", "object", "App",
        "x", "_y1", "Otsu", "été", "²", "a²", "1", "42",
        '"MUL"', '"in"', '""', '"', '"a\nb"', "'soc", "'", "'x_1", "'²",
        "{", "}", ";", "(", ")", ",", "/", "//", "// c", "@", "#", "-",
        " ", "  ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
        "\x1e", "\x1f", "\x85", " ", " ", "́", "½",
    ]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_SOUP, max_size=30))
def test_token_soups_lex_as_reference(parts):
    text = "".join(parts)
    assert _outcome(tokenize, text) == _outcome(_ref_tokenize, text)


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=40))
def test_arbitrary_text_lexes_as_reference(text):
    assert _outcome(tokenize, text) == _outcome(_ref_tokenize, text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=' \t\r\n\x0b\x1c\x1f"\'/ab_1²́{}();,', max_size=40))
def test_character_soups_lex_as_reference(text):
    assert _outcome(tokenize, text) == _outcome(_ref_tokenize, text)


# -- tokens -----------------------------------------------------------------


def test_tokens_are_tuples_with_helpers():
    tok = tokenize("tg")[0]
    assert tok.is_kw("tg") and not tok.is_punct("tg")
    assert tuple(tok)[:2] == (TokKind.KEYWORD, "tg")
