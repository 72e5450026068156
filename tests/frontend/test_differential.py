"""Differential tests: the master-regex lexer and the O(1) parser cursor
against the original character-at-a-time lexer and token cursor.

The reference lexer lives in :mod:`tests.frontend.reference_lexer`; the
reference cursor is a verbatim copy of the original ``Parser._peek`` /
``_check_punct`` / ``_check_keyword`` below.  Both pipelines must give the
same tokens (kind, value, line, column) and the same ASTs, or the same
error (type, message, line, column), on every generated corpus file, on
mutated corpus files and on random ASCII C-ish text.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.generator import generate_app, generate_rules_corpus
from repro.corpus.profiles import PROFILES
from repro.errors import LexError, ParseError
from repro.frontend import ast
from repro.frontend.lexer import TokenKind, tokenize
from repro.frontend.parser import Parser
from repro.frontend.preprocessor import preprocess
from tests.frontend.reference_lexer import _PUNCTUATORS, reference_tokenize

SCALE = 0.1
SEED = 7


class ReferenceCursorParser(Parser):
    """The parser with the original token cursor."""

    def _peek(self, offset: int = 0):
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _check_punct(self, text: str) -> bool:
        return self._peek().is_punct(text)

    def _check_keyword(self, text: str) -> bool:
        return self._peek().is_keyword(text)


@pytest.fixture(scope="module")
def corpus_files() -> list[tuple[str, str]]:
    """(name, preprocessed text) of every C file of every corpus profile."""
    apps = [generate_app(name, scale=SCALE, seed=SEED) for name in PROFILES]
    apps.append(generate_rules_corpus(scale=SCALE, seed=SEED))
    files = []
    for app in apps:
        for path, text in sorted(app.repo.snapshot_at(None).items()):
            if path.endswith(".c"):
                pre = preprocess(text, filename=path, config=set(app.build_config))
                files.append((f"{app.name}/{path}", pre.text))
    return files


def _error_key(error: Exception) -> tuple:
    return (type(error).__name__, str(error), error.line, error.column)


def lex_outcome(lex, text: str, filename: str = "t.c"):
    """Token 4-tuples, or the LexError's (type, message, line, column)."""
    try:
        return [tuple(token) for token in lex(text, filename)]
    except LexError as error:
        return _error_key(error)


def parse_outcome(lex, parser_class, text: str, filename: str = "t.c"):
    """The translation unit, or the error's (type, message, line, column)."""
    try:
        return parser_class(lex(text, filename), filename=filename).parse_translation_unit()
    except (LexError, ParseError) as error:
        return _error_key(error)


def new_parse(text: str, filename: str = "t.c"):
    return parse_outcome(tokenize, Parser, text, filename)


def reference_parse(text: str, filename: str = "t.c"):
    return parse_outcome(reference_tokenize, ReferenceCursorParser, text, filename)


# -- lexer -------------------------------------------------------------------


def test_corpus_covers_every_profile(corpus_files):
    profiles = {name.split("/", 1)[0] for name, _ in corpus_files}
    assert set(PROFILES) <= profiles
    assert len(corpus_files) > 200


def test_corpus_tokens_identical(corpus_files):
    mismatched = [
        name
        for name, text in corpus_files
        if lex_outcome(tokenize, text, name) != lex_outcome(reference_tokenize, text, name)
    ]
    assert mismatched == []


LEX_CASES = [
    "",
    "   \n\t\r\n",
    "a /* never closed",
    "a\n  b /* never\nclosed\n  ",
    "/*",
    "/**/",
    "/* a */ /* b",
    "x // trailing comment",
    "// only a comment\n",
    '"abc',
    "'a",
    '"ab\ncd"',
    "'a\nb'",
    'x = "ab\\\ncd"; y',
    "c = '\\\n';",
    '"trailing backslash\\',
    "'\\",
    '"\\"',
    "'\\''",
    '""',
    "''",
    "a @ b",
    "a\n  $",
    "@",
    "#include",
    "`",
    "\\",
    "\f",
    "(...)",
    "a.b",
    "..",
    "....",
    ". . .",
    "a / b /= c",
    "x/",
    "a<<=b>>=c->d++--e",
    "0x 0X1f 0xg 010 09 1.5.3 1e5 10UL 3.14f 7.",
    "int integer NULL null _x x_1 __attribute__",
]


@pytest.mark.parametrize("text", LEX_CASES)
def test_edge_cases_identical(text):
    assert lex_outcome(tokenize, text) == lex_outcome(reference_tokenize, text)


def test_error_edge_cases_do_raise():
    """The cases above include real errors, not only clean token streams."""
    errors = [text for text in LEX_CASES if isinstance(lex_outcome(tokenize, text), tuple)]
    assert len(errors) >= 15


C_PIECES = sorted(set(_PUNCTUATORS)) + [
    " ", "  ", "\t", "\n", "\r\n", "//", "/*", "*/", '"', "'", "\\", "\\\n",
    "@", "$", "#", "int", "char", "x", "_y1", "NULL", "0", "0x", "0xFF", "010",
    "9", "1.5", "10UL", "3f", "e",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(C_PIECES), max_size=40).map("".join))
@example("a /* never closed")
@example('s = "no end')
@example("c = 'x\ny';")
@example('"a\\\nb"')
@example("x @ y")
@example("x $ y")
@example("f(...); s.x")
def test_c_pieces_identical(text):
    assert lex_outcome(tokenize, text) == lex_outcome(reference_tokenize, text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=127), max_size=60))
def test_ascii_text_identical(text):
    assert lex_outcome(tokenize, text) == lex_outcome(reference_tokenize, text)


# -- parser ------------------------------------------------------------------


def test_corpus_asts_identical(corpus_files):
    for name, text in corpus_files:
        new = new_parse(text, name)
        assert not isinstance(new, tuple), new
        assert new == reference_parse(text, name), name


def test_mutated_corpus_identical(corpus_files):
    """Token-level damage to real files drives the parser's error paths
    (including the declaration backtrack) on both cursors."""
    rng = random.Random(SEED)
    pieces = ["", ";", "(", ")", "{", "}", "*", "=", ",", "x", "int", "[", "]", ":", "1"]
    errors = 0
    for name, text in rng.sample(corpus_files, 40):
        tokens = reference_tokenize(text, name)[:-1]
        for _ in range(5):
            index = rng.randrange(len(tokens))
            values = [token.value for token in tokens]
            values[index] = rng.choice(pieces)
            mutated = "".join(
                (f'"{value}"' if token.kind is TokenKind.STRING else f"'{value}'" if token.kind is TokenKind.CHAR else value)
                + rng.choice(" \n")
                for token, value in zip(tokens, values)
            )
            new = new_parse(mutated, name)
            assert new == reference_parse(mutated, name), (name, index)
            errors += isinstance(new, tuple)
    assert errors > 0


PARSE_CASES = [
    # Declaration backtrack: a typedef name that turns out to start an
    # expression, and IDENT-led statements the heuristics misread.
    "typedef int T;\nint f(void) { T(3); return 0; }",
    "typedef int T;\nint f(void) { T * p; T = 1; return 0; }",
    "int f(int a, int b) { a * b; return a; }",
    "int f(int a) { a b = 1; return a; }",
    "int f(int a) { a b(1); return a; }",
    "typedef int T;\nint f(void) { T + ; }",
    "typedef int T;\nint f(void) { T x y; }",
    "int f(int a) { acl_t e; e = a; return e; }",
    "int f(void) { x * ; }",
    "int f(void) { if (x { } }",
    "int f(void) { return 0 }",
    "int f(void) { switch (x) { y = 1; } }",
    "int f(void) { switch (x) { case 1: ",
    "int f(void) {",
    "int f(void) { int a[3; }",
    "struct s { int a; ",
    "int g(...);\nint f(void) { lbl: ; goto lbl; }",
    "int x __attribute__((unused)",
    "int f(int [[maybe_unused]] a) { return (int) a; }",
    "int f(void) { return sizeof(int) + sizeof x; }",
    "typedef struct S { int a; } S_t;\nint f(S_t *s) { return s->a ? s->a : -1; }",
    "int f(void) { for (int i = 0; i < 3; i++, j--) { } return 0; }",
]


@pytest.mark.parametrize("text", PARSE_CASES)
def test_parse_cases_identical(text):
    assert new_parse(text) == reference_parse(text)


def test_parse_cases_include_errors():
    errors = [text for text in PARSE_CASES if isinstance(new_parse(text), tuple)]
    assert len(errors) >= 5


def test_declaration_backtrack_is_exercised():
    """``T(3);`` starts like a declaration of type ``T``; the parser must
    back out of it and reparse the statement as a call."""
    unit = new_parse(PARSE_CASES[0])
    statement = unit.functions[0].body.statements[0]
    assert isinstance(statement, ast.ExprStmt)
    assert isinstance(statement.expr, ast.Call)
