"""Master-regex lexer for the MiniC dialect.

Produces a flat token stream with line/column information.  Comments are
skipped but the raw source is retained by callers (several pruning
strategies in :mod:`repro.core.pruning` match against raw source text,
e.g. ``/* unused */`` markers).

One compiled regex does the scanning.  Each match is the trivia
(whitespace and comments) before a token plus the token itself, with one
alternative per token class: identifier/keyword, maximal-munch
punctuator, number, string literal, char literal.  ``findall`` runs the
whole text in C; the Python loop only turns each match into a
:class:`Token`, keeping line and column by counting newlines inside the
matched trivia and literals (no other token can span a line).  A match
whose token part is empty is the end of the text or a lexical error; the
error is diagnosed on that cold path, with the message and location of
the character-at-a-time reference lexer that the differential tests
keep (``tests/frontend/reference_lexer.py``).  Tokens are immutable
tuples.

Identifiers and numbers use Python's Unicode ``\\w``/``\\d``.  These agree
with the reference lexer's ``isalnum``/``isdigit`` tests on every input
except a non-ASCII numeric character that is neither a letter nor a
decimal digit (``²``, ``½``), which here starts an identifier.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import LexError


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


# Reading a member off an enum class is a slow metaclass attribute
# lookup; the per-token paths use these module constants (and
# ``tokenize`` its locals) instead.
_PUNCT = TokenKind.PUNCT
_KEYWORD = TokenKind.KEYWORD

KEYWORDS = frozenset(
    {
        "int",
        "char",
        "void",
        "long",
        "short",
        "unsigned",
        "signed",
        "float",
        "double",
        "bool",
        "size_t",
        "ssize_t",
        "struct",
        "union",
        "enum",
        "typedef",
        "static",
        "const",
        "extern",
        "inline",
        "if",
        "else",
        "while",
        "for",
        "do",
        "return",
        "break",
        "continue",
        "sizeof",
        "goto",
        "switch",
        "case",
        "default",
        "NULL",
    }
)


class Token(NamedTuple):
    """A single lexed token."""

    kind: TokenKind
    value: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        return self.value == text and self.kind is _PUNCT

    def is_keyword(self, text: str) -> bool:
        return self.value == text and self.kind is _KEYWORD

    def __repr__(self) -> str:  # compact, useful in parser errors
        return f"Token({self.kind.value}, {self.value!r}, L{self.line})"


_TOKEN_RE = re.compile(
    r"""
    (                                   # 1: trivia before the token
        [ \t\r\n]*
        (?: (?: //[^\n]* | /\*[\s\S]*?\*/ ) [ \t\r\n]* )*
    )
    (?:
        ( [^\W\d]\w* )                  # 2: identifier or keyword
      | (                               # 3: punctuator, longest first
            <<= | >>= | \.\.\. | -> | \+\+ | -- | << | >> | && | \|\|
          | [-+*/%=<>!&|^]=
          | /(?!\*)                     #    a '/*' left here is unterminated
          | [-+*%=<>!&|^~?:;,.(){}\[\]]
        )
      | ( 0[xX][0-9a-fA-F]*[uUlLfF]*    # 4: number (suffixes kept in the text)
        | \d+(?:\.\d*)?[uUlLfF]* )
      | ( "(?:[^"\\\n]|\\[\s\S])*" )    # 5: string literal
      | ( '(?:[^'\\\n]|\\[\s\S])*' )    # 6: char literal
      |                                 # end of text, or a lexical error
    )
    """,
    re.VERBOSE,
)

# A literal's opening quote and body, up to where a bad one stops.
_LITERAL_PREFIX = re.compile(r"""(["'])(?:(?!\1)[^\\\n]|\\[\s\S])*""")

# Builds a Token without the Python-level ``__new__`` NamedTuple adds.
_new_token = tuple.__new__


def _location(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _lex_error(text: str, pos: int, filename: str) -> LexError:
    """Diagnose the text at ``pos``, where no token alternative matched."""
    end = len(text)
    if text.startswith("/*", pos):
        # Reported on the comment's opening line, at the end-of-text column.
        return LexError("unterminated block comment", filename, _location(text, pos)[0], _location(text, end)[1])
    char = text[pos]
    if char in "\"'":
        kind = "string" if char == '"' else "char"
        stop = _LITERAL_PREFIX.match(text, pos).end()
        if text.startswith("\n", stop):
            return LexError(f"newline in {kind} literal", filename, *_location(text, stop))
        return LexError(f"unterminated {kind} literal", filename, *_location(text, end))
    return LexError(f"unexpected character {char!r}", filename, *_location(text, pos))


def tokenize(text: str, filename: str = "<memory>") -> list[Token]:
    """Tokenize ``text`` and return the token list (EOF-terminated)."""
    ident, keyword, punct, number = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT, TokenKind.INT
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    pos = 0  # offset of the text consumed so far
    line_base = -1  # offset of the last newline before pos (-1 on line 1)
    for trivia, word, op, digits, string, char in _TOKEN_RE.findall(text):
        if trivia:
            if "\n" in trivia:
                line += trivia.count("\n")
                line_base = pos + trivia.rindex("\n")
            pos += len(trivia)
        if word:
            append(_new_token(Token, (keyword if word in KEYWORDS else ident, word, line, pos - line_base)))
            pos += len(word)
        elif op:
            append(_new_token(Token, (punct, op, line, pos - line_base)))
            pos += len(op)
        elif digits:
            append(_new_token(Token, (number, digits, line, pos - line_base)))
            pos += len(digits)
        elif string or char:
            literal = string or char
            kind = TokenKind.STRING if string else TokenKind.CHAR
            append(_new_token(Token, (kind, literal[1:-1], line, pos - line_base)))
            if "\n" in literal:  # backslash-newline inside the literal
                line += literal.count("\n")
                line_base = pos + literal.rindex("\n")
            pos += len(literal)
        else:
            break
    if pos != len(text):
        raise _lex_error(text, pos, filename)
    append(_new_token(Token, (TokenKind.EOF, "", line, pos - line_base)))
    return tokens
