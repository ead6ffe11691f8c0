"""Lexer for the P4-subset parser-description language.

Token kinds: identifiers/keywords, integer literals (decimal, ``0x``, ``0b``),
punctuation, and the ternary-mask operator ``&&&`` used in select cases
(as in P4-16).  Comments: ``//`` to end of line and ``/* ... */``.
"""

from __future__ import annotations

from typing import List

from .errors import ParseError, SourceLocation

KEYWORDS = {
    "header",
    "parser",
    "state",
    "extract",
    "extract_var",
    "transition",
    "select",
    "default",
    "accept",
    "reject",
    "lookahead",
    "varbit",
    "stack",
}

PUNCTUATION = {
    "{", "}", "(", ")", "[", "]", ":", ";", ",", "*", "-", "&&&", "..",
}


class Token:
    __slots__ = ("kind", "text", "value", "location")

    def __init__(self, kind: str, text: str, location: SourceLocation, value=None):
        self.kind = kind          # "ident", "keyword", "int", "punct", "eof"
        self.text = text
        self.value = value        # int value for "int" tokens
        self.location = location

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}@{self.location})"


def tokenize(source: str) -> List[Token]:
    """Tokenize the whole source, returning a list ending with an EOF token."""
    tokens: List[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def loc() -> SourceLocation:
        return SourceLocation(line, col)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start = loc()
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise ParseError("unterminated block comment", start)
            advance(2)
            continue
        if source.startswith("&&&", i):
            tokens.append(Token("punct", "&&&", loc()))
            advance(3)
            continue
        if source.startswith("..", i):
            tokens.append(Token("punct", "..", loc()))
            advance(2)
            continue
        if ch in "{}()[]:;,*-":
            tokens.append(Token("punct", ch, loc()))
            advance(1)
            continue
        if ch.isdigit():
            start_loc = loc()
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and (source[j] in "0123456789abcdefABCDEF_"):
                    j += 1
                text = source[i:j]
                value = int(text.replace("_", ""), 16)
            elif source.startswith("0b", i) or source.startswith("0B", i):
                j = i + 2
                while j < n and source[j] in "01_":
                    j += 1
                text = source[i:j]
                value = int(text.replace("_", ""), 2)
            else:
                while j < n and (source[j].isdigit() or source[j] == "_"):
                    j += 1
                text = source[i:j]
                value = int(text.replace("_", ""))
            tokens.append(Token("int", text, start_loc, value=value))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            start_loc = loc()
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_."):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_loc))
            advance(j - i)
            continue
        raise ParseError(f"unexpected character {ch!r}", loc())
    tokens.append(Token("eof", "", loc()))
    return tokens
