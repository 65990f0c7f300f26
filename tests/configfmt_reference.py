"""The config parser as it was before the single-pass tokenizer: a scanner
that matches one token at a time and builds a line index, and a
recursive-descent parser over its (kind, lexeme, offset) tokens.

Kept only as the reference that ``test_configfmt_differential.py``
compares ``conffuzz.configfmt.parse_config`` against; the package does not
use it.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from conffuzz.configfmt import (
    INT64_MAX,
    INT64_MIN,
    ConfigDocument,
    ConfigList,
    ConfigSyntaxError,
    DuplicateNameError,
    Group,
    Setting,
    Value,
)

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|\#[^\n]*|//[^\n]*)
    | (?P<real>[+-]?(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?\d+[eE][+-]?\d+)
    | (?P<int>[+-]?\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<punct>[={}();,])
    """,
    re.VERBOSE,
)

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(i + 1)
        self.tokens: list[tuple[str, str, int]] = []  # (kind, lexeme, offset)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ConfigSyntaxError(
                    f"unexpected character {text[pos]!r}", *self.line_col(pos)
                )
            if m.lastgroup != "skip":
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.tokens.append(("eof", "", len(text)))

    def line_col(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1


class _Parser:
    def __init__(self, text: str):
        self.scanner = _Scanner(text)
        self.tokens = self.scanner.tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, offset: int) -> ConfigSyntaxError:
        return ConfigSyntaxError(message, *self.scanner.line_col(offset))

    def expect_punct(self, lexeme: str) -> None:
        kind, lex, off = self.peek()
        if kind != "punct" or lex != lexeme:
            raise self.error(f"expected {lexeme!r}, found {lex or 'end of input'!r}", off)
        self.advance()

    def parse_document(self) -> ConfigDocument:
        settings = self.parse_settings(closer=None)
        return ConfigDocument(Group(settings))

    def parse_settings(self, closer: str | None) -> tuple[Setting, ...]:
        settings: list[Setting] = []
        names: set[str] = set()
        while True:
            kind, lex, off = self.peek()
            if closer is not None and kind == "punct" and lex == closer:
                return tuple(settings)
            if kind == "eof":
                if closer is None:
                    return tuple(settings)
                raise self.error(f"expected {closer!r} before end of input", off)
            if kind != "name":
                raise self.error(f"expected setting name, found {lex!r}", off)
            self.advance()
            if lex in names:
                raise DuplicateNameError(lex, *self.scanner.line_col(off))
            names.add(lex)
            self.expect_punct("=")
            value = self.parse_value()
            self.expect_punct(";")
            settings.append(Setting(lex, value))

    def parse_value(self) -> Value:
        kind, lex, off = self.peek()
        if kind == "punct" and lex == "{":
            self.advance()
            settings = self.parse_settings(closer="}")
            self.expect_punct("}")
            return Group(settings)
        if kind == "punct" and lex == "(":
            self.advance()
            return self.parse_list()
        if kind == "int":
            self.advance()
            value = int(lex)
            if not INT64_MIN <= value <= INT64_MAX:
                raise self.error(f"integer out of 64-bit range: {lex}", off)
            return value
        if kind == "real":
            self.advance()
            return float(lex)
        if kind == "str":
            self.advance()
            return self.unescape(lex, off)
        if kind == "name" and lex in ("true", "false"):
            self.advance()
            return lex == "true"
        raise self.error(f"expected value, found {lex or 'end of input'!r}", off)

    def parse_list(self) -> ConfigList:
        values: list[Value] = []
        kind, lex, _ = self.peek()
        if kind == "punct" and lex == ")":
            self.advance()
            return ConfigList(())
        while True:
            values.append(self.parse_value())
            kind, lex, off = self.peek()
            if kind == "punct" and lex == ",":
                self.advance()
                continue
            if kind == "punct" and lex == ")":
                self.advance()
                return ConfigList(tuple(values))
            raise self.error(f"expected ',' or ')', found {lex or 'end of input'!r}", off)

    def unescape(self, lexeme: str, offset: int) -> str:
        body = lexeme[1:-1]
        out: list[str] = []
        i = 0
        while i < len(body):
            ch = body[i]
            if ch == "\\":
                esc = body[i + 1]
                if esc not in _ESCAPES:
                    raise self.error(f"unsupported escape \\{esc}", offset)
                out.append(_ESCAPES[esc])
                i += 2
            else:
                out.append(ch)
                i += 1
        return "".join(out)


def reference_parse_config(text: str) -> ConfigDocument:
    return _Parser(text).parse_document()

