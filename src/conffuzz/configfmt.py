"""Reader and writer for the gNB-style configuration dialect.

The accepted language is a libconfig-shaped subset: ``name = value;``
settings, ``{ ... }`` groups, ``( v, v, ... )`` lists (nested at most
``MAX_NESTING`` deep), ``#`` and ``//`` comments, 64-bit signed integers,
finite decimal reals, double-quoted strings, and bare ``true``/``false``.
Serialization is canonical (one setting per line, two-space indent), so
parse and serialize are exact inverses and document equality can be read
off the serialized bytes.

Individual parameters are addressed by dotted paths such as
``gNBs[0].servingCellConfigCommon[0].dl_carrierBandwidth``.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Iterator
from itertools import islice

from .cache import keep
from .record import Record

__all__ = [
    "ConfigDocument",
    "ConfigError",
    "ConfigSyntaxError",
    "DuplicateNameError",
    "NotAScalarError",
    "ParamPath",
    "PathNotFoundError",
    "diff_params",
    "format_scalar",
    "get_param",
    "parse_config",
    "serialize_config",
]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
# groups and lists nest at most this deep; the limit keeps the recursive
# descent far below the interpreter's recursion limit, so a deep input is
# a syntax error wherever the caller's stack stands
MAX_NESTING = 100

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ConfigError(Exception):
    """Base class for configuration parsing and addressing failures."""


class ConfigSyntaxError(ConfigError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DuplicateNameError(ConfigError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"duplicate setting {name!r} (line {line}, column {col})")
        self.name = name
        self.line = line
        self.col = col


class PathNotFoundError(ConfigError):
    pass


class NotAScalarError(ConfigError):
    pass


Scalar = int | float | str | bool
# a group is a dict from name to value in document order; a list is a tuple
Value = Scalar | dict | tuple


class ConfigDocument(Record):
    """A parsed config: ``root`` maps each top-level name to its value.
    Immutable."""

    __slots__ = _fields = ("root",)

    def __init__(self, root: dict) -> None:
        object.__setattr__(self, "root", root)

    # Equality tracks the canonical serialized form, not the base's field
    # by field; this keeps 1, true and 1.0 apart, which dict equality would
    # not, as bool subclasses int.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigDocument):
            return NotImplemented
        return serialize_config(self) == serialize_config(other)

    def __hash__(self) -> int:
        return hash(serialize_config(self))


class ParamPath(Record):
    """Dotted parameter address; int segments index into lists.  Immutable."""

    __slots__ = _fields = ("segments",)

    def __init__(self, segments: tuple[str | int, ...]) -> None:
        if not segments:
            raise ValueError("empty parameter path")
        if not isinstance(segments[0], str):
            raise ValueError("parameter path must start with an identifier")
        for seg in segments:
            if isinstance(seg, bool) or not isinstance(seg, (str, int)):
                raise ValueError(f"bad path segment: {seg!r}")
            if isinstance(seg, str) and not IDENT_RE.fullmatch(seg):
                raise ValueError(f"bad identifier in path: {seg!r}")
            if isinstance(seg, int) and seg < 0:
                raise ValueError(f"negative list index in path: {seg}")
        object.__setattr__(self, "segments", segments)

    _SEGMENT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)\Z")

    @classmethod
    def parse(cls, text: str) -> "ParamPath":
        segments: list[str | int] = []
        for chunk in text.split("."):
            m = cls._SEGMENT_RE.fullmatch(chunk)
            if not m:
                raise ValueError(f"malformed parameter path: {text!r}")
            segments.append(m.group(1))
            for idx in re.findall(r"\[(\d+)\]", m.group(2)):
                segments.append(int(idx))
        return cls(tuple(segments))

    def __str__(self) -> str:
        parts: list[str] = []
        for seg in self.segments:
            if isinstance(seg, str):
                if parts:
                    parts.append(".")
                parts.append(seg)
            else:
                parts.append(f"[{seg}]")
        return "".join(parts)


# ---------------------------------------------------------------------------
# Parsing

# One match per lexeme: the prefix skips whitespace and comments, and the
# group yields the lexeme itself.  ``\Z`` yields the empty lexeme at the
# end of input, and the one-character catch-all yields a character no token
# can start with.  A number with ".", "e" or "E" is a real.  The string rule
# has no DOTALL, so a backslash before a newline does not continue a string.
# Lexing is line-local, and ``_lex`` relies on it: no lexeme holds a "\n",
# a comment ends at one, a string may not hold a raw one and "." matches
# none.  A token rule that crosses a newline breaks ``_lex``.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:(?:\#|//)[^\n]*\s*)*
    (
      [A-Za-z_][A-Za-z0-9_]*
    | [={}();,]
    | [+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?
    | "(?:[^"\\\n]|\\.)*"
    | \Z
    | .
    )
    """,
    re.VERBOSE,
)

# spelled out: importing ``string`` would add a millisecond to every
# start of the validator as an external target
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# a lexeme that is one character no token can start with; every longer
# lexeme is a well-formed token
_BAD_LEXEME_RE = re.compile(r"[^={}();,A-Za-z_\d]")

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
# the writer's side of the same alphabet: each character to its escape
_ESCAPE_TABLE = str.maketrans({ch: "\\" + esc for esc, ch in _ESCAPES.items()})


class _Fail(Exception):
    """A grammar error at the lexeme the parser consumed last."""

    def __init__(self, message: str, duplicate: str | None = None):
        super().__init__(message)
        self.duplicate = duplicate


def _expected(what: str, found: str) -> _Fail:
    return _Fail(f"expected {what}, found {found or 'end of input'!r}")


def _settings(it: Iterator, closer: str, depth: int) -> dict:
    """Settings up to and including ``closer``; ``""`` is the end of input.

    ``depth`` counts the groups and lists around them.  A kept setting
    line (see ``_lex``) stands where a setting name is read.
    """
    settings: dict = {}
    while True:
        name = next(it)
        if type(name) is tuple:
            name, value = name
            if name in settings:
                raise _Fail("", duplicate=name)
            settings[name] = value
            continue
        if name == closer:
            return settings
        if not name:
            raise _Fail(f"expected {closer!r} before end of input")
        if name[0] not in _NAME_START:
            raise _Fail(f"expected setting name, found {name!r}")
        if name in settings:
            raise _Fail("", duplicate=name)
        lex = next(it)
        if lex != "=":
            raise _expected("'='", lex)
        value = _value(it, next(it), depth)
        lex = next(it)
        if lex != ";":
            raise _expected("';'", lex)
        settings[name] = value


def _value(it: Iterator, lex: str, depth: int) -> Value:
    """The value that starts with ``lex``, the lexeme just consumed."""
    if type(lex) is not str:
        raise _Fail("expected value, found a setting")
    first = lex[:1]
    if first == "{" or first == "(":
        if depth == MAX_NESTING:
            raise _Fail(f"nesting deeper than {MAX_NESTING} levels")
        if first == "{":
            return _settings(it, "}", depth + 1)
        return _list(it, depth + 1)
    if first == '"' and len(lex) > 1:
        return _unescape(lex)
    if lex == "true" or lex == "false":
        return lex == "true"
    # past names and strings, a longer lexeme is a number; a single
    # character is one only if it is a digit
    if (len(lex) > 1 and first not in _NAME_START) or lex.isdecimal():
        if "." in lex or "e" in lex or "E" in lex:
            real = float(lex)
            if not math.isfinite(real):
                raise _Fail(f"real out of range: {lex}")
            return real
        value = int(lex) if len(lex) <= 20 else _long_int(lex)
        if not INT64_MIN <= value <= INT64_MAX:
            raise _Fail(f"integer out of 64-bit range: {lex}")
        return value
    raise _expected("value", lex)


def _long_int(lex: str) -> int:
    """``int(lex)`` for a lexeme longer than a sign and 19 digits.

    ``int`` refuses more than 4300 digits, leading zeros included, so the
    zeros go first and a longer rest is out of range anyway.
    """
    digits = lex.lstrip("+-")
    # int() of a single digit in any script is its value
    start = next((i for i, ch in enumerate(digits) if int(ch)), len(digits))
    if len(digits) - start > 19:
        raise _Fail(f"integer out of 64-bit range: {lex}")
    value = int(digits[start:] or "0")
    return -value if lex[0] == "-" else value


def _list(it: Iterator, depth: int) -> tuple:
    lex = next(it)
    if lex == ")":
        return ()
    values = [_value(it, lex, depth)]
    while True:
        lex = next(it)
        if lex == ",":
            values.append(_value(it, next(it), depth))
        elif lex == ")":
            return tuple(values)
        else:
            raise _expected("',' or ')'", lex)


def _unescape(lexeme: str) -> str:
    body = lexeme[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            esc = body[i + 1]
            if esc not in _ESCAPES:
                raise _Fail(f"unsupported escape \\{esc}")
            out.append(_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _located(text: str, lexemes: list[str], failed: int, fail: _Fail) -> ConfigError:
    """The error to raise for ``fail`` at lexeme ``failed``.

    A character no token starts with is reported first, wherever it is,
    as if the whole text were tokenized before parsing.
    """
    bad = next(
        (i for i, lex in enumerate(lexemes) if _BAD_LEXEME_RE.fullmatch(lex)), None
    )
    index = failed if bad is None else bad
    offset = next(islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    if bad is not None:
        return ConfigSyntaxError(f"unexpected character {lexemes[bad]!r}", line, col)
    if fail.duplicate is not None:
        return DuplicateNameError(fail.duplicate, line, col)
    return ConfigSyntaxError(str(fail), line, col)


# What ``_lex`` has made of each line it has seen: its lexemes, or, for a
# line that is exactly one ``name = scalar;`` setting, the one pair
# ``(name, value)`` that ``_settings`` takes in place of those four
# lexemes.  A fuzzing campaign's mutants differ from each other in a line
# or so, so nearly every line is one seen before, and most lines of a gnb
# config are one setting each.  Kept by ``cache.keep`` within
# ``_LINE_ENTRIES`` lines, and a line longer than ``_LINE_CHARS``
# characters is not kept, so whatever the input it keeps at most 1024
# lines of at most 128 characters and at most 128 lexemes each.  Pooled
# campaign workers parse on threads, so a store takes the lock that keeps
# the bound; a read needs none.
_LINE_ENTRIES = 1024
_LINE_CHARS = 128
_lines: dict[str, tuple] = {}
_lines_lock = threading.Lock()


def _line_items(line: str) -> tuple:
    """The line's lexemes, or its one setting as a ``(name, value)`` pair."""
    # the empty lexemes are the line's end
    lexed = tuple(filter(None, _TOKEN_RE.findall(line)))
    if (
        len(lexed) == 4
        and lexed[0][0] in _NAME_START
        and lexed[1] == "="
        and lexed[2] not in ("{", "(")
        and lexed[3] == ";"
    ):
        try:
            return ((lexed[0], _value(iter(()), lexed[2], 0)),)
        except _Fail:
            pass
    return lexed


def _lex(text: str) -> list:
    """``_TOKEN_RE.findall(text)`` with one empty lexeme at the end, and
    each one-setting line as its pair.

    ``findall`` yields one or two empty lexemes at the end, two after a
    trailing comment; the parser stops at the first, so the lists read the
    same to it.
    """
    items: list = []
    lines = _lines
    for line in text.split("\n"):
        lexed = lines.get(line)
        if lexed is None:
            lexed = _line_items(line)
            if len(line) <= _LINE_CHARS:
                with _lines_lock:
                    keep(lines, line, lexed, _LINE_ENTRIES)
        items += lexed
    items.append("")
    return items


def parse_config(text: str) -> ConfigDocument:
    try:
        return ConfigDocument(_settings(iter(_lex(text)), "", 0))
    except _Fail:
        pass
    # a pair stands for four lexemes, so the parse is made again over the
    # text's own lexemes, which locate the failure
    lexemes = _TOKEN_RE.findall(text)
    it = iter(lexemes)
    try:
        return ConfigDocument(_settings(it, "", 0))
    except _Fail as fail:
        # the parser fails on the lexeme it consumed last
        failed = len(lexemes) - sum(1 for _ in it) - 1
        raise _located(text, lexemes, failed, fail) from None


# ---------------------------------------------------------------------------
# Serialization


def format_scalar(v: Scalar) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        if not INT64_MIN <= v <= INT64_MAX:
            raise ValueError(f"integer out of 64-bit range: {v}")
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite real not representable: {v!r}")
        return repr(v)
    if isinstance(v, str):
        return '"' + v.translate(_ESCAPE_TABLE) + '"'
    raise ValueError(f"not a scalar: {v!r}")


def _emit_settings(group: dict, indent: int, out: list[str]) -> None:
    for name, value in group.items():
        out.append("  " * indent)
        out.append(name)
        out.append(" = ")
        _emit_value(value, indent, out)
        out.append(";\n")


def _emit_value(v: Value, indent: int, out: list[str]) -> None:
    if isinstance(v, dict):
        if not v:
            out.append("{ }")
            return
        out.append("{\n")
        _emit_settings(v, indent + 1, out)
        out.append("  " * indent)
        out.append("}")
    elif isinstance(v, tuple):
        if not v:
            out.append("( )")
            return
        out.append("(\n")
        last = len(v) - 1
        for i, item in enumerate(v):
            out.append("  " * (indent + 1))
            _emit_value(item, indent + 1, out)
            out.append(",\n" if i < last else "\n")
        out.append("  " * indent)
        out.append(")")
    else:
        out.append(format_scalar(v))


def serialize_config(d: ConfigDocument) -> str:
    out: list[str] = []
    _emit_settings(d.root, 0, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# Parameter addressing


def _resolve(d: ConfigDocument, p: ParamPath) -> Value:
    cur: Value = d.root
    for seg in p.segments:
        if isinstance(seg, str):
            if not isinstance(cur, dict):
                raise PathNotFoundError(f"no group at {seg!r} in {p}")
            if seg not in cur:
                raise PathNotFoundError(f"no setting {seg!r} in {p}")
            cur = cur[seg]
        else:
            if not isinstance(cur, tuple) or seg >= len(cur):
                raise PathNotFoundError(f"no list element [{seg}] in {p}")
            cur = cur[seg]
    return cur


def get_param(d: ConfigDocument, p: ParamPath) -> Scalar:
    value = _resolve(d, p)
    if isinstance(value, (dict, tuple)):
        kind = "group" if isinstance(value, dict) else "list"
        raise NotAScalarError(f"{p} addresses a {kind}")
    return value


def _scalars(value: Value, prefix: tuple) -> Iterator[tuple[tuple, Scalar]]:
    """(path segments, scalar) for every scalar under ``value``, in
    document order."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _scalars(item, prefix + (name,))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _scalars(item, prefix + (i,))
    else:
        yield prefix, value


def _scalar_eq(a: Scalar, b: Scalar) -> bool:
    # type check keeps 1 != true and 1 != 1.0
    return type(a) is type(b) and a == b


def diff_params(
    a: ConfigDocument, b: ConfigDocument
) -> list[tuple[ParamPath, Scalar, Scalar]]:
    """Scalar paths present in both documents whose values differ, in a's order."""
    b_values = dict(_scalars(b.root, ()))
    out = []
    for segments, va in _scalars(a.root, ()):
        if segments in b_values:
            vb = b_values[segments]
            if not _scalar_eq(va, vb):
                out.append((ParamPath(segments), va, vb))
    return out
