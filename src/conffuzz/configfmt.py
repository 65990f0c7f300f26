"""Reader and writer for the gNB-style configuration dialect.

The accepted language is a libconfig-shaped subset: ``name = value;``
settings, ``{ ... }`` groups, ``( v, v, ... )`` lists, ``#`` and ``//``
comments, 64-bit signed integers, decimal reals, double-quoted strings, and
bare ``true``/``false``.  Serialization is canonical (one setting per line,
two-space indent), so parse and serialize are exact inverses and document
equality can be read off the serialized bytes.

Individual parameters are addressed by dotted paths such as
``gNBs[0].servingCellConfigCommon[0].dl_carrierBandwidth``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Union

__all__ = [
    "ConfigDocument",
    "ConfigError",
    "ConfigList",
    "ConfigSyntaxError",
    "DuplicateNameError",
    "Group",
    "NotAScalarError",
    "ParamPath",
    "PathNotFoundError",
    "Setting",
    "diff_params",
    "format_scalar",
    "get_param",
    "iter_params",
    "parse_config",
    "serialize_config",
    "set_param",
]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

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


Scalar = Union[int, float, str, bool]


@dataclass(frozen=True)
class Setting:
    name: str
    value: "Value"


@dataclass(frozen=True)
class Group:
    settings: tuple[Setting, ...] = ()


@dataclass(frozen=True)
class ConfigList:
    values: tuple["Value", ...] = ()


Value = Union[Scalar, Group, ConfigList]


@dataclass(frozen=True, eq=False)
class ConfigDocument:
    root: Group

    # Equality tracks the canonical serialized form; this keeps Int 1 and
    # Bool true apart even though Python's bool subclasses int.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigDocument):
            return NotImplemented
        return serialize_config(self) == serialize_config(other)

    def __hash__(self) -> int:
        return hash(serialize_config(self))


@dataclass(frozen=True)
class ParamPath:
    """Dotted parameter address; int segments index into lists."""

    segments: tuple[Union[str, int], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("empty parameter path")
        if not isinstance(self.segments[0], str):
            raise ValueError("parameter path must start with an identifier")
        for seg in self.segments:
            if isinstance(seg, bool) or not isinstance(seg, (str, int)):
                raise ValueError(f"bad path segment: {seg!r}")
            if isinstance(seg, str) and not IDENT_RE.fullmatch(seg):
                raise ValueError(f"bad identifier in path: {seg!r}")
            if isinstance(seg, int) and seg < 0:
                raise ValueError(f"negative list index in path: {seg}")

    _SEGMENT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)\Z")

    @classmethod
    def parse(cls, text: str) -> "ParamPath":
        segments: list[Union[str, int]] = []
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


class _Fail(Exception):
    """A grammar error at the lexeme the parser consumed last."""

    def __init__(self, message: str, duplicate: str | None = None):
        super().__init__(message)
        self.duplicate = duplicate


def _expected(what: str, found: str) -> _Fail:
    return _Fail(f"expected {what}, found {found or 'end of input'!r}")


def _settings(it: Iterator[str], closer: str) -> tuple[Setting, ...]:
    """Settings up to and including ``closer``; ``""`` is the end of input."""
    settings: list[Setting] = []
    names: set[str] = set()
    while True:
        name = next(it)
        if name == closer:
            return tuple(settings)
        if not name:
            raise _Fail(f"expected {closer!r} before end of input")
        if name[0] not in _NAME_START:
            raise _Fail(f"expected setting name, found {name!r}")
        if name in names:
            raise _Fail("", duplicate=name)
        names.add(name)
        lex = next(it)
        if lex != "=":
            raise _expected("'='", lex)
        value = _value(it, next(it))
        lex = next(it)
        if lex != ";":
            raise _expected("';'", lex)
        settings.append(Setting(name, value))


def _value(it: Iterator[str], lex: str) -> Value:
    """The value that starts with ``lex``, the lexeme just consumed."""
    first = lex[:1]
    if first == "{":
        return Group(_settings(it, "}"))
    if first == "(":
        return _list(it)
    if first == '"' and len(lex) > 1:
        return _unescape(lex)
    if lex == "true" or lex == "false":
        return lex == "true"
    # past names and strings, a longer lexeme is a number; a single
    # character is one only if it is a digit
    if (len(lex) > 1 and first not in _NAME_START) or lex.isdecimal():
        if "." in lex or "e" in lex or "E" in lex:
            return float(lex)
        value = int(lex)
        if not INT64_MIN <= value <= INT64_MAX:
            raise _Fail(f"integer out of 64-bit range: {lex}")
        return value
    raise _expected("value", lex)


def _list(it: Iterator[str]) -> ConfigList:
    lex = next(it)
    if lex == ")":
        return ConfigList(())
    values = [_value(it, lex)]
    while True:
        lex = next(it)
        if lex == ",":
            values.append(_value(it, next(it)))
        elif lex == ")":
            return ConfigList(tuple(values))
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


def parse_config(text: str) -> ConfigDocument:
    lexemes = _TOKEN_RE.findall(text)
    it = iter(lexemes)
    try:
        return ConfigDocument(Group(_settings(it, "")))
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
        out = ['"']
        for ch in v:
            if ch == "\\":
                out.append("\\\\")
            elif ch == '"':
                out.append('\\"')
            elif ch == "\n":
                out.append("\\n")
            elif ch == "\t":
                out.append("\\t")
            elif ch == "\r":
                out.append("\\r")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    raise ValueError(f"not a scalar: {v!r}")


def _emit_setting(s: Setting, indent: int, out: list[str]) -> None:
    out.append("  " * indent)
    out.append(s.name)
    out.append(" = ")
    _emit_value(s.value, indent, out)
    out.append(";\n")


def _emit_value(v: Value, indent: int, out: list[str]) -> None:
    if isinstance(v, Group):
        if not v.settings:
            out.append("{ }")
            return
        out.append("{\n")
        for s in v.settings:
            _emit_setting(s, indent + 1, out)
        out.append("  " * indent)
        out.append("}")
    elif isinstance(v, ConfigList):
        if not v.values:
            out.append("( )")
            return
        out.append("(\n")
        last = len(v.values) - 1
        for i, item in enumerate(v.values):
            out.append("  " * (indent + 1))
            _emit_value(item, indent + 1, out)
            out.append(",\n" if i < last else "\n")
        out.append("  " * indent)
        out.append(")")
    else:
        out.append(format_scalar(v))


def serialize_config(d: ConfigDocument) -> str:
    out: list[str] = []
    for s in d.root.settings:
        _emit_setting(s, 0, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# Parameter addressing


def _resolve(d: ConfigDocument, p: ParamPath) -> Value:
    cur: Value = d.root
    for seg in p.segments:
        if isinstance(seg, str):
            if not isinstance(cur, Group):
                raise PathNotFoundError(f"no group at {seg!r} in {p}")
            for s in cur.settings:
                if s.name == seg:
                    cur = s.value
                    break
            else:
                raise PathNotFoundError(f"no setting {seg!r} in {p}")
        else:
            if not isinstance(cur, ConfigList) or seg >= len(cur.values):
                raise PathNotFoundError(f"no list element [{seg}] in {p}")
            cur = cur.values[seg]
    return cur


def get_param(d: ConfigDocument, p: ParamPath) -> Scalar:
    value = _resolve(d, p)
    if isinstance(value, (Group, ConfigList)):
        raise NotAScalarError(f"{p} addresses a {type(value).__name__}")
    return value


def set_param(d: ConfigDocument, p: ParamPath, v: Scalar) -> ConfigDocument:
    if isinstance(v, (Group, ConfigList)) or not isinstance(v, (int, float, str, bool)):
        raise ValueError(f"set_param value must be a scalar, got {v!r}")

    def rebuild(cur: Value, segs: tuple[Union[str, int], ...]) -> Value:
        if not segs:
            return v
        seg = segs[0]
        if isinstance(seg, str):
            if not isinstance(cur, Group):
                raise PathNotFoundError(f"no group at {seg!r} in {p}")
            for i, s in enumerate(cur.settings):
                if s.name == seg:
                    new = Setting(s.name, rebuild(s.value, segs[1:]))
                    return Group(cur.settings[:i] + (new,) + cur.settings[i + 1 :])
            raise PathNotFoundError(f"no setting {seg!r} in {p}")
        if not isinstance(cur, ConfigList) or seg >= len(cur.values):
            raise PathNotFoundError(f"no list element [{seg}] in {p}")
        new_item = rebuild(cur.values[seg], segs[1:])
        return ConfigList(cur.values[:seg] + (new_item,) + cur.values[seg + 1 :])

    root = rebuild(d.root, p.segments)
    assert isinstance(root, Group)
    return ConfigDocument(root)


def iter_params(d: ConfigDocument) -> Iterator[tuple[ParamPath, Scalar]]:
    """All scalar parameters with their paths, in document order."""

    def walk(value: Value, prefix: tuple[Union[str, int], ...]):
        if isinstance(value, Group):
            for s in value.settings:
                yield from walk(s.value, prefix + (s.name,))
        elif isinstance(value, ConfigList):
            for i, item in enumerate(value.values):
                yield from walk(item, prefix + (i,))
        else:
            yield ParamPath(prefix), value

    yield from walk(d.root, ())


def _scalar_eq(a: Scalar, b: Scalar) -> bool:
    # type check keeps 1 != true and 1 != 1.0
    return type(a) is type(b) and a == b


def diff_params(
    a: ConfigDocument, b: ConfigDocument
) -> list[tuple[ParamPath, Scalar, Scalar]]:
    """Scalar paths present in both documents whose values differ, in a's order."""
    b_values = {p: v for p, v in iter_params(b)}
    out = []
    for p, va in iter_params(a):
        if p in b_values and not _scalar_eq(va, b_values[p]):
            out.append((p, va, b_values[p]))
    return out
