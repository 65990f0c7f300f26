"""Parameter auto-explanation from autotest logs and target sources.

The pipeline turns a pile of test-suite log lines into a human-readable
parameter report in four steps: collect ``test:`` records, fold the
command-line flags into an ordered flag-to-value-range map, recover the
variable each flag feeds by scanning the target's getopt switch, and ask
an explanation backend what that variable means.

Backends are pluggable.  The glossary backend reads a local tab-separated
file and keeps the whole pipeline offline and deterministic; the HTTP
backend posts a single prompt per variable to an LLM endpoint.  Lookups
are memoized per variable name, never per flag.
"""

from __future__ import annotations

import json
import os
import re
from collections import namedtuple
from collections.abc import Sequence
from pathlib import Path

__all__ = [
    "BackendError",
    "ExplanationBackend",
    "GlossaryFileBackend",
    "HttpLLMBackend",
    "MalformedTestLineError",
    "NO_SOURCE_MATCH",
    "ParamInfo",
    "TestCaseRecord",
    "UNKNOWN",
    "backend_from_spec",
    "explain_params",
    "extract_unique_params",
    "parse_test_log",
    "write_report",
]

UNKNOWN = "UNKNOWN"
NO_SOURCE_MATCH = "(no source match)"
VALUELESS = "1"
SNIPPET_LIMIT = 500

TOKEN_ENV_VAR = "CONFFUZZ_LLM_TOKEN"
HTTP_TIMEOUT_S = 30.0
PROMPT_TEMPLATE = (
    "Explain the variable {name} in the context of 5G gNB software: {context}"
)

_TEST_PREFIX_RE = re.compile(r"\s*test:", re.IGNORECASE)
_SEPARATOR = " :: "
_FLAG_RE = re.compile(r"-{1,2}([A-Za-z][A-Za-z0-9_-]*)")

SOURCE_SUFFIXES = (".c", ".h", ".cc", ".cpp")
_ARM_END_RE = re.compile(r"\bbreak\b|\bcase\b|\bdefault\b")
_ASSIGN_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[[^\]]*\])?\s*=(?!=)")


class MalformedTestLineError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BackendError(Exception):
    """Explanation lookup failed; ``partial`` holds results gathered so far."""

    def __init__(self, message: str, partial: Sequence["ParamInfo"] = ()):
        super().__init__(message)
        self.partial = tuple(partial)


class TestCaseRecord(namedtuple("TestCaseRecord", "name args")):
    """One ``test:`` line: the test's name and its ``(flag, value)`` pairs."""

    __slots__ = ()
    __test__ = False  # shaped like a pytest name, but not a test class


# one report row: the flag, the variable it feeds, what that means, and
# the flag's values in first-seen order
ParamInfo = namedtuple("ParamInfo", "flag var_name meaning range")


def parse_test_log(text: str) -> list[TestCaseRecord]:
    """Collect ``test: <name> :: <args>`` records, ignoring other lines.

    A line that announces itself as a test but cannot be parsed is an
    error, not noise; silently dropping it would shrink value ranges.
    """
    records = []
    for line_no, line in enumerate(text.splitlines(), 1):
        m = _TEST_PREFIX_RE.match(line)
        if not m:
            continue
        name, sep, arg_text = line[m.end() :].partition(_SEPARATOR)
        if not sep:
            raise MalformedTestLineError(line_no, "missing ' :: ' separator")
        name = name.strip()
        if not name:
            raise MalformedTestLineError(line_no, "empty test name")
        records.append(TestCaseRecord(name, _parse_args(arg_text, line_no)))
    return records


def _parse_args(arg_text: str, line_no: int) -> tuple[tuple[str, str], ...]:
    tokens = arg_text.split()
    args = []
    i = 0
    while i < len(tokens):
        m = _FLAG_RE.fullmatch(tokens[i])
        if not m:
            raise MalformedTestLineError(
                line_no, f"expected a flag, got {tokens[i]!r}"
            )
        flag = m.group(1)
        # a flag directly followed by another flag (or nothing) is a
        # boolean switch; "-2" does not look like a flag, so it is a value
        if i + 1 < len(tokens) and not _FLAG_RE.fullmatch(tokens[i + 1]):
            value = tokens[i + 1]
            i += 2
        else:
            value = VALUELESS
            i += 1
        args.append((flag, value))
    return tuple(args)


def extract_unique_params(
    tests: Sequence[TestCaseRecord],
) -> dict[str, tuple[str, ...]]:
    """Flag -> value range over all tests, flags in first-appearance order
    and each range's distinct values in first-seen order."""
    occurrences: dict[str, list[str]] = {}
    for record in tests:
        for flag, value in record.args:
            occurrences.setdefault(flag, []).append(value)
    return {flag: tuple(dict.fromkeys(vals)) for flag, vals in occurrences.items()}


def _iter_source_files(root: Path):
    files = [
        p
        for p in root.rglob("*")
        if p.is_file() and p.suffix in SOURCE_SUFFIXES
    ]
    return sorted(files, key=str)


def _find_switch_arms(
    flags: Sequence[str], source_root: str | Path
) -> dict[str, tuple[str | None, str]]:
    """Locate ``case '<flag>':`` and the assignment it guards, per flag.

    Maps a flag to (variable name or None, arm snippet); a flag with no
    arm is absent.  One pass reads each file at most once, in
    lexicographic path order, until every flag is resolved.  The first
    file that contains a flag's arm decides, even when its arm assigns
    nothing.
    """
    arms: dict[str, tuple[str | None, str]] = {}
    pending = list(dict.fromkeys(flags))
    if not pending:
        return arms
    root = Path(source_root)
    if not root.is_dir():
        raise FileNotFoundError(f"source root {root} is not a directory")
    for path in _iter_source_files(root):
        text = path.read_text(encoding="utf-8", errors="replace")
        for flag in pending:
            label = f"case '{flag}':"
            idx = text.find(label)
            if idx < 0:
                continue
            rest = text[idx + len(label) :]
            end = _ARM_END_RE.search(rest)
            body = rest[: end.start()] if end else rest
            snippet = (label + body).strip()[:SNIPPET_LIMIT]
            m = _ASSIGN_RE.search(body)
            arms[flag] = (m.group(1) if m else None), snippet
        pending = [flag for flag in pending if flag not in arms]
        if not pending:
            break
    return arms


class ExplanationBackend:
    """What ``explain_params`` asks of a backend; matched by shape."""

    def explain(self, var_name: str, context: str) -> str: ...


def explain_params(
    params: dict[str, tuple[str, ...]],
    backend: ExplanationBackend,
    source_root: str | Path,
) -> list[ParamInfo]:
    """Resolve and explain every flag, in the order the map provides.

    Backend results are memoized per variable name.  A backend failure
    aborts the pipeline but carries everything explained so far.
    """
    arms = _find_switch_arms(list(params), source_root)
    infos: list[ParamInfo] = []
    memo: dict[str, str] = {}
    for flag, value_range in params.items():
        var, snippet = arms.get(flag, (None, ""))
        if var is None:
            infos.append(ParamInfo(flag, UNKNOWN, NO_SOURCE_MATCH, value_range))
            continue
        if var not in memo:
            try:
                memo[var] = backend.explain(var, snippet)
            except BackendError as e:
                raise BackendError(str(e), partial=infos) from e
        infos.append(ParamInfo(flag, var, memo[var], value_range))
    return infos


def write_report(
    infos: Sequence[ParamInfo],
    tests: Sequence[TestCaseRecord],
    out: str | Path | None = None,
) -> str:
    lines = [f"[tests] {len(tests)}"]
    for info in infos:
        values = ", ".join(info.range)
        lines.append(
            f"- {info.flag} ({info.var_name}) -> {info.meaning}"
            f" ; range = {{{values}}}"
        )
    text = "\n".join(lines) + "\n"
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    return text


class GlossaryFileBackend:
    """Offline backend over a UTF-8 ``name<TAB>meaning`` file."""

    def __init__(self, path: str | Path):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise BackendError(f"cannot read glossary: {e}") from e
        self.entries: dict[str, str] = {}
        for line_no, line in enumerate(text.splitlines(), 1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            name, sep, meaning = line.partition("\t")
            if not sep:
                raise BackendError(f"glossary line {line_no}: missing tab")
            self.entries[name.strip()] = meaning

    def explain(self, var_name: str, context: str) -> str:
        try:
            return self.entries[var_name]
        except KeyError:
            raise BackendError(f"no glossary entry for {var_name!r}") from None


class HttpLLMBackend:
    """One-shot prompt per variable against a JSON endpoint.

    Sends ``{"prompt": ...}`` and expects ``{"text": ...}`` back.  The
    bearer token is taken from CONFFUZZ_LLM_TOKEN when set, and a request
    gives up after ``HTTP_TIMEOUT_S`` seconds.  No retries; a failure
    must surface rather than degrade into made-up text.
    """

    def __init__(self, url: str):
        self.url = url

    def explain(self, var_name: str, context: str) -> str:
        # imported here so only a run that posts pays for an HTTP client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        prompt = PROMPT_TEMPLATE.format(name=var_name, context=context)
        request = urllib.request.Request(
            self.url,
            data=json.dumps({"prompt": prompt}).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as e:
            e.close()
            status, body = e.code, b""
        except OSError as e:  # URLError and timeouts are OSErrors
            raise BackendError(f"llm request failed: {e}") from e
        if status != 200:
            raise BackendError(f"llm endpoint returned {status}")
        try:
            text = json.loads(body)["text"]
        except (ValueError, KeyError, TypeError) as e:
            raise BackendError(f"malformed llm response: {e}") from e
        if not isinstance(text, str):
            raise BackendError("malformed llm response: text is not a string")
        return text


def backend_from_spec(spec: str) -> ExplanationBackend:
    """``glossary:PATH`` or an ``http(s)://...`` endpoint URL."""
    scheme, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(f"malformed backend spec: {spec!r}")
    if scheme == "glossary":
        return GlossaryFileBackend(rest)
    if scheme in ("http", "https"):
        return HttpLLMBackend(spec)
    raise ValueError(f"unknown backend scheme: {scheme!r}")
