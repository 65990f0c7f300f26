"""Execution of fuzz targets and collection of branch feedback.

Two target flavors share one interface.  Builtin targets are Python
callables registered by name; they run in-process and report branch labels
directly.  External targets are command templates run as subprocesses; the
input is written to a temp file, ``{input}`` in the template is replaced
with its path, and branch labels are harvested from stderr lines of the
form ``##branch:<label>``.

Every execution yields an :class:`ExecOutcome` (ok, reject, crash, or
timeout) plus a :class:`Feedback` whose digest is a stable 64-bit hash of
the sorted branch set, so identical coverage always maps to the same
digest across runs and processes.
"""

from __future__ import annotations

import enum
import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "ExecOutcome",
    "Feedback",
    "OutcomeKind",
    "SpawnFailureError",
    "TargetKind",
    "TargetSpec",
    "classify_outcome",
    "execute",
    "register_builtin",
    "stable_hash64",
]

STDERR_EXCERPT_BYTES = 4096
BRANCH_PREFIX = b"##branch:"


def stable_hash64(s: str) -> int:
    """64-bit hash of a string, stable across processes and platforms."""
    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big"
    )


class OutcomeKind(str, enum.Enum):
    OK = "ok"
    REJECT = "reject"
    CRASH = "crash"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class ExecOutcome:
    """Result of one target execution.

    ``code`` is the rejection exit status for rejects and the crash
    identifier (signal number or abort code) for crashes; ok and timeout
    carry no code.
    """

    kind: OutcomeKind
    code: Optional[int] = None
    stderr_excerpt: str = ""

    def __post_init__(self) -> None:
        needs_code = self.kind in (OutcomeKind.REJECT, OutcomeKind.CRASH)
        if needs_code and self.code is None:
            raise ValueError(f"{self.kind.value} outcome requires a code")
        if not needs_code and self.code is not None:
            raise ValueError(f"{self.kind.value} outcome carries no code")

    @classmethod
    def ok(cls) -> "ExecOutcome":
        return cls(OutcomeKind.OK)

    @classmethod
    def reject(cls, code: int, stderr_excerpt: str = "") -> "ExecOutcome":
        return cls(OutcomeKind.REJECT, code, stderr_excerpt)

    @classmethod
    def crash(cls, code: int, stderr_excerpt: str = "") -> "ExecOutcome":
        return cls(OutcomeKind.CRASH, code, stderr_excerpt)

    @classmethod
    def timeout(cls, stderr_excerpt: str = "") -> "ExecOutcome":
        return cls(OutcomeKind.TIMEOUT, None, stderr_excerpt)

    @property
    def is_crash(self) -> bool:
        return self.kind in (OutcomeKind.CRASH, OutcomeKind.TIMEOUT)


@dataclass(frozen=True)
class Feedback:
    """Set of branch labels covered by one execution."""

    branches: frozenset[str]

    @cached_property
    def digest(self) -> int:
        """Stable hash of the sorted branch set, computed on first use."""
        return stable_hash64("\n".join(sorted(self.branches)))

    @classmethod
    def of(cls, *branches: str) -> "Feedback":
        return cls(frozenset(branches))


class TargetKind(enum.Enum):
    BUILTIN = "builtin"
    EXTERNAL = "external"


class SpawnFailureError(Exception):
    """The external command could not be started at all."""


BuiltinFn = Callable[[str], tuple[ExecOutcome, Feedback]]

_BUILTINS: dict[str, BuiltinFn] = {}


def register_builtin(name: str, fn: BuiltinFn) -> None:
    _BUILTINS[name] = fn


def _lookup_builtin(name: str) -> BuiltinFn:
    if name not in _BUILTINS:
        # registration happens at import time
        from . import gnb_validator  # noqa: F401
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin target: {name!r}") from None


@dataclass(frozen=True)
class TargetSpec:
    """What to run for each input and how long to let it run."""

    kind: TargetKind
    command: str
    timeout_ms: int = 10_000

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.kind is TargetKind.EXTERNAL:
            if self.command.count("{input}") != 1:
                raise ValueError(
                    "external command must contain {input} exactly once"
                )
            # imported here so in-process (builtin) runs never load it
            import shlex

            try:
                shlex.split(self.command)
            except ValueError as e:
                raise ValueError(
                    f"cannot split external command {self.command!r}: {e}"
                ) from None

    @classmethod
    def builtin(cls, name: str, timeout_ms: int = 10_000) -> "TargetSpec":
        return cls(TargetKind.BUILTIN, name, timeout_ms)

    @classmethod
    def external(cls, template: str, timeout_ms: int = 10_000) -> "TargetSpec":
        return cls(TargetKind.EXTERNAL, template, timeout_ms)

    @classmethod
    def parse(cls, text: str, timeout_ms: int = 10_000) -> "TargetSpec":
        """Parse a CLI target spec: ``builtin:NAME`` or ``exec:TEMPLATE``."""
        scheme, sep, rest = text.partition(":")
        if not sep or not rest:
            raise ValueError(f"malformed target spec: {text!r}")
        if scheme == "builtin":
            return cls.builtin(rest, timeout_ms)
        if scheme == "exec":
            return cls.external(rest, timeout_ms)
        raise ValueError(f"unknown target scheme: {scheme!r}")


def classify_outcome(
    returncode: Optional[int], elapsed_ms: float, timeout_ms: int
) -> ExecOutcome:
    """Map a subprocess exit to an outcome.

    A missing return code means the process had to be killed; overrunning
    the budget counts as a timeout even if the process then exited on its
    own.  Negative return codes are deaths by signal and classify as
    crashes with the signal number as crash id; positive codes are
    rejections.
    """
    if returncode is None or elapsed_ms > timeout_ms:
        return ExecOutcome.timeout()
    if returncode == 0:
        return ExecOutcome.ok()
    if returncode < 0:
        return ExecOutcome.crash(-returncode)
    return ExecOutcome.reject(returncode)


def _tmp_base() -> Path:
    return Path(os.environ.get("CONFFUZZ_TMPDIR", tempfile.gettempdir()))


def _execute_external(spec: TargetSpec, input_text: str) -> tuple[ExecOutcome, Feedback]:
    # imported here so in-process (builtin) runs never load them
    import shlex
    import signal
    import subprocess

    # a fresh name per call, so concurrent callers cannot clobber each
    # other's input; nothing outlives the call, even a failed write or spawn
    base = _tmp_base()
    base.mkdir(parents=True, exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".conf", dir=base)
    try:
        with open(fd, "w", encoding="utf-8") as f:
            f.write(input_text)
        argv = [tok.replace("{input}", path) for tok in shlex.split(spec.command)]
        started = time.monotonic()
        try:
            proc = subprocess.Popen(
                argv,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as e:
            raise SpawnFailureError(f"cannot start {argv[0]!r}: {e}") from e
        try:
            _, err = proc.communicate(timeout=spec.timeout_ms / 1000.0)
        except subprocess.TimeoutExpired:
            # kill the whole session so timed-out children cannot linger
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _, err = proc.communicate()
            outcome = ExecOutcome.timeout()
        else:
            elapsed_ms = (time.monotonic() - started) * 1000.0
            outcome = classify_outcome(proc.returncode, elapsed_ms, spec.timeout_ms)
    finally:
        Path(path).unlink(missing_ok=True)
    err = err or b""
    branches = frozenset(
        line[len(BRANCH_PREFIX) :].decode("utf-8", "replace").strip()
        for line in err.splitlines()
        if line.startswith(BRANCH_PREFIX)
    )
    excerpt = err[:STDERR_EXCERPT_BYTES].decode("utf-8", "replace")
    return replace(outcome, stderr_excerpt=excerpt), Feedback(branches)


def execute(spec: TargetSpec, input_text: str) -> tuple[ExecOutcome, Feedback]:
    """Run the target once on ``input_text``."""
    if spec.kind is TargetKind.BUILTIN:
        fn = _lookup_builtin(spec.command)
        return fn(input_text)
    return _execute_external(spec, input_text)
