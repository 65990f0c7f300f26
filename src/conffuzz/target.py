"""Execution of fuzz targets and collection of branch feedback.

Two target flavors share one interface.  Builtin targets are Python
callables registered by name; they run in-process and report branch labels
directly.  External targets are command templates run as subprocesses; the
input is written to a temp file, ``{input}`` in the template is replaced
with its path, and branch labels are harvested from stderr lines of the
form ``##branch:<label>``.

Every execution yields an :class:`ExecOutcome` (ok, reject, crash, or
timeout) plus the frozenset of branch labels it covered.  A builtin is a
function from the input text to that pair.  Turning an outcome and its
branch set into a crash bucket is :func:`conffuzz.triage.dedup_key`'s job.
"""

from __future__ import annotations

import enum
import os
import time
from collections.abc import Callable

from .record import Record

__all__ = [
    "ExecOutcome",
    "OutcomeKind",
    "SpawnFailureError",
    "TargetKind",
    "TargetSpec",
    "classify_outcome",
    "execute",
    "lookup_builtin",
    "register_builtin",
    "stable_hash64",
]

DEFAULT_TIMEOUT_MS = 10_000
STDERR_EXCERPT_BYTES = 4096
BRANCH_PREFIX = b"##branch:"


def stable_hash64(s: str) -> int:
    """64-bit hash of a string, stable across processes and platforms."""
    # imported here so the validator, run as an external target, never loads it
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big"
    )


class OutcomeKind(str, enum.Enum):
    OK = "ok"
    REJECT = "reject"
    CRASH = "crash"
    TIMEOUT = "timeout"


# the kinds whose outcome carries a code, and the kinds filed as crashes;
# a member read through the enum class costs more than the whole test
_CODED = (OutcomeKind.REJECT, OutcomeKind.CRASH)
_CRASHING = (OutcomeKind.CRASH, OutcomeKind.TIMEOUT)


class ExecOutcome(Record):
    """Result of one target execution.

    ``code`` is the rejection exit status for rejects and the crash
    identifier (signal number or abort code) for crashes; ok and timeout
    carry no code.  Immutable; not a tuple, so it cannot be unpacked by
    mistake for a target's ``(outcome, branches)`` answer.
    """

    __slots__ = _fields = ("kind", "code", "stderr_excerpt")

    def __init__(
        self, kind: OutcomeKind, code: int | None = None, stderr_excerpt: str = ""
    ) -> None:
        if kind in _CODED:
            if code is None:
                raise ValueError(f"{kind.value} outcome requires a code")
        elif code is not None:
            raise ValueError(f"{kind.value} outcome carries no code")
        _set_kind(self, kind)
        _set_code(self, code)
        _set_excerpt(self, stderr_excerpt)

    @property
    def is_crash(self) -> bool:
        return self.kind in _CRASHING


# the slots' own setters, which bypass the refusing ``__setattr__``: every
# exec builds an outcome, and these are cheaper than ``object.__setattr__``
_set_kind = ExecOutcome.kind.__set__
_set_code = ExecOutcome.code.__set__
_set_excerpt = ExecOutcome.stderr_excerpt.__set__


class TargetKind(enum.Enum):
    BUILTIN = "builtin"
    EXTERNAL = "external"


class SpawnFailureError(Exception):
    """The external command could not be started at all."""


BuiltinFn = Callable[[str], tuple[ExecOutcome, frozenset[str]]]

_BUILTINS: dict[str, BuiltinFn] = {}


def register_builtin(name: str, fn: BuiltinFn) -> None:
    _BUILTINS[name] = fn


def lookup_builtin(spec: TargetSpec) -> BuiltinFn | None:
    """The function a builtin ``spec`` runs, or None for an external one.
    Raises ValueError for a builtin name that is not registered."""
    if spec.kind is not TargetKind.BUILTIN:
        return None
    name = spec.command
    if name not in _BUILTINS:
        # registration happens at import time
        from . import gnb_validator  # noqa: F401
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin target: {name!r}") from None


class TargetSpec(Record):
    """What to run for each input and how long to let it run.  Immutable."""

    _fields = ("kind", "command", "timeout_ms")

    # the class attribute is the default the CLI's --timeout-ms shows
    timeout_ms = DEFAULT_TIMEOUT_MS

    def __init__(
        self, kind: TargetKind, command: str, timeout_ms: int = timeout_ms
    ) -> None:
        if timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if kind is TargetKind.EXTERNAL:
            if command.count("{input}") != 1:
                raise ValueError(
                    "external command must contain {input} exactly once"
                )
            # imported here so in-process (builtin) runs never load it
            import shlex

            try:
                shlex.split(command)
            except ValueError as e:
                raise ValueError(
                    f"cannot split external command {command!r}: {e}"
                ) from None
        vars(self).update(kind=kind, command=command, timeout_ms=timeout_ms)

    @classmethod
    def parse(
        cls, text: str, timeout_ms: int = DEFAULT_TIMEOUT_MS
    ) -> "TargetSpec":
        """Parse a CLI target spec: ``builtin:NAME`` or ``exec:TEMPLATE``."""
        scheme, sep, rest = text.partition(":")
        if not sep or not rest:
            raise ValueError(f"malformed target spec: {text!r}")
        if scheme == "builtin":
            return cls(TargetKind.BUILTIN, rest, timeout_ms)
        if scheme == "exec":
            return cls(TargetKind.EXTERNAL, rest, timeout_ms)
        raise ValueError(f"unknown target scheme: {scheme!r}")


def classify_outcome(
    returncode: int | None, elapsed_ms: float, timeout_ms: int
) -> ExecOutcome:
    """Map a subprocess exit to an outcome.

    A missing return code means the process had to be killed; overrunning
    the budget counts as a timeout even if the process then exited on its
    own.  Negative return codes are deaths by signal and classify as
    crashes with the signal number as crash id; positive codes are
    rejections.
    """
    if returncode is None or elapsed_ms > timeout_ms:
        return ExecOutcome(OutcomeKind.TIMEOUT)
    if returncode == 0:
        return ExecOutcome(OutcomeKind.OK)
    if returncode < 0:
        return ExecOutcome(OutcomeKind.CRASH, -returncode)
    return ExecOutcome(OutcomeKind.REJECT, returncode)


def _execute_external(
    spec: TargetSpec, input_text: str
) -> tuple[ExecOutcome, frozenset[str]]:
    # imported here so in-process (builtin) runs never load them
    import shlex
    import signal
    import subprocess
    import tempfile
    from pathlib import Path

    # a fresh name per call, so concurrent callers cannot clobber each
    # other's input; nothing outlives the call, even a failed write or spawn
    base = Path(os.environ.get("CONFFUZZ_TMPDIR", tempfile.gettempdir()))
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
        except BaseException as e:
            # kill the whole session so timed-out children cannot linger;
            # an interrupt never reaches a target in its own session, so
            # it is killed and reaped here before the interrupt goes on
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _, err = proc.communicate()
            if not isinstance(e, subprocess.TimeoutExpired):
                raise
            outcome = ExecOutcome(OutcomeKind.TIMEOUT)
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
    return ExecOutcome(outcome.kind, outcome.code, excerpt), branches


def execute(spec: TargetSpec, input_text: str) -> tuple[ExecOutcome, frozenset[str]]:
    """Run the target once on ``input_text``: its outcome and branch set."""
    fn = lookup_builtin(spec)
    if fn is not None:
        return fn(input_text)
    return _execute_external(spec, input_text)
