"""Crash deduplication, test-case minimization, and parameter reports.

Crashes are grouped by a dedup key derived from the crash id and the
coverage digest, so two inputs that die the same way through the same
decision path land in one bucket.  Minimization greedily replaces subtrees
with their minimal finite derivations while the key is preserved, which
strips every parameter that does not contribute to the crash.

``extract_param_table`` lines up the watched parameters of several crashes
next to the known-good initial configuration; staring at the columns is
usually enough to spot the pattern a crash bucket shares.

A key is a function of its (crash code, branch set) pair, and a campaign
meets the same few pairs over and over, so ``dedup_key`` keeps each
pair's key: at most ``_KEYS`` (1024) pairs, by the rule of
``cache.keep``.  Each pair holds its branch set, about 0.8 KiB on
``gnb.json``, which the campaign's memo of answers may share.
"""

from __future__ import annotations

import json
import threading
from collections import deque, namedtuple
from collections.abc import Callable, Sequence
from functools import partial
from pathlib import Path

from . import gnb_validator
from .cache import keep
from .configfmt import (
    ConfigDocument,
    ConfigError,
    ParamPath,
    diff_params,
    format_scalar,
    get_param,
    parse_config,
)
from .grammar import DerivationTree, Grammar, minimal_tree, replace_subtree, unparse
from .target import ExecOutcome, OutcomeKind, TargetSpec, execute, stable_hash64

__all__ = [
    "CrashReport",
    "NonReproducibleError",
    "NotACrashError",
    "ParamTable",
    "dedup_key",
    "extract_param_table",
    "load_crash_report",
    "make_crash_report",
    "minimize",
    "render_report",
    "store_crash_report",
]

MISSING_CELL = "-"


class NotACrashError(ValueError):
    pass


class NonReproducibleError(Exception):
    """The input no longer triggers the crash it was filed under."""


# each (crash code, branch set) pair keyed so far and its key; see the
# module docstring.  A campaign keys on its coordinator only, at every
# worker count, but a caller of the public ``dedup_key`` may key from
# threads of its own, so a store takes the lock that keeps the bound; a
# read needs none.
_KEYS = 1024
_keys: dict[tuple[int | None, frozenset[str]], str] = {}
_keys_lock = threading.Lock()


def dedup_key(outcome: ExecOutcome, branches: frozenset[str]) -> str:
    """16-char lowercase hex key over (crash id, coverage digest).

    The coverage digest is a stable 64-bit hash of the sorted labels
    joined by newlines, so the key depends neither on the set's iteration
    order nor on the interpreter's hash seed.  Targets that report no
    branches collapse to a constant digest, so their crashes dedup on the
    crash id alone.  Each pair's key is kept, within ``_KEYS`` pairs.
    """
    if not outcome.is_crash:
        raise NotACrashError(f"cannot dedup a {outcome.kind.value} outcome")
    pair = (outcome.code, branches)
    key = _keys.get(pair)
    if key is None:
        digest = stable_hash64("\n".join(sorted(branches)))
        key = f"{stable_hash64(f'{outcome.code}|{digest:016x}'):016x}"
        with _keys_lock:
            keep(_keys, pair, key, _KEYS)
    return key


def _bfs_paths(
    t: DerivationTree,
) -> list[tuple[tuple[int, ...], DerivationTree]]:
    out = []
    queue = deque([((), t)])
    while queue:
        path, node = queue.popleft()
        out.append((path, node))
        for i, child in enumerate(node.children):
            queue.append((path + (i,), child))
    return out


def minimize(
    tree: DerivationTree,
    g: Grammar,
    target: TargetSpec | Callable[[str], tuple[ExecOutcome, frozenset[str]]],
    key: str,
) -> DerivationTree:
    """Shrink a crashing tree while its dedup key is preserved.

    Greedy pass in breadth-first order, restarted after every accepted
    replacement, until no node can be swapped for its token's minimal
    derivation.  The result never has more nodes than the input.

    ``target`` is a ``TargetSpec``, each of whose runs goes through
    ``execute``, or a function from an input text to the target's
    answer, ``(ExecOutcome, frozenset[str])``.  A campaign passes its
    memory of answers: a text it has answered already costs no run, and
    each text minimize runs is kept for the campaign's later draws.  The
    first text asked for is the crashing input itself, and
    ``NonReproducibleError`` is raised when it no longer crashes with
    ``key``.  Inside a campaign that first answer comes from the memory,
    so a flaky target is caught there only for a text the memory does
    not keep, one longer than its length bound.

    The target must be deterministic: a candidate that failed is not run
    again while it is unchanged.  A replacement accepted at ``p`` leaves
    the candidates of ``p``'s ancestors as they were, since each of them
    swaps out a subtree holding ``p``; every other failed path is tried
    again.
    """
    run = partial(execute, target) if isinstance(target, TargetSpec) else target

    def reproduces(t: DerivationTree) -> bool:
        outcome, branches = run(unparse(t, g))
        return outcome.is_crash and dedup_key(outcome, branches) == key

    if not reproduces(tree):
        raise NonReproducibleError(f"input does not reproduce key {key}")

    failed: set[tuple[int, ...]] = set()
    changed = True
    while changed:
        changed = False
        for path, node in _bfs_paths(tree):
            if path in failed:
                continue
            replacement = minimal_tree(g, node.token)
            if replacement == node:
                continue
            candidate = replace_subtree(tree, path, replacement)
            if reproduces(candidate):
                tree = candidate
                changed = True
                failed = {q for q in failed if path[: len(q)] == q}
                break
            failed.add(path)
    return tree


# ``param_diff`` holds a (path, initial, crash) triple per differing parameter
CrashReport = namedtuple(
    "CrashReport",
    "dedup_key outcome input_text minimized_text param_diff first_seen_exec",
)


def make_crash_report(
    key: str,
    outcome: ExecOutcome,
    input_text: str,
    minimized_text: str,
    first_seen_exec: int,
) -> CrashReport:
    """Assemble a report, diffing the input against the initial config."""
    try:
        crashed = parse_config(input_text)
    except ConfigError:
        diff: tuple = ()
    else:
        diff = tuple(diff_params(gnb_validator.baseline_document(), crashed))
    return CrashReport(key, outcome, input_text, minimized_text, diff, first_seen_exec)


def store_crash_report(root: Path, report: CrashReport) -> Path:
    """Write input.conf, minimized.conf, and report.json under the key dir."""
    crash_dir = root / report.dedup_key
    crash_dir.mkdir(parents=True, exist_ok=True)
    (crash_dir / "input.conf").write_text(report.input_text, encoding="utf-8")
    (crash_dir / "minimized.conf").write_text(
        report.minimized_text, encoding="utf-8"
    )
    payload = {
        "dedup_key": report.dedup_key,
        "outcome": {
            "class": report.outcome.kind.value,
            "code": report.outcome.code,
        },
        "stderr_excerpt": report.outcome.stderr_excerpt,
        "param_diff": [
            {"path": str(p), "initial": a, "crash": b}
            for p, a, b in report.param_diff
        ],
        "first_seen_exec": report.first_seen_exec,
    }
    (crash_dir / "report.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return crash_dir


def load_crash_report(crash_dir: Path) -> CrashReport:
    """Read back the report ``store_crash_report`` wrote under crash_dir.

    A report.json that is not a JSON object, or lacks a field or holds
    one of the wrong type or value, raises ValueError naming the file and
    the field.
    """
    where = crash_dir / "report.json"

    def field(obj, key: str, kind: type | tuple, name: str = ""):
        name = name or key
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{where}: missing field {name!r}")
        value = obj[key]
        # bool subclasses int, but no typed field holds true or false
        if not isinstance(value, kind) or (
            isinstance(value, bool) and kind is not object
        ):
            raise ValueError(f"{where}: field {name!r} has the wrong type")
        return value

    try:
        payload = json.loads(where.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{where}: not valid JSON: {e}") from e
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: not a JSON object")
    out = field(payload, "outcome", dict)
    kind = field(out, "class", str, "outcome.class")
    code = field(out, "code", (int, type(None)), "outcome.code")
    excerpt = field(payload, "stderr_excerpt", str)
    try:
        outcome = ExecOutcome(OutcomeKind(kind), code, excerpt)
    except ValueError as e:
        raise ValueError(f"{where}: field 'outcome': {e}") from e
    diff = []
    for i, d in enumerate(field(payload, "param_diff", list)):
        name = f"param_diff[{i}]"
        path = field(d, "path", str, f"{name}.path")
        try:
            parsed = ParamPath.parse(path)
        except ValueError as e:
            raise ValueError(f"{where}: field {name + '.path'!r}: {e}") from e
        initial = field(d, "initial", object, f"{name}.initial")
        diff.append((parsed, initial, field(d, "crash", object, f"{name}.crash")))
    return CrashReport(
        field(payload, "dedup_key", str),
        outcome,
        (crash_dir / "input.conf").read_text(encoding="utf-8"),
        (crash_dir / "minimized.conf").read_text(encoding="utf-8"),
        tuple(diff),
        field(payload, "first_seen_exec", int),
    )


# ``columns`` holds a (name, one cell per path) pair per column
ParamTable = namedtuple("ParamTable", "paths columns")


def _column_values(
    doc: ConfigDocument | None, watch: Sequence[ParamPath]
) -> tuple[str, ...]:
    cells = []
    for path in watch:
        if doc is None:
            cells.append(MISSING_CELL)
            continue
        try:
            cells.append(format_scalar(get_param(doc, path)))
        except ConfigError:
            cells.append(MISSING_CELL)
    return tuple(cells)


def extract_param_table(
    reports: Sequence[CrashReport],
    watch: Sequence[ParamPath] | None = None,
    names: Sequence[str] | None = None,
) -> ParamTable:
    """Watched parameters of the initial config and each crash, columnwise.

    Column names default to the report dedup keys; explicit ``names`` must
    match ``reports`` in length.  Unparseable inputs and missing paths
    render as ``-``.
    """
    if watch is None:
        watch = gnb_validator.WATCH_PATHS
    if names is not None and len(names) != len(reports):
        raise ValueError("names must match reports one to one")

    columns = [("initial", _column_values(gnb_validator.baseline_document(), watch))]
    for i, report in enumerate(reports):
        try:
            doc = parse_config(report.input_text)
        except ConfigError:
            doc = None
        name = names[i] if names is not None else report.dedup_key
        columns.append((name, _column_values(doc, watch)))
    return ParamTable(tuple(str(p) for p in watch), tuple(columns))


def render_report(table: ParamTable, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "paths": list(table.paths),
            "columns": [
                {"name": name, "values": list(values)}
                for name, values in table.columns
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format: {fmt!r}")

    header = ["param"] + [name for name, _ in table.columns]
    rows = [
        [path] + [values[i] for _, values in table.columns]
        for i, path in enumerate(table.paths)
    ]
    widths = [
        max(len(line[col]) for line in [header] + rows)
        for col in range(len(header))
    ]
    lines = []
    for line in [header] + rows:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        )
    return "\n".join(lines) + "\n"
