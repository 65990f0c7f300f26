"""Crash deduplication, test-case minimization, and parameter reports.

Crashes are grouped by a dedup key derived from the crash id and the
coverage digest, so two inputs that die the same way through the same
decision path land in one bucket.  Minimization greedily replaces subtrees
with their minimal finite derivations while the key is preserved, which
strips every parameter that does not contribute to the crash.

``extract_param_table`` lines up the watched parameters of several crashes
next to the known-good initial configuration; staring at the columns is
usually enough to spot the pattern a crash bucket shares.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import gnb_validator
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
from .target import ExecOutcome, Feedback, OutcomeKind, TargetSpec, execute, stable_hash64

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


def dedup_key(outcome: ExecOutcome, feedback: Feedback) -> str:
    """16-char lowercase hex key over (crash id, coverage digest).

    Feedback-free targets collapse to a constant digest, so their crashes
    dedup on the crash id alone.
    """
    if not outcome.is_crash:
        raise NotACrashError(f"cannot dedup a {outcome.kind.value} outcome")
    return f"{stable_hash64(f'{outcome.code}|{feedback.digest:016x}'):016x}"


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
    tree: DerivationTree, g: Grammar, target: TargetSpec, key: str
) -> DerivationTree:
    """Shrink a crashing tree while its dedup key is preserved.

    Greedy pass in breadth-first order, restarted after every accepted
    replacement, until no node can be swapped for its token's minimal
    derivation.  The result never has more nodes than the input.
    """

    def reproduces(t: DerivationTree) -> bool:
        outcome, fb = execute(target, unparse(t, g))
        return outcome.is_crash and dedup_key(outcome, fb) == key

    if not reproduces(tree):
        raise NonReproducibleError(f"input does not reproduce key {key}")

    changed = True
    while changed:
        changed = False
        for path, node in _bfs_paths(tree):
            replacement = minimal_tree(g, node.token)
            if replacement == node:
                continue
            candidate = replace_subtree(tree, path, replacement)
            if reproduces(candidate):
                tree = candidate
                changed = True
                break
    return tree


@dataclass(frozen=True)
class CrashReport:
    dedup_key: str
    outcome: ExecOutcome
    input_text: str
    minimized_text: str
    param_diff: tuple[tuple[ParamPath, object, object], ...]
    first_seen_exec: int


def make_crash_report(
    key: str,
    outcome: ExecOutcome,
    input_text: str,
    minimized_text: str,
    first_seen_exec: int,
    initial: Optional[ConfigDocument] = None,
) -> CrashReport:
    """Assemble a report, diffing the input against the initial config."""
    if initial is None:
        initial = gnb_validator.baseline_document()
    try:
        crashed = parse_config(input_text)
    except ConfigError:
        diff: tuple = ()
    else:
        diff = tuple(diff_params(initial, crashed))
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
    payload = json.loads((crash_dir / "report.json").read_text(encoding="utf-8"))
    outcome = ExecOutcome(
        OutcomeKind(payload["outcome"]["class"]),
        payload["outcome"]["code"],
        payload.get("stderr_excerpt", ""),
    )
    diff = tuple(
        (ParamPath.parse(d["path"]), d["initial"], d["crash"])
        for d in payload["param_diff"]
    )
    return CrashReport(
        payload["dedup_key"],
        outcome,
        (crash_dir / "input.conf").read_text(encoding="utf-8"),
        (crash_dir / "minimized.conf").read_text(encoding="utf-8"),
        diff,
        payload["first_seen_exec"],
    )


@dataclass(frozen=True)
class ParamTable:
    paths: tuple[str, ...]
    columns: tuple[tuple[str, tuple[str, ...]], ...] = field(default=())


def _column_values(
    doc: Optional[ConfigDocument], watch: Sequence[ParamPath]
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
    watch: Optional[Sequence[ParamPath]] = None,
    names: Optional[Sequence[str]] = None,
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
