"""Correctness checks on the artifacts a measured unit leaves behind."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# stats.json fields that hold wall-clock readings; everything else in a
# campaign directory must repeat byte for byte for a fixed seed
VOLATILE_STATS = ("execs_per_sec", "started_unix_ms", "finished_unix_ms")


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every file under ``out_dir`` (paths and bytes), with
    the wall-clock fields dropped from ``stats.json``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        data = path.read_bytes()
        if rel == "stats.json":
            stats = json.loads(data)
            for field in VOLATILE_STATS:
                stats.pop(field, None)
            data = json.dumps(stats, sort_keys=True).encode()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_repeats(digests: dict) -> list[str]:
    """Every unit run with the same inputs must leave the same artifacts.

    ``digests`` maps an input label to the digests its units produced.
    """
    return [
        f"{label}: artifacts differ between runs of one build: "
        + ", ".join(d[:12] for d in seen)
        for label, seen in digests.items()
        if len(set(seen)) > 1
    ]


def check_crash_dir(crash_dir: Path, g, spec, m) -> list[str]:
    """A stored crash must re-execute to its own dedup key, and its
    minimized input may not have more derivation nodes than its input.

    ``m`` maps short names to the conffuzz modules.  The calls go through
    those modules' current bindings, several of which tracing replaces, so
    a traced caller removes tracing first or the checks' own calls would
    count as the program's.
    """
    errors = []
    key = crash_dir.name
    minimized = (crash_dir / "minimized.conf").read_text(encoding="utf-8")
    original = (crash_dir / "input.conf").read_text(encoding="utf-8")
    outcome, fb = m["target"].execute(spec, minimized)
    if not outcome.is_crash or m["triage"].dedup_key(outcome, fb) != key:
        errors.append(
            f"{crash_dir}: minimized.conf does not reproduce {key} "
            f"(outcome {outcome.kind.value}, code {outcome.code})"
        )
    trees = [m["grammar"].derive_tree(g, t) for t in (minimized, original)]
    if None in trees:
        errors.append(f"{crash_dir}: stored input is not derivable")
    elif m["grammar"].tree_size(trees[0]) > m["grammar"].tree_size(trees[1]):
        errors.append(f"{crash_dir}: minimized input is larger than its input")
    return errors
