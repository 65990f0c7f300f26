"""The bytes contract: a campaign's artifacts are a function of its seed
and worker count alone.

The digests below pin ``corpus/``, ``crashes/`` and ``stats.json`` (less
its wall-clock fields) of the seed-1, 2000-exec campaign on the builtin
validator, for one worker and for two.  They were the same under CPython
3.10, 3.11, 3.12 and 3.13, so a change to them is a change to what every
campaign writes, and is declared as one.

Seeds enter a campaign in two places only: ``generate_tree`` for the
generated seed entries and the campaign's per-worker streams.  Below
that, every function draws from the generator it is handed, so a
campaign runs with ``mutate`` unable to build a generator of its own.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from random import Random

import pytest

from conffuzz import mutate
from conffuzz.campaign import CampaignConfig, run_campaign
from conffuzz.grammar import DEFAULT_MAX_DEPTH, generate_tree
from conffuzz.target import TargetSpec

from conftest import GRAMMAR_PATH

VALIDATOR = TargetSpec.parse("builtin:gnb-validator")
WALL_CLOCK_KEYS = ("execs_per_sec", "started_unix_ms", "finished_unix_ms")

SEED1_2000_DIGESTS = {
    1: "ae785c11b89a6b8d9e813249bf4a24db02a3461b1f8a3efbee25740d5dbb457b",
    2: "421a3e1546bd241ae1c0f5554465cb737f861e3f494b49d6eba970cd89d519c6",
}
# crash code -> the exec at which seed 1, one worker, first sees it
SEED1_FIRST_SEEN = {104: 2, 102: 7, 101: 72, 103: 482, 105: 649}


def artifact_digest(out: Path) -> str:
    """sha256 over every file under ``out``: its sorted relative path, its
    length and its bytes, with the wall-clock fields dropped from
    ``stats.json``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        data = path.read_bytes()
        if rel == "stats.json":
            stats = json.loads(data)
            for key in WALL_CLOCK_KEYS:
                del stats[key]
            data = json.dumps(stats, sort_keys=True).encode()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def campaign(out: Path, workers: int, max_execs: int = 2000) -> Path:
    run_campaign(
        CampaignConfig(
            GRAMMAR_PATH, VALIDATOR, out, max_execs=max_execs, workers=workers
        )
    )
    return out


@pytest.mark.parametrize("workers", sorted(SEED1_2000_DIGESTS))
def test_seed1_artifacts_match_golden(tmp_path, workers):
    out = campaign(tmp_path / "out", workers)
    assert artifact_digest(out) == SEED1_2000_DIGESTS[workers]


def test_seed1_first_seen_execs(tmp_path):
    out = campaign(tmp_path / "out", 1)
    reports = [
        json.loads(p.read_text(encoding="utf-8"))
        for p in (out / "crashes").glob("*/report.json")
    ]
    first_seen = {r["outcome"]["code"]: r["first_seen_exec"] for r in reports}
    assert first_seen == SEED1_FIRST_SEEN


def _no_generator(*args):
    raise AssertionError("mutate built a generator of its own")


def test_mutation_draws_only_from_the_callers_generator(
    gnb_grammar, tmp_path, monkeypatch
):
    monkeypatch.setattr(mutate, "Random", _no_generator)
    tree = generate_tree(gnb_grammar, 1)
    mutated, _ = mutate.random_mutation(
        tree, gnb_grammar, Random(1), donor=tree, max_depth=DEFAULT_MAX_DEPTH, memo={}
    )
    assert mutated.token == tree.token
    stats = run_campaign(
        CampaignConfig(GRAMMAR_PATH, VALIDATOR, tmp_path / "out", max_execs=60)
    )
    assert stats.execs == 60
