"""The coverage-guided fuzzing loop.

One campaign seeds a corpus from the grammar, then repeatedly picks an
entry, mutates it, runs the target, and keeps the mutant whenever its
branch feedback covers something unseen.  Crashes are deduplicated,
minimized, and stored as they are found.  All randomness flows from the
campaign seed, so single-worker runs are exactly reproducible.

Scheduling is round-robin with an energy budget: each corpus entry gets
``energy_per_entry`` consecutive picks per round, and an entry whose round
produced novel coverage earns one bonus round on the spot.

One loop drives every run: tasks are drawn from the scheduler and a
per-worker random stream in submission order, mutated and executed, and
their results consumed in that same order, so corpus and crash-store
updates stay in the coordinator.  One worker runs each task inline as it
is submitted; more workers keep a window of ``2 * workers`` tasks on a
thread pool.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random
from typing import Callable, Optional, Union

from . import gnb_validator
from .grammar import (
    DerivationTree,
    Grammar,
    derive_tree,
    generate_tree,
    parse_grammar,
    unparse,
)
from .mutate import DEFAULT_MAX_DEPTH, MutationKind, random_mutation
from .target import Feedback, OutcomeKind, TargetSpec, execute
from .triage import (
    NonReproducibleError,
    dedup_key,
    make_crash_report,
    minimize,
    store_crash_report,
)

__all__ = [
    "CampaignConfig",
    "CampaignStats",
    "CorpusScheduler",
    "EmptyCorpusError",
    "run_campaign",
    "should_keep",
]

SEED_TREES = 10
PROGRESS_EVERY = 256


class EmptyCorpusError(Exception):
    pass


@dataclass
class CampaignConfig:
    grammar_path: Union[str, Path]
    target: TargetSpec
    out_dir: Union[str, Path]
    seed: int = 1
    max_execs: int = 10_000
    workers: int = 1
    weights: Optional[dict[MutationKind, float]] = None
    energy_per_entry: int = 64
    max_depth: int = DEFAULT_MAX_DEPTH
    progress: Optional[Callable[["CampaignStats"], None]] = None

    def __post_init__(self) -> None:
        if self.max_execs < 1:
            raise ValueError("max_execs must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.energy_per_entry < 1:
            raise ValueError("energy_per_entry must be at least 1")


@dataclass
class CampaignStats:
    execs: int = 0
    crashes_total: int = 0
    crashes_unique: int = 0
    timeouts: int = 0
    corpus_size: int = 0
    execs_per_sec: float = 0.0
    seed: int = 0
    started_unix_ms: int = 0
    finished_unix_ms: int = 0

    def as_dict(self) -> dict:
        # stats.json's key order is the field order
        return asdict(self)


def should_keep(feedback: Feedback, seen: set[str]) -> bool:
    """True iff the feedback covers at least one branch not seen before."""
    return not feedback.branches <= seen


class CorpusScheduler:
    """Round-robin over corpus entries with a per-entry pick budget."""

    def __init__(self, energy_per_entry: int = 64):
        self.energy_per_entry = energy_per_entry
        self._idx = -1
        self._picks_left = 0
        self._bonus = False

    def schedule_next(self, corpus: list[DerivationTree]) -> DerivationTree:
        if not corpus:
            raise EmptyCorpusError("cannot schedule from an empty corpus")
        if self._picks_left <= 0:
            if self._bonus and self._idx >= 0:
                self._bonus = False  # replay the entry that found novelty
            else:
                self._idx += 1
            self._idx %= len(corpus)
            self._picks_left = self.energy_per_entry
        self._picks_left -= 1
        return corpus[self._idx]

    def record_novelty(self) -> None:
        self._bonus = True


class _Run:
    """Mutable campaign state: corpus, seen branches, known crash keys,
    scheduler and stats.  Only the coordinator changes it, in the order
    results are consumed; pooled workers read nothing but the config and
    the grammar."""

    def __init__(self, cfg: CampaignConfig, g: Grammar, out: Path):
        self.cfg = cfg
        self.g = g
        self.out = out
        self.corpus: list[DerivationTree] = []
        self.seen: set[str] = set()
        self.known_keys: set[str] = set()
        self.scheduler = CorpusScheduler(cfg.energy_per_entry)
        self.stats = CampaignStats(seed=cfg.seed)
        self.t0 = time.monotonic()

    def throughput(self) -> float:
        elapsed = max(time.monotonic() - self.t0, 1e-9)
        return round(self.stats.execs / elapsed, 1)

    def retain(self, tree: DerivationTree, text: str) -> None:
        (self.out / "corpus" / f"{len(self.corpus)}.conf").write_text(
            text, encoding="utf-8"
        )
        self.corpus.append(tree)
        self.stats.corpus_size = len(self.corpus)

    def route_crash(self, outcome, fb, tree, text) -> None:
        key = dedup_key(outcome, fb)
        if key in self.known_keys:
            return
        self.known_keys.add(key)
        self.stats.crashes_unique += 1
        try:
            minimized = unparse(
                minimize(tree, self.g, self.cfg.target, key), self.g
            )
        except NonReproducibleError:
            minimized = text  # flaky target; keep the original witness
        report = make_crash_report(key, outcome, text, minimized, self.stats.execs)
        store_crash_report(self.out / "crashes", report)

    def consume(self, tree, text, outcome, fb, *, retain_always=False) -> None:
        self.stats.execs += 1
        if outcome.kind is OutcomeKind.TIMEOUT:
            self.stats.timeouts += 1
        if outcome.kind is OutcomeKind.CRASH:
            self.stats.crashes_total += 1
            self.route_crash(outcome, fb, tree, text)
        novel = should_keep(fb, self.seen)
        if novel:
            self.seen |= fb.branches
            self.scheduler.record_novelty()
        if novel or retain_always:
            self.retain(tree, text)
        if self.cfg.progress and self.stats.execs % PROGRESS_EVERY == 0:
            self.stats.execs_per_sec = self.throughput()
            self.cfg.progress(self.stats)


def _seed_corpus(run: _Run) -> None:
    cfg = run.cfg
    trees = [
        generate_tree(run.g, s, cfg.max_depth)
        for s in range(cfg.seed, cfg.seed + SEED_TREES)
    ]
    # the known-good initial config joins the corpus when the grammar can
    # actually express it
    fixture = derive_tree(run.g, gnb_validator.baseline_text())
    if fixture is not None:
        trees.append(fixture)
    for tree in trees:
        if run.stats.execs >= cfg.max_execs:
            break
        text = unparse(tree, run.g)
        outcome, fb = execute(cfg.target, text)
        run.consume(tree, text, outcome, fb, retain_always=True)


def _next_task(run: _Run, rng: Random):
    tree = run.scheduler.schedule_next(run.corpus)
    donor = run.corpus[rng.randrange(len(run.corpus))]
    return tree, donor, rng.getrandbits(63)


def _apply(run: _Run, tree, donor, mut_seed):
    mutated, _ = random_mutation(
        tree,
        run.g,
        mut_seed,
        run.cfg.weights,
        donor=donor,
        max_depth=run.cfg.max_depth,
    )
    text = unparse(mutated, run.g)
    outcome, fb = execute(run.cfg.target, text)
    return mutated, text, outcome, fb


class _Inline:
    """A task run on the spot, read back like a finished future."""

    def __init__(self, fn, *args):
        self._value = fn(*args)

    def result(self):
        return self._value


def _loop(run: _Run) -> None:
    # Tasks are scheduled, seeded and consumed in submission order, task
    # ``n`` drawing from stream ``n % workers``; one worker is a window of
    # one run inline, so nothing is submitted ahead of a consume.
    cfg = run.cfg
    streams = [Random(cfg.seed + w) for w in range(cfg.workers)]
    submitted = run.stats.execs
    pending: deque = deque()
    if cfg.workers == 1:
        pool, submit, window = None, _Inline, 1
    else:
        # imported here so single-worker runs never load the thread pool
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=cfg.workers)
        submit, window = pool.submit, 2 * cfg.workers
    try:
        while submitted < cfg.max_execs or pending:
            while submitted < cfg.max_execs and len(pending) < window:
                rng = streams[submitted % cfg.workers]
                tree, donor, mut_seed = _next_task(run, rng)
                pending.append(submit(_apply, run, tree, donor, mut_seed))
                submitted += 1
            run.consume(*pending.popleft().result())
    finally:
        if pool is not None:
            # an interrupted run drops the queued tasks it will not consume
            pool.shutdown(cancel_futures=True)


def run_campaign(cfg: CampaignConfig) -> CampaignStats:
    g = parse_grammar(Path(cfg.grammar_path).read_text(encoding="utf-8"))
    out = Path(cfg.out_dir)
    (out / "corpus").mkdir(parents=True, exist_ok=True)
    (out / "crashes").mkdir(parents=True, exist_ok=True)

    run = _Run(cfg, g, out)
    run.stats.started_unix_ms = int(time.time() * 1000)
    try:
        _seed_corpus(run)
        _loop(run)
    finally:
        # flush whatever was gathered, even on interruption
        run.stats.finished_unix_ms = int(time.time() * 1000)
        run.stats.execs_per_sec = run.throughput()
        (out / "stats.json").write_text(
            json.dumps(run.stats.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
    return run.stats
