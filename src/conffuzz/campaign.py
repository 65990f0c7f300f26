"""The coverage-guided fuzzing loop.

One campaign seeds a corpus from the grammar, then repeatedly picks an
entry, mutates it, runs the target, and keeps the mutant whenever its
branch feedback covers something unseen.  Crashes are deduplicated,
minimized, and stored as they are found.  A target that gives every
seed input one answer, not a timeout, and reports no branch label cannot
see its inputs, and is refused before the loop starts.  The seed phase
consumes every seed input before it routes any seed crash, so a refused
campaign has minimized and stored no crash.  All randomness
flows from the campaign seed, so a run's bytes are a function of its
seed and worker count.  Seeds enter in two places only:
``generate_tree`` seeds the corpus's generated entries from
``seed .. seed + SEED_TREES - 1``, and the loop keeps one stream
``Random(seed + w)`` per worker ``w``; every later draw, the mutation's
included, continues one of those streams.

Scheduling is round-robin with an energy budget: each corpus entry gets
``energy_per_entry`` consecutive picks per round, and an entry whose round
produced novel coverage earns one bonus round on the spot.

One loop drives every run.  The coordinator owns every tree and every
draw: it schedules an entry, draws the donor and the mutation from a
per-worker random stream, mutates and unparses in submission order, and
consumes the results in that same order, so corpus and crash-store
updates stay with it too.  ``run_campaign`` decides once where a run
goes.  One worker executes each input inline as it is submitted.  More
workers keep a window of ``2 * workers`` inputs submitted ahead of the
consume.  An ``exec:`` target's runs then go to a thread pool of
``workers`` threads, each of which receives nothing but the target spec
and the input text, and runs ``execute``: it spawns the child and waits
on it.  A ``builtin:`` target's runs stay inline on the coordinator, in
the same window, since its Python holds the GIL and threads would only
take turns at it.  So the builtin validator, the parser's line cache,
the crash keys and the campaign's memos are the coordinator's alone, at
every worker count.  The seed phase submits all its inputs the same way
before it consumes the first, so an ``exec:`` target's seed inputs run
on the pool too, and are consumed in seed order.

The target is taken to be deterministic, as ``minimize`` takes it to be:
the same text always gets the same answer.  So the coordinator keeps a
memo of the answer each text it ran got, and a text drawn again is
answered from the memo instead of running the target; the replayed
answer is consumed, and counted as an exec, exactly as a second run's
would be.  A text drawn again while its run is still in flight takes
that run's answer.  ``minimize`` asks the campaign for its answers too,
so a crash's first reproduce and every candidate the campaign has seen
cost no run, and each text it runs is kept for later draws.  The seed
phase, the loop and ``minimize`` all look an answer up through
``_Run.ask``: the memo, then the run in flight, then a new run.  The
seed phase and the loop submit through ``_Run.submit`` and consume what
``_Run.settle`` gives back.  A timeout is never kept, so a hang runs
again when it is drawn after its answer was consumed.  A crash's dedup
key is kept by ``dedup_key`` itself, once per distinct (crash code,
branch set) pair.

The coordinator also holds a memo of edits, which it hands to
``random_mutation``: a mutation that makes the same edit to the same
corpus entry as before (the same path, the same subtree) returns the
mutant built then, whose tree keeps its text, so it costs only its
draws, with no rebuild and no unparse.  ``mutate`` alone decides what
that memo keeps, and bounds it.

The campaign's own caches follow the rule of ``cache.keep``, each on its
own bound:

- the memo of answers keeps at most ``_MEMO_ENTRIES`` (4096) texts of at
  most ``_MEMO_CHARS`` (1024) characters: at most 4.7 MiB, each entry's
  own ~180 bytes included, for answers without stderr.  An answer's
  stderr excerpt adds at most ``STDERR_EXCERPT_BYTES`` (4 KiB), so an
  ``exec:`` target whose stderr fills it adds about 16 MiB more;
- the interned branch sets, at most ``_BRANCH_SETS`` (4096) sets: a
  ``gnb.json`` set is ~0.8 KiB, and the memo's answers share them.
"""

from __future__ import annotations

import json
import time
from collections import deque
from collections.abc import Callable
from pathlib import Path
from random import Random

from . import gnb_validator
from .cache import keep
from .grammar import (
    DEFAULT_MAX_DEPTH,
    DerivationTree,
    Grammar,
    check_max_depth,
    derive_tree,
    generate_tree,
    parse_grammar,
    unparse,
)
from .mutate import random_mutation
from .target import ExecOutcome, OutcomeKind, TargetSpec, execute
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
    "run_campaign",
    "should_keep",
]

SEED_TREES = 10

# the caches' bounds; see the module docstring
_MEMO_ENTRIES = 4096
_MEMO_CHARS = 1024
_BRANCH_SETS = 4096

# read on every exec, where a member read through the enum class costs
# more than the test itself
_TIMEOUT, _CRASH = OutcomeKind.TIMEOUT, OutcomeKind.CRASH


class CampaignConfig:
    """One campaign's settings.  The class attributes are the defaults,
    which the CLI's ``fuzz`` flags show."""

    seed = 1
    max_execs = 10_000
    workers = 1
    energy_per_entry = 64
    max_depth = DEFAULT_MAX_DEPTH
    progress = None

    def __init__(
        self,
        grammar_path: str | Path,
        target: TargetSpec,
        out_dir: str | Path,
        seed: int = seed,
        max_execs: int = max_execs,
        workers: int = workers,
        energy_per_entry: int = energy_per_entry,
        max_depth: int = max_depth,
        progress: Callable[[CampaignStats], None] | None = progress,
    ) -> None:
        if max_execs < 1:
            raise ValueError("max_execs must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if energy_per_entry < 1:
            raise ValueError("energy_per_entry must be at least 1")
        self.grammar_path = grammar_path
        self.target = target
        self.out_dir = out_dir
        self.seed = seed
        self.max_execs = max_execs
        self.workers = workers
        self.energy_per_entry = energy_per_entry
        self.max_depth = max_depth
        self.progress = progress


class CampaignStats:
    """A campaign's counters, as written to ``stats.json``;
    ``execs_per_sec`` is set once, when the campaign ends."""

    # stats.json's key order is this order
    __slots__ = (
        "execs",
        "crashes_total",
        "crashes_unique",
        "timeouts",
        "corpus_size",
        "execs_per_sec",
        "seed",
        "started_unix_ms",
        "finished_unix_ms",
    )

    def __init__(self, seed: int) -> None:
        self.execs = self.crashes_total = self.crashes_unique = 0
        self.timeouts = self.corpus_size = 0
        self.execs_per_sec = 0.0
        self.seed = seed
        self.started_unix_ms = self.finished_unix_ms = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def should_keep(branches: frozenset[str], seen: set[str]) -> bool:
    """True iff ``branches`` holds at least one branch not seen before."""
    return not branches <= seen


class CorpusScheduler:
    """Round-robin over corpus entries with a per-entry pick budget.

    The corpus is never empty: the seed phase retains every input it
    runs, and a campaign runs at least one."""

    def __init__(self, energy_per_entry: int):
        self.energy_per_entry = energy_per_entry
        self._idx = -1
        self._picks_left = 0
        self._bonus = False

    def schedule_next(self, corpus: list[DerivationTree]) -> DerivationTree:
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
    scheduler, stats, the memo of answers, the runs in flight and the
    memo of edits.  Only the coordinator reads or changes it; no thread
    of the pool is ever handed it.  ``start`` starts a submitted run:
    ``_Inline``, or a thread pool's ``submit``."""

    def __init__(self, cfg: CampaignConfig, g: Grammar, out: Path, start):
        self.cfg = cfg
        self.g = g
        self.out = out
        self.start = start
        self.corpus: list[DerivationTree] = []
        self.seen: set[str] = set()
        self.known_keys: set[str] = set()
        self.scheduler = CorpusScheduler(cfg.energy_per_entry)
        self.stats = CampaignStats(seed=cfg.seed)
        self.t0 = time.monotonic()
        # each text run so far and its answer; the validator builds a
        # fresh branch set on every exec, so the kept ones are interned,
        # one object per distinct set
        self.memo: dict[str, tuple[ExecOutcome, frozenset[str]]] = {}
        self.branch_sets: dict[frozenset[str], frozenset[str]] = {}
        # each text submitted to run whose answer is not consumed yet,
        # and the future that will give it
        self.in_flight: dict = {}
        # the mutants built so far, by their edit; see ``random_mutation``
        self.edits: dict = {}

    def ask(self, text: str, start) -> tuple:
        """``text``'s answer from the memo and ``None``, or else ``None``
        and a future of it: its run in flight, or else a new run from
        ``start``, called as ``start(execute, target, text)``."""
        known = self.memo.get(text)
        if known is not None:
            return known, None
        running = self.in_flight.get(text)
        return None, running or start(execute, self.cfg.target, text)

    def submit(self, text: str) -> tuple:
        """``ask`` with a new run started by ``start``; a run stays in
        ``in_flight`` until ``settle``, so a text drawn again meanwhile
        takes its answer."""
        known, running = self.ask(text, self.start)
        if running is not None:
            self.in_flight[text] = running
        return known, running

    def settle(self, text: str, known, running) -> tuple[ExecOutcome, frozenset[str]]:
        """The answer of ``submit``'s ``known, running`` for ``text``: the
        known one, or else the run's, through ``take``, once its
        ``in_flight`` entry is cleared."""
        if running is None:
            return known
        if self.in_flight.get(text) is running:
            del self.in_flight[text]
        return self.take(text, running)

    def take(self, text: str, running) -> tuple[ExecOutcome, frozenset[str]]:
        """The answer of ``running``, a future of ``text``'s answer from
        ``ask``, kept in the memo; the answer returned is the one kept.  A
        timeout is not kept, so a hang is always run again."""
        outcome, branches = answer = running.result()
        if outcome.kind is _TIMEOUT or len(text) > _MEMO_CHARS:
            return answer
        branches = keep(self.branch_sets, branches, branches, _BRANCH_SETS)
        return keep(self.memo, text, (outcome, branches), _MEMO_ENTRIES)

    def answer(self, text: str) -> tuple[ExecOutcome, frozenset[str]]:
        """``text``'s answer through ``ask``, a new run running inline:
        ``minimize``'s way to an answer."""
        known, running = self.ask(text, _Inline)
        return known if running is None else self.take(text, running)

    def retain(self, tree: DerivationTree, text: str) -> None:
        (self.out / "corpus" / f"{len(self.corpus)}.conf").write_text(
            text, encoding="utf-8"
        )
        self.corpus.append(tree)
        self.stats.corpus_size = len(self.corpus)

    def route_crash(self, outcome, branches, tree, text, first_seen: int) -> None:
        key = dedup_key(outcome, branches)
        if key in self.known_keys:
            return
        self.known_keys.add(key)
        self.stats.crashes_unique += 1
        try:
            minimized = unparse(minimize(tree, self.g, self.answer, key), self.g)
        except NonReproducibleError:
            minimized = text  # flaky target; keep the original witness
        report = make_crash_report(key, outcome, text, minimized, first_seen)
        store_crash_report(self.out / "crashes", report)

    def consume(self, tree, text, outcome, branches, *, seed=False) -> None:
        """Count an answer, route its crash and retain a novel input.  A
        seed input is retained always, and the seed phase routes its crash
        itself."""
        self.stats.execs += 1
        if outcome.kind is _TIMEOUT:
            self.stats.timeouts += 1
        if outcome.kind is _CRASH:
            self.stats.crashes_total += 1
            if not seed:
                self.route_crash(outcome, branches, tree, text, self.stats.execs)
        novel = should_keep(branches, self.seen)
        if novel:
            self.seen |= branches
            self.scheduler.record_novelty()
        if novel or seed:
            self.retain(tree, text)
        if self.cfg.progress:
            self.cfg.progress(self.stats)


def _seed_corpus(run: _Run) -> None:
    """Submit all the seed inputs, then consume and retain them in seed
    order, then route their crashes, each under the exec that found it.
    A target that cannot see them is refused in between (see
    ``_refuse_blind``), so none of its crashes is minimized or stored."""
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
    submitted = []
    for tree in trees[: cfg.max_execs]:
        text = unparse(tree, run.g)
        submitted.append((tree, text, *run.submit(text)))
    seeds = [
        (tree, text, *run.settle(text, known, running))
        for tree, text, known, running in submitted
    ]
    for seed in seeds:
        run.consume(*seed, seed=True)
    _refuse_blind([(outcome, branches) for _, _, outcome, branches in seeds])
    for execs, (tree, text, outcome, branches) in enumerate(seeds, 1):
        if outcome.kind is _CRASH:
            run.route_crash(outcome, branches, tree, text, execs)


def _refuse_blind(answers: list[tuple[ExecOutcome, frozenset[str]]]) -> None:
    """Raise ``ValueError`` when the seed inputs all got one answer, not a
    timeout, and none reported a branch label: a target that cannot read
    its input, or cannot start, answers so, and no feedback could ever
    tell its inputs apart.  A hang is left to the timeout count."""
    [(kind, code), *others] = {(outcome.kind, outcome.code) for outcome, _ in answers}
    if others or kind is _TIMEOUT or any(branches for _, branches in answers):
        return
    answer = kind.value if code is None else f"{kind.value} (code {code})"
    message = f"target answered {answer} to every seed input"
    message += " and reported no branch labels"
    # a Python traceback ends with its error
    excerpt = next((o.stderr_excerpt for o, _ in answers if o.stderr_excerpt), "")
    lines = [line.strip() for line in excerpt.splitlines() if line.strip()]
    if lines:
        message += f"; its stderr ends: {lines[-1]}"
    raise ValueError(message)


def _mutant(run: _Run, rng: Random) -> tuple[DerivationTree, str]:
    tree = run.scheduler.schedule_next(run.corpus)
    donor = run.corpus[rng.randrange(len(run.corpus))]
    mutated, _ = random_mutation(
        tree, run.g, rng, donor=donor, max_depth=run.cfg.max_depth, memo=run.edits
    )
    return mutated, unparse(mutated, run.g)


class _Inline:
    """An execution run on the spot, read back like a finished future."""

    def __init__(self, fn, *args):
        self._value = fn(*args)

    def result(self):
        return self._value


def _loop(run: _Run) -> None:
    # Mutants are drawn and consumed in submission order, mutant ``n``
    # drawing from stream ``n % workers``; one worker is a window of one
    # run inline, so nothing is drawn ahead of a consume.  More workers
    # keep a window of ``2 * workers`` submissions, whether their runs go
    # to the pool (an ``exec:`` target) or run inline as they are
    # submitted (a builtin), so a seed and worker count give the same
    # bytes either way.  The memo is read at submission by ``ask`` and
    # written at consumption by ``take``; a text drawn again while its run
    # is still in flight takes that run's future, which ``in_flight``
    # holds until it is consumed.
    cfg = run.cfg
    streams = [Random(cfg.seed + w) for w in range(cfg.workers)]
    submitted = run.stats.execs
    pending: deque = deque()
    window = 1 if cfg.workers == 1 else 2 * cfg.workers
    while submitted < cfg.max_execs or pending:
        while submitted < cfg.max_execs and len(pending) < window:
            tree, text = _mutant(run, streams[submitted % cfg.workers])
            pending.append((tree, text, *run.submit(text)))
            submitted += 1
        tree, text, known, running = pending.popleft()
        run.consume(tree, text, *run.settle(text, known, running))


def run_campaign(cfg: CampaignConfig) -> CampaignStats:
    g = parse_grammar(Path(cfg.grammar_path).read_text(encoding="utf-8"))
    # before anything is written, so a depth the grammar cannot meet leaves
    # no out dir and no stats.json behind
    check_max_depth(g, cfg.max_depth)
    out = Path(cfg.out_dir)
    # another campaign's artifacts would mix with this one's
    if out.is_dir() and any(out.iterdir()):
        raise FileExistsError(f"out dir {str(out)!r} is not empty")
    (out / "corpus").mkdir(parents=True, exist_ok=True)
    (out / "crashes").mkdir(parents=True, exist_ok=True)

    pool, start = None, _Inline
    if cfg.workers > 1 and cfg.target.text.startswith("exec:"):
        # imported here so runs that stay inline never load the thread pool
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=cfg.workers)
        start = pool.submit
    run = _Run(cfg, g, out, start)
    run.stats.started_unix_ms = int(time.time() * 1000)
    try:
        _seed_corpus(run)
        _loop(run)
    finally:
        if pool is not None:
            # an interrupted run drops the executions it will not consume
            pool.shutdown(cancel_futures=True)
        # flush whatever was gathered, even on interruption
        run.stats.finished_unix_ms = int(time.time() * 1000)
        elapsed = max(time.monotonic() - run.t0, 1e-9)
        run.stats.execs_per_sec = round(run.stats.execs / elapsed, 1)
        (out / "stats.json").write_text(
            json.dumps(run.stats.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
    return run.stats
