"""Campaign loop: scheduling, novelty retention, crash routing, persistence."""

import json
import os
import shlex
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from conffuzz.campaign import (
    CampaignConfig,
    CampaignStats,
    CorpusScheduler,
    run_campaign,
    should_keep,
)
from conffuzz.gnb_validator import baseline_text
from conffuzz.target import (
    ExecOutcome,
    OutcomeKind,
    TargetSpec,
    execute,
    register_builtin,
)

VALIDATOR = TargetSpec.parse("builtin:gnb-validator")

GRAMMAR_PATH = None  # set by fixture


@pytest.fixture()
def gnb_grammar_path():
    from conftest import GRAMMAR_PATH

    return GRAMMAR_PATH


class TestShouldKeep:
    def test_first_feedback_is_novel(self):
        assert should_keep(frozenset({"chk:a"}), set())

    def test_exact_repeat_is_not(self):
        assert not should_keep(frozenset({"chk:a"}), {"chk:a", "chk:b"})

    def test_one_new_branch_suffices(self):
        assert should_keep(frozenset({"chk:a", "chk:new"}), {"chk:a", "chk:b"})

    def test_empty_feedback_never_kept(self):
        assert not should_keep(frozenset(), set())


class TestScheduler:
    # the scheduler only indexes the corpus, so plain ints stand in for
    # the derivation trees and name the entry they are
    def test_single_entry_always_chosen(self):
        sched = CorpusScheduler(3)
        corpus = [0]
        assert [sched.schedule_next(corpus) for _ in range(7)] == [0] * 7

    def test_round_robin_with_energy(self):
        sched = CorpusScheduler(2)
        corpus = [0, 1]
        picks = [sched.schedule_next(corpus) for _ in range(8)]
        assert picks == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_bonus_round_after_novelty(self):
        sched = CorpusScheduler(2)
        corpus = [0, 1]
        picks = [sched.schedule_next(corpus) for _ in range(2)]
        sched.record_novelty()  # novelty during entry 0's round
        picks += [sched.schedule_next(corpus) for _ in range(6)]
        assert picks == [0, 0] + [0, 0] + [1, 1, 0, 0]

    def test_bonus_rounds_can_chain(self):
        sched = CorpusScheduler(1)
        corpus = [0, 1]
        picks = []
        for _ in range(3):
            picks.append(sched.schedule_next(corpus))
            sched.record_novelty()
        picks += [sched.schedule_next(corpus) for _ in range(2)]
        assert picks == [0, 0, 0, 0, 1]

    def test_new_entries_join_rotation(self):
        sched = CorpusScheduler(1)
        corpus = [0]
        assert sched.schedule_next(corpus) == 0
        corpus.append(1)
        assert [sched.schedule_next(corpus) for _ in range(4)] == [1, 0, 1, 0]


class TestConfigValidation:
    def test_max_execs_positive(self, gnb_grammar_path, tmp_path):
        with pytest.raises(ValueError):
            CampaignConfig(gnb_grammar_path, VALIDATOR, tmp_path, max_execs=0)

    def test_workers_positive(self, gnb_grammar_path, tmp_path):
        with pytest.raises(ValueError):
            CampaignConfig(gnb_grammar_path, VALIDATOR, tmp_path, workers=0)

    def test_energy_per_entry_positive(self, gnb_grammar_path, tmp_path):
        with pytest.raises(ValueError, match="energy_per_entry must be at least 1"):
            CampaignConfig(gnb_grammar_path, VALIDATOR, tmp_path, energy_per_entry=0)

    def test_missing_grammar_propagates(self, tmp_path):
        cfg = CampaignConfig(tmp_path / "nope.json", VALIDATOR, tmp_path / "out")
        with pytest.raises(OSError):
            run_campaign(cfg)


class TestOutDir:
    def test_a_used_out_dir_is_refused_untouched(self, gnb_grammar_path, tmp_path):
        out = tmp_path / "out"

        def files():
            return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        run_campaign(CampaignConfig(gnb_grammar_path, VALIDATOR, out, max_execs=300))
        before = files()
        with pytest.raises(FileExistsError):
            run_campaign(
                CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=3, max_execs=20)
            )
        assert files() == before

    def test_an_unknown_builtin_leaves_no_out_dir(self, gnb_grammar_path, tmp_path):
        # refused before anything is written, so a corrected run can use
        # the same out dir
        out = tmp_path / "out"
        with pytest.raises(ValueError) as refused:
            typo = TargetSpec.parse("builtin:gnb-validatr")
            run_campaign(CampaignConfig(gnb_grammar_path, typo, out, max_execs=20))
        assert str(refused.value) == "unknown builtin target: 'gnb-validatr'"
        assert not out.exists()

    def test_an_empty_out_dir_is_used(self, gnb_grammar_path, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        stats = run_campaign(
            CampaignConfig(gnb_grammar_path, VALIDATOR, out, max_execs=20)
        )
        assert json.loads((out / "stats.json").read_text()) == stats.as_dict()


class TestSeedPhase:
    def test_eleven_seed_entries(self, gnb_grammar_path, tmp_path):
        # ten generated trees plus the grammar-derived initial config
        out = tmp_path / "out"
        stats = run_campaign(
            CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=1, max_execs=11)
        )
        assert stats.execs == 11
        assert stats.corpus_size == 11
        files = sorted((out / "corpus").iterdir(), key=lambda p: int(p.stem))
        assert [p.name for p in files] == [f"{i}.conf" for i in range(11)]
        assert files[10].read_text() == baseline_text()

    # one exec is all seed phase; the twelfth is the loop's first
    @pytest.mark.parametrize("max_execs, scheduled", [(1, []), (12, [11])])
    def test_loop_never_sees_an_empty_corpus(
        self, gnb_grammar_path, tmp_path, max_execs, scheduled, monkeypatch
    ):
        # the seed phase retains every input it runs, and a campaign runs
        # at least one, so the scheduler is never handed an empty corpus
        sizes = []
        schedule = CorpusScheduler.schedule_next

        def recording(self, corpus):
            sizes.append(len(corpus))
            return schedule(self, corpus)

        monkeypatch.setattr(CorpusScheduler, "schedule_next", recording)
        stats = run_campaign(
            CampaignConfig(
                gnb_grammar_path, VALIDATOR, tmp_path / "out", max_execs=max_execs
            )
        )
        assert stats.execs == max_execs
        assert stats.corpus_size >= 1
        assert sizes == scheduled

    def test_budget_caps_seeding(self, gnb_grammar_path, tmp_path):
        stats = run_campaign(
            CampaignConfig(
                gnb_grammar_path, VALIDATOR, tmp_path / "out", seed=1, max_execs=3
            )
        )
        assert stats.execs == 3
        assert stats.corpus_size == 3


def snapshot(out_dir):
    stats = json.loads((out_dir / "stats.json").read_text())
    corpus = {
        p.name: p.read_text() for p in (out_dir / "corpus").iterdir()
    }
    crashes = {}
    for crash_dir in (out_dir / "crashes").iterdir():
        crashes[crash_dir.name] = {
            p.name: p.read_text() for p in crash_dir.iterdir()
        }
    return stats, corpus, crashes


WALL_CLOCK_KEYS = ("execs_per_sec", "started_unix_ms", "finished_unix_ms")


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self, gnb_grammar_path, tmp_path):
        results = []
        for label in ("a", "b"):
            out = tmp_path / label
            run_campaign(
                CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=5, max_execs=800)
            )
            results.append(snapshot(out))
        (stats_a, corpus_a, crashes_a), (stats_b, corpus_b, crashes_b) = results
        for key in WALL_CLOCK_KEYS:
            stats_a.pop(key), stats_b.pop(key)
        assert stats_a == stats_b
        assert corpus_a == corpus_b
        assert crashes_a == crashes_b  # same keys, byte-identical artifacts


class TestCrashRouting:
    def test_stats_layout_and_invariants(self, gnb_grammar_path, tmp_path):
        out = tmp_path / "out"
        stats = run_campaign(
            CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=3, max_execs=2000)
        )
        assert stats.execs == 2000
        assert stats.crashes_unique <= stats.crashes_total <= stats.execs
        assert stats.timeouts == 0
        crash_dirs = sorted(p.name for p in (out / "crashes").iterdir())
        assert len(crash_dirs) == stats.crashes_unique
        for name in crash_dirs:
            files = sorted(p.name for p in (out / "crashes" / name).iterdir())
            assert files == ["input.conf", "minimized.conf", "report.json"]
            payload = json.loads((out / "crashes" / name / "report.json").read_text())
            assert payload["dedup_key"] == name
            assert payload["outcome"]["class"] == "crash"

    def test_minimized_inputs_reproduce_keys(self, gnb_grammar_path, tmp_path):
        from conffuzz.triage import dedup_key

        out = tmp_path / "out"
        run_campaign(
            CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=3, max_execs=2000)
        )
        for crash_dir in (out / "crashes").iterdir():
            minimized = (crash_dir / "minimized.conf").read_text()
            outcome, branches = execute(VALIDATOR, minimized)
            assert outcome.is_crash
            assert dedup_key(outcome, branches) == crash_dir.name

    def test_identical_crashes_dedup_to_one_report(self, tmp_path, table1_dir):
        # a grammar whose whole language is one crashing config
        text = (table1_dir / "case5.conf").read_text()
        gpath = tmp_path / "mono.json"
        gpath.write_text(json.dumps({"<START>": [[text]]}))
        out = tmp_path / "out"
        stats = run_campaign(
            CampaignConfig(gpath, VALIDATOR, out, seed=1, max_execs=50)
        )
        assert stats.crashes_total == 50
        assert stats.crashes_unique == 1
        crash_dirs = list((out / "crashes").iterdir())
        assert len(crash_dirs) == 1
        payload = json.loads((crash_dirs[0] / "report.json").read_text())
        assert payload["outcome"]["code"] == 104
        assert payload["first_seen_exec"] == 1  # the very first execution

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_key_per_distinct_answer(self, tmp_path, monkeypatch, workers):
        # a crash's key is a function of its code and branch set, so it is
        # worked out once per distinct pair, however often a pair repeats:
        # two hashes, the branch set's digest and then the key over
        # ``code|digest``
        from test_campaign_bytes import SEED1_2000_DIGESTS, artifact_digest, campaign

        from conffuzz import campaign as campaign_module, triage

        hashed, crashed = [], []
        stable_hash64 = triage.stable_hash64
        consume = campaign_module._Run.consume

        def hashing(s):
            hashed.append(s)
            return stable_hash64(s)

        def consuming(self, tree, text, outcome, branches, **kwargs):
            if outcome.is_crash:
                crashed.append((outcome.code, branches))
            return consume(self, tree, text, outcome, branches, **kwargs)

        monkeypatch.setattr(triage, "_keys", {})
        monkeypatch.setattr(triage, "stable_hash64", hashing)
        monkeypatch.setattr(campaign_module._Run, "consume", consuming)
        out = campaign(tmp_path / "out", workers)
        assert len(hashed) % 2 == 0
        keyed = [
            (int(coded.partition("|")[0]), frozenset(labels.split("\n")) - {""})
            for labels, coded in zip(hashed[::2], hashed[1::2])
        ]
        assert len(keyed) == len(set(keyed))
        assert set(keyed) == set(crashed)
        assert len(keyed) < len(crashed) / 10
        assert artifact_digest(out) == SEED1_2000_DIGESTS[workers]

    def test_stats_json_key_order(self, gnb_grammar_path, tmp_path):
        out = tmp_path / "out"
        run_campaign(
            CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=1, max_execs=20)
        )
        payload = json.loads((out / "stats.json").read_text())
        assert list(payload) == [
            "execs",
            "crashes_total",
            "crashes_unique",
            "timeouts",
            "corpus_size",
            "execs_per_sec",
            "seed",
            "started_unix_ms",
            "finished_unix_ms",
        ]
        # the order comes from the record itself, not from the run
        assert list(CampaignStats(seed=1).as_dict()) == list(payload)


class TestCorpusReproducibility:
    def test_retained_digests_reexecute(self, gnb_grammar_path, tmp_path, monkeypatch):
        from pathlib import Path

        from conffuzz import campaign
        from conffuzz.campaign import _loop, _Run, _seed_corpus
        from conffuzz.grammar import parse_grammar, unparse

        # the branch set each input had when the campaign ran it
        seen: dict[str, frozenset[str]] = {}

        def recording(spec, text):
            outcome, branches = execute(spec, text)
            assert seen.setdefault(text, branches) == branches
            return outcome, branches

        monkeypatch.setattr(campaign, "execute", recording)
        out = tmp_path / "out"
        (out / "corpus").mkdir(parents=True)
        (out / "crashes").mkdir(parents=True)
        cfg = CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=2, max_execs=400)
        g = parse_grammar(Path(gnb_grammar_path).read_text())
        run = _Run(cfg, g, out, campaign._Inline)
        _seed_corpus(run)
        _loop(run)
        assert len(run.corpus) > 11  # novelty retention happened
        files = [out / "corpus" / f"{i}.conf" for i in range(len(run.corpus))]
        assert sorted((out / "corpus").iterdir()) == sorted(files)
        for tree, path in zip(run.corpus, files):
            text = path.read_text()
            assert unparse(tree, g) == text
            _, branches = execute(VALIDATOR, text)
            assert branches == seen[text]


class TestProgressCallback:
    def test_invoked_with_running_stats(self, gnb_grammar_path, tmp_path):
        seen = []
        cfg = CampaignConfig(
            gnb_grammar_path,
            VALIDATOR,
            tmp_path / "out",
            seed=1,
            max_execs=512,
            progress=lambda s: seen.append(s.execs),
        )
        run_campaign(cfg)
        # called after every consume; the caller decides how often to print
        assert seen == list(range(1, 513))

    def test_reads_no_clock_per_exec(self, gnb_grammar_path, tmp_path, monkeypatch):
        # the campaign works out its rate once, at the end, however long
        # it runs and whether or not a progress callback is installed
        import types

        from conffuzz import campaign

        reads = []

        def monotonic():
            reads.append(None)
            return time.monotonic()

        clock = types.SimpleNamespace(monotonic=monotonic, time=time.time)
        monkeypatch.setattr(campaign, "time", clock)
        counts = []
        for max_execs in (20, 2000):
            del reads[:]
            cfg = CampaignConfig(
                gnb_grammar_path,
                VALIDATOR,
                tmp_path / str(max_execs),
                seed=1,
                max_execs=max_execs,
                progress=lambda s: None,
            )
            assert run_campaign(cfg).execs == max_execs
            counts.append(len(reads))
        assert counts[0] == counts[1] <= 2


class TestInterrupt:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stats_flushed_on_keyboard_interrupt(
        self, gnb_grammar_path, tmp_path, workers
    ):
        def interrupt(stats):
            if stats.execs == 256:
                raise KeyboardInterrupt

        out = tmp_path / "out"
        cfg = CampaignConfig(
            gnb_grammar_path,
            VALIDATOR,
            out,
            seed=1,
            max_execs=2000,
            workers=workers,
            progress=interrupt,
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(cfg)
        stats = json.loads((out / "stats.json").read_text())
        assert stats["execs"] == 256
        assert stats["corpus_size"] == len(list((out / "corpus").iterdir()))


class TestTargetFault:
    # A builtin target that raises, or returns something other than an
    # (outcome, branch set) pair, aborts the campaign (a known gap, see
    # ROADMAP); until it is handled, the exception must reach the caller
    # and stats.json must still count exactly the results consumed.  A
    # builtin runs on the coordinator at every worker count, so a raise
    # surfaces where the run is submitted, and a malformed answer where
    # it is consumed.
    @staticmethod
    def check_fault_on_50th_call(
        fault, expected, match, grammar_path, out, monkeypatch, workers
    ):
        import itertools

        from conffuzz import campaign
        from conffuzz.gnb_validator import run_text
        from conffuzz.target import register_builtin

        calls = itertools.count(1)
        consumed = [0]
        at_fault = []

        def faulty(text):
            if next(calls) == 50:
                at_fault.append(consumed[0])
                return fault(text)
            return run_text(text)

        register_builtin("faulty-on-50th-call", faulty)
        consume = campaign._Run.consume

        def counting(self, *args, **kwargs):
            consumed[0] += 1
            return consume(self, *args, **kwargs)

        monkeypatch.setattr(campaign._Run, "consume", counting)
        cfg = CampaignConfig(
            grammar_path,
            TargetSpec.parse("builtin:faulty-on-50th-call"),
            out,
            seed=1,
            max_execs=2000,
            workers=workers,
        )
        with pytest.raises(expected, match=match):
            run_campaign(cfg)
        stats = json.loads((out / "stats.json").read_text())
        # A text drawn again is answered from the campaign's memo, so the
        # calls do not keep step with the execs.  The results consumed are
        # those submitted ahead of the faulting call: none past the count
        # at the call inline, and at most 2 * workers - 1 past it with the
        # pool's window of 2 * workers.
        assert 0 < at_fault[0] <= stats["execs"] == consumed[0]
        assert consumed[0] <= at_fault[0] + 2 * workers - 1
        assert stats["corpus_size"] == len(list((out / "corpus").iterdir()))
        return at_fault[0], consumed[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_propagates_and_stats_flushed(
        self, gnb_grammar_path, tmp_path, monkeypatch, workers
    ):
        def fault(text):
            raise RuntimeError("target fault")

        at_fault, consumed = self.check_fault_on_50th_call(
            fault, RuntimeError, "target fault",
            gnb_grammar_path, tmp_path / "out", monkeypatch, workers,
        )
        # nothing is consumed past the raise, however wide the window
        assert consumed == at_fault

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_outcome_propagates_and_stats_flushed(
        self, gnb_grammar_path, tmp_path, monkeypatch, workers
    ):
        from conffuzz.gnb_validator import run_text

        def fault(text):
            return run_text(text)[0]  # the outcome without its branch set

        self.check_fault_on_50th_call(
            fault, TypeError, "cannot unpack",
            gnb_grammar_path, tmp_path / "out", monkeypatch, workers,
        )


class TestWorkers:
    def test_two_worker_smoke(self, gnb_grammar_path, tmp_path):
        out = tmp_path / "out"
        stats = run_campaign(
            CampaignConfig(
                gnb_grammar_path, VALIDATOR, out, seed=7, max_execs=300, workers=2
            )
        )
        assert stats.execs == 300
        assert stats.crashes_unique <= stats.crashes_total <= stats.execs
        assert stats.corpus_size == len(list((out / "corpus").iterdir()))
        assert stats.crashes_unique == len(list((out / "crashes").iterdir()))
        payload = json.loads((out / "stats.json").read_text())
        assert payload["execs"] == 300

    @pytest.mark.parametrize("workers", [2, 4])
    def test_same_seed_and_workers_give_same_bytes(
        self, gnb_grammar_path, tmp_path, workers
    ):
        def snapshot(out):
            run_campaign(
                CampaignConfig(
                    gnb_grammar_path,
                    VALIDATOR,
                    out,
                    seed=5,
                    max_execs=1500,
                    workers=workers,
                )
            )
            stats = json.loads((out / "stats.json").read_text())
            for key in ("execs_per_sec", "started_unix_ms", "finished_unix_ms"):
                del stats[key]
            files = {
                str(p.relative_to(out)): p.read_bytes()
                for sub in ("corpus", "crashes")
                for p in sorted((out / sub).rglob("*"))
                if p.is_file()
            }
            return stats, files

        first = snapshot(tmp_path / "a")
        assert first[0]["crashes_unique"] > 0
        assert first == snapshot(tmp_path / "b")


def record_submissions(monkeypatch):
    """The coordinator's order of events: ``("submit", text)`` for each
    input it unparses to run, ``("consume", text, kind)`` for each answer
    it consumes, and ``("ask", text, kind)`` for each text a minimization
    asks the campaign to answer."""
    from conffuzz import campaign

    events = []
    routing = []
    unparse, consume = campaign.unparse, campaign._Run.consume
    route_crash, minimize = campaign._Run.route_crash, campaign.minimize

    def unparsing(tree, g):
        text = unparse(tree, g)
        if not routing:  # a new crash's minimized tree is unparsed there
            events.append(("submit", text))
        return text

    def consuming(self, tree, text, outcome, branches, **kwargs):
        events.append(("consume", text, outcome.kind))
        return consume(self, tree, text, outcome, branches, **kwargs)

    def routing_crash(self, *args):
        routing.append(True)
        try:
            return route_crash(self, *args)
        finally:
            routing.pop()

    def asking(tree, g, target, key):
        def answer(text):
            outcome, branches = target(text)
            events.append(("ask", text, outcome.kind))
            return outcome, branches

        return minimize(tree, g, answer, key)

    monkeypatch.setattr(campaign, "unparse", unparsing)
    monkeypatch.setattr(campaign._Run, "consume", consuming)
    monkeypatch.setattr(campaign._Run, "route_crash", routing_crash)
    monkeypatch.setattr(campaign, "minimize", asking)
    return events


def expected_runs(events, kept=lambda text: True):
    """How often each text reaches the target: once per submission or ask
    that finds it neither answered nor in flight.  A text is in flight
    from the submission that runs it to that submission's consume, and
    answered once consumed or asked for, unless it timed out or ``kept``
    says the memo does not keep it."""
    answered, in_flight, runs = set(), {}, Counter()
    submitted = consumed = 0
    for kind, text, *outcome_kind in events:
        if kind == "submit":
            if text not in answered and text not in in_flight:
                runs[text] += 1
                in_flight[text] = submitted
            submitted += 1
            continue
        if kind == "consume":
            if in_flight.get(text) == consumed:
                del in_flight[text]
            consumed += 1
        elif text not in answered and text not in in_flight:
            runs[text] += 1
        if outcome_kind != [OutcomeKind.TIMEOUT] and kept(text):
            answered.add(text)
    return runs


def register_counting(name, answer):
    """Register builtin ``name``, which gives ``answer(text)`` and counts
    each text it runs, minimization's runs included.  A builtin runs on
    the campaign's coordinator at every worker count, so one thread
    counts."""
    from conffuzz.target import register_builtin

    calls = Counter()

    def counting(text):
        calls[text] += 1
        return answer(text)

    register_builtin(name, counting)
    return TargetSpec.parse(f"builtin:{name}"), calls


class TestMemo:
    # A text the campaign has answered already, or is running, is
    # answered from its memo of answers instead of running the target
    # again; a minimization asks the campaign for its answers too.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_text_runs_once_and_the_bytes_hold(
        self, gnb_grammar_path, tmp_path, monkeypatch, workers
    ):
        from conffuzz import campaign
        from conffuzz.gnb_validator import run_text

        spec, calls = register_counting("memo-counting", run_text)
        events = record_submissions(monkeypatch)

        def run(out):
            return run_campaign(
                CampaignConfig(
                    gnb_grammar_path, spec, out, seed=1, max_execs=2000,
                    workers=workers,
                )
            )

        stats = run(tmp_path / "memo")
        assert stats.crashes_unique > 0
        asked = {e[1] for e in events if e[0] == "ask"}
        drawn = {e[1] for e in events if e[0] == "submit"}
        assert asked - drawn and asked & drawn
        # every text drawn or asked for by a minimization reaches the
        # target once only, whether it is drawn again, drawn while its run
        # is in flight, or asked for by a minimization
        assert set(calls) == asked | drawn
        assert calls == expected_runs(events)
        assert set(calls.values()) == {1}
        assert sum(calls.values()) < stats.execs / 2
        calls.clear()
        events.clear()
        # a memo that keeps no text is empty at every lookup
        monkeypatch.setattr(campaign, "_MEMO_CHARS", -1)
        run(tmp_path / "none")
        assert calls == expected_runs(events, kept=lambda text: False)
        if workers == 1:
            asks = sum(e[0] == "ask" for e in events)
            assert sum(calls.values()) == stats.execs + asks
        with_memo, without = snapshot(tmp_path / "memo"), snapshot(tmp_path / "none")
        for key in WALL_CLOCK_KEYS:
            with_memo[0].pop(key), without[0].pop(key)
        assert with_memo == without

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_timeout_runs_on_every_repeat(
        self, gnb_grammar_path, tmp_path, monkeypatch, workers
    ):
        from conffuzz.gnb_validator import run_text
        from conffuzz.target import ExecOutcome

        def answer(text):
            outcome, branches = run_text(text)
            if len(text) % 4 == 0:
                return ExecOutcome(OutcomeKind.TIMEOUT), branches
            return outcome, branches

        spec, calls = register_counting("memo-timeouts", answer)
        events = record_submissions(monkeypatch)
        stats = run_campaign(
            CampaignConfig(
                gnb_grammar_path, spec, tmp_path / "out", seed=1, max_execs=2000,
                workers=workers,
            )
        )
        consumed = Counter(e[1] for e in events if e[0] == "consume")
        asked = Counter(e[1] for e in events if e[0] == "ask")
        timed_out = {
            e[1] for e in events if e[0] != "submit" and e[2] is OutcomeKind.TIMEOUT
        }
        assert max(consumed[text] for text in timed_out) > 1
        if workers == 1:
            assert all(
                calls[text] == consumed[text] + asked[text] for text in timed_out
            )
        # with more workers, a repeat drawn while its run is in flight
        # takes that run's answer, a timeout too
        assert calls == expected_runs(events)
        assert stats.timeouts == sum(consumed[text] for text in timed_out)
        stored = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stored["timeouts"] == stats.timeouts

    def test_an_answer_in_flight_is_waited_for(
        self, gnb_grammar_path, gnb_grammar, tmp_path, monkeypatch
    ):
        # a minimization that asks for a text still running on the pool
        # takes that run's answer; the gnb campaigns never do, since a
        # minimization's candidates are seldom the mutants in flight
        from concurrent.futures import Future

        from conffuzz import campaign

        def elsewhere(spec, text):
            raise AssertionError("ran a text whose run is in flight")

        run = campaign._Run(
            CampaignConfig(gnb_grammar_path, VALIDATOR, tmp_path, workers=2),
            gnb_grammar,
            tmp_path,
            campaign._Inline,
        )
        text = baseline_text()
        running = Future()
        running.set_result(execute(VALIDATOR, text))
        run.in_flight[text] = running
        monkeypatch.setattr(campaign, "execute", elsewhere)
        assert run.answer(text) == running.result()
        assert run.memo[text] == running.result()

    def test_a_flaky_crash_keeps_its_original_witness(
        self, gnb_grammar_path, tmp_path, monkeypatch
    ):
        # a text the memo does not keep is run again by minimize's first
        # ask; a crash that happens on a text's first run only does not
        # reproduce there, so the stored minimized input is the input
        from conffuzz import campaign
        from conffuzz.gnb_validator import run_text
        from conffuzz.target import ExecOutcome

        def crashes_on_first_run(text):
            outcome, branches = run_text(text)
            if calls[text] == 1:
                return ExecOutcome(OutcomeKind.CRASH, 7), branches
            return outcome, branches

        spec, calls = register_counting("crashes-on-first-run", crashes_on_first_run)
        monkeypatch.setattr(campaign, "_MEMO_CHARS", 0)
        out = tmp_path / "out"
        stats = run_campaign(
            CampaignConfig(gnb_grammar_path, spec, out, seed=1, max_execs=100)
        )
        crash_dirs = sorted((out / "crashes").iterdir())
        assert len(crash_dirs) == stats.crashes_unique > 0
        for crash_dir in crash_dirs:
            text = (crash_dir / "input.conf").read_text(encoding="utf-8")
            assert (crash_dir / "minimized.conf").read_text(encoding="utf-8") == text
            assert calls[text] >= 2

    def test_memo_stays_within_its_bounds(
        self, gnb_grammar_path, tmp_path, monkeypatch
    ):
        from conffuzz import campaign, triage
        from conffuzz.gnb_validator import run_text

        def run(out):
            return run_campaign(
                CampaignConfig(gnb_grammar_path, spec, out, seed=1, max_execs=2000)
            )

        spec, calls = register_counting("memo-bounds", run_text)
        run(tmp_path / "free")
        free = snapshot(tmp_path / "free")
        calls.clear()
        # each cache has a bound of its own; the gnb grammar's texts are 390
        # to 397 characters long
        bounds = {"memo": 3, "branch_sets": 2}
        monkeypatch.setattr(campaign, "_MEMO_ENTRIES", bounds["memo"])
        monkeypatch.setattr(campaign, "_BRANCH_SETS", bounds["branch_sets"])
        monkeypatch.setattr(campaign, "_MEMO_CHARS", 394)
        # the crash keys are triage's, bounded on their own
        monkeypatch.setattr(triage, "_keys", {})
        monkeypatch.setattr(triage, "_KEYS", 1)
        sizes, kept = [], set()
        take = campaign._Run.take

        def watching(self, text, running):
            answer = take(self, text, running)
            sizes.append({name: len(getattr(self, name)) for name in bounds})
            sizes[-1]["keys"] = len(triage._keys)
            kept.update(self.memo)
            return answer

        monkeypatch.setattr(campaign._Run, "take", watching)
        events = record_submissions(monkeypatch)
        stats = run(tmp_path / "out")
        assert stats.execs == 2000
        for name, bound in {**bounds, "keys": 1}.items():
            assert max(size[name] for size in sizes) == bound
        # the memo empties on its own, not along with the other two
        after_clear = [
            now for was, now in zip(sizes, sizes[1:]) if now["memo"] < was["memo"]
        ]
        assert after_clear
        assert any(now["keys"] for now in after_clear)
        assert any(now["branch_sets"] > now["memo"] for now in after_clear)
        assert kept and max(len(text) for text in kept) <= 394
        consumed = Counter(e[1] for e in events if e[0] == "consume")
        asked = Counter(e[1] for e in events if e[0] == "ask")
        too_long = [text for text in consumed | asked if len(text) > 394]
        assert max(consumed[text] for text in too_long) > 1
        assert all(calls[text] == consumed[text] + asked[text] for text in too_long)
        # so few texts are kept that some short ones run again too
        assert sum(calls.values()) > len(calls)
        bounded = snapshot(tmp_path / "out")
        for key in WALL_CLOCK_KEYS:
            bounded[0].pop(key), free[0].pop(key)
        assert bounded == free

    def test_edit_memo_stays_within_its_bounds(
        self, gnb_grammar_path, tmp_path, monkeypatch
    ):
        from conffuzz import campaign, mutate as mutation
        from conffuzz.grammar import unparse

        def run(out):
            run_campaign(
                CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=1, max_execs=2000)
            )
            stats, corpus, crashes = snapshot(out)
            for key in WALL_CLOCK_KEYS:
                stats.pop(key)
            return stats, corpus, crashes

        unbounded = run(tmp_path / "unbounded")
        # the gnb grammar's texts are 390 to 397 characters long
        monkeypatch.setattr(mutation, "_EDIT_ENTRIES", 40)
        monkeypatch.setattr(mutation, "_EDIT_CHARS", 394)
        mutate, memos, sizes, lengths = campaign.random_mutation, set(), [], set()

        def watching(tree, g, *args, memo, **kwargs):
            # a kept mutant keeps its text, so a long one is not kept
            assert all(len(unparse(m, g)) <= 394 for m, _ in memo.values())
            result = mutate(tree, g, *args, memo=memo, **kwargs)
            memos.add(id(memo))
            sizes.append(len(memo))
            lengths.add(len(unparse(result[0], g)))
            return result

        monkeypatch.setattr(campaign, "random_mutation", watching)
        bounded = run(tmp_path / "bounded")
        # one memo per campaign, emptied when full, and the same bytes
        assert len(memos) == 1
        assert max(sizes) == 40
        assert any(now < was for was, now in zip(sizes, sizes[1:]))
        assert bounded == unbounded
        assert min(lengths) <= 394 < max(lengths)


def validator_child(monkeypatch, tmp_path):
    """The demo validator as an ``exec:`` target: a child interpreter,
    started under ``-S``, that imports ``conffuzz`` from where these tests
    do, and writes its inputs under ``tmp_path``."""
    import conffuzz

    src = str(Path(conffuzz.__file__).parents[1])
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )
    monkeypatch.setenv("CONFFUZZ_TMPDIR", str(tmp_path / "inputs"))
    return TargetSpec.parse(
        f"exec:{shlex.quote(sys.executable)} -S -m conffuzz.gnb_validator {{input}}"
    )


def record_threads(monkeypatch, names=("random_mutation", "unparse", "execute")):
    """``(name, on_main, text)`` for each call the campaign makes through
    ``names``, ``text`` being the one ``execute`` runs."""
    import threading

    from conffuzz import campaign

    calls = []

    def recorded(kind, fn):
        def wrapper(*args, **kwargs):
            on_main = threading.current_thread() is threading.main_thread()
            text = args[1] if kind == "execute" else None
            calls.append((kind, on_main, text))
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(campaign, name, recorded(name, getattr(campaign, name)))
    return calls


# ``artifact_digest`` of the seed-1, 2-worker campaign of 11 execs on the
# validator child, the seed phase alone, with its two minimized crashes
SEED_PHASE_DIGEST = "2b27d5bf76cbe39ac3cba704d9ae5b8814ca9ae3df11f096f33cd1d59fe47efc"


class TestThreadOwnership:
    def test_pool_runs_only_execute(self, gnb_grammar_path, tmp_path, monkeypatch):
        # the coordinator mutates and unparses every input; for an exec:
        # target, a thread of the pool is handed the text and runs nothing
        # but execute, which spawns and waits on the child
        from conffuzz import campaign

        spec = validator_child(monkeypatch, tmp_path)
        events = record_submissions(monkeypatch)
        calls = record_threads(monkeypatch)
        max_execs = 40
        stats = run_campaign(
            CampaignConfig(
                gnb_grammar_path,
                spec,
                tmp_path / "out",
                seed=1,
                max_execs=max_execs,
                workers=2,
            )
        )
        assert stats.execs == max_execs
        drawn = [e[1] for e in events if e[0] == "submit"]
        assert len(drawn) == max_execs
        assert all(on_main for kind, on_main, _ in calls if kind != "execute")
        # one execute per text: a repeat takes the answer the campaign
        # has, or will have once the run in flight is done, and so does a
        # minimization's ask
        runs = expected_runs(events)
        assert Counter(text for kind, _, text in calls if kind == "execute") == runs
        assert sum(runs.values()) < max_execs and max(runs.values()) == 1
        # the minimizations run their texts on the coordinator, every
        # other text, the seed phase's included, runs on a pool thread
        first_seen = {}
        for kind, text, *_ in events:
            if kind != "consume":
                first_seen.setdefault(text, kind)
        seeded = set(drawn[: campaign.SEED_TREES + 1])
        asked_first = {text for text, kind in first_seen.items() if kind == "ask"}
        assert asked_first
        ran_on = {True: set(), False: set()}
        for kind, on_main, text in calls:
            if kind == "execute":
                ran_on[on_main].add(text)
        assert ran_on[True] == asked_first
        assert ran_on[False] == set(first_seen) - asked_first
        assert seeded <= ran_on[False]

    def test_seed_inputs_run_on_the_pool(
        self, gnb_grammar_path, tmp_path, monkeypatch
    ):
        # the seed phase alone, with 2 workers: every seed input is
        # submitted before the first is consumed, runs on a pool thread,
        # and is consumed in seed order, to the bytes the seed phase wrote
        # when it ran its inputs one at a time on the coordinator
        from test_campaign_bytes import artifact_digest

        from conffuzz import campaign

        spec = validator_child(monkeypatch, tmp_path)
        events = record_submissions(monkeypatch)
        calls = record_threads(monkeypatch, ("execute",))
        out = tmp_path / "out"
        seeds = campaign.SEED_TREES + 1
        stats = run_campaign(
            CampaignConfig(
                gnb_grammar_path, spec, out, seed=1, max_execs=seeds, workers=2
            )
        )
        assert stats.execs == seeds and stats.crashes_unique > 0
        submitted = [e[1] for e in events[:seeds] if e[0] == "submit"]
        consumed = [e[1] for e in events[seeds : 2 * seeds] if e[0] == "consume"]
        assert len(set(submitted)) == seeds and consumed == submitted
        ran_on_pool = {text for _, on_main, text in calls if not on_main}
        assert ran_on_pool == set(submitted)
        assert artifact_digest(out) == SEED_PHASE_DIGEST

    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_builtin_runs_on_the_coordinator(
        self, gnb_grammar_path, tmp_path, monkeypatch, workers
    ):
        # a builtin's Python holds the GIL, so its runs stay inline at
        # every worker count, and no thread pool, nor any thread, is started
        import concurrent.futures
        import threading

        pools, threads, before = [], set(), threading.active_count()
        real_pool = concurrent.futures.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append((args, kwargs))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_pool)
        calls = record_threads(monkeypatch, ("execute",))
        stats = run_campaign(
            CampaignConfig(
                gnb_grammar_path,
                VALIDATOR,
                tmp_path / "out",
                seed=1,
                max_execs=300,
                workers=workers,
                progress=lambda stats: threads.add(threading.active_count()),
            )
        )
        assert stats.execs == 300 and stats.crashes_unique > 0
        assert calls and all(on_main for _, on_main, _ in calls)
        assert pools == []
        assert threads == {before}


class TestExternalTargetCleanup:
    def test_run_leaves_tmpdir_empty(self, gnb_grammar_path, tmp_path, monkeypatch):
        work = tmp_path / "inputs"
        monkeypatch.setenv("CONFFUZZ_TMPDIR", str(work))
        script = tmp_path / "ok.py"
        script.write_text(
            "import sys\nprint('##branch:ok', file=sys.stderr)\nsys.exit(0)\n"
        )
        spec = TargetSpec.parse(f"exec:{sys.executable} {script} {{input}}")
        stats = run_campaign(
            CampaignConfig(gnb_grammar_path, spec, tmp_path / "out", max_execs=3)
        )
        assert stats.execs == 3
        assert list(work.iterdir()) == []


class TestBlindTarget:
    # a target that gives every seed input one answer, and reports no
    # branch label, is refused once the seed phase has run, and keeps no
    # crash: the seed inputs are consumed and retained, but a seed crash
    # is minimized and stored only once the target is accepted
    @pytest.mark.parametrize(
        "template,ends",
        [
            ("/bin/false {input}", "reject (code 1)"),
            ("true {input}", "ok"),
            (
                f'{shlex.quote(sys.executable)} -c "import conffuzz_no_such_module"'
                " {input}",
                "reject (code 1)",
            ),
            (
                f'{shlex.quote(sys.executable)} -S -c "import os; os.abort()" {{input}}',
                "crash (code 6)",
            ),
        ],
        ids=["false", "true", "import-error", "abort"],
    )
    def test_refused_after_the_seed_phase(
        self, gnb_grammar_path, tmp_path, monkeypatch, template, ends
    ):
        monkeypatch.setenv("CONFFUZZ_TMPDIR", str(tmp_path / "inputs"))
        out = tmp_path / "out"
        spec = TargetSpec.parse(f"exec:{template}")
        with pytest.raises(ValueError) as info:
            run_campaign(CampaignConfig(gnb_grammar_path, spec, out, max_execs=100))
        message = str(info.value)
        assert message.startswith(
            f"target answered {ends} to every seed input"
            " and reported no branch labels"
        )
        if "conffuzz_no_such_module" in template:
            assert message.endswith(
                "; its stderr ends: ModuleNotFoundError: "
                "No module named 'conffuzz_no_such_module'"
            )
        stats = json.loads((out / "stats.json").read_text())
        assert stats["execs"] == 11
        assert stats["crashes_total"] == (11 if "abort" in template else 0)
        assert stats["crashes_unique"] == 0
        assert list((out / "crashes").iterdir()) == []
        assert stats["corpus_size"] == 11 == len(list((out / "corpus").iterdir()))

    def test_one_exec_without_labels_is_refused(self, gnb_grammar_path, tmp_path):
        register_builtin(
            "always-ok-unlabelled",
            lambda text: (ExecOutcome(OutcomeKind.OK), frozenset()),
        )
        spec = TargetSpec.parse("builtin:always-ok-unlabelled")
        with pytest.raises(ValueError, match="no branch labels"):
            run_campaign(
                CampaignConfig(gnb_grammar_path, spec, tmp_path / "o", max_execs=1)
            )

    @pytest.mark.parametrize(
        "answer",
        [
            (ExecOutcome(OutcomeKind.OK), frozenset({"chk:seen"})),
            (ExecOutcome(OutcomeKind.TIMEOUT), frozenset()),
        ],
        ids=["labelled", "hang"],
    )
    def test_one_labelled_or_hung_answer_runs(
        self, gnb_grammar_path, tmp_path, answer
    ):
        name = f"always-{answer[0].kind.value}-{len(answer[1])}"
        register_builtin(name, lambda text: answer)
        spec = TargetSpec.parse(f"builtin:{name}")
        stats = run_campaign(
            CampaignConfig(gnb_grammar_path, spec, tmp_path / "o", max_execs=20)
        )
        assert stats.execs == 20
