"""Campaign loop: scheduling, novelty retention, crash routing, persistence."""

import json
import sys

import pytest

from conffuzz.campaign import (
    CampaignConfig,
    CorpusScheduler,
    EmptyCorpusError,
    run_campaign,
    should_keep,
)
from conffuzz.gnb_validator import baseline_text
from conffuzz.target import Feedback, TargetSpec, execute

VALIDATOR = TargetSpec.builtin("gnb-validator")

GRAMMAR_PATH = None  # set by fixture


@pytest.fixture()
def gnb_grammar_path():
    from conftest import GRAMMAR_PATH

    return GRAMMAR_PATH


class TestShouldKeep:
    def test_first_feedback_is_novel(self):
        assert should_keep(Feedback.of("chk:a"), set())

    def test_exact_repeat_is_not(self):
        assert not should_keep(Feedback.of("chk:a"), {"chk:a", "chk:b"})

    def test_one_new_branch_suffices(self):
        assert should_keep(Feedback.of("chk:a", "chk:new"), {"chk:a", "chk:b"})

    def test_empty_feedback_never_kept(self):
        assert not should_keep(Feedback.of(), set())


class TestScheduler:
    # the scheduler only indexes the corpus, so plain ints stand in for
    # the derivation trees and name the entry they are
    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            CorpusScheduler().schedule_next([])

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

    def test_missing_grammar_propagates(self, tmp_path):
        cfg = CampaignConfig(tmp_path / "nope.json", VALIDATOR, tmp_path / "out")
        with pytest.raises(OSError):
            run_campaign(cfg)


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
            outcome, fb = execute(VALIDATOR, minimized)
            assert outcome.is_crash
            assert dedup_key(outcome, fb) == crash_dir.name

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


class TestCorpusReproducibility:
    def test_retained_digests_reexecute(self, gnb_grammar_path, tmp_path, monkeypatch):
        from pathlib import Path

        from conffuzz import campaign
        from conffuzz.campaign import _loop, _Run, _seed_corpus
        from conffuzz.grammar import parse_grammar, unparse

        # the digest each input had when the campaign ran it
        digests: dict[str, int] = {}

        def recording(spec, text):
            outcome, fb = execute(spec, text)
            assert digests.setdefault(text, fb.digest) == fb.digest
            return outcome, fb

        monkeypatch.setattr(campaign, "execute", recording)
        out = tmp_path / "out"
        (out / "corpus").mkdir(parents=True)
        (out / "crashes").mkdir(parents=True)
        cfg = CampaignConfig(gnb_grammar_path, VALIDATOR, out, seed=2, max_execs=400)
        g = parse_grammar(Path(gnb_grammar_path).read_text())
        run = _Run(cfg, g, out)
        _seed_corpus(run)
        _loop(run)
        assert len(run.corpus) > 11  # novelty retention happened
        files = [out / "corpus" / f"{i}.conf" for i in range(len(run.corpus))]
        assert sorted((out / "corpus").iterdir()) == sorted(files)
        for tree, path in zip(run.corpus, files):
            text = path.read_text()
            assert unparse(tree, g) == text
            _, fb = execute(VALIDATOR, text)
            assert fb.digest == digests[text]


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
        assert seen == [256, 512]


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
    # A builtin target that raises aborts the campaign (a known gap, see
    # ROADMAP); until it is handled, the exception must reach the caller
    # and stats.json must still count exactly the results consumed.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_propagates_and_stats_flushed(
        self, gnb_grammar_path, tmp_path, monkeypatch, workers
    ):
        import itertools

        from conffuzz import campaign
        from conffuzz.gnb_validator import run_text
        from conffuzz.target import register_builtin

        calls = itertools.count(1)

        def faulty(text):
            if next(calls) == 50:
                raise RuntimeError("target fault")
            return run_text(text)

        register_builtin("faulty-on-50th-call", faulty)
        consumed = itertools.count()
        consume = campaign._Run.consume

        def counting(self, *args, **kwargs):
            next(consumed)
            return consume(self, *args, **kwargs)

        monkeypatch.setattr(campaign._Run, "consume", counting)
        out = tmp_path / "out"
        cfg = CampaignConfig(
            gnb_grammar_path,
            TargetSpec.builtin("faulty-on-50th-call"),
            out,
            seed=1,
            max_execs=2000,
            workers=workers,
        )
        with pytest.raises(RuntimeError, match="target fault"):
            run_campaign(cfg)
        stats = json.loads((out / "stats.json").read_text())
        assert 0 < stats["execs"] == next(consumed) < 50
        assert stats["corpus_size"] == len(list((out / "corpus").iterdir()))


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


class TestExternalTargetCleanup:
    def test_run_leaves_tmpdir_empty(self, gnb_grammar_path, tmp_path, monkeypatch):
        work = tmp_path / "inputs"
        monkeypatch.setenv("CONFFUZZ_TMPDIR", str(work))
        script = tmp_path / "ok.py"
        script.write_text("import sys\nsys.exit(0)\n")
        spec = TargetSpec.external(f"{sys.executable} {script} {{input}}")
        stats = run_campaign(
            CampaignConfig(gnb_grammar_path, spec, tmp_path / "out", max_execs=3)
        )
        assert stats.execs == 3
        assert list(work.iterdir()) == []
