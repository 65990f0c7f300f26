"""Target execution: outcome classification, feedback, subprocess control."""

import os
import signal
import stat
import sys
import time

import pytest

from conffuzz.target import (
    ExecOutcome,
    Feedback,
    OutcomeKind,
    SpawnFailureError,
    TargetKind,
    TargetSpec,
    classify_outcome,
    execute,
    register_builtin,
    stable_hash64,
)


class TestStableHash:
    def test_frozen_values(self):
        # independently computed with hashlib.blake2b(digest_size=8)
        assert stable_hash64("") == 16476032584258269876
        assert stable_hash64("chk:parse:ok") == 8310867341801316675
        assert stable_hash64("a\nb") == 12064556205966727007

    def test_64_bit_range(self):
        for s in ("", "x", "chk:band:known", "0" * 1000):
            assert 0 <= stable_hash64(s) < 2**64


class TestExecOutcome:
    def test_constructors(self):
        assert ExecOutcome.ok() == ExecOutcome(OutcomeKind.OK)
        assert ExecOutcome.reject(2).code == 2
        assert ExecOutcome.crash(101).code == 101
        assert ExecOutcome.timeout().code is None

    @pytest.mark.parametrize(
        "kind,code",
        [
            (OutcomeKind.REJECT, None),
            (OutcomeKind.CRASH, None),
            (OutcomeKind.OK, 1),
            (OutcomeKind.TIMEOUT, 1),
        ],
    )
    def test_code_presence_enforced(self, kind, code):
        with pytest.raises(ValueError):
            ExecOutcome(kind, code)

    def test_is_crash_covers_timeouts(self):
        assert ExecOutcome.crash(6).is_crash
        assert ExecOutcome.timeout().is_crash
        assert not ExecOutcome.ok().is_crash
        assert not ExecOutcome.reject(2).is_crash


class TestFeedback:
    def test_digest_order_independent(self):
        assert Feedback.of("a", "b").digest == Feedback.of("b", "a").digest

    def test_digest_distinguishes_sets(self):
        assert Feedback.of("a").digest != Feedback.of("b").digest
        assert Feedback.of().digest != Feedback.of("a").digest

    def test_digest_matches_sorted_join(self):
        fb = Feedback.of("chk:b", "chk:a")
        assert fb.digest == stable_hash64("chk:a\nchk:b")


class TestClassifyOutcome:
    @pytest.mark.parametrize(
        "rc,elapsed,expected",
        [
            (0, 50, ExecOutcome.ok()),
            (1, 50, ExecOutcome.reject(1)),
            (2, 999, ExecOutcome.reject(2)),
            (-6, 50, ExecOutcome.crash(6)),
            (-11, 50, ExecOutcome.crash(11)),
            (None, 50, ExecOutcome.timeout()),
            (0, 1500, ExecOutcome.timeout()),
            (-9, 2000, ExecOutcome.timeout()),
        ],
    )
    def test_table(self, rc, elapsed, expected):
        assert classify_outcome(rc, elapsed, 1000) == expected

    def test_budget_boundary_is_inclusive(self):
        assert classify_outcome(0, 1000, 1000) == ExecOutcome.ok()
        assert classify_outcome(0, 1000.1, 1000) == ExecOutcome.timeout()


class TestTargetSpec:
    def test_parse_builtin(self):
        spec = TargetSpec.parse("builtin:gnb-validator")
        assert spec.kind is TargetKind.BUILTIN
        assert spec.command == "gnb-validator"

    def test_parse_external(self):
        spec = TargetSpec.parse("exec:./victim {input}", timeout_ms=500)
        assert spec.kind is TargetKind.EXTERNAL
        assert spec.timeout_ms == 500

    @pytest.mark.parametrize(
        "text", ["", "builtin", "builtin:", "ssh:host", "exec:"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            TargetSpec.parse(text)

    @pytest.mark.parametrize(
        "template", ["./victim", "./victim {input} {input}"]
    )
    def test_external_requires_single_placeholder(self, template):
        with pytest.raises(ValueError):
            TargetSpec.external(template)

    @pytest.mark.parametrize(
        "template", ["cat '{input}", 'cat "{input}', "cat {input} \\"]
    )
    def test_external_template_must_split(self, template):
        with pytest.raises(ValueError, match="cannot split") as info:
            TargetSpec.parse(f"exec:{template}")
        assert repr(template) in str(info.value)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            TargetSpec.builtin("x", timeout_ms=0)


class TestBuiltinDispatch:
    def test_registered_fn_is_called(self):
        seen = []

        def fake(text):
            seen.append(text)
            return ExecOutcome.ok(), Feedback.of("chk:fake")

        register_builtin("fake-target", fake)
        outcome, fb = execute(TargetSpec.builtin("fake-target"), "payload")
        assert seen == ["payload"]
        assert outcome == ExecOutcome.ok()
        assert fb.branches == frozenset({"chk:fake"})

    def test_unknown_builtin_raises(self):
        with pytest.raises(ValueError):
            execute(TargetSpec.builtin("no-such-target"), "x")

    def test_default_builtin_is_importable(self):
        outcome, fb = execute(TargetSpec.builtin("gnb-validator"), "not a config")
        assert outcome.kind is OutcomeKind.REJECT

    @pytest.mark.parametrize("opener", ["{ b = ", "("])
    def test_deep_nesting_is_a_reject(self, opener):
        text = "a = " + opener * 600
        outcome, _ = execute(TargetSpec.builtin("gnb-validator"), text)
        assert outcome.kind is OutcomeKind.REJECT
        assert "nesting deeper than 100 levels" in outcome.stderr_excerpt


def _write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(f"#!{sys.executable}\nimport sys, os, signal, time\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


@pytest.fixture()
def sandbox_tmpdir(tmp_path, monkeypatch):
    work = tmp_path / "inputs"
    monkeypatch.setenv("CONFFUZZ_TMPDIR", str(work))
    return work


class TestExternalExecution:
    def test_ok_with_branch_harvest(self, tmp_path, sandbox_tmpdir):
        script = _write_script(
            tmp_path,
            "ok.py",
            "sys.stderr.write(open(sys.argv[1]).read())\n"
            "sys.stderr.write('##branch:chk:a\\n##branch:chk:b\\nnoise line\\n')\n"
            "sys.exit(0)",
        )
        spec = TargetSpec.external(f"{sys.executable} {script} {{input}}")
        outcome, fb = execute(spec, "hello = 1;\n")
        assert outcome.kind is OutcomeKind.OK
        assert fb.branches == frozenset({"chk:a", "chk:b"})
        assert "hello = 1;" in outcome.stderr_excerpt
        assert "noise line" in outcome.stderr_excerpt

    def test_reject_exit_code(self, tmp_path, sandbox_tmpdir):
        script = _write_script(tmp_path, "rej.py", "sys.exit(3)")
        spec = TargetSpec.external(f"{sys.executable} {script} {{input}}")
        outcome, _ = execute(spec, "x")
        assert outcome == ExecOutcome.reject(3)

    def test_signal_death_is_crash(self, tmp_path, sandbox_tmpdir):
        script = _write_script(
            tmp_path, "seg.py", "os.kill(os.getpid(), signal.SIGSEGV)"
        )
        spec = TargetSpec.external(f"{sys.executable} {script} {{input}}")
        outcome, _ = execute(spec, "x")
        assert outcome.kind is OutcomeKind.CRASH
        assert outcome.code == signal.SIGSEGV

    def test_timeout_kills_process_group(self, tmp_path, sandbox_tmpdir):
        pidfile = tmp_path / "pid"
        script = _write_script(
            tmp_path,
            "hang.py",
            f"open({str(pidfile)!r}, 'w').write(str(os.getpid()))\n"
            "sys.stderr.write('##branch:chk:pre\\n')\n"
            "sys.stderr.flush()\n"
            "time.sleep(60)",
        )
        spec = TargetSpec.external(
            f"{sys.executable} {script} {{input}}", timeout_ms=500
        )
        started = time.monotonic()
        outcome, fb = execute(spec, "x")
        elapsed = time.monotonic() - started
        assert outcome.kind is OutcomeKind.TIMEOUT
        assert elapsed < 5.0
        pid = int(pidfile.read_text())
        # give the kernel a moment to reap, then the pid must be gone
        for _ in range(50):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"timed-out target {pid} still alive")
        assert "chk:pre" in fb.branches

    def test_input_file_under_tmpdir_and_removed(self, tmp_path, sandbox_tmpdir):
        # the call's input lives directly under CONFFUZZ_TMPDIR, holds the
        # text and is gone once the call returns
        script = _write_script(
            tmp_path,
            "snap.py",
            "sys.stderr.write(sys.argv[1] + '\\n' + open(sys.argv[1]).read())\n"
            "sys.exit(0)",
        )
        spec = TargetSpec.external(f"{sys.executable} {script} {{input}}")
        outcome, _ = execute(spec, "x = 1;\n")
        used, content = outcome.stderr_excerpt.split("\n", 1)
        assert content == "x = 1;\n"
        assert os.path.dirname(used) == str(sandbox_tmpdir)
        assert used.endswith(".conf")
        assert not os.path.exists(used)
        assert list(sandbox_tmpdir.iterdir()) == []

    def test_calls_without_run_id_get_distinct_paths(self, tmp_path, sandbox_tmpdir):
        script = _write_script(
            tmp_path,
            "snap.py",
            "sys.stderr.write(sys.argv[1] + '\\n')\nsys.exit(0)",
        )
        spec = TargetSpec.external(f"{sys.executable} {script} {{input}}")
        used = [execute(spec, "x = 1;\n")[0].stderr_excerpt.strip() for _ in range(2)]
        assert used[0] != used[1]
        for path in used:
            assert os.path.dirname(path) == str(sandbox_tmpdir)
            assert not os.path.exists(path)

    def test_failed_write_leaves_no_file(self, sandbox_tmpdir):
        # a lone surrogate cannot be encoded, so writing the input fails
        spec = TargetSpec.external(f"{sys.executable} -c pass {{input}}")
        with pytest.raises(UnicodeEncodeError):
            execute(spec, "x = \udc80;\n")
        assert list(sandbox_tmpdir.iterdir()) == []

    def test_stderr_excerpt_truncated(self, tmp_path, sandbox_tmpdir):
        script = _write_script(
            tmp_path, "loud.py", "sys.stderr.write('x' * 10000)\nsys.exit(0)"
        )
        spec = TargetSpec.external(f"{sys.executable} {script} {{input}}")
        outcome, _ = execute(spec, "x")
        assert len(outcome.stderr_excerpt.encode()) == 4096

    def test_spawn_failure(self, sandbox_tmpdir):
        spec = TargetSpec.external("/no/such/binary {input}")
        with pytest.raises(SpawnFailureError):
            execute(spec, "x")
        assert list(sandbox_tmpdir.iterdir()) == []
