"""Target execution: outcome classification, branch sets, subprocess control."""

import copy
import os
import pickle
import shlex
import signal
import stat
import subprocess
import sys
import time

import pytest

from conffuzz import target
from conffuzz.target import (
    ExecOutcome,
    OutcomeKind,
    SpawnFailureError,
    TargetSpec,
    classify_outcome,
    execute,
    register_builtin,
    stable_hash64,
)

from conftest import REPO_ROOT


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
        ok = ExecOutcome(OutcomeKind.OK)
        assert (ok.kind, ok.code, ok.stderr_excerpt) == (OutcomeKind.OK, None, "")
        crash = ExecOutcome(OutcomeKind.CRASH, 101, "FATAL")
        assert (crash.code, crash.stderr_excerpt) == (101, "FATAL")
        assert ExecOutcome(OutcomeKind.REJECT, 2).code == 2
        assert ExecOutcome(OutcomeKind.TIMEOUT).code is None

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
        assert ExecOutcome(OutcomeKind.CRASH, 6).is_crash
        assert ExecOutcome(OutcomeKind.TIMEOUT).is_crash
        assert not ExecOutcome(OutcomeKind.OK).is_crash
        assert not ExecOutcome(OutcomeKind.REJECT, 2).is_crash


class TestClassifyOutcome:
    @pytest.mark.parametrize(
        "rc,elapsed,expected",
        [
            (0, 50, ExecOutcome(OutcomeKind.OK)),
            (1, 50, ExecOutcome(OutcomeKind.REJECT, 1)),
            (2, 999, ExecOutcome(OutcomeKind.REJECT, 2)),
            (-6, 50, ExecOutcome(OutcomeKind.CRASH, 6)),
            (-11, 50, ExecOutcome(OutcomeKind.CRASH, 11)),
            (None, 50, ExecOutcome(OutcomeKind.TIMEOUT)),
            (0, 1500, ExecOutcome(OutcomeKind.TIMEOUT)),
            (-9, 2000, ExecOutcome(OutcomeKind.TIMEOUT)),
        ],
    )
    def test_table(self, rc, elapsed, expected):
        assert classify_outcome(rc, elapsed, 1000, "") == expected

    def test_budget_boundary_is_inclusive(self):
        assert classify_outcome(0, 1000, 1000, "") == ExecOutcome(OutcomeKind.OK)
        timed_out = classify_outcome(0, 1000.1, 1000, "")
        assert timed_out == ExecOutcome(OutcomeKind.TIMEOUT)


class TestTargetSpec:
    def test_parse_builtin(self):
        # a spec is the text it was parsed from
        spec = TargetSpec.parse("builtin:gnb-validator")
        assert spec.text == "builtin:gnb-validator"
        assert repr(spec) == (
            "TargetSpec(text='builtin:gnb-validator', timeout_ms=10000)"
        )
        assert TargetSpec._fields == ("text", "timeout_ms")

    def test_parse_external(self):
        spec = TargetSpec.parse("exec:./victim {input}", timeout_ms=500)
        assert spec.text == "exec:./victim {input}"
        assert spec.timeout_ms == 500

    @pytest.mark.parametrize(
        "text", ["builtin:gnb-validator", f"exec:{sys.executable} -c pass {{input}}"]
    )
    def test_parse_is_the_constructor(self, text):
        assert TargetSpec.parse(text, 700) == TargetSpec(text, 700)
        assert TargetSpec.parse(text) == TargetSpec(text)

    @pytest.mark.parametrize(
        "text",
        [
            "builtin:gnb-validator",
            f"exec:{shlex.quote(sys.executable)} -m conffuzz.gnb_validator {{input}}",
        ],
    )
    @pytest.mark.parametrize(
        "clone",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_a_copy_carries_its_text_and_runs_alike(
        self, text, clone, table1_dir, sandbox_tmpdir
    ):
        spec = TargetSpec.parse(text, 30_000)
        back = clone(spec)
        assert back == spec and back.text == text and back.timeout_ms == 30_000
        config = (table1_dir / "case3.conf").read_text(encoding="utf-8")
        outcome, branches = execute(spec, config)
        assert outcome.is_crash
        assert execute(back, config) == (outcome, branches)

    @pytest.mark.parametrize(
        "text,timeout_ms,message",
        [
            ("bogus", 10, "malformed target spec: 'bogus'"),
            ("http://host", 10, "unknown target scheme: 'http'"),
            ("builtin:NAME", 10, "unknown builtin target: 'NAME'"),
            (
                "exec:./victim",
                10,
                "external command must contain {input} exactly once",
            ),
            (
                "exec:cat '{input}",
                10,
                "cannot split external command \"cat '{input}\": "
                "No closing quotation",
            ),
            ("builtin:gnb-validator", 0, "timeout_ms must be positive"),
        ],
    )
    def test_messages_through_either_door(self, text, timeout_ms, message):
        for build in (TargetSpec, TargetSpec.parse):
            with pytest.raises(ValueError) as info:
                build(text, timeout_ms)
            assert str(info.value) == message

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
            TargetSpec.parse(f"exec:{template}")

    @pytest.mark.parametrize(
        "template", ["cat '{input}", 'cat "{input}', "cat {input} \\"]
    )
    def test_external_template_must_split(self, template):
        with pytest.raises(ValueError, match="cannot split") as info:
            TargetSpec.parse(f"exec:{template}")
        assert repr(template) in str(info.value)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            TargetSpec.parse("builtin:x", timeout_ms=0)


class TestBuiltinDispatch:
    def test_registered_fn_is_called(self):
        seen = []

        def fake(text):
            seen.append(text)
            return ExecOutcome(OutcomeKind.OK), frozenset({"chk:fake"})

        register_builtin("fake-target", fake)
        outcome, branches = execute(TargetSpec.parse("builtin:fake-target"), "payload")
        assert seen == ["payload"]
        assert outcome == ExecOutcome(OutcomeKind.OK)
        assert branches == frozenset({"chk:fake"})

    def test_unknown_builtin_raises(self):
        # refused when the spec is parsed, before any run
        with pytest.raises(ValueError) as refused:
            TargetSpec.parse("builtin:unregistered-name")
        assert str(refused.value) == "unknown builtin target: 'unregistered-name'"

    def test_a_parsed_spec_runs_without_a_lookup(self, monkeypatch):
        spec = TargetSpec.parse("builtin:gnb-validator")
        monkeypatch.setattr(target, "_BUILTINS", {})
        outcome, _ = execute(spec, "not a config")
        assert outcome.kind is OutcomeKind.REJECT

    def test_default_builtin_is_importable(self):
        outcome, _ = execute(TargetSpec.parse("builtin:gnb-validator"), "not a config")
        assert outcome.kind is OutcomeKind.REJECT

    @pytest.mark.parametrize("opener", ["{ b = ", "("])
    def test_deep_nesting_is_a_reject(self, opener):
        text = "a = " + opener * 600
        outcome, _ = execute(TargetSpec.parse("builtin:gnb-validator"), text)
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
        spec = TargetSpec.parse(f"exec:{sys.executable} {script} {{input}}")
        outcome, branches = execute(spec, "hello = 1;\n")
        assert outcome.kind is OutcomeKind.OK
        assert branches == frozenset({"chk:a", "chk:b"})
        assert "hello = 1;" in outcome.stderr_excerpt
        assert "noise line" in outcome.stderr_excerpt

    def test_a_parsed_template_is_not_split_again(self, monkeypatch, sandbox_tmpdir):
        code = "import sys; sys.exit(len(sys.argv))"
        spec = TargetSpec.parse(
            f"exec:{shlex.quote(sys.executable)} -c {shlex.quote(code)} {{input}}"
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the template was split again")

        monkeypatch.setattr(shlex, "split", refuse)
        outcome, branches = execute(spec, "x")
        assert outcome == ExecOutcome(OutcomeKind.REJECT, 2)
        assert branches == frozenset()

    def test_reject_exit_code(self, tmp_path, sandbox_tmpdir):
        script = _write_script(tmp_path, "rej.py", "sys.exit(3)")
        spec = TargetSpec.parse(f"exec:{sys.executable} {script} {{input}}")
        outcome, _ = execute(spec, "x")
        assert outcome == ExecOutcome(OutcomeKind.REJECT, 3)

    def test_signal_death_is_crash(self, tmp_path, sandbox_tmpdir):
        script = _write_script(
            tmp_path, "seg.py", "os.kill(os.getpid(), signal.SIGSEGV)"
        )
        spec = TargetSpec.parse(f"exec:{sys.executable} {script} {{input}}")
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
        spec = TargetSpec.parse(
            f"exec:{sys.executable} {script} {{input}}", timeout_ms=500
        )
        started = time.monotonic()
        outcome, branches = execute(spec, "x")
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
        assert "chk:pre" in branches

    def test_interrupt_kills_and_reaps_target(self, tmp_path, sandbox_tmpdir):
        # SIGINT reaches the interpreter but not the target, which runs in
        # its own session; the interrupted call must kill and reap it
        pidfile = tmp_path / "pid"
        script = _write_script(
            tmp_path,
            "hang.py",
            f"open({str(pidfile)!r}, 'w').write(str(os.getpid()))\n"
            "time.sleep(60)",
        )
        spec_text = f"exec:{sys.executable} {script} {{input}}"
        caller = (
            "import gc\n"
            "from conffuzz.target import TargetSpec, execute\n"
            f"spec = TargetSpec.parse({spec_text!r})\n"
            "try:\n"
            "    execute(spec, 'x')\n"
            "except KeyboardInterrupt:\n"
            "    print('interrupted')\n"
            "gc.collect()\n"
        )
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.Popen(
            [sys.executable, "-W", "always::ResourceWarning", "-c", caller],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        pid = None
        try:
            deadline = time.monotonic() + 10
            while not (pidfile.exists() and pidfile.read_text()):
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "target never started"
                time.sleep(0.02)
            pid = int(pidfile.read_text())
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
            for _ in range(40):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"interrupted target {pid} still alive")
            assert out == b"interrupted\n"
            assert b"ResourceWarning" not in err, err.decode()
        finally:
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert list(sandbox_tmpdir.iterdir()) == []

    def test_input_file_under_tmpdir_and_removed(self, tmp_path, sandbox_tmpdir):
        # the call's input lives directly under CONFFUZZ_TMPDIR, holds the
        # text and is gone once the call returns
        script = _write_script(
            tmp_path,
            "snap.py",
            "sys.stderr.write(sys.argv[1] + '\\n' + open(sys.argv[1]).read())\n"
            "sys.exit(0)",
        )
        spec = TargetSpec.parse(f"exec:{sys.executable} {script} {{input}}")
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
        spec = TargetSpec.parse(f"exec:{sys.executable} {script} {{input}}")
        used = [execute(spec, "x = 1;\n")[0].stderr_excerpt.strip() for _ in range(2)]
        assert used[0] != used[1]
        for path in used:
            assert os.path.dirname(path) == str(sandbox_tmpdir)
            assert not os.path.exists(path)

    def test_failed_write_leaves_no_file(self, sandbox_tmpdir):
        # a lone surrogate cannot be encoded, so writing the input fails
        spec = TargetSpec.parse(f"exec:{sys.executable} -c pass {{input}}")
        with pytest.raises(UnicodeEncodeError):
            execute(spec, "x = \udc80;\n")
        assert list(sandbox_tmpdir.iterdir()) == []

    def test_stderr_excerpt_truncated(self, tmp_path, sandbox_tmpdir):
        script = _write_script(
            tmp_path, "loud.py", "sys.stderr.write('x' * 10000)\nsys.exit(0)"
        )
        spec = TargetSpec.parse(f"exec:{sys.executable} {script} {{input}}")
        outcome, _ = execute(spec, "x")
        assert len(outcome.stderr_excerpt.encode()) == 4096

    def test_spawn_failure(self, sandbox_tmpdir):
        spec = TargetSpec.parse("exec:/no/such/binary {input}")
        with pytest.raises(SpawnFailureError):
            execute(spec, "x")
        assert list(sandbox_tmpdir.iterdir()) == []
