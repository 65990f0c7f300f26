"""End-to-end checks for the command-line interface.

Every test but the signal check drives ``main(argv)`` in-process and
asserts on the exit code plus the stdout/stderr split: stdout carries the
product, stderr the diagnostics.  The signal check runs the CLI in a
process of its own, since it has to send that process SIGTERM.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from conffuzz import gnb_validator
from conffuzz.cli import EXIT_USAGE, main
from conffuzz.configfmt import parse_config, serialize_config
from conffuzz.grammar import parse_grammar

from conftest import EXPLAIN_DIR, GRAMMAR_PATH, REPO_ROOT, TABLE1_DIR


class TestParsing:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "grammar-check" in capsys.readouterr().out

    def test_missing_required_flag(self, capsys):
        assert main(["gen", "--out", "x"]) == 1
        assert "--grammar" in capsys.readouterr().err


class TestGrammarCheck:
    def test_shipped_grammar(self, capsys):
        assert main(["grammar-check", str(GRAMMAR_PATH)]) == 0
        out = capsys.readouterr().out
        assert "tokens: 8" in out
        assert "start: <START>" in out
        assert "min-depth: 2\n" in out

    def test_missing_file(self, capsys):
        assert main(["grammar-check", "no/such/grammar.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_infinite_grammar_rejected(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text('{"<START>": [["<START>"]]}')
        assert main(["grammar-check", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_lax_allows_undefined_refs(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"<START>": [["<GHOST>"]]}')
        assert main(["grammar-check", str(path)]) == 1
        capsys.readouterr()
        assert main(["grammar-check", "--lax", str(path)]) == 0


class TestGen:
    def test_writes_count_files(self, tmp_path, capsys):
        out = tmp_path / "samples"
        rc = main(
            ["gen", "--grammar", str(GRAMMAR_PATH), "--out", str(out), "--count", "3"]
        )
        assert rc == 0
        paths = capsys.readouterr().out.splitlines()
        assert len(paths) == 3
        assert sorted(out.iterdir()) == sorted(map(type(out), paths))
        for p in out.iterdir():
            parse_config(p.read_text())

    def test_deterministic_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            argv = ["gen", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
            assert main(argv + ["--count", "4", "--seed", "7"]) == 0
        capsys.readouterr()
        for k in range(4):
            assert (a / f"gen-{k}.conf").read_bytes() == (
                b / f"gen-{k}.conf"
            ).read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["gen", "--grammar", str(GRAMMAR_PATH), "--count", "6"]
        assert main(base + ["--out", str(a), "--seed", "1"]) == 0
        assert main(base + ["--out", str(b), "--seed", "100"]) == 0
        capsys.readouterr()
        blobs_a = [(a / f"gen-{k}.conf").read_bytes() for k in range(6)]
        blobs_b = [(b / f"gen-{k}.conf").read_bytes() for k in range(6)]
        assert blobs_a != blobs_b

    def test_negative_count_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "samples"
        argv = ["gen", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
        assert main(argv + ["--count", "-2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--count" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_depth_below_the_grammar_minimum_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "samples"
        argv = ["gen", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
        assert main(argv + ["--max-depth", "-1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.endswith("below minimal derivation depth 2\n")
        assert not out.exists()


class TestValidate:
    def test_clean_config_exits_zero(self, capsys):
        rc = main(["validate", str(TABLE1_DIR / "initial.conf")])
        assert rc == 0
        assert capsys.readouterr().out == "ok\n"

    @pytest.mark.parametrize(
        "case,code",
        [("case1", 101), ("case2", 102), ("case3", 101), ("case4", 102), ("case5", 104)],
    )
    def test_crashing_config_exits_three(self, capsys, case, code):
        rc = main(["validate", str(TABLE1_DIR / f"{case}.conf")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == f"crash code={code}\n"
        assert f"FATAL[{code}]" in captured.err

    def test_rejected_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("this is not a config")
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().out == "reject code=2\n"

    def test_missing_file(self, capsys):
        assert main(["validate", "no/such.conf"]) == 1

    def test_bad_target_spec(self, capsys):
        rc = main(["validate", str(TABLE1_DIR / "initial.conf"), "--target", "bogus"])
        assert rc == 1

    def test_unsplittable_template_writes_no_input(
        self, tmp_path, monkeypatch, capsys
    ):
        work = tmp_path / "inputs"
        monkeypatch.setenv("CONFFUZZ_TMPDIR", str(work))
        target = "exec:cat '{input}"
        rc = main(["validate", str(TABLE1_DIR / "initial.conf"), "--target", target])
        assert rc == EXIT_USAGE
        assert "cat '{input}" in capsys.readouterr().err
        assert not work.exists() or list(work.iterdir()) == []


class TestMinimize:
    def test_case3_shrinks_to_band_change(self, capsys):
        rc = main(
            [
                "minimize",
                str(TABLE1_DIR / "case3.conf"),
                "--grammar",
                str(GRAMMAR_PATH),
            ]
        )
        assert rc == 0
        doc = gnb_validator.baseline_document()
        doc.root["gNBs"][0]["servingCellConfigCommon"][0]["dl_frequencyBand"] = 41
        assert capsys.readouterr().out == serialize_config(doc)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "min.conf"
        rc = main(
            [
                "minimize",
                str(TABLE1_DIR / "case5.conf"),
                "--grammar",
                str(GRAMMAR_PATH),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == f"{out}\n"
        # case5 is already minimal: one parameter away from the baseline
        assert out.read_bytes() == (TABLE1_DIR / "case5.conf").read_bytes()

    def test_non_crashing_input_is_an_error(self, capsys):
        rc = main(
            [
                "minimize",
                str(TABLE1_DIR / "initial.conf"),
                "--grammar",
                str(GRAMMAR_PATH),
            ]
        )
        assert rc == 1
        assert "did not crash" in capsys.readouterr().err

    def test_underivable_input_is_an_error(self, tmp_path, capsys):
        conf = tmp_path / "alien.conf"
        conf.write_text("foo = 1;\n")
        rc = main(
            ["minimize", str(conf), "--grammar", str(GRAMMAR_PATH)]
        )
        assert rc == 1
        assert "derived" in capsys.readouterr().err

    def test_too_deep_derivation_is_an_error(self, tmp_path, capsys):
        grammar = tmp_path / "ones.json"
        grammar.write_text(
            json.dumps({"<START>": [["<D>"]], "<D>": [["1"], ["1", "<D>"]]})
        )
        conf = tmp_path / "long.conf"
        conf.write_text("1" * 400)
        rc = main(["minimize", str(conf), "--grammar", str(grammar)])
        assert rc == EXIT_USAGE
        assert "input cannot be derived from the grammar" in capsys.readouterr().err


class TestTriage:
    CASES = [str(TABLE1_DIR / f"case{i}.conf") for i in range(1, 6)]

    def test_case_files_render_named_columns(self, capsys):
        assert main(["triage"] + self.CASES) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split()
        assert header == ["param", "initial", "case1", "case2", "case3", "case4", "case5"]
        assert len(out.splitlines()) == 9

    def test_json_format(self, capsys):
        assert main(["triage", "--format", "json"] + self.CASES) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["columns"]][:2] == ["initial", "case1"]
        assert len(doc["paths"]) == 8

    def test_watch_narrows_rows(self, capsys):
        watch = "gNBs[0].do_CSIRS,gNBs[0].do_SRS"
        assert main(["triage", "--watch", watch] + self.CASES) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].split()[0] == "gNBs[0].do_CSIRS"

    def test_non_crashing_case_is_an_error(self, capsys):
        rc = main(["triage", str(TABLE1_DIR / "initial.conf")])
        assert rc == 1
        assert "did not crash" in capsys.readouterr().err

    def test_crashes_and_cases_are_exclusive(self, tmp_path, capsys):
        rc = main(["triage", "--crashes", str(tmp_path)] + self.CASES)
        assert rc == 1
        rc = main(["triage"])
        assert rc == 1

    def test_crashes_dir_from_campaign(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "fuzz",
                "--grammar",
                str(GRAMMAR_PATH),
                "--out",
                str(out),
                "--seed",
                "3",
                "--max-execs",
                "1500",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["triage", "--crashes", str(out / "crashes")])
        assert rc == 0
        table = capsys.readouterr().out
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["param", "initial"]
        # one column per stored report, named by dedup key
        n_dirs = sum(1 for d in (out / "crashes").iterdir() if d.is_dir())
        assert len(lines[0].split()) == 2 + n_dirs

    @pytest.mark.parametrize(
        "edit, complaint",
        [
            (
                lambda p: json.dumps({k: v for k, v in p.items() if k != "outcome"}),
                "missing field 'outcome'",
            ),
            (lambda p: json.dumps([p]), "not a JSON object"),
            (lambda p: json.dumps(p)[:-2], "not valid JSON"),
            (
                lambda p: json.dumps({**p, "first_seen_exec": "7"}),
                "field 'first_seen_exec' has the wrong type",
            ),
            (
                lambda p: json.dumps({**p, "first_seen_exec": True}),
                "field 'first_seen_exec' has the wrong type",
            ),
            (
                lambda p: json.dumps({**p, "outcome": {**p["outcome"], "code": True}}),
                "field 'outcome.code' has the wrong type",
            ),
            (
                lambda p: json.dumps({**p, "stderr_excerpt": 5}),
                "field 'stderr_excerpt' has the wrong type",
            ),
            (
                lambda p: json.dumps(
                    {k: v for k, v in p.items() if k != "stderr_excerpt"}
                ),
                "missing field 'stderr_excerpt'",
            ),
            (
                lambda p: json.dumps(
                    {**p, "outcome": {**p["outcome"], "class": "hang"}}
                ),
                "field 'outcome': 'hang' is not a valid OutcomeKind",
            ),
            (
                lambda p: json.dumps(
                    {**p, "param_diff": [{"path": "a..b", "initial": 1, "crash": 2}]}
                ),
                "field 'param_diff[0].path': malformed parameter path: 'a..b'",
            ),
        ],
        ids=[
            "missing-outcome",
            "list",
            "invalid-json",
            "ill-typed",
            "bool-exec",
            "bool-code",
            "ill-typed-excerpt",
            "missing-excerpt",
            "unknown-class",
            "malformed-path",
        ],
    )
    def test_bad_report_json_is_a_usage_error(
        self, tmp_path, capsys, edit, complaint
    ):
        from conffuzz.target import TargetSpec, execute
        from conffuzz.triage import dedup_key, make_crash_report, store_crash_report

        text = (TABLE1_DIR / "case5.conf").read_text()
        outcome, branches = execute(TargetSpec.parse("builtin:gnb-validator"), text)
        report = make_crash_report(dedup_key(outcome, branches), outcome, text, text, 1)
        crash_dir = store_crash_report(tmp_path, report)
        payload = json.loads((crash_dir / "report.json").read_text())
        (crash_dir / "report.json").write_text(edit(payload))
        rc = main(["triage", "--crashes", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(crash_dir) in err
        assert complaint in err
        assert "internal error" not in err


class TestFuzz:
    def test_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "fuzz",
                "--grammar",
                str(GRAMMAR_PATH),
                "--out",
                str(out),
                "--seed",
                "2",
                "--max-execs",
                "400",
            ]
        )
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["execs"] == 400
        assert stats["seed"] == 2
        assert (out / "stats.json").is_file()
        assert json.loads((out / "stats.json").read_text()) == stats

    def test_a_used_out_dir_is_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["fuzz", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
        assert main(argv + ["--seed", "1", "--max-execs", "300"]) == 0
        stats = (out / "stats.json").read_bytes()
        corpus = sorted(p.name for p in (out / "corpus").iterdir())
        capsys.readouterr()
        assert main(argv + ["--seed", "3", "--max-execs", "20"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: out dir {str(out)!r} is not empty\n"
        assert captured.out == ""
        assert (out / "stats.json").read_bytes() == stats
        assert sorted(p.name for p in (out / "corpus").iterdir()) == corpus

    def test_a_typo_in_the_target_leaves_the_out_dir_free(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["fuzz", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
        argv += ["--max-execs", "20"]
        assert main(argv + ["--target", "builtin:gnb-validatr"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: unknown builtin target: 'gnb-validatr'\n"
        assert captured.out == ""
        assert not out.exists()
        # the corrected run is not refused
        assert main(argv + ["--target", "builtin:gnb-validator"]) == 0
        assert json.loads((out / "stats.json").read_text())["execs"] == 20

    def test_progress_lines_show_a_rising_count_and_a_rate(
        self, tmp_path, capsys, monkeypatch
    ):
        from conffuzz import cli

        monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 0)
        argv = ["fuzz", "--grammar", str(GRAMMAR_PATH), "--out", str(tmp_path / "r")]
        assert main(argv + ["--max-execs", "50"]) == 0
        lines = capsys.readouterr().err.splitlines()
        pattern = re.compile(
            r"\[fuzz\] execs=(\d+) corpus=\d+ uniques=\d+ execs/s=(\d+\.\d+)"
        )
        found = [pattern.fullmatch(line) for line in lines]
        assert lines and all(found), lines
        execs = [int(m.group(1)) for m in found]
        assert execs == sorted(set(execs)) and execs[-1] == 50
        assert all(float(m.group(2)) > 0 for m in found)

    def test_bad_grammar_path(self, tmp_path, capsys):
        rc = main(
            ["fuzz", "--grammar", "nope.json", "--out", str(tmp_path / "x")]
        )
        assert rc == 1

    def test_depth_below_the_grammar_minimum_leaves_no_artifact(
        self, tmp_path, capsys
    ):
        out = tmp_path / "run"
        argv = ["fuzz", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
        assert main(argv + ["--max-depth", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            "error: max_depth 0 below minimal derivation depth 2\n"
        )
        assert captured.out == ""
        # no out dir, so no 0-exec stats.json that reads like a campaign
        assert not out.exists()

    def test_a_blind_target_is_refused_with_its_stats(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("CONFFUZZ_TMPDIR", str(tmp_path / "inputs"))
        out = tmp_path / "run"
        argv = ["fuzz", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
        argv += ["--target", "exec:/bin/false {input}", "--max-execs", "100"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            "error: target answered reject (code 1) to every seed input"
            " and reported no branch labels\n"
        )
        assert captured.out == ""
        assert '"execs": 11,' in (out / "stats.json").read_text()
        assert list((out / "crashes").iterdir()) == []

    def test_a_blind_target_that_crashes_keeps_no_crash(
        self, tmp_path, capsys, monkeypatch
    ):
        # every seed input crashes the target; the refusal comes before any
        # seed crash is minimized or stored
        monkeypatch.setenv("CONFFUZZ_TMPDIR", str(tmp_path / "inputs"))
        out = tmp_path / "run"
        abort = f'{sys.executable} -S -c "import os; os.abort()" {{input}}'
        argv = ["fuzz", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
        argv += ["--target", f"exec:{abort}", "--max-execs", "100"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            "error: target answered crash (code 6) to every seed input"
            " and reported no branch labels\n"
        )
        assert captured.out == ""
        stats = json.loads((out / "stats.json").read_text())
        assert stats["execs"] == 11 and stats["crashes_unique"] == 0
        assert list((out / "crashes").iterdir()) == []
        assert len(list((out / "corpus").iterdir())) == 11

    def test_varying_outcomes_without_labels_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONFFUZZ_TMPDIR", str(tmp_path / "inputs"))
        script = tmp_path / "srs.py"
        script.write_text(
            "import sys\n"
            "text = open(sys.argv[1], encoding='utf-8').read()\n"
            "sys.exit(0 if 'do_SRS = 1;' in text else 1)\n"
        )
        out = tmp_path / "run"
        argv = ["fuzz", "--grammar", str(GRAMMAR_PATH), "--out", str(out)]
        argv += ["--target", f"exec:{sys.executable} {script} {{input}}"]
        assert main(argv + ["--max-execs", "40"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["execs"] == 40


def _alive(pid: int) -> bool:
    # give the kernel a moment to reap
    for _ in range(40):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        time.sleep(0.05)
    return True


class TestSignals:
    def test_sigterm_handler_restored(self, capsys):
        before = signal.getsignal(signal.SIGTERM)
        assert main(["grammar-check", str(GRAMMAR_PATH)]) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigterm_unwinds_like_interrupt(self, tmp_path, monkeypatch):
        # SIGTERM during an exec: campaign kills and reaps the target,
        # deletes its input, flushes stats.json and exits 4
        inputs = tmp_path / "inputs"
        monkeypatch.setenv("CONFFUZZ_TMPDIR", str(inputs))
        pidfile = tmp_path / "pid"
        script = tmp_path / "hang.py"
        script.write_text(
            f"import os, time\nopen({str(pidfile)!r}, 'w').write(str(os.getpid()))\n"
            "time.sleep(60)\n"
        )
        out = tmp_path / "run"
        argv = [
            sys.executable,
            "-m",
            "conffuzz.cli",
            "fuzz",
            "--grammar",
            str(GRAMMAR_PATH),
            "--out",
            str(out),
            "--timeout-ms",
            "60000",
            "--target",
            f"exec:{sys.executable} {script} {{input}}",
        ]
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        pid = None
        try:
            deadline = time.monotonic() + 10
            while not (pidfile.exists() and pidfile.read_text()):
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "target never started"
                time.sleep(0.02)
            pid = int(pidfile.read_text())
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=10)
            assert not _alive(pid), f"terminated target {pid} still alive"
            assert proc.returncode == 4, err.decode()
            assert err.decode().splitlines()[-1] == "interrupted"
        finally:
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert list(inputs.iterdir()) == []
        assert json.loads((out / "stats.json").read_text())["execs"] == 0


class TestExplain:
    ARGS = [
        "explain",
        "--input",
        str(EXPLAIN_DIR / "pbch.log"),
        "--src",
        str(EXPLAIN_DIR / "src"),
        "--backend",
        f"glossary:{EXPLAIN_DIR / 'glossary.tsv'}",
    ]

    def test_matches_frozen_report(self, capsys):
        assert main(self.ARGS) == 0
        expected = (EXPLAIN_DIR / "expected_report.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert out.read_text() == (EXPLAIN_DIR / "expected_report.txt").read_text()

    def test_backend_failure_emits_partial_report(self, tmp_path, capsys):
        # glossary that covers everything except the last variable
        full = (EXPLAIN_DIR / "glossary.tsv").read_text().splitlines()
        gaps = tmp_path / "gaps.tsv"
        gaps.write_text(
            "\n".join(l for l in full if not l.startswith("phy_cell_id")) + "\n"
        )
        argv = list(self.ARGS)
        argv[-1] = f"glossary:{gaps}"
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert "! backend error:" in captured.err
        assert captured.out.startswith("[tests] 7\n")
        assert "- c (coreset0_index)" in captured.out
        assert "phy_cell_id" not in captured.out

    def test_missing_glossary_file(self, capsys):
        argv = list(self.ARGS)
        argv[-1] = "glossary:no/such.tsv"
        assert main(argv) == 4

    def test_unknown_backend_scheme(self, capsys):
        argv = list(self.ARGS)
        argv[-1] = "ftp://example.invalid/x"
        assert main(argv) == 1

    def test_missing_log_file(self, capsys):
        argv = list(self.ARGS)
        argv[2] = "no/such.log"
        assert main(argv) == 1
