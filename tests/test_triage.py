"""Triage: dedup keys, minimization, crash store, parameter tables."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conffuzz import triage
from conffuzz.configfmt import ParamPath, parse_config, serialize_config
from conffuzz.gnb_validator import WATCH_PATHS, baseline_document, run_text
from conffuzz.grammar import derive_tree, tree_size, unparse
from conffuzz.target import ExecOutcome, OutcomeKind, TargetSpec
from conffuzz.triage import (
    CrashReport,
    NonReproducibleError,
    NotACrashError,
    ParamTable,
    dedup_key,
    extract_param_table,
    load_crash_report,
    make_crash_report,
    minimize,
    render_report,
    store_crash_report,
)

from conftest import REPO_ROOT, on_threads
from test_gnb_validator import CELL, PARAM_MATRIX, with_param

VALIDATOR = TargetSpec.parse("builtin:gnb-validator")


def crash_and_key(text):
    outcome, branches = run_text(text)
    return outcome, dedup_key(outcome, branches)


def _crash(code):
    """A crash with this code, or a timeout for None."""
    kind = OutcomeKind.TIMEOUT if code is None else OutcomeKind.CRASH
    return ExecOutcome(kind, code)


class TestDedupKey:
    def test_frozen_values(self):
        # independently computed from the blake2b construction
        branches = frozenset({"chk:a"})
        assert dedup_key(_crash(101), branches) == "e4508d3cc2515672"
        assert dedup_key(_crash(102), branches) == "d6a24f57201f8462"

    def test_format(self):
        key = dedup_key(_crash(104), frozenset())
        assert re.fullmatch(r"[0-9a-f]{16}", key)

    def test_stable_and_discriminating(self):
        branches = frozenset({"chk:x", "chk:y"})
        assert dedup_key(_crash(101), branches) == dedup_key(
            _crash(101), frozenset({"chk:y", "chk:x"})
        )
        assert dedup_key(_crash(101), branches) != dedup_key(_crash(102), branches)
        assert dedup_key(_crash(101), branches) != dedup_key(
            _crash(101), frozenset({"chk:x"})
        )

    def test_digest_order_independent(self):
        crash = _crash(101)
        assert dedup_key(crash, frozenset(["a", "b"])) == dedup_key(
            crash, frozenset(["b", "a"])
        )

    def test_digest_distinguishes_sets(self):
        crash = _crash(101)
        assert dedup_key(crash, frozenset({"a"})) != dedup_key(crash, frozenset({"b"}))
        assert dedup_key(crash, frozenset()) != dedup_key(crash, frozenset({"a"}))

    def test_digest_matches_sorted_join(self):
        def blake(s):
            return int.from_bytes(
                hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big"
            )

        digest = blake("chk:a\nchk:b")
        key = dedup_key(_crash(101), frozenset({"chk:b", "chk:a"}))
        assert key == f"{blake(f'101|{digest:016x}'):016x}"

    def test_feedback_free_targets_dedup_on_id(self):
        assert dedup_key(_crash(11), frozenset()) == dedup_key(_crash(11), frozenset())

    def test_timeout_outcomes_have_keys(self):
        key = dedup_key(ExecOutcome(OutcomeKind.TIMEOUT), frozenset())
        assert re.fullmatch(r"[0-9a-f]{16}", key)

    @pytest.mark.parametrize(
        "outcome", [ExecOutcome(OutcomeKind.OK), ExecOutcome(OutcomeKind.REJECT, 2)]
    )
    def test_non_crash_rejected(self, outcome):
        with pytest.raises(NotACrashError):
            dedup_key(outcome, frozenset())


# Labels never hold a newline: the digest joins on it, so {"a\nb"} and
# {"a", "b"} would share a key, and external labels are split on lines.
LABELS = st.lists(
    st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=6),
    unique=True,
    max_size=8,
)
# a crash code, or None for a timeout
CODES = st.one_of(st.none(), st.integers(0, 300))


_FRESH_KEYS = """\
import json, sys
from conffuzz.target import ExecOutcome, OutcomeKind
from conffuzz.triage import dedup_key
for code, labels in json.load(sys.stdin):
    kind = OutcomeKind.TIMEOUT if code is None else OutcomeKind.CRASH
    print(dedup_key(ExecOutcome(kind, code), frozenset(labels)))
"""


class TestDedupKeyStability:
    @given(CODES, LABELS, st.randoms(use_true_random=False))
    def test_insertion_order_does_not_matter(self, code, labels, rnd):
        shuffled = list(labels)
        rnd.shuffle(shuffled)
        assert dedup_key(_crash(code), frozenset(labels)) == dedup_key(
            _crash(code), frozenset(shuffled)
        )

    # one interpreter per batch of label sets, not one per set; shrinking
    # would start one per attempt, so a failing batch is shown as drawn
    @settings(max_examples=3, deadline=None, phases=[Phase.generate])
    @given(st.lists(st.tuples(CODES, LABELS), min_size=30, max_size=30))
    def test_fresh_interpreter_with_another_hash_seed_agrees(self, batch):
        here = [dedup_key(_crash(code), frozenset(labels)) for code, labels in batch]
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join(p for p in path if p),
        )
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_KEYS],
            input=json.dumps(batch),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert fresh.stdout.split() == here


def _written_out_key(code, labels) -> str:
    """The key over (crash id, coverage digest), two blake2b hashes."""

    def blake(s):
        return int.from_bytes(
            hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big"
        )

    digest = blake("\n".join(sorted(labels)))
    return f"{blake(f'{code}|{digest:016x}'):016x}"


PAIRS = st.lists(st.tuples(CODES, LABELS), min_size=1, max_size=12)


class TestKeyMemo:
    # ``dedup_key`` keeps each (code, branch set) pair's key within its
    # bound; a kept key must be the key written out, and a bound of one to
    # three makes the few pairs below empty the memo again and again
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), PAIRS)
    def test_kept_keys_are_the_written_out_keys(self, bound, pairs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(triage, "_KEYS", bound)
            mp.setattr(triage, "_keys", {})
            for _ in ("cold", "warm"):
                for code, labels in pairs:
                    key = dedup_key(_crash(code), frozenset(labels))
                    assert key == _written_out_key(code, labels)
                    assert 0 < len(triage._keys) <= bound
            assert triage._keys == {
                (code, labels): _written_out_key(code, labels)
                for code, labels in triage._keys
            }

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), PAIRS)
    def test_kept_keys_hold_under_threads(self, bound, pairs):
        # a caller's own threads may key at once and share the memo
        expected = [_written_out_key(code, labels) for code, labels in pairs]
        faults: list[str] = []

        def key_all(worker: int) -> None:
            for _ in range(20):
                # each thread starts at another pair
                for i in range(worker, worker + len(pairs)):
                    code, labels = pairs[i % len(pairs)]
                    if dedup_key(_crash(code), frozenset(labels)) != expected[
                        i % len(pairs)
                    ]:
                        faults.append(f"wrong key for {(code, labels)!r}")
                    if len(triage._keys) > bound:
                        faults.append(f"{len(triage._keys)} keys kept")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(triage, "_KEYS", bound)
            mp.setattr(triage, "_keys", {})
            on_threads(key_all)
        assert faults == []


class TestMinimize:
    def fixture_tree(self, gnb_grammar, table1_dir, name):
        text = (table1_dir / f"{name}.conf").read_text()
        tree = derive_tree(gnb_grammar, text)
        assert tree is not None
        return tree, text

    def test_already_minimal_is_identity(self, gnb_grammar, table1_dir):
        tree, text = self.fixture_tree(gnb_grammar, table1_dir, "case5")
        _, key = crash_and_key(text)
        out = minimize(tree, gnb_grammar, VALIDATOR, key)
        assert unparse(out, gnb_grammar) == text

    def test_case3_shrinks_to_band_change(self, gnb_grammar, table1_dir):
        tree, text = self.fixture_tree(gnb_grammar, table1_dir, "case3")
        _, key = crash_and_key(text)
        out = minimize(tree, gnb_grammar, VALIDATOR, key)
        expected = serialize_config(
            with_param(baseline_document(), f"{CELL}.dl_frequencyBand", 41)
        )
        assert unparse(out, gnb_grammar) == expected
        assert tree_size(out) <= tree_size(tree)

    def test_case1_shrinks_to_ssb_change(self, gnb_grammar, table1_dir):
        tree, text = self.fixture_tree(gnb_grammar, table1_dir, "case1")
        _, key = crash_and_key(text)
        out = minimize(tree, gnb_grammar, VALIDATOR, key)
        expected = serialize_config(
            with_param(baseline_document(), f"{CELL}.absoluteFrequencySSB", 433096)
        )
        assert unparse(out, gnb_grammar) == expected

    def test_key_preserved_for_all_cases(self, gnb_grammar, table1_dir):
        for name in ("case1", "case2", "case3", "case4", "case5"):
            tree, text = self.fixture_tree(gnb_grammar, table1_dir, name)
            _, key = crash_and_key(text)
            out = minimize(tree, gnb_grammar, VALIDATOR, key)
            _, key_after = crash_and_key(unparse(out, gnb_grammar))
            assert key_after == key, name
            assert tree_size(out) <= tree_size(tree)

    def test_idempotent(self, gnb_grammar, table1_dir):
        tree, text = self.fixture_tree(gnb_grammar, table1_dir, "case2")
        _, key = crash_and_key(text)
        once = minimize(tree, gnb_grammar, VALIDATOR, key)
        twice = minimize(once, gnb_grammar, VALIDATOR, key)
        assert once == twice

    def test_non_crashing_input_raises(self, gnb_grammar, table1_dir):
        text = (table1_dir / "initial.conf").read_text()
        tree = derive_tree(gnb_grammar, text)
        with pytest.raises(NonReproducibleError):
            minimize(tree, gnb_grammar, VALIDATOR, "0" * 16)

    def test_wrong_key_raises(self, gnb_grammar, table1_dir):
        tree, _ = self.fixture_tree(gnb_grammar, table1_dir, "case1")
        _, other_key = crash_and_key((table1_dir / "case5.conf").read_text())
        with pytest.raises(NonReproducibleError):
            minimize(tree, gnb_grammar, VALIDATOR, other_key)


def fixture_reports(table1_dir):
    reports = []
    for i, name in enumerate(("case1", "case2", "case3", "case4", "case5")):
        text = (table1_dir / f"{name}.conf").read_text()
        outcome, key = crash_and_key(text)
        reports.append(make_crash_report(key, outcome, text, text, i))
    return reports


class TestCrashReport:
    def test_param_diff_against_initial(self, table1_dir):
        reports = fixture_reports(table1_dir)
        case1 = reports[0]
        assert [str(p) for p, _, _ in case1.param_diff] == [
            "gNBs[0].do_CSIRS",
            "gNBs[0].do_SRS",
            f"{CELL}.controlResourceSetZero",
            f"{CELL}.searchSpaceZero",
            f"{CELL}.absoluteFrequencySSB",
        ]
        assert case1.param_diff[-1][1:] == (641280, 433096)

    def test_unparseable_input_gives_empty_diff(self):
        report = make_crash_report("ab" * 8, _crash(6), "garbage {{{", "garbage {{{", 0)
        assert report.param_diff == ()

    def test_store_and_load_round_trip(self, tmp_path, table1_dir):
        report = fixture_reports(table1_dir)[2]
        crash_dir = store_crash_report(tmp_path, report)
        assert crash_dir == tmp_path / report.dedup_key
        assert sorted(p.name for p in crash_dir.iterdir()) == [
            "input.conf",
            "minimized.conf",
            "report.json",
        ]
        assert load_crash_report(crash_dir) == report

    def test_report_json_schema(self, tmp_path, table1_dir):
        report = fixture_reports(table1_dir)[4]
        crash_dir = store_crash_report(tmp_path, report)
        payload = json.loads((crash_dir / "report.json").read_text())
        assert list(payload) == [
            "dedup_key",
            "outcome",
            "stderr_excerpt",
            "param_diff",
            "first_seen_exec",
        ]
        assert payload["outcome"] == {"class": "crash", "code": 104}
        assert payload["param_diff"] == [
            {
                "path": f"{CELL}.dl_frequencyBand",
                "initial": 78,
                "crash": 257,
            }
        ]


class TestParamTable:
    def test_table1_grid_values(self, table1_dir):
        names = ["case1", "case2", "case3", "case4", "case5"]
        table = extract_param_table(fixture_reports(table1_dir), names=names)
        assert table.paths == tuple(str(p) for p in WATCH_PATHS)
        assert len(table.columns) == 6
        for name, values in table.columns:
            expected = PARAM_MATRIX[name]
            assert values == tuple(str(v) for v in expected), name

    def test_empty_reports_initial_only(self):
        table = extract_param_table([])
        assert [name for name, _ in table.columns] == ["initial"]
        assert table.columns[0][1] == ("1", "1", "12", "0", "641280", "78", "640008", "106")

    def test_unknown_watch_path_renders_dash(self, table1_dir):
        watch = [ParamPath.parse("gNBs[0].do_CSIRS"), ParamPath.parse("nope.missing")]
        table = extract_param_table(fixture_reports(table1_dir)[:1], watch=watch)
        for _, values in table.columns:
            assert values[1] == "-"

    def test_unparseable_report_renders_dashes(self):
        report = make_crash_report("cd" * 8, _crash(6), "{{{", "{{{", 0)
        table = extract_param_table([report])
        assert table.columns[1][1] == ("-",) * 8

    def test_default_column_names_are_keys(self, table1_dir):
        reports = fixture_reports(table1_dir)[:2]
        table = extract_param_table(reports)
        assert [name for name, _ in table.columns[1:]] == [
            r.dedup_key for r in reports
        ]

    def test_names_length_mismatch(self, table1_dir):
        with pytest.raises(ValueError):
            extract_param_table(fixture_reports(table1_dir), names=["x"])


class TestRenderReport:
    def test_text_golden(self):
        table = ParamTable(("a.b",), (("initial", ("1",)), ("k1", ("-",))))
        assert render_report(table) == "param  initial  k1\na.b    1        -\n"

    def test_text_grid_shape(self, table1_dir):
        names = ["case1", "case2", "case3", "case4", "case5"]
        table = extract_param_table(fixture_reports(table1_dir), names=names)
        text = render_report(table, "text")
        lines = text.splitlines()
        assert len(lines) == 9  # header + 8 parameter rows
        assert lines[0].split() == ["param"] + ["initial"] + names
        assert lines[5].split() == [f"{CELL}.absoluteFrequencySSB", "641280",
                                    "433096", "641272", "642016", "623232", "641280"]

    def test_byte_stability(self, table1_dir):
        table = extract_param_table(fixture_reports(table1_dir))
        assert render_report(table, "text") == render_report(table, "text")
        assert render_report(table, "json") == render_report(table, "json")

    def test_json_round_trips(self, table1_dir):
        names = ["case1", "case2", "case3", "case4", "case5"]
        table = extract_param_table(fixture_reports(table1_dir), names=names)
        payload = json.loads(render_report(table, "json"))
        assert payload["paths"] == list(table.paths)
        assert [c["name"] for c in payload["columns"]] == ["initial"] + names
        assert payload["columns"][3]["values"][4] == "642016"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(ParamTable(("a",), (("initial", ("1",)),)), "yaml")
