"""Demo validator: calibrated sample cases, crash rules, branch labels."""

import subprocess
import sys

import pytest

from conffuzz.configfmt import ParamPath, get_param, parse_config, set_param
from conffuzz.gnb_validator import (
    SAMPLE_CASES,
    WATCH_PATHS,
    band_table,
    baseline_document,
    baseline_text,
    main,
    run_text,
    sample_case_document,
    validate,
)
from conffuzz.grammar import derive_tree, minimal_tree, unparse
from conffuzz.target import OutcomeKind

# Expected parameter values per scenario, row order matching WATCH_PATHS.
PARAM_MATRIX = {
    "initial": (1, 1, 12, 0, 641280, 78, 640008, 106),
    "case1": (0, 0, 9, 9, 433096, 78, 640008, 106),
    "case2": (0, 0, 3, 8, 641272, 78, 43000, 25),
    "case3": (0, 0, 9, 9, 642016, 41, 43000, 25),
    "case4": (0, 1, 6, 8, 623232, 78, 43000, 24),
    "case5": (1, 1, 12, 0, 641280, 257, 640008, 106),
}

EXPECTED_CRASH = {
    "case1": 101,
    "case2": 102,
    "case3": 101,
    "case4": 102,
    "case5": 104,
}

CELL = "gNBs[0].servingCellConfigCommon[0]"


def with_param(doc, path_text, value):
    return set_param(doc, ParamPath.parse(path_text), value)


class TestBandTable:
    def test_frozen_contents(self):
        assert [
            (b.band, b.arfcn_lo, b.arfcn_hi, b.min_bw_rb) for b in band_table()
        ] == [(41, 499200, 537999, 25), (78, 620000, 653333, 25)]


class TestWatchPaths:
    def test_order_and_names(self):
        assert [str(p) for p in WATCH_PATHS] == [
            "gNBs[0].do_CSIRS",
            "gNBs[0].do_SRS",
            f"{CELL}.controlResourceSetZero",
            f"{CELL}.searchSpaceZero",
            f"{CELL}.absoluteFrequencySSB",
            f"{CELL}.dl_frequencyBand",
            f"{CELL}.dl_absoluteFrequencyPointA",
            f"{CELL}.dl_carrierBandwidth",
        ]


class TestSampleCases:
    @pytest.mark.parametrize("name", sorted(PARAM_MATRIX))
    def test_fixture_values_match_matrix(self, table1_dir, name):
        fname = "initial.conf" if name == "initial" else f"{name}.conf"
        doc = parse_config((table1_dir / fname).read_text())
        got = tuple(get_param(doc, p) for p in WATCH_PATHS)
        assert got == PARAM_MATRIX[name]

    @pytest.mark.parametrize("name", sorted(SAMPLE_CASES))
    def test_case_documents_match_fixture_bytes(self, table1_dir, name):
        from conffuzz.configfmt import serialize_config

        assert serialize_config(sample_case_document(name)) == (
            table1_dir / f"{name}.conf"
        ).read_text()

    def test_baseline_matches_initial_fixture(self, table1_dir):
        assert baseline_text() == (table1_dir / "initial.conf").read_text()

    @pytest.mark.parametrize("name", sorted(EXPECTED_CRASH))
    def test_case_crash_ids(self, name):
        outcome, _ = validate(sample_case_document(name))
        assert outcome.kind is OutcomeKind.CRASH
        assert outcome.code == EXPECTED_CRASH[name]

    def test_baseline_is_accepted(self):
        outcome, _ = validate(baseline_document())
        assert outcome.kind is OutcomeKind.OK

    def test_case1_differs_in_five_params(self):
        from conffuzz.configfmt import diff_params

        changed = diff_params(baseline_document(), sample_case_document("case1"))
        assert len(changed) == 5
        assert [str(p) for p, _, _ in changed] == [
            "gNBs[0].do_CSIRS",
            "gNBs[0].do_SRS",
            f"{CELL}.controlResourceSetZero",
            f"{CELL}.searchSpaceZero",
            f"{CELL}.absoluteFrequencySSB",
        ]

    @pytest.mark.parametrize("name", sorted(SAMPLE_CASES))
    def test_overrides_are_exactly_the_diff(self, name):
        from conffuzz.configfmt import diff_params

        changed = diff_params(baseline_document(), sample_case_document(name))
        assert len(changed) == len(SAMPLE_CASES[name])


class TestCrashRules:
    def test_rule1_ssb_out_of_band(self):
        doc = with_param(baseline_document(), f"{CELL}.absoluteFrequencySSB", 619999)
        outcome, fb = validate(doc)
        assert outcome.code == 101
        assert "chk:ssb_in_band:viol" in fb.branches

    def test_rule2_pointa_out_of_band(self):
        doc = with_param(
            baseline_document(), f"{CELL}.dl_absoluteFrequencyPointA", 999999
        )
        outcome, fb = validate(doc)
        assert outcome.code == 102
        assert "chk:pointa_in_band:viol" in fb.branches

    def test_rule3_bandwidth_below_minimum(self):
        doc = with_param(baseline_document(), f"{CELL}.dl_carrierBandwidth", 24)
        outcome, fb = validate(doc)
        assert outcome.code == 103
        assert "chk:min_bw:viol" in fb.branches

    def test_rule4_unknown_band(self):
        doc = with_param(baseline_document(), f"{CELL}.dl_frequencyBand", 1)
        outcome, fb = validate(doc)
        assert outcome.code == 104
        assert "chk:band:unknown" in fb.branches

    def test_rule5_coreset_zero_bug_window(self):
        for idx in (13, 14, 15):
            doc = with_param(
                baseline_document(), f"{CELL}.controlResourceSetZero", idx
            )
            outcome, fb = validate(doc)
            assert outcome.code == 105, idx
            assert "chk:coreset0_bug:viol" in fb.branches

    def test_rule1_beats_rule2(self):
        # case3 has both frequencies outside band 41
        outcome, _ = validate(sample_case_document("case3"))
        assert outcome.code == 101

    def test_rule2_beats_rule3(self):
        # case4 also has bandwidth 24 below the minimum
        outcome, _ = validate(sample_case_document("case4"))
        assert outcome.code == 102

    def test_unknown_band_skips_range_rules(self):
        doc = baseline_document()
        doc = with_param(doc, f"{CELL}.dl_frequencyBand", 257)
        doc = with_param(doc, f"{CELL}.absoluteFrequencySSB", 1)
        doc = with_param(doc, f"{CELL}.dl_carrierBandwidth", 1)
        outcome, fb = validate(doc)
        assert outcome.code == 104
        assert not any("in_band" in b for b in fb.branches)

    @pytest.mark.parametrize("arfcn", [620000, 653333])
    def test_band78_edges_inclusive(self, arfcn):
        doc = with_param(baseline_document(), f"{CELL}.absoluteFrequencySSB", arfcn)
        doc = with_param(doc, f"{CELL}.dl_absoluteFrequencyPointA", arfcn)
        outcome, _ = validate(doc)
        assert outcome.kind is OutcomeKind.OK


class TestDomainRejects:
    @pytest.mark.parametrize(
        "path,value,label",
        [
            ("gNBs[0].do_CSIRS", 2, "chk:do_CSIRS:bad"),
            ("gNBs[0].do_SRS", -1, "chk:do_SRS:bad"),
            (f"{CELL}.controlResourceSetZero", 16, "chk:controlResourceSetZero:bad"),
            (f"{CELL}.searchSpaceZero", 16, "chk:searchSpaceZero:bad"),
        ],
    )
    def test_out_of_domain_rejects(self, path, value, label):
        outcome, fb = validate(with_param(baseline_document(), path, value))
        assert outcome.kind is OutcomeKind.REJECT
        assert outcome.code == 2
        assert label in fb.branches

    def test_coreset_sixteen_rejects_before_bug_window(self):
        doc = with_param(baseline_document(), f"{CELL}.controlResourceSetZero", 16)
        outcome, _ = validate(doc)
        assert outcome.kind is OutcomeKind.REJECT

    def test_missing_parameter_rejects(self):
        text = baseline_text().replace(
            "        dl_carrierBandwidth = 106;\n", ""
        )
        outcome, fb = run_text(text)
        assert outcome.kind is OutcomeKind.REJECT
        assert "chk:extract:dl_carrierBandwidth:fail" in fb.branches

    def test_wrong_type_rejects(self):
        doc = with_param(baseline_document(), "gNBs[0].do_CSIRS", True)
        outcome, fb = validate(doc)
        assert outcome.kind is OutcomeKind.REJECT
        assert "chk:extract:do_CSIRS:fail" in fb.branches


class TestBranches:
    def test_baseline_branch_set_frozen(self):
        _, fb = validate(baseline_document())
        assert fb.branches == frozenset(
            {
                "chk:extract:ok",
                "chk:do_CSIRS:ok",
                "chk:do_SRS:ok",
                "chk:controlResourceSetZero:ok",
                "chk:searchSpaceZero:ok",
                "chk:band:known",
                "chk:ssb_in_band:ok",
                "chk:pointa_in_band:ok",
                "chk:min_bw:ok",
                "chk:coreset0_bug:ok",
            }
        )

    def test_run_text_adds_parse_branch(self):
        _, fb = run_text(baseline_text())
        assert "chk:parse:ok" in fb.branches

    def test_parse_failure_branch(self):
        outcome, fb = run_text("not a config {{{")
        assert outcome.kind is OutcomeKind.REJECT
        assert fb.branches == frozenset({"chk:parse:fail"})

    def test_digest_tracks_decision_path(self):
        # case1/case3 crash on the same rule and case2/case4 on the same
        # rule, so the five cases fold into three distinct branch sets
        digests = {}
        for name in SAMPLE_CASES:
            _, fb = validate(sample_case_document(name))
            digests.setdefault(fb.digest, set()).add(name)
        assert sorted(map(sorted, digests.values())) == [
            ["case1", "case3"],
            ["case2", "case4"],
            ["case5"],
        ]


class TestGrammarIntegration:
    def test_minimal_tree_is_baseline(self, gnb_grammar, table1_dir):
        t = minimal_tree(gnb_grammar, gnb_grammar.start)
        assert unparse(t, gnb_grammar) == (table1_dir / "initial.conf").read_text()

    @pytest.mark.parametrize(
        "fname",
        ["initial.conf", "case1.conf", "case2.conf", "case3.conf", "case4.conf", "case5.conf"],
    )
    def test_fixtures_derive_from_grammar(self, gnb_grammar, table1_dir, fname):
        text = (table1_dir / fname).read_text()
        tree = derive_tree(gnb_grammar, text)
        assert tree is not None
        assert unparse(tree, gnb_grammar) == text

    def test_generated_configs_parse(self, gnb_grammar):
        from conffuzz.grammar import generate_tree

        for seed in range(20):
            text = unparse(generate_tree(gnb_grammar, seed), gnb_grammar)
            parse_config(text)  # must not raise


class TestStandaloneExecutable:
    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "conffuzz.gnb_validator", *args],
            capture_output=True,
            text=True,
        )

    def test_accepts_baseline(self, table1_dir):
        proc = self.run(str(table1_dir / "initial.conf"))
        assert proc.returncode == 0
        assert "##branch:chk:extract:ok" in proc.stderr

    def test_aborts_on_crash_case(self, table1_dir):
        proc = self.run(str(table1_dir / "case1.conf"))
        assert proc.returncode == -6  # SIGABRT
        assert "FATAL[101]" in proc.stderr
        assert "##branch:chk:ssb_in_band:viol" in proc.stderr

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("?????")
        proc = self.run(str(bad))
        assert proc.returncode == 2
        assert "##branch:chk:parse:fail" in proc.stderr

    def test_missing_file(self):
        proc = self.run("/no/such/file.conf")
        assert proc.returncode == 1

    def test_usage_error(self):
        proc = self.run()
        assert proc.returncode == 1


class TestMainInProcess:
    """``main`` without a subprocess, so the suite's warning filters see
    a file it leaves open."""

    def test_accepts_baseline(self, table1_dir, capsys):
        assert main([str(table1_dir / "initial.conf")]) == 0
        assert "##branch:chk:extract:ok" in capsys.readouterr().err

    def test_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("?????")
        assert main([str(bad)]) == 2
        assert "##branch:chk:parse:fail" in capsys.readouterr().err

    def test_unreadable_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.conf")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err
