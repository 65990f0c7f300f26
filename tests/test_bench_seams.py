"""The seams the benchmark in ``perfbench/`` measures the package through.

``perfbench/tracing.py`` replaces functions at the names their callers
look them up under, and the triage workload counts minimize's executions
by wrapping ``triage.execute``.  A rename or a changed import in the
package would silently leave a layer untimed or a count at zero, so these
tests fail first.  The tracing hooks and ``perfbench/checks.py`` also
unpack what the package returns, so one traced campaign runs them here,
and the benchmark's own self-test runs every workload at a tiny budget.
"""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys

from conffuzz import campaign, gnb_validator, grammar, target, triage
from conffuzz.grammar import derive_tree, unparse

from conftest import GRAMMAR_PATH, REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"
VALIDATOR = target.TargetSpec.parse("builtin:gnb-validator")


def load_perfbench(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_the_defining_function():
    for name, module, attr in load_perfbench("tracing").TRACED:
        binding = getattr(importlib.import_module(f"conffuzz.{module}"), attr)
        assert callable(binding), (module, attr)
        home, func = name.split(".")
        defined = getattr(importlib.import_module(f"conffuzz.{home}"), func)
        assert binding is defined, (name, module, attr)


def test_minimize_executes_through_triage_execute(
    monkeypatch, gnb_grammar, table1_dir
):
    text = (table1_dir / "case3.conf").read_text()
    tree = derive_tree(gnb_grammar, text)
    key = triage.dedup_key(*target.execute(VALIDATOR, text))
    real = target.execute
    runs = []

    def counting(spec, input_text, **kwargs):
        runs.append(input_text)
        return real(spec, input_text, **kwargs)

    def elsewhere(*args, **kwargs):
        raise AssertionError("minimize ran the target past triage.execute")

    monkeypatch.setattr(triage, "execute", counting)
    monkeypatch.setattr(target, "execute", elsewhere)
    small = triage.minimize(tree, gnb_grammar, VALIDATOR, key)
    # the reproduce check, then at least the accepted replacement
    assert len(runs) >= 2
    assert runs[0] == text
    assert unparse(small, gnb_grammar) in runs


def test_campaign_looks_up_its_hot_path_through_its_module(monkeypatch, tmp_path):
    # perfbench's probe ends set-up at the first campaign.random_mutation
    # call, and its tracer times these names where the campaign reads them.
    # Each counter serves one call and then puts a fresh one in its place,
    # so a call through a name bound once and kept shows up as stale.
    # unparse and execute record the text they made or ran.
    calls, stale = [], []
    phase = ["seed"]

    def install(name, real):
        def counted(*args, **kwargs):
            if spent:
                stale.append(name)
            spent.append(True)
            install(name, real)
            if name == "random_mutation":
                phase[0] = "loop"
            call = [phase[0], name, args[1] if name == "execute" else None]
            calls.append(call)
            result = real(*args, **kwargs)
            if name == "unparse":
                call[2] = result
            return result

        spent = []
        setattr(campaign, name, counted)

    for name in ("random_mutation", "unparse", "execute", "minimize"):
        monkeypatch.setattr(campaign, name, getattr(campaign, name))
        install(name, getattr(campaign, name))
    # seed 1 finds two crashes in the seed phase and one by exec 100
    stats = campaign.run_campaign(
        campaign.CampaignConfig(GRAMMAR_PATH, VALIDATOR, tmp_path / "out", max_execs=100)
    )
    assert stale == []
    seeded = campaign.SEED_TREES + 1
    by_phase = {"seed": [], "loop": []}
    for where, name, text in calls:
        # a new crash is minimized and its result unparsed; drop that pair
        if name == "unparse" and by_phase[where][-1:] == [("minimize", None)]:
            by_phase[where][-1] = ("minimized", None)
        else:
            by_phase[where].append((name, text))
    seed_calls, loop_calls = by_phase["seed"], by_phase["loop"]
    minimized = ("minimized", None)
    assert minimized in seed_calls and minimized in loop_calls
    assert seed_calls.count(minimized) + loop_calls.count(minimized) == (
        stats.crashes_unique
    )
    seed_calls = [c for c in seed_calls if c != minimized]
    loop_calls = [c for c in loop_calls if c != minimized]
    # one worker consumes each answer before the next input is drawn, so
    # an input runs, with the text it was unparsed to, unless an earlier
    # exec had the same text: the validator never times out, and each
    # answer it gives is replayed from the campaign's memo
    answered = set()

    def expected(texts, head):
        out = []
        for text in texts:
            out += head + [("unparse", text)]
            if text not in answered:
                answered.add(text)
                out.append(("execute", text))
        return out

    seed_texts = [text for name, text in seed_calls if name == "unparse"]
    loop_texts = [text for name, text in loop_calls if name == "unparse"]
    assert len(seed_texts) == seeded
    assert len(loop_texts) == stats.execs - seeded
    assert seed_calls == expected(seed_texts, [])
    assert loop_calls == expected(loop_texts, [("random_mutation", None)])
    assert len(answered) < stats.execs  # some answers were replayed


def test_traced_campaign_feeds_the_hooks_and_checks(gnb_grammar, tmp_path):
    tracing, checks = load_perfbench("tracing"), load_perfbench("checks")
    m = {
        "campaign": campaign,
        "gnb_validator": gnb_validator,
        "grammar": grammar,
        "target": target,
        "triage": triage,
    }
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, m)
    out = tmp_path / "out"
    try:
        # seed 1 first sees all five planted crashes by exec 649
        campaign.run_campaign(
            campaign.CampaignConfig(GRAMMAR_PATH, VALIDATOR, out, max_execs=700)
        )
    finally:
        uninstall()
    assert tracer.counts["triage.minimize_reproduced"] > 0
    crash_dirs = sorted((out / "crashes").iterdir())
    assert len(crash_dirs) == 5
    for crash_dir in crash_dirs:
        assert checks.check_crash_dir(crash_dir, gnb_grammar, VALIDATOR, m) == []


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
