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
    # unparse and execute record the text they made or ran, and minimize
    # records each text it asks the campaign to answer.
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
            if name == "minimize":
                tree, g, answer, key = args

                def asking(text):
                    calls.append([phase[0], "ask", text])
                    return answer(text)

                args = (tree, g, asking, key)
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
    # a minimization asks for texts, and the campaign's next unparse is
    # its result's; name that one "minimized"
    steps, minimizing = [], False
    for where, name, text in calls:
        if name == "minimize":
            minimizing = True
        elif name == "unparse" and minimizing:
            minimizing, name = False, "minimized"
        steps.append((where, name, text))
    seed_steps = [(name, text) for where, name, text in steps if where == "seed"]
    loop_steps = [(name, text) for where, name, text in steps if where == "loop"]
    assert ("minimize", None) in seed_steps and ("minimize", None) in loop_steps
    assert [name for _, name, _ in steps].count("minimized") == stats.crashes_unique
    # one worker consumes each answer before the next input is drawn, and
    # the validator never times out: a text reaches the target, with the
    # text it was unparsed to, the first time it is drawn or asked for by
    # a minimization, and its answer is the campaign's from then on
    answered = set()

    def expected(steps):
        out = []
        for name, text in steps:
            out.append((name, text))
            if name in ("unparse", "ask") and text not in answered:
                answered.add(text)
                out.append(("execute", text))
        return out

    seed_plan = [step for step in seed_steps if step[0] != "execute"]
    loop_plan = [step for step in loop_steps if step[0] != "execute"]
    assert seed_steps == expected(seed_plan)
    assert loop_steps == expected(loop_plan)
    seed_texts = [text for name, text in seed_plan if name == "unparse"]
    assert len(seed_texts) == campaign.SEED_TREES + 1
    drawn = [name for name, _ in loop_plan if name in ("random_mutation", "unparse")]
    assert drawn == ["random_mutation", "unparse"] * (stats.execs - len(seed_texts))
    # a minimization first asks for the crash it starts from, whose answer
    # the campaign already holds, so that costs no run.  In the loop that
    # is the crash just drawn.  The seed phase runs every seed input before
    # it minimizes any crash, so that a target it refuses keeps none; its
    # minimizations start from seed inputs, in seed order
    assert [name for name, _ in seed_plan[: len(seed_texts)]] == (
        ["unparse"] * len(seed_texts)
    )
    firsts = [
        seed_plan[i + 1] for i, step in enumerate(seed_plan) if step == ("minimize", None)
    ]
    assert {name for name, _ in firsts} == {"ask"}
    seed_crashes = [text for _, text in firsts]
    assert set(seed_crashes) <= set(seed_texts)
    assert seed_crashes == sorted(seed_crashes, key=seed_texts.index)
    for i, step in enumerate(loop_plan):
        if step == ("minimize", None):
            crash = next(t for n, t in reversed(loop_plan[:i]) if n == "unparse")
            assert loop_plan[i + 1] == ("ask", crash)
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
