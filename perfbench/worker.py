"""One measured unit of a perfbench workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``.  ``run.py``
writes the job and starts this script once per unit, so every unit pays
the interpreter start and the package import, and its peak RSS is its own.

A unit is one campaign (``fuzz``) or one pass over a set of crashing
inputs (``triage``).  The result holds CLOCK_MONOTONIC readings, which the
parent compares with the moment it started this process, the timing of a
reference workload that gives the machine's speed around the unit, the
unit's own counts, the digest of what it wrote, and the outcome of the
correctness checks.  With ``trace`` set, per-layer spans are recorded as
well.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import re
import resource
import shlex
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402

GRAMMAR = ROOT / "grammars" / "gnb.json"
BUILTIN_TARGET = "builtin:gnb-validator"


# The reference workload: tokenise a fixed config-like text and fold it
# into nested dicts.  It is stdlib-only Python doing the kind of string,
# dict and small-object work the fuzz loop does, and no change to conffuzz
# can change its cost; only the machine's speed at the moment can.
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][\w.]*)|(-?\d+)|(\"[^\"]*\")|(.))")


def _reference_text() -> str:
    rng = random.Random(20231)
    lines = []
    for i in range(400):
        path = ".".join(f"k{rng.randrange(12)}" for _ in range(rng.randrange(1, 4)))
        value = rng.choice((
            str(rng.randrange(-999, 99999)), f'"s{rng.randrange(10**6)}"', f"id_{i}",
        ))
        lines.append(f"{path} = {value};")
    return "\n".join(lines)


def _reference_work(text: str) -> list[str]:
    root: dict = {}
    for line in text.splitlines():
        toks = [m.group(m.lastindex) for m in _TOKEN.finditer(line)]
        node = root
        *parents, leaf = toks[0].split(".")
        for p in parents:
            node = node.setdefault((p,), {})
        v = toks[2]
        node[leaf] = int(v) if v.lstrip("-").isdigit() else v.strip('"')
    return sorted(str(k) for k in root)


def calibrate(passes: int = 20) -> tuple[float, float]:
    """The mean time of one pass of the reference workload, and the wall
    time the calibration took, both in seconds.

    The machine's speed varies from pass to pass, and the unit's own time
    is a mean over that mix; a median or a minimum would not be.
    """
    text = _reference_text()
    # the collector would also walk whatever heap the program left
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(passes):
            _reference_work(text)
        took = time.perf_counter() - start
    finally:
        gc.enable()
    return took / passes, took


def exec_target() -> str:
    """The validator as an external target, started from this interpreter."""
    return f"exec:{shlex.quote(sys.executable)} -m conffuzz.gnb_validator {{input}}"


def _modules() -> dict:
    from conffuzz import campaign, gnb_validator, grammar, target, triage

    return {
        "campaign": campaign,
        "gnb_validator": gnb_validator,
        "grammar": grammar,
        "target": target,
        "triage": triage,
    }


class Probe:
    """Coarse readings the end-to-end metrics need: when set-up ended,
    each minimization's duration and when each crash was stored.  They
    wrap calls that happen a few times per unit, apart from the first
    mutation, whose probe removes itself once it has fired."""

    def __init__(self) -> None:
        self.setup_end: float | None = None
        # (CLOCK_MONOTONIC start, seconds) of each minimize() call
        self.minimizations: list[tuple[float, float]] = []
        self.store_times: list[float] = []
        self.nonreproducible = 0

    @contextlib.contextmanager
    def timing_minimize(self):
        start = time.monotonic()
        try:
            yield
        finally:
            self.minimizations.append((start, time.monotonic() - start))

    def watch_campaign(self, campaign, triage) -> None:
        mutate = campaign.random_mutation

        def first_mutation(*args, **kwargs):
            if self.setup_end is None:
                self.setup_end = time.monotonic()
            campaign.random_mutation = mutate
            return mutate(*args, **kwargs)

        minimize = campaign.minimize

        def timed_minimize(*args, **kwargs):
            with self.timing_minimize():
                try:
                    return minimize(*args, **kwargs)
                except triage.NonReproducibleError:
                    self.nonreproducible += 1
                    raise

        store = campaign.store_crash_report

        def timed_store(*args, **kwargs):
            path = store(*args, **kwargs)
            self.store_times.append(time.monotonic())
            return path

        campaign.random_mutation = first_mutation
        campaign.minimize = timed_minimize
        campaign.store_crash_report = timed_store


def run_fuzz(job: dict, m: dict, probe: Probe) -> dict:
    campaign, target = m["campaign"], m["target"]
    probe.watch_campaign(campaign, m["triage"])
    spec = target.TargetSpec.parse(
        BUILTIN_TARGET if job["target"] == "builtin" else exec_target()
    )
    out = Path(job["out"])
    cfg = campaign.CampaignConfig(
        grammar_path=GRAMMAR,
        target=spec,
        out_dir=out,
        seed=job["seed"],
        max_execs=job["execs"],
        workers=job["workers"],
    )
    errors = []
    try:
        campaign.run_campaign(cfg)
    except Exception as e:  # an aborted campaign is a measured failure
        errors.append(f"campaign seed {job['seed']} aborted: {type(e).__name__}: {e}")
    done = time.monotonic()
    if probe.setup_end is None:
        errors.append(f"campaign seed {job['seed']} ended before its first mutation")
        probe.setup_end = done
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    reports = sorted((out / "crashes").glob("*/report.json"))
    first_seen, codes = [], []
    for path in reports:
        report = json.loads(path.read_text(encoding="utf-8"))
        first_seen.append(report["first_seen_exec"])
        codes.append(report["outcome"]["code"])
    seed_execs = min(campaign.SEED_TREES + 1, stats["execs"])
    return {
        "done": done,
        "execs": stats["execs"],
        "loop_execs": stats["execs"] - seed_execs,
        "attempted": job["execs"] + len(reports),
        "failed": (job["execs"] - stats["execs"])
        + stats["timeouts"]
        + probe.nonreproducible,
        "crash_codes": codes,
        "execs_to_all_buckets": max(first_seen, default=0),
        "corpus_size": stats["corpus_size"],
        "errors": errors,
        "check_dirs": [str(path.parent) for path in reports],
        "spec": spec,
    }


def run_triage(job: dict, m: dict, probe: Probe, counter: list) -> dict:
    grammar, target, triage = m["grammar"], m["target"], m["triage"]
    g = grammar.parse_grammar(GRAMMAR.read_text(encoding="utf-8"))
    spec = target.TargetSpec.parse(BUILTIN_TARGET)
    texts = json.loads(Path(job["inputs"]).read_text(encoding="utf-8"))
    crashes = Path(job["out"]) / "crashes"
    stored, errors, failed = [], [], 0
    for i, text in enumerate(texts):
        tree = grammar.derive_tree(g, text)
        if tree is None:
            failed += 1
            errors.append(f"input {i}: derive_tree returned None")
            continue
        outcome, fb = target.execute(spec, text)
        if not outcome.is_crash:
            failed += 1
            errors.append(f"input {i}: does not crash the target")
            continue
        key = triage.dedup_key(outcome, fb)
        if probe.setup_end is None:
            probe.setup_end = time.monotonic()
        try:
            with probe.timing_minimize():
                small = triage.minimize(tree, g, spec, key)
        except triage.NonReproducibleError as e:
            failed += 1
            errors.append(f"input {i}: {e}")
            continue
        report = triage.make_crash_report(
            key, outcome, text, grammar.unparse(small, g), i
        )
        stored.append((triage.store_crash_report(crashes / f"{i:04d}", report), report))
    loaded = [triage.load_crash_report(path) for path, _ in stored]
    table = triage.extract_param_table(loaded)
    rendered = triage.render_report(table)
    done = time.monotonic()
    (Path(job["out"]) / "report.txt").write_text(rendered, encoding="utf-8")

    for (path, report), back in zip(stored, loaded):
        if back != report:
            errors.append(f"{path}: load_crash_report does not return what was stored")
    header = rendered.splitlines()[0].split() if rendered else []
    if header != ["param", "initial"] + [r.dedup_key for r in loaded]:
        errors.append("rendered report lacks a column per stored crash")
    return {
        "done": done,
        "execs": counter[0],
        "attempted": len(texts),
        "failed": failed,
        "crash_codes": [r.outcome.code for _, r in stored],
        "crash_keys": sorted({r.dedup_key for _, r in stored}),
        "errors": errors,
        "check_dirs": [str(path) for path, _ in stored],
        "spec": spec,
    }


def peak_rss_mb() -> float:
    """The peak resident set of this process since it started.

    ``ru_maxrss`` would not do: it also takes in the parent's resident set
    at the moment the parent spawned this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def count_calls(module, attr: str) -> list:
    """Count calls through ``module.attr``; the count is ``counter[0]``."""
    fn = getattr(module, attr)
    counter = [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return fn(*args, **kwargs)

    setattr(module, attr, counted)
    return counter


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    # before conffuzz is imported and again after the work: the machine's
    # speed drifts, and the mean of the two stands for the stretch between
    before, calibration_s = calibrate()
    m = _modules()
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer, m)
    probe = Probe()
    if job["kind"] == "fuzz":
        res = run_fuzz(job, m, probe)
    else:
        # executions inside minimize(); the one per input that finds the
        # key goes through target.execute and is not counted
        res = run_triage(job, m, probe, count_calls(m["triage"], "execute"))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    res["child_cpu_s"] = usage.ru_utime + usage.ru_stime
    res["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        # the checks below are not the program's work
        uninstall()
        res["trace"] = {"spans": tracer.summary(), "counts": dict(tracer.counts)}

    g = m["grammar"].parse_grammar(GRAMMAR.read_text(encoding="utf-8"))
    spec = res.pop("spec")
    for crash_dir in res.pop("check_dirs"):
        bad = checks.check_crash_dir(Path(crash_dir), g, spec, m)
        res["failed"] += bool(bad)
        res["errors"] += bad
    res.update(
        reference_s=(before + calibrate()[0]) / 2,
        calibration_s=calibration_s,
        setup_end=probe.setup_end,
        minimizations=probe.minimizations,
        store_times=probe.store_times,
        digest=checks.artifact_digest(Path(job["out"])),
    )
    Path(result_path).write_text(json.dumps(res), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
