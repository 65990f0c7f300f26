"""Self-test of the benchmark at a tiny budget.

    python3 perfbench/selftest.py

Checks that every workload prints each metric it applies to with its unit
and sample count, that the last line carries exactly the metrics named in
BENCHMARK.json, that the correctness checks fail on a corrupted
``minimized.conf``, on a mismatched artifact digest and on a reference
campaign that misses a planted crash, and that the benchmark refuses to
run without the program.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

# a tiny budget per workload
SMOKE = {
    "fuzz-builtin": {"execs": 300, "seeds": 2},
    "fuzz-exec": {"execs": 14, "seeds": 1},
    "triage": {"inputs": 12, "seeds": 2},
}
# not seed 1: a 300-exec reference campaign need not find all five codes
SMOKE_SEED = "3"

# human-readable rows each workload kind must print
ROWS = {
    "fuzz": ("setup_s", "wall_s", "execs_per_s", "time_to_all_buckets_s",
             "execs_to_all_buckets", "crash_buckets", "minimize_ms", "peak_rss_mb",
             "slowdown"),
    "triage": ("setup_s", "wall_s", "execs_per_s", "crash_buckets",
               "minimize_ms", "peak_rss_mb", "slowdown"),
}


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_outputs(spec: dict) -> list[str]:
    errors = []
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name, workload in run.WORKLOADS.items():
        for trace in (0, 1):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                try:
                    code = run.main(["--workload", name, "--seed", SMOKE_SEED,
                                     "--seconds", "0", "--trace", str(trace)])
                except Exception as e:  # reported like a non-zero exit
                    code = f"{type(e).__name__}: {e}"
            where = f"{name} --trace {trace}"
            lines = stdout.getvalue().strip().splitlines()
            if code != 0 or not lines:
                errors.append(f"{where}: exit {code}: {lines[-3:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: last line has keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                missing = set(declared[trace]) ^ set(got)
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"{sorted(missing) or 'units'}")
            for row in ROWS[workload["kind"]]:
                pattern = rf"^{re.escape(name)}\s+{row}\s+p50=\S+.* n=\d+\s+\S+$"
                if not any(re.match(pattern, line) for line in lines):
                    errors.append(f"{where}: no '{row}' row with unit and n=")
            if not any(re.match(rf"^{re.escape(name)}\s+failed_ops_ratio\s+\d+/\d+ ",
                                line) for line in lines):
                errors.append(f"{where}: no failed_ops_ratio row")
    return errors


def check_checks(scratch: Path) -> list[str]:
    """The checks must fail on a corrupted minimized.conf and on
    differing digests, and the digest must ignore wall-clock fields."""
    from conffuzz import campaign, grammar, target, triage

    m = {"grammar": grammar, "target": target, "triage": triage}
    out = scratch / "campaign"
    spec = target.TargetSpec.parse("builtin:gnb-validator")
    campaign.run_campaign(campaign.CampaignConfig(
        grammar_path=run.GRAMMAR, target=spec, out_dir=out, seed=1, max_execs=700))
    g = grammar.parse_grammar(run.GRAMMAR.read_text(encoding="utf-8"))
    crash_dirs = sorted(p.parent for p in (out / "crashes").glob("*/report.json"))
    errors = []
    if not crash_dirs:
        return ["the check campaign stored no crash"]
    for crash_dir in crash_dirs:
        if found := checks.check_crash_dir(crash_dir, g, spec, m):
            errors.append(f"intact crash flagged: {found}")

    before = checks.artifact_digest(out)
    stats_path = out / "stats.json"
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    stats.update(execs_per_sec=1.0, started_unix_ms=1, finished_unix_ms=2)
    stats_path.write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")
    if checks.artifact_digest(out) != before:
        errors.append("digest depends on wall-clock fields of stats.json")

    # a minimized input that no longer crashes: the known-good baseline
    victim = crash_dirs[0] / "minimized.conf"
    victim.write_text(
        (ROOT / "fixtures" / "table1" / "initial.conf").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    if not checks.check_crash_dir(crash_dirs[0], g, spec, m):
        errors.append("corrupted minimized.conf passed the crash check")
    after = checks.artifact_digest(out)
    if after == before:
        errors.append("digest did not change with minimized.conf")
    if not checks.check_repeats({"seed=1": [before, after]}):
        errors.append("mismatched digests passed the repeat check")
    if checks.check_repeats({"seed=1": [before, before]}):
        errors.append("equal digests failed the repeat check")

    unit = {"errors": [], "label": "seed=1", "digest": before,
            "crash_codes": sorted(run.REFERENCE_CODES)}
    if run.correctness("fuzz-builtin", [unit]):
        errors.append("the reference campaign check fails a complete campaign")
    if not run.correctness("fuzz-builtin", [{**unit, "crash_codes": [101, 102]}]):
        errors.append("the reference campaign check passes missing crash codes")
    return errors


def check_missing_program(scratch: Path) -> list[str]:
    """Without src/ the benchmark must exit non-zero and print no result."""
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(["--workload", "triage", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=bare)
    errors = []
    if proc.returncode == 0:
        errors.append("runs without the program")
    if '"metrics"' in proc.stdout:
        errors.append("prints a result without the program")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch = run.WORK / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        errors = check_checks(scratch) + check_missing_program(scratch)
        for name, budget in SMOKE.items():
            run.WORKLOADS[name] = {**run.WORKLOADS[name], **budget}
        errors += check_outputs(spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        run.remove_if_empty(run.WORK)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
