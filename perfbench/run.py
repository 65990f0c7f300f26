"""conffuzz benchmark: end-to-end metrics per workload, or a per-layer split.

    python3 perfbench/run.py --workload fuzz-builtin --seed 1 --seconds 50 --trace 0

Workloads (closed loop, one measured unit at a time, each unit a fresh
interpreter started by this script):

  fuzz-builtin  campaigns on builtin:gnb-validator with one worker
  fuzz-exec     campaigns on an exec: target (the validator as a
                subprocess) with two workers, the thread-pooled loop
  triage        derive_tree + minimize + store for N crashing inputs,
                then load, tabulate and render the stored reports

``--seed`` picks the inputs: the campaign seeds of the fuzz workloads
(the first one is ``--seed`` itself, so seed 1 includes the reference
campaign) and the crashing inputs of triage.  The fixed set of units runs
first; then units repeat from the start while another one fits in
``--seconds``.  Each repeat must leave byte-identical artifacts.

Every unit first times a fixed reference workload that does not use
conffuzz.  Its times and rates are then scaled to a machine of the
reference speed, so that a shared machine that slows down for a minute
does not read as slower code; the ``slowdown`` row shows the factor.

Every line before the last is a human-readable report: each metric with
its median, its highest percentile that has at least ten samples beyond
it, the sample count and the unit, then the gated values and the artifact
digests.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
1 when a correctness check failed and 2 when the program to measure is not
there.  ``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GRAMMAR = ROOT / "grammars" / "gnb.json"
WORK = ROOT / ".perfbench_work"

# the input seeds of one run are ``seed + i * SEED_STRIDE``; a campaign
# also uses the next few seeds for its seed corpus and worker streams
SEED_STRIDE = 10_007
UNIT_TIMEOUT_S = 60

# ``seeds`` is the number of input seeds of one run: campaigns on the fuzz
# workloads, sets of ``inputs`` crashing inputs on triage.  On a 2-core
# machine a unit takes about 0.8 s (fuzz-builtin), 7 s (fuzz-exec) and
# 0.9 s (triage), so a 50 s run holds about 55, 7 and 50 units.  2000
# execs find all five planted buckets on nearly every seed.  How quickly
# inputs minimize differs from seed to seed, so a run spreads its units
# over many seeds.
WORKLOADS = {
    "fuzz-builtin": {
        "kind": "fuzz", "target": "builtin", "workers": 1,
        "execs": 2000, "seeds": 24,
    },
    "fuzz-exec": {
        "kind": "fuzz", "target": "exec", "workers": 2,
        "execs": 48, "seeds": 4,
    },
    "triage": {"kind": "triage", "inputs": 100, "seeds": 18},
}

# End-to-end metrics of the final JSON line: (name, unit, better).  Each
# value is the median over the run's untraced units, with every time and
# rate scaled to the reference speed (see ``derive``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("execs_per_s", "execs/s", "higher"),
    ("minimize_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
REFERENCE_CODES = {101, 102, 103, 104, 105}
# worker.calibrate's time for one pass of the reference workload on a
# 2-core x86-64 host.  A unit that times it at twice this ran on a machine
# half as fast at that moment, so its times are halved and its rates
# doubled.  The speed of a shared machine drifts by tens of percent over
# minutes; the scaling takes that drift out of the figures.
REFERENCE_S = 0.0022


class MissingProgramError(Exception):
    pass


# ---------------------------------------------------------------------------
# inputs


def triage_inputs(seed: int, count: int) -> list[str]:
    """``count`` distinct grammar inputs that crash the builtin target."""
    sys.path.insert(0, str(SRC))
    from conffuzz import grammar, target

    g = grammar.parse_grammar(GRAMMAR.read_text(encoding="utf-8"))
    spec = target.TargetSpec.parse("builtin:gnb-validator")
    rng = Random(seed)
    found: dict[str, None] = {}
    for _ in range(100 * count):
        text = grammar.unparse(grammar.generate_tree(g, rng.getrandbits(32)), g)
        if text not in found and target.execute(spec, text)[0].is_crash:
            found[text] = None
            if len(found) == count:
                return list(found)
    raise RuntimeError(f"seed {seed}: found only {len(found)} crashing inputs")


def plan(spec: dict, seed: int, trace: bool) -> tuple[list, int]:
    """The repeating cycle of (input label, job, traced) and how many of its
    first entries must run whatever the time."""
    seeds = [seed + i * SEED_STRIDE for i in range(spec["seeds"])]
    if spec["kind"] == "fuzz":
        jobs = [
            (f"seed={s}", {"kind": "fuzz", "seed": s, "target": spec["target"],
                           "workers": spec["workers"], "execs": spec["execs"]})
            for s in seeds
        ]
    else:
        jobs = [(f"seed={s}", {"kind": "triage", "seed": s}) for s in seeds]
    if trace:
        # each traced unit follows an untraced one on the same inputs: the
        # pair gives the tracing overhead and must leave identical artifacts
        cycle = [(label, job, t) for label, job in jobs for t in (False, True)]
        return cycle, len(cycle)
    cycle = [(label, job, False) for label, job in jobs]
    return cycle, len(cycle) + 1


# ---------------------------------------------------------------------------
# running units


def run_unit(work: Path, index: int, job: dict, traced: bool) -> dict:
    unit = work / f"unit-{index}"
    out, tmp = unit / "out", unit / "tmp"
    out.mkdir(parents=True)
    tmp.mkdir()
    job = {**job, "trace": traced, "out": str(out)}
    (unit / "job.json").write_text(json.dumps(job), encoding="utf-8")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ),
        "CONFFUZZ_TMPDIR": str(tmp),
    }
    argv = [sys.executable, str(HERE / "worker.py"), str(unit / "job.json"),
            str(unit / "result.json")]
    # the previous unit's files were just deleted; unflushed, the journal
    # work they leave behind makes this unit's file writes several times
    # slower, by an amount that depends on the timing
    os.sync()
    spawned = time.monotonic()
    proc = subprocess.run(
        argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=UNIT_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise RuntimeError(f"unit {index} exited {proc.returncode}: " + " | ".join(tail))
    res = json.loads((unit / "result.json").read_text(encoding="utf-8"))
    res["spawned"] = spawned
    res["traced"] = traced
    # what the program itself left in its temp dir
    res["tmp_leftover"] = sum(1 for _ in tmp.rglob("*"))
    shutil.rmtree(unit)
    return res


def derive(res: dict, kind: str) -> dict:
    """End-to-end readings of one unit, at the reference speed."""
    # the calibration runs first in the unit and is not the program's time
    t0 = res["spawned"] + res["calibration_s"]
    setup_end, done = res["setup_end"], res["done"]
    in_loop = sum(d for start, d in res["minimizations"] if start >= setup_end)
    # crashes in the seed corpus are minimized before the first mutation;
    # that is triage work, timed by minimize_p50_ms, and how much of it
    # there is depends on the seed far more than on the set-up code
    in_setup = sum(d for start, d in res["minimizations"] if start < setup_end)
    if kind == "fuzz":
        # stats.execs leaves out minimization's executions, so its time is
        # left out too; otherwise the rate would depend on the bucket count
        rate = res["loop_execs"] / (done - setup_end - in_loop)
    else:
        rate = res["execs"] / in_loop
    stores = res["store_times"]
    slowdown = res["reference_s"] / REFERENCE_S
    minimize_ms = [d * 1000 / slowdown for _, d in res["minimizations"]]
    return {
        "slowdown": slowdown,
        "minimize_ms": minimize_ms,
        "minimize_p50_ms": statistics.median(minimize_ms) if minimize_ms else None,
        "setup_s": (setup_end - t0 - in_setup) / slowdown,
        "wall_s": (done - t0) / slowdown,
        "execs_per_s": rate * slowdown,
        "peak_rss_mb": res["peak_rss_mb"],
        "time_to_all_buckets_s": (max(stores) - t0) / slowdown if stores else None,
    }


def measure(name: str, seed: int, seconds: float, trace: bool):
    spec = WORKLOADS[name]
    cycle, mandatory = plan(spec, seed, trace)
    work = WORK / f"run-{os.getpid()}-{name}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    units = []
    try:
        if spec["kind"] == "triage":
            for _, job, _ in cycle:
                inputs = work / f"inputs-{job['seed']}.json"
                if not inputs.exists():
                    inputs.write_text(json.dumps(
                        triage_inputs(job["seed"], spec["inputs"])), encoding="utf-8")
                job["inputs"] = str(inputs)
        started = time.monotonic()
        took: list[float] = []
        # past the fixed units, start another only if it should end in time
        while len(units) < mandatory or (
            time.monotonic() - started + statistics.median(took) < seconds
        ):
            i = len(units)
            label, job, traced = cycle[i % len(cycle)]
            t = time.monotonic()
            res = run_unit(work, i, job, traced)
            took.append(time.monotonic() - t)
            res["label"] = label
            res.update(derive(res, spec["kind"]))
            units.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        remove_if_empty(WORK)
    return spec, units


def remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:  # missing, or another run still uses it
        pass


# ---------------------------------------------------------------------------
# statistics and reports


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if len(values) * (1 - q) >= 10:
            best = (label, percentile(values, q))
    return best


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def first_per_label(units: list[dict]) -> list[dict]:
    seen, out = set(), []
    for u in units:
        if u["label"] not in seen:
            seen.add(u["label"])
            out.append(u)
    return out


def end_to_end(spec: dict, units: list[dict]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric, from the untraced units."""
    plain = [u for u in units if not u["traced"]]
    samples = {
        name: [u[name] for u in plain]
        for name in ("setup_s", "wall_s", "execs_per_s", "peak_rss_mb")
    }
    samples["minimize_ms"] = [d for u in plain for d in u["minimize_ms"]]
    samples["minimize_p50_ms"] = [
        u["minimize_p50_ms"] for u in plain if u["minimize_p50_ms"] is not None
    ]
    samples["slowdown"] = [u["slowdown"] for u in plain]
    samples["time_to_all_buckets_s"] = [
        u["time_to_all_buckets_s"] for u in plain if u["time_to_all_buckets_s"]
    ]
    distinct = first_per_label(plain)
    if spec["kind"] == "fuzz":
        samples["crash_buckets"] = [len(u["crash_codes"]) for u in distinct]
        samples["execs_to_all_buckets"] = [u["execs_to_all_buckets"] for u in distinct]
    else:
        samples["crash_buckets"] = [len(u["crash_keys"]) for u in distinct]
    return samples


def correctness(name: str, units: list[dict]) -> list[str]:
    errors = [e for u in units for e in u["errors"]]
    digests: dict[str, list[str]] = {}
    for u in units:
        digests.setdefault(u["label"], []).append(u["digest"])
    errors += checks.check_repeats(digests)
    if name == "fuzz-builtin":
        for u in first_per_label(units):
            missing = REFERENCE_CODES - set(u["crash_codes"])
            if u["label"] == "seed=1" and missing:
                errors.append(f"reference campaign missed crash codes {sorted(missing)}")
    return errors


def per_layer(spec: dict, units: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [u for u in units if u["traced"]]
    n = len(traced)
    counts: dict[str, float] = {}
    for u in traced:
        for k, v in u["trace"]["counts"].items():
            counts[k] = counts.get(k, 0) + v
    out: dict[str, tuple[float, str]] = {}
    for span in tracing.SPAN_NAMES:
        rows = [u["trace"]["spans"][span] for u in traced]
        durations = [d for r in rows for d in r["durations_us"]]
        out[f"{span}.calls"] = (sum(r["calls"] for r in rows) / n, "count")
        out[f"{span}.self_s"] = (sum(r["self_s"] for r in rows) / n, "s")
        out[f"{span}.us_p50"] = (percentile(durations, 0.5), "us")
        out[f"{span}.us_p99"] = (percentile(durations, 0.99), "us")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out["target.execute.wall_share"] = (statistics.mean(
        u["trace"]["spans"]["target.execute"]["busy_s"] / u["wall_s"] for u in traced),
        "ratio")

    picked = 0
    for kind in ("regenerate", "rule-swap", "splice", "scalar-tweak"):
        c = counts.get(f"mutate.picked.{kind}", 0)
        picked += c
        out[f"mutate.picked.{kind}"] = (c / n, "count")
    out["mutate.noop_ratio"] = (ratio(counts.get("mutate.noop", 0), picked), "ratio")
    execs = 0
    for kind in ("ok", "reject", "crash", "timeout"):
        c = counts.get(f"target.outcome.{kind}", 0)
        execs += c
        out[f"target.outcome.{kind}"] = (c / n, "count")
    campaign_execs = sum(u["execs"] for u in traced) if spec["kind"] == "fuzz" else 0
    out["target.execs_per_campaign_exec"] = (ratio(execs, campaign_execs), "ratio")
    out["target.child_cpu_ms_per_exec"] = (
        ratio(sum(u["child_cpu_s"] for u in traced) * 1000, execs), "ms")
    out["target.tmp_leftover_entries"] = (
        statistics.mean(u["tmp_leftover"] for u in units), "count")
    out["gnb_validator.reject_ratio"] = (ratio(
        counts.get("gnb_validator.reject", 0), counts.get("gnb_validator.validate", 0)),
        "ratio")
    out["campaign.novel_ratio"] = (ratio(
        counts.get("campaign.novel", 0), counts.get("campaign.should_keep", 0)), "ratio")
    if spec["kind"] == "fuzz":
        out["campaign.corpus_size"] = (
            statistics.median(u["corpus_size"] for u in traced), "count")
    else:
        out["campaign.corpus_size"] = (0, "count")
    out["campaign.self_us_per_exec"] = (ratio(
        sum(u["trace"]["spans"]["campaign.run_campaign"]["self_s"] for u in traced) * 1e6,
        campaign_execs), "us")
    calls = counts.get("triage.minimize_calls", 0)
    m_execs = counts.get("triage.minimize_execs", 0)
    out["triage.minimize_execs"] = (ratio(m_execs, calls), "count")
    out["triage.minimize_accept_ratio"] = (ratio(
        counts.get("triage.minimize_reproduced", 0) - calls, m_execs - calls), "ratio")
    out["triage.minimized_bytes_ratio"] = (ratio(
        counts.get("triage.minimized_bytes", 0), counts.get("triage.input_bytes", 0)),
        "ratio")
    plain_rate = statistics.median(u["execs_per_s"] for u in units if not u["traced"])
    traced_rate = statistics.median(u["execs_per_s"] for u in traced)
    out["trace.overhead_ratio"] = (plain_rate / traced_rate - 1, "ratio")
    return out


# every row of the human-readable report: (samples, unit)
REPORTED = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("execs_per_s", "execs/s"),
    ("time_to_all_buckets_s", "s"),
    ("execs_to_all_buckets", "count"),
    ("crash_buckets", "count"),
    ("minimize_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("slowdown", "ratio"),
)


def report(name: str, seed: int, trace: bool, seconds: float) -> dict:
    spec, units = measure(name, seed, seconds, trace)
    errors = correctness(name, units)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    samples = end_to_end(spec, units)

    print(f"== {name}  seed={seed}  units={len(units)}  trace={int(trace)}")
    for key, unit in REPORTED:
        values = samples.get(key)
        if not values:
            continue
        line = f"{name:13s} {key:22s} p50={statistics.median(values):<12.6g}"
        t = tail(values)
        if t:
            line += f" {t[0]}={t[1]:<12.6g}"
        print(f"{line} n={len(values):<5d} {unit}")
    print(f"{name:13s} {'failed_ops_ratio':22s} {failed}/{attempted} failed/attempted")
    leftovers = [u["tmp_leftover"] for u in units]
    print(f"{name:13s} {'tmp_leftover_entries':22s} p50={statistics.median(leftovers):g}"
          f" n={len(leftovers)} count")
    gated = {}
    for metric, unit, _ in END_TO_END:
        if not samples[metric]:
            errors.append(f"no samples for {metric}")
            continue
        gated[metric] = (statistics.median(samples[metric]), unit)
        print(f"{name:13s} {metric:22s} median of {len(samples[metric])} units "
              f"= {gated[metric][0]:.6g} {unit}")
    for u in first_per_label(units):
        print(f"digest {name} {u['label']} {u['digest']}")
    for e in errors:
        print(f"CHECK FAILED {name}: {e}")
    metrics = per_layer(spec, units) if trace else gated
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def check_program() -> None:
    for path in (SRC / "conffuzz" / "__init__.py", GRAMMAR):
        if not path.is_file():
            raise MissingProgramError(f"{path.relative_to(ROOT)} is missing")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its unit and removes its work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        check_program()
    except MissingProgramError as e:
        print(f"error: {e}; run from a conffuzz checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: report(name, args.seed, bool(args.trace), args.seconds)
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
