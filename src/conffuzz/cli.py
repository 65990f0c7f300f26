"""Command-line interface.

One executable, one subcommand per workflow:

  grammar-check   parse a grammar and report its shape
  gen             write deterministic sample configs from a grammar
  fuzz            run a coverage-guided campaign
  validate        run one config through a target and map the outcome
  minimize        shrink a crashing config while it still crashes
  triage          render the parameter table for stored or ad-hoc crashes
  explain         produce the parameter report from an autotest log

Exit codes are uniform: 0 success, 1 usage or configuration error,
2 target rejected the input (validate), 3 crash or timeout (validate),
4 internal or backend error.  Progress and diagnostics go to stderr;
stdout carries only the machine-readable product of each command.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from .campaign import CampaignConfig, run_campaign
from .configfmt import ConfigError, ParamPath
from .explain import (
    BackendError,
    backend_from_spec,
    explain_params,
    extract_unique_params,
    parse_test_log,
    write_report,
)
from .grammar import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_START,
    GrammarError,
    check_max_depth,
    derive_tree,
    generate_tree,
    parse_grammar,
    unparse,
)
from .target import OutcomeKind, SpawnFailureError, TargetSpec, execute
from .triage import (
    NonReproducibleError,
    dedup_key,
    extract_param_table,
    load_crash_report,
    make_crash_report,
    minimize,
    render_report,
)

__all__ = ["entry", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECT = 2
EXIT_CRASH = 3
EXIT_INTERNAL = 4

DEFAULT_TARGET = "builtin:gnb-validator"
# the integer fields of CampaignConfig that ``fuzz`` takes as flags of the
# same name, with the config's defaults
_CAMPAIGN_FLAGS = ("seed", "workers", "max_execs", "max_depth", "energy_per_entry")
PROGRESS_INTERVAL_S = 2.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # surface usage problems as our exit code 1, not argparse's 2
    def error(self, message):
        raise UsageError(message)


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _add_target_flags(sub) -> None:
    sub.add_argument(
        "--target",
        default=DEFAULT_TARGET,
        help="builtin:NAME or exec:TEMPLATE with {input} (default: %(default)s)",
    )
    sub.add_argument(
        "--timeout-ms",
        type=int,
        default=TargetSpec.timeout_ms,
        help="per-execution budget (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conffuzz", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grammar-check", help="parse and sanity-check a grammar")
    p.add_argument("grammar")
    p.set_defaults(func=cmd_grammar_check)

    p = sub.add_parser("gen", help="generate sample configs deterministically")
    p.add_argument("--grammar", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fuzz", help="run a fuzzing campaign")
    p.add_argument("--grammar", required=True)
    p.add_argument("--out", default="fuzz-out", help="campaign directory")
    for name in _CAMPAIGN_FLAGS:
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=int, default=getattr(CampaignConfig, name))
    _add_target_flags(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("validate", help="run one config through the target")
    p.add_argument("config")
    _add_target_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("minimize", help="shrink a crashing config")
    p.add_argument("config")
    p.add_argument("--grammar", required=True)
    p.add_argument("--out", help="write the result here instead of stdout")
    _add_target_flags(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("triage", help="render the crash parameter table")
    p.add_argument("cases", nargs="*", help="config files to run and tabulate")
    p.add_argument("--crashes", help="campaign crashes/ directory to load")
    p.add_argument("--watch", help="comma-separated parameter paths")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_target_flags(p)
    p.set_defaults(func=cmd_triage)

    p = sub.add_parser("explain", help="explain test parameters from a log")
    p.add_argument("--input", required=True, help="autotest log file")
    p.add_argument("--src", required=True, help="target source tree")
    p.add_argument("--backend", required=True, help="glossary:FILE or an http(s) URL")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_explain)

    return parser


def cmd_grammar_check(args) -> int:
    g = parse_grammar(_read(args.grammar))
    rules = sum(len(r) for r in g.productions.values())
    print(f"tokens: {len(g.productions)}")
    print(f"rules: {rules}")
    print(f"start: {DEFAULT_START}")
    print(f"min-depth: {g.min_depth(DEFAULT_START)}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.count < 0:
        raise UsageError(f"--count must be at least 0, not {args.count}")
    g = parse_grammar(_read(args.grammar))
    check_max_depth(g, args.max_depth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        tree = generate_tree(g, args.seed + k, args.max_depth)
        path = out / f"gen-{k}.conf"
        path.write_text(unparse(tree, g), encoding="utf-8")
        print(path)
    return EXIT_OK


def cmd_fuzz(args) -> int:
    started = last_print = time.monotonic()

    def progress(stats):
        nonlocal last_print
        now = time.monotonic()
        if now - last_print >= PROGRESS_INTERVAL_S:
            last_print = now
            rate = round(stats.execs / max(now - started, 1e-9), 1)
            print(
                f"[fuzz] execs={stats.execs} corpus={stats.corpus_size} "
                f"uniques={stats.crashes_unique} execs/s={rate}",
                file=sys.stderr,
            )

    cfg = CampaignConfig(
        grammar_path=args.grammar,
        target=TargetSpec.parse(args.target, args.timeout_ms),
        out_dir=args.out,
        progress=progress,
        **{name: getattr(args, name) for name in _CAMPAIGN_FLAGS},
    )
    stats = run_campaign(cfg)
    print(json.dumps(stats.as_dict(), indent=2))
    return EXIT_OK


_VALIDATE_EXITS = {
    OutcomeKind.OK: EXIT_OK,
    OutcomeKind.REJECT: EXIT_REJECT,
    OutcomeKind.CRASH: EXIT_CRASH,
    OutcomeKind.TIMEOUT: EXIT_CRASH,
}


def cmd_validate(args) -> int:
    spec = TargetSpec.parse(args.target, args.timeout_ms)
    outcome, _ = execute(spec, _read(args.config))
    line = outcome.kind.value
    if outcome.code is not None:
        line += f" code={outcome.code}"
    print(line)
    if outcome.stderr_excerpt:
        print(outcome.stderr_excerpt, file=sys.stderr)
    return _VALIDATE_EXITS[outcome.kind]


def _run_crashing(spec: TargetSpec, text: str, name: str):
    """The target's answer for ``text``, which must be a crash or timeout."""
    outcome, branches = execute(spec, text)
    if not outcome.is_crash:
        kind = outcome.kind.value
        raise UsageError(f"{name}: target did not crash (outcome: {kind})")
    return outcome, branches


def cmd_minimize(args) -> int:
    g = parse_grammar(_read(args.grammar))
    text = _read(args.config)
    tree = derive_tree(g, text)
    if tree is None:
        raise UsageError(f"{args.config}: input cannot be derived from the grammar")
    spec = TargetSpec.parse(args.target, args.timeout_ms)
    outcome, branches = _run_crashing(spec, text, args.config)
    key = dedup_key(outcome, branches)
    minimized = unparse(minimize(tree, g, spec, key), g)
    if args.out:
        Path(args.out).write_text(minimized, encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(minimized)
    return EXIT_OK


def cmd_triage(args) -> int:
    if bool(args.crashes) == bool(args.cases):
        raise UsageError("give either --crashes DIR or case files, not both")
    watch = None
    if args.watch:
        watch = [ParamPath.parse(s) for s in args.watch.split(",")]

    if args.crashes:
        crash_dirs = [d for d in Path(args.crashes).iterdir() if d.is_dir()]
        reports = [load_crash_report(d) for d in crash_dirs]
        reports.sort(key=lambda r: (r.first_seen_exec, r.dedup_key))
        names = None
    else:
        spec = TargetSpec.parse(args.target, args.timeout_ms)
        reports = []
        for i, case in enumerate(args.cases):
            text = _read(case)
            outcome, branches = _run_crashing(spec, text, case)
            reports.append(
                make_crash_report(dedup_key(outcome, branches), outcome, text, text, i)
            )
        names = [Path(c).stem for c in args.cases]

    table = extract_param_table(reports, watch=watch, names=names)
    sys.stdout.write(render_report(table, args.format))
    return EXIT_OK


def cmd_explain(args) -> int:
    tests = parse_test_log(_read(args.input))
    params = extract_unique_params(tests)
    backend = backend_from_spec(args.backend)
    try:
        infos = explain_params(params, backend, args.src)
    except BackendError as e:
        # flush what was resolved before the failure, then flag it
        sys.stdout.write(write_report(e.partial, tests, args.out))
        print(f"! backend error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(write_report(infos, tests, args.out))
    return EXIT_OK


def _terminate(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # SIGTERM unwinds like Ctrl-C: the target is killed and reaped, its
    # input deleted and the campaign's stats flushed
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.func(args)
    except BackendError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (
        UsageError,
        GrammarError,
        ConfigError,
        SpawnFailureError,
        NonReproducibleError,
        OSError,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # anything else is a bug in this tool
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        signal.signal(signal.SIGTERM, previous)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
