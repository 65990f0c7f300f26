"""Per-layer spans for conffuzz, recorded from outside the package.

``install`` replaces each traced function at every name its callers look
it up under (``campaign.execute`` and ``triage.execute`` are separate
bindings of ``target.execute``).  Every call becomes one span: name,
start, end, and the span that caused it.  A per-thread stack gives the
parent; a span opened on a pool thread with an empty stack hangs off the
outermost span open on the main thread, which is ``run_campaign`` in the
pooled loop.  Spans stay in memory until ``summary`` folds them into
per-layer numbers at the end of the process.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict

# (span name, module whose binding is replaced, attribute), one row per
# call site the package has.  The span name is the defining module's.
TRACED = (
    ("grammar.parse_grammar", "campaign", "parse_grammar"),
    ("grammar.parse_grammar", "grammar", "parse_grammar"),
    ("grammar.generate_tree", "campaign", "generate_tree"),
    ("grammar.derive_tree", "campaign", "derive_tree"),
    ("grammar.derive_tree", "grammar", "derive_tree"),
    ("grammar.unparse", "campaign", "unparse"),
    ("grammar.unparse", "triage", "unparse"),
    ("mutate.random_mutation", "campaign", "random_mutation"),
    ("target.execute", "campaign", "execute"),
    ("target.execute", "triage", "execute"),
    ("target.stable_hash64", "target", "stable_hash64"),
    ("target.stable_hash64", "triage", "stable_hash64"),
    ("configfmt.parse_config", "gnb_validator", "parse_config"),
    ("configfmt.parse_config", "triage", "parse_config"),
    ("gnb_validator.validate", "gnb_validator", "validate"),
    ("campaign.should_keep", "campaign", "should_keep"),
    ("campaign.run_campaign", "campaign", "run_campaign"),
    ("triage.minimize", "campaign", "minimize"),
    ("triage.minimize", "triage", "minimize"),
    ("triage.dedup_key", "campaign", "dedup_key"),
    ("triage.dedup_key", "triage", "dedup_key"),
    ("triage.store_crash_report", "campaign", "store_crash_report"),
    ("triage.store_crash_report", "triage", "store_crash_report"),
    ("triage.load_crash_report", "triage", "load_crash_report"),
    ("triage.extract_param_table", "triage", "extract_param_table"),
    ("triage.render_report", "triage", "render_report"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))

_PAUSED = ()


class Tracer:
    def __init__(self) -> None:
        # (span id, name, start, end, parent id or None)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._root: int | None = None
        # hooks update shared counters from pool threads
        self._hook_lock = threading.Lock()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        once the span is closed, so its bookkeeping is not timed."""

        def traced(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            elif stack is _PAUSED:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._root
            is_root = not stack and threading.current_thread() is self._main
            if is_root:
                self._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                self.spans.append((span_id, name, start, end, parent))
            if after is not None:
                # calls the hook makes are bookkeeping, not spans
                local.stack = _PAUSED
                try:
                    with self._hook_lock:
                        after(args, result)
                finally:
                    local.stack = stack
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self seconds, busy seconds (the union of
        its spans, which overlap across pool threads) and every duration
        in µs."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        out = {
            name: {"calls": 0, "self_s": 0.0, "durations_us": []}
            for name in SPAN_NAMES
        }
        for span_id, name, start, end, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - _covered(
                children.get(span_id, ()), start, end
            )
            row["durations_us"].append(round((end - start) * 1e6, 2))
            intervals[name].append((start, end))
        for name, row in out.items():
            row["busy_s"] = _covered(intervals[name], float("-inf"), float("inf"))
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``; children on
    pool threads overlap each other."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def install(tracer: Tracer, modules: dict):
    """Wrap every binding in ``TRACED`` and attach the layer counters.

    ``modules`` maps short module names to the imported conffuzz modules.
    Returns a function that puts the original bindings back.
    """
    counts = tracer.counts
    local = threading.local()
    dedup_key = modules["triage"].dedup_key
    unparse = modules["grammar"].unparse

    def after_mutation(args, result):
        mutant, kind = result
        counts[f"mutate.picked.{kind.value}"] += 1
        counts["mutate.noop"] += mutant == args[0]

    def after_execute(args, result):
        outcome, fb = result
        counts[f"target.outcome.{outcome.kind.value}"] += 1
        key = getattr(local, "minimize_key", None)
        if key is not None:
            counts["triage.minimize_execs"] += 1
            counts["triage.minimize_reproduced"] += (
                outcome.is_crash and dedup_key(outcome, fb) == key
            )

    def after_validate(args, result):
        counts["gnb_validator.validate"] += 1
        counts["gnb_validator.reject"] += result[0].kind.value == "reject"

    def after_should_keep(args, result):
        counts["campaign.should_keep"] += 1
        counts["campaign.novel"] += bool(result)

    def after_minimize(args, result):
        g = args[1]
        counts["triage.minimize_calls"] += 1
        counts["triage.input_bytes"] += len(unparse(args[0], g))
        counts["triage.minimized_bytes"] += len(unparse(result, g))

    hooks = {
        "mutate.random_mutation": after_mutation,
        "target.execute": after_execute,
        "gnb_validator.validate": after_validate,
        "campaign.should_keep": after_should_keep,
        "triage.minimize": after_minimize,
    }
    originals = []
    for name, module, attr in TRACED:
        mod = modules[module]
        originals.append((mod, attr, getattr(mod, attr)))
        fn = tracer.wrap(name, getattr(mod, attr), hooks.get(name))
        if name == "triage.minimize":
            fn = _with_key(fn, local)
        setattr(mod, attr, fn)

    def uninstall() -> None:
        for mod, attr, fn in reversed(originals):
            setattr(mod, attr, fn)

    return uninstall


def _with_key(minimize, local):
    """Publish the key being minimized, so executions can be classified."""

    def keyed(tree, g, target, key):
        outer = getattr(local, "minimize_key", None)
        local.minimize_key = key
        try:
            return minimize(tree, g, target, key)
        finally:
            local.minimize_key = outer

    return keyed
