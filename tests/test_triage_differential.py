"""minimize against the reference that re-ran every failed candidate.

Two grammars are used.  ``gnb.json`` is flat (the root plus eight value
slots), so the only failed path that survives an accepted replacement
there is the root.  ``NESTED`` wraps lists in parentheses, and its probe
target keys a crash on the nesting depth, so replacements are accepted
below nodes whose own candidate failed: the skipped ancestors are not
only the root.  The probe's crash id is the first crashing digit, so a
candidate that failed can succeed after a replacement beside it, which
is why only ancestors are skipped.

Both versions must return equal trees, the new one with no more target
executions, never with more nodes than its input, and with a result that
still reproduces the key.

The random grammars of ``test_grammar_differential.py`` check the last
two claims of ``minimize`` alone, on a probe that crashes on any text
but the empty one.

On all three, ``minimize`` handed a memo-backed function, as a campaign
hands it one, must return the tree it returns with the target spec and
ask for the same texts in the same order.
"""

from __future__ import annotations

import json

import triage_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_grammar_differential import loaded

from conffuzz import triage
from conffuzz.grammar import (
    derive_tree,
    generate_tree,
    parse_grammar,
    tree_size,
    unparse,
)
from conffuzz.target import (
    ExecOutcome,
    OutcomeKind,
    TargetSpec,
    execute,
    register_builtin,
)

NESTED = parse_grammar(
    json.dumps(
        {
            "<START>": [["<LIST>"]],
            "<LIST>": [["<ITEM>"], ["<ITEM>", " ", "<LIST>"]],
            "<ITEM>": [["x"], ["(", "<LIST>", ")"], ["<DIGIT>"]],
            "<DIGIT>": [[str(d)] for d in range(10)],
        }
    )
)


def _nesting_probe(text: str) -> tuple[ExecOutcome, frozenset[str]]:
    """Crashes on a digit from 7 to 9, the first one being the crash id,
    like the first failing check in the demo validator.  The one branch
    is the parenthesis depth, capped at 2."""
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    branches = frozenset({f"depth:{min(deepest, 2)}"})
    first = next((int(ch) for ch in text if ch in "789"), 0)
    if first:
        return ExecOutcome(OutcomeKind.CRASH, first), branches
    return ExecOutcome(OutcomeKind.OK), branches


# texts of NESTED, with a crashing digit in about every other item
ITEMS = st.recursive(
    st.sampled_from(["x", "0", "4", "7", "8", "9"]),
    lambda inner: st.lists(inner, min_size=1, max_size=4).map(
        lambda items: "(" + " ".join(items) + ")"
    ),
    max_leaves=12,
)
NESTED_TEXTS = st.lists(ITEMS, min_size=1, max_size=5).map(" ".join)


register_builtin("nesting-probe", _nesting_probe)
PROBE = TargetSpec.parse("builtin:nesting-probe")
VALIDATOR = TargetSpec.parse("builtin:gnb-validator")


def crashing_tree(g, seed):
    """The first generated tree from ``seed`` on that crashes the validator."""
    for s in range(seed, seed + 1000):
        tree = generate_tree(g, s)
        outcome, branches = execute(VALIDATOR, unparse(tree, g))
        if outcome.is_crash:
            return tree, triage.dedup_key(outcome, branches)
    raise AssertionError(f"no crashing tree from seed {seed}")


def counted(module, fn, *args):
    """``fn(*args)`` and the outcomes of the executions it made through
    ``module.execute``."""
    real = module.execute
    outcomes = []

    def counting(spec, text, **kwargs):
        result = real(spec, text, **kwargs)
        outcomes.append(result)
        return result

    module.execute = counting
    try:
        return fn(*args), outcomes
    finally:
        module.execute = real


def check_against_reference(tree, g, spec, key):
    ref, ref_runs = counted(
        triage_reference, triage_reference.reference_minimize, tree, g, spec, key
    )
    new, new_runs = counted(triage, triage.minimize, tree, g, spec, key)
    assert new == ref
    assert len(new_runs) <= len(ref_runs)
    assert tree_size(new) <= tree_size(tree)
    outcome, branches = execute(spec, unparse(new, g))
    assert outcome.is_crash and triage.dedup_key(outcome, branches) == key
    return ref_runs, new_runs


@settings(max_examples=200, deadline=None)
@given(NESTED_TEXTS)
def test_nested_grammar_agrees(text):
    outcome, branches = execute(PROBE, text)
    assume(outcome.is_crash)
    tree = derive_tree(NESTED, text)
    check_against_reference(tree, NESTED, PROBE, triage.dedup_key(outcome, branches))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gnb_grammar_agrees(gnb_grammar, seed):
    tree, key = crashing_tree(gnb_grammar, seed)
    check_against_reference(tree, gnb_grammar, VALIDATOR, key)


def probe_key(text: str) -> str:
    return triage.dedup_key(*execute(PROBE, text))


def test_skips_failed_ancestors_below_the_root():
    # "(x x 4 x) 9 0" must keep its parentheses (depth 1) and its 9.  The
    # LIST under the root and the parenthesised ITEM fail once; the ITEM
    # stays skipped while the list inside it is replaced, and the LIST
    # stays skipped through that and the replacement of the 0
    text = "(x x 4 x) 9 0"
    key = probe_key(text)
    ref_runs, new_runs = check_against_reference(
        derive_tree(NESTED, text), NESTED, PROBE, key
    )
    accepted = sum(o.is_crash and triage.dedup_key(o, f) == key for o, f in new_runs) - 1
    # skipping the root saves one execution per accepted replacement at
    # most; any further saving is a skipped ancestor below the root
    assert len(ref_runs) - len(new_runs) > accepted


def test_retries_a_failed_candidate_beside_the_replacement():
    # dropping the first 7 fails while the 8 would become the first
    # crashing digit; once the 8 is gone it succeeds, the (7) taking over
    text = "7 8 (7)"
    out = triage.minimize(derive_tree(NESTED, text), NESTED, PROBE, probe_key(text))
    assert unparse(out, NESTED) == "x x (7)"


def _length_probe(text: str) -> tuple[ExecOutcome, frozenset[str]]:
    """Crashes on any text but the empty one, the crash id being its
    length capped at 3; the branches are the text's distinct characters."""
    if not text:
        return ExecOutcome(OutcomeKind.OK), frozenset()
    return ExecOutcome(OutcomeKind.CRASH, min(len(text), 3)), frozenset(text)


register_builtin("length-probe", _length_probe)
LENGTH = TargetSpec.parse("builtin:length-probe")


@settings(max_examples=200, deadline=None)
@given(loaded())
def test_minimize_never_grows_and_keeps_the_key_over_random_grammars(case):
    g, _, tree, _ = case
    outcome, branches = execute(LENGTH, unparse(tree, g))
    assume(outcome.is_crash)
    key = triage.dedup_key(outcome, branches)
    out = triage.minimize(tree, g, LENGTH, key)
    unparse(out, g)
    assert tree_size(out) <= tree_size(tree)
    outcome, branches = execute(LENGTH, unparse(out, g))
    assert outcome.is_crash and triage.dedup_key(outcome, branches) == key


def check_memo_against_spec(tree, g, spec, key):
    """minimize handed a function that answers from a memo, as a campaign
    hands it one, returns the tree it returns with the spec, and is asked
    for the texts the spec runs through ``triage.execute``, in the same
    order."""
    ran = []
    real = triage.execute

    def running(spec, text):
        ran.append(text)
        return real(spec, text)

    def elsewhere(spec, text):
        raise AssertionError("minimize ran the target past the function")

    # the campaign holds the crash's answer before it minimizes it
    text = unparse(tree, g)
    memo, asked = {text: execute(spec, text)}, []

    def answer(text):
        asked.append(text)
        if text not in memo:
            memo[text] = execute(spec, text)
        return memo[text]

    try:
        triage.execute = running
        by_spec = triage.minimize(tree, g, spec, key)
        triage.execute = elsewhere
        by_memo = triage.minimize(tree, g, answer, key)
    finally:
        triage.execute = real
    assert by_memo == by_spec
    assert asked == ran


@settings(max_examples=100, deadline=None)
@given(NESTED_TEXTS)
def test_memo_backed_minimize_agrees_on_the_nested_grammar(text):
    outcome, branches = execute(PROBE, text)
    assume(outcome.is_crash)
    tree = derive_tree(NESTED, text)
    check_memo_against_spec(tree, NESTED, PROBE, triage.dedup_key(outcome, branches))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memo_backed_minimize_agrees_on_the_gnb_grammar(gnb_grammar, seed):
    tree, key = crashing_tree(gnb_grammar, seed)
    check_memo_against_spec(tree, gnb_grammar, VALIDATOR, key)


@settings(max_examples=100, deadline=None)
@given(loaded())
def test_memo_backed_minimize_agrees_over_random_grammars(case):
    g, _, tree, _ = case
    outcome, branches = execute(LENGTH, unparse(tree, g))
    assume(outcome.is_crash)
    check_memo_against_spec(tree, g, LENGTH, triage.dedup_key(outcome, branches))
