"""The mutation hot path against its reference.

``mutate_reference`` holds the operators, ``random_mutation``,
``sample_tree`` and ``minimal_tree`` as they were before their
input-independent work moved into tables built once: the draw table for
the weights, the grammar's swappable tokens, largest rule depths and
shared smallest trees, and a tree's graft pool.  The reference seeds its
own ``Random(seed)``; the package is handed that generator.  For the same
tree, donor and seed, with the default weights or one kind forced, both
must return an equal tree and the same kind, on ``grammars/gnb.json``
and on the random grammars of ``test_grammar_differential.py``.  The
package is handed the tree itself as its donor where the reference is
handed none and falls back to the tree.  Every token's minimal tree,
and every rule's smallest tree, must equal the one the reference's
recursion builds.  Drawn many times from one tree with one memo of
edits, ``random_mutation`` must give what it gives with a fresh memo
each time, draw by draw, and leave the generator in the same state.
"""

from __future__ import annotations

from random import Random

import mutate_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_grammar_differential import loaded

from conffuzz.grammar import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_START,
    DerivationTree,
    GrammarError,
    generate_tree,
    minimal_tree,
    parse_grammar,
    sample_tree,
)
from conffuzz.mutate import DEFAULT_WEIGHTS, MutationKind, random_mutation

from conftest import GRAMMAR_PATH, mutation

GNB = parse_grammar(GRAMMAR_PATH.read_text(encoding="utf-8"))
SEEDS = st.integers(0, 2**63 - 1)

# the default weights, or one kind alone
KINDS = st.one_of(st.none(), st.sampled_from(list(MutationKind)))


@st.composite
def gnb_case(draw):
    """Two gnb trees, the first possibly mutated already, as in a corpus."""
    tree = generate_tree(GNB, draw(SEEDS))
    donor = generate_tree(GNB, draw(SEEDS))
    if draw(st.booleans()):
        tree, _ = random_mutation(
            tree,
            GNB,
            Random(draw(SEEDS)),
            donor=donor,
            max_depth=DEFAULT_MAX_DEPTH,
            memo={},
        )
    return GNB, DEFAULT_MAX_DEPTH, tree, donor


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (GrammarError, ValueError, LookupError) as exc:
        return type(exc), str(exc)


def same_mutation(case, seed, kind, use_donor):
    g, depth, tree, donor = case
    # without a donor the reference splices from the tree itself, and the
    # package is handed the tree as its donor
    donor = donor if use_donor else None
    weights = None if kind is None else {kind: 1}
    got = outcome(mutation, tree, g, Random(seed), kind, donor=donor, max_depth=depth)
    want = outcome(
        mutate_reference.random_mutation,
        tree,
        g,
        seed,
        weights,
        donor=donor,
        max_depth=depth,
    )
    assert got == want
    same_with_memo(tree, g, seed, kind, donor, depth)


def same_with_memo(tree, g, seed, kind, donor, depth, draws=40):
    """Many draws from one tree, so that edits repeat: with one memo, each
    draw gives the tree and kind it gives with a fresh one, and leaves the
    generator in the same state.  Returns the memo and the mutants."""
    plain, memoized, memo, mutants = Random(seed), Random(seed), {}, []
    for _ in range(draws):
        kwargs = {"donor": donor, "max_depth": depth}
        want = outcome(mutation, tree, g, plain, kind, **kwargs)
        got = outcome(mutation, tree, g, memoized, kind, memo=memo, **kwargs)
        assert got == want
        assert memoized.getstate() == plain.getstate()
        mutants.append(got[0])
    return memo, mutants


@settings(max_examples=300, deadline=None)
@given(gnb_case(), SEEDS, KINDS, st.booleans())
def test_gnb_mutation_matches_reference(case, seed, kind, use_donor):
    same_mutation(case, seed, kind, use_donor)


@settings(max_examples=300, deadline=None)
@given(loaded(), SEEDS, KINDS, st.booleans())
def test_random_grammar_mutation_matches_reference(case, seed, kind, use_donor):
    same_mutation(case, seed, kind, use_donor)


def test_gnb_memo_answers_repeated_edits():
    tree = generate_tree(GNB, 1)
    donor = generate_tree(GNB, 2)
    memo, mutants = same_with_memo(
        tree, GNB, 7, None, donor, DEFAULT_MAX_DEPTH, draws=400
    )
    # the gnb tree has 8 slots of at most 8 values each: most edits repeat,
    # and a repeat returns the very mutant its first draw built
    assert len({id(m) for m in mutants}) < 200
    assert len(memo) < 200
    for (_, path, _), (mutant, kept) in memo.items():
        assert kept is tree and any(m is mutant for m in mutants)
        # a regenerated root is sampled anew and never kept; only a
        # splice of the donor's root replaces the root in the memo
        assert path or mutant is donor


@settings(max_examples=200, deadline=None)
@given(loaded(), SEEDS, st.integers(-1, 3), st.data())
def test_sample_tree_matches_reference(case, seed, slack, data):
    # budgets from one below a token's minimal depth to past its deepest
    # rule, so the rule filter is both skipped and applied
    g = case[0]
    token = data.draw(st.sampled_from(sorted(g.productions)))
    budget = g.min_depth(token) + slack
    got = outcome(sample_tree, g, token, budget, Random(seed))
    want = outcome(mutate_reference.sample_tree, g, token, budget, Random(seed))
    assert got == want


def same_smallest_trees(g):
    for token, rules in g.productions.items():
        assert minimal_tree(g, token) == mutate_reference.minimal_tree(g, token)
        for i, rule in enumerate(rules):
            children = tuple(mutate_reference.minimal_tree(g, r) for r in rule.refs)
            assert g.smallest(token, i) == DerivationTree(token, i, children)


@settings(max_examples=300, deadline=None)
@given(loaded())
def test_random_grammar_smallest_trees_match_reference(case):
    same_smallest_trees(case[0])


def test_gnb_smallest_trees_match_reference():
    same_smallest_trees(GNB)


def test_default_weights_match_reference():
    assert dict(DEFAULT_WEIGHTS) == mutate_reference.DEFAULT_WEIGHTS
    with pytest.raises(TypeError):
        DEFAULT_WEIGHTS[MutationKind.SPLICE] = 5  # type: ignore[index]


def test_start_token_samples_as_reference():
    for seed in range(50):
        assert sample_tree(GNB, DEFAULT_START, DEFAULT_MAX_DEPTH, Random(seed)) == (
            mutate_reference.sample_tree(
                GNB, DEFAULT_START, DEFAULT_MAX_DEPTH, Random(seed)
            )
        )
