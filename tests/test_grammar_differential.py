"""Grammar's one cost fixpoint against the two it replaced, and two
properties over random grammars.

``grammar_reference`` computes the depth table (combine by max) and the
size table (combine by sum) as two separate fixpoints.  Over small random
grammars, dead tokens included, the merged fixpoint must give the same
``min_depth``, ``rule_depths`` and ``rule_sizes``.  ``Grammar`` must
reject exactly the grammars with a reference to an undefined token, and
of the rest exactly those with a token that has no finite derivation.

The same random grammars, each given the rules that make it load, must
also keep every mutation operator closed over the grammar and every tree
that ``derive_tree`` recovers from a tree's text unparsing to that text.
"""

from __future__ import annotations

import json
from random import Random

import grammar_reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conffuzz.grammar import (
    DEFAULT_START,
    Grammar,
    NoFiniteDerivationError,
    Rule,
    RuleItem,
    UndefinedTokenRefError,
    derive_tree,
    generate_tree,
    parse_grammar,
    unparse,
)
from conffuzz.mutate import MutationKind

from conftest import mutation

TOKENS = [f"<T{i}>" for i in range(5)]
# referenced but never defined, which ``Grammar`` rejects, as it rejects
# a reference to a token past the ones a grammar defines
UNDEFINED = "<GHOST>"

# integer literals give scalar-tweak its sites
LITERALS = st.sampled_from(["a", "b", "", "0", "7"]).map(lambda s: RuleItem(s, False))
ITEMS = st.one_of(
    st.sampled_from(TOKENS + [UNDEFINED]).map(lambda t: RuleItem(t, True)), LITERALS
)
RULES = st.lists(ITEMS, max_size=4).map(lambda items: Rule(tuple(items)))


@st.composite
def productions(draw):
    count = draw(st.integers(1, len(TOKENS)))
    return {
        token: tuple(draw(st.lists(RULES, max_size=3)))
        for token in TOKENS[:count]
    }


LIVE = {"<T0>": (Rule((RuleItem("a", False),)),)}
DEAD = {"<T0>": (Rule((RuleItem("<T0>", True),)),), "<T1>": ()}


# most random grammars hold an undefined reference, so this draws enough
# for about 300 that reach the table comparison or the dead-token check
@settings(max_examples=700, deadline=None)
@given(productions())
@example(LIVE)
@example(DEAD)
def test_one_fixpoint_matches_depth_and_size_fixpoints(prods):
    undefined = [
        ref
        for rules in prods.values()
        for rule in rules
        for ref in rule.refs
        if ref not in prods
    ]
    if undefined:
        with pytest.raises(UndefinedTokenRefError) as err:
            Grammar(prods)
        assert str(err.value).endswith(f"undefined token {undefined[0]!r}")
        return
    depth, rule_depths = grammar_reference._depth_tables(prods)
    _, rule_sizes = grammar_reference._size_tables(prods)
    dead = grammar_reference.dead_tokens(prods)
    if dead:
        with pytest.raises(NoFiniteDerivationError) as err:
            Grammar(prods)
        assert str(err.value).endswith(", ".join(dead))
        return
    g = Grammar(prods)
    for token in prods:
        assert g.min_depth(token) == depth[token]
        assert g.rule_depths(token) == rule_depths[token]
        assert g.rule_sizes(token) == rule_sizes[token]



def _grammar_json(prods) -> str:
    """``prods`` as grammar JSON text, ``<T0>`` being the start token."""

    def name(text: str) -> str:
        return DEFAULT_START if text == TOKENS[0] else text

    return json.dumps(
        {
            name(token): [[name(item.text) for item in rule.items] for rule in rules]
            for token, rules in prods.items()
        }
    )


@st.composite
def loaded(draw):
    """A random grammar that loads, a depth bound it fits, and two trees.

    Lax loading turns a reference to an undefined token into a literal,
    as it does for a grammar file.  Each token of the random productions
    gets one more rule, put among its others, that refers only to the
    tokens after it, so the last token's holds only literals and every
    token derives a finite tree: the grammar always loads, and no draw is
    thrown away.  The depth bound stays within two levels of the minimum
    so that a branching grammar keeps its trees small.
    """
    prods = draw(productions())
    tokens = list(prods)
    for i, token in enumerate(tokens):
        later = st.sampled_from(tokens[i + 1 :] + [UNDEFINED])
        items = st.one_of(later.map(lambda t: RuleItem(t, True)), LITERALS)
        grounded = Rule(tuple(draw(st.lists(items, max_size=4))))
        rules = prods[token]
        at = draw(st.integers(0, len(rules)))
        prods[token] = rules[:at] + (grounded,) + rules[at:]
    g = parse_grammar(_grammar_json(prods), strict=False)
    depth = g.min_depth(DEFAULT_START) + draw(st.integers(0, 2))
    seeds = st.integers(0, 2**32)
    tree = generate_tree(g, draw(seeds), depth)
    donor = generate_tree(g, draw(seeds), depth)
    return g, depth, tree, donor


@settings(max_examples=200, deadline=None)
@given(loaded(), st.integers(0, 2**32))
def test_every_operator_is_closed_over_random_grammars(case, seed):
    g, depth, tree, donor = case
    for kind in MutationKind:
        out, picked = mutation(
            tree, g, Random(seed), kind, donor=donor, max_depth=depth
        )
        assert picked is kind
        unparse(out, g)


@settings(max_examples=200, deadline=None)
@given(loaded())
def test_derived_tree_unparses_to_its_text(case):
    g, _, tree, _ = case
    text = unparse(tree, g)
    derived = derive_tree(g, text)
    if derived is not None:
        assert unparse(derived, g) == text
