"""Grammar's one cost fixpoint against the two it replaced.

``grammar_reference`` computes the depth table (combine by max) and the
size table (combine by sum) as two separate fixpoints.  Over small random
grammars, dead tokens and references to undefined tokens included, the
merged fixpoint must give the same ``min_depth``, ``rule_depths`` and
``rule_sizes``, and ``Grammar`` must reject exactly the grammars with a
token that has no finite derivation.
"""

from __future__ import annotations

import grammar_reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conffuzz.grammar import Grammar, NoFiniteDerivationError, Rule, RuleItem

TOKENS = [f"<T{i}>" for i in range(5)]
# referenced but never defined, so its cost is infinite
UNDEFINED = "<GHOST>"

ITEMS = st.one_of(
    st.sampled_from(TOKENS + [UNDEFINED]).map(lambda t: RuleItem(t, True)),
    st.sampled_from(["a", "b", ""]).map(lambda s: RuleItem(s, False)),
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


@settings(max_examples=300, deadline=None)
@given(productions())
@example(LIVE)
@example(DEAD)
def test_one_fixpoint_matches_depth_and_size_fixpoints(prods):
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

