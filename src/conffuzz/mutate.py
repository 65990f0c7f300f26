"""Structure-preserving mutations over derivation trees.

Every operator takes a valid tree and yields one edit of it: the path of
a node and a subtree for the same token, so the edited tree is valid for
the same grammar and mutated inputs always stay inside the grammar's
language.  Operators draw all randomness from the generator they are
handed, never seed one of their own, and yield no edit when no applicable
mutation site exists, which leaves the input unchanged.

``random_mutation`` picks one operator by the fixed ``DEFAULT_WEIGHTS``
and applies it, which is the per-iteration step of a fuzzing campaign.
A campaign hands it one worker's stream, so successive mutations continue
that stream instead of reseeding, and the corpus entry that splicing
grafts from.  It also hands it a memo of the edits made so far, keyed by
the tree, the path and the subtree, so an edit it repeats costs only its
draws.  ``random_mutation`` alone decides what the memo keeps.  A kept
mutant is unparsed and keeps its text, so one whose text is longer than
``_EDIT_CHARS`` (1024) characters is not kept, and neither is a freshly
sampled subtree's, which cannot repeat.  ``cache.keep`` keeps the memo
within ``_EDIT_ENTRIES`` (4096) edits: on ``gnb.json`` an entry, its new
root and its text included, is about 1 KiB, so at most ~4.2 MiB.  A
deeper grammar's entry also holds one new node per level of its edit's
path.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from itertools import accumulate
from random import Random
from types import MappingProxyType

from .cache import keep
from .grammar import (
    DerivationTree,
    Grammar,
    grammar_slot,
    replace_subtree,
    sample_tree,
    unparse,
)

__all__ = [
    "DEFAULT_WEIGHTS",
    "MutationKind",
    "random_mutation",
]

class MutationKind(enum.Enum):
    REGENERATE = "regenerate"
    RULE_SWAP = "rule-swap"
    SPLICE = "splice"
    SCALAR_TWEAK = "scalar-tweak"


# read-only, since the draw table below is built from it once
DEFAULT_WEIGHTS: Mapping[MutationKind, int] = MappingProxyType(
    {
        MutationKind.REGENERATE: 4,
        MutationKind.RULE_SWAP: 3,
        MutationKind.SPLICE: 2,
        MutationKind.SCALAR_TWEAK: 1,
    }
)


# walking a tuple is cheaper than iterating the enum class
_KINDS = tuple(MutationKind)

# the bounds of a memo of edits; see the module docstring
_EDIT_ENTRIES = 4096
_EDIT_CHARS = 1024


# the weights' total and their running sums in ``MutationKind`` order: a
# draw below a running sum, and not below the one before it, picks that
# sum's kind
_DEFAULT_DRAW = (
    sum(DEFAULT_WEIGHTS.values()),
    tuple(zip(accumulate(float(DEFAULT_WEIGHTS[kind]) for kind in _KINDS), _KINDS)),
)

# what an operator returns: the path of the node it replaces, and the
# subtree that takes its place
_Edit = tuple[tuple[int, ...], DerivationTree]


def _regenerate(
    t: DerivationTree, g: Grammar, rng: Random, max_depth: int
) -> _Edit:
    sites = t.paths
    path, node = sites[rng.randrange(len(sites))]
    # never drop below the minimal finite depth, even for deep nodes
    budget = max(max_depth - len(path), g.min_depth(node.token))
    return path, sample_tree(g, node.token, budget, rng)


def _swap_sites(t: DerivationTree, g: Grammar) -> list:
    swappable = g.swappable
    return [(path, node) for path, node in t.paths if node.token in swappable]


def _rule_swap(t: DerivationTree, g: Grammar, rng: Random) -> _Edit | None:
    sites = grammar_slot(t, g, "_swap_sites", _swap_sites)
    if not sites:
        return None
    path, node = sites[rng.randrange(len(sites))]
    idx = rng.randrange(len(g.productions[node.token]) - 1)
    if idx >= node.rule_index:
        idx += 1
    # the new rule's children are minimal
    return path, g.smallest(node.token, idx)


def _splice(
    t: DerivationTree, donor: DerivationTree, g: Grammar, rng: Random
) -> _Edit | None:
    pool = donor.grafts
    sites = [(path, node) for path, node in t.paths if node.token in pool]
    if not sites:
        return None
    path, node = sites[rng.randrange(len(sites))]
    grafts = pool[node.token]
    return path, grafts[rng.randrange(len(grafts))]


def _tweak_sites(t: DerivationTree, g: Grammar) -> list:
    return [
        (path, node, options)
        for path, node in t.paths
        if (options := g.numeric_steps(node.token, node.rule_index))
    ]


def _scalar_tweak(t: DerivationTree, g: Grammar, rng: Random) -> _Edit | None:
    sites = grammar_slot(t, g, "_tweak_sites", _tweak_sites)
    if not sites:
        return None
    path, node, options = sites[rng.randrange(len(sites))]
    idx = options[rng.randrange(len(options))]
    return path, g.smallest(node.token, idx)


def random_mutation(
    t: DerivationTree,
    g: Grammar,
    rng: Random,
    *,
    donor: DerivationTree,
    max_depth: int,
    memo: dict,
) -> tuple[DerivationTree, MutationKind]:
    """Apply one operator, drawn from ``rng`` by ``DEFAULT_WEIGHTS``;
    returns the tree and the kind.

    Splicing grafts from ``donor``, and regeneration samples within
    ``max_depth``.  An edit made to the same tree before, found in
    ``memo``, which the caller holds, returns the mutant it built then,
    which keeps its text: the draws are the same, and only
    ``replace_subtree`` and ``unparse`` are skipped.
    """
    total, steps = _DEFAULT_DRAW
    x = rng.random() * total
    chosen = MutationKind.SCALAR_TWEAK
    for acc, kind in steps:
        if x < acc:
            chosen = kind
            break

    if chosen is MutationKind.REGENERATE:
        edit = _regenerate(t, g, rng, max_depth)
    elif chosen is MutationKind.RULE_SWAP:
        edit = _rule_swap(t, g, rng)
    elif chosen is MutationKind.SPLICE:
        edit = _splice(t, donor, g, rng)
    else:
        edit = _scalar_tweak(t, g, rng)
    if edit is None:
        return t, chosen
    path, subtree = edit
    # An entry holds the tree and the mutant, and the mutant holds the
    # subtree, so neither id is reused while the entry stands.
    key = (id(t), path, id(subtree))
    known = memo.get(key)
    if known is not None:
        return known[0], chosen
    mutant = replace_subtree(t, path, subtree)
    # a sampled subtree with children is a new object, so its edit can
    # never repeat; a shared leaf can.  A kept mutant keeps its text.
    if chosen is not MutationKind.REGENERATE or not subtree.children:
        if len(unparse(mutant, g)) <= _EDIT_CHARS:
            keep(memo, key, (mutant, t), _EDIT_ENTRIES)
    return mutant, chosen
