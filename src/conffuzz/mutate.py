"""Structure-preserving mutations over derivation trees.

Every operator takes a valid tree and returns a valid tree for the same
grammar, so mutated inputs always stay inside the grammar's language.
Operators draw all randomness from a seeded generator and fall back to
returning the input unchanged when no applicable mutation site exists.

``random_mutation`` picks one operator by configurable weight and applies
it, which is the per-iteration step of a fuzzing campaign; a single-entry
weight dict such as ``{MutationKind.SPLICE: 1}`` forces one operator.
"""

from __future__ import annotations

import enum
from random import Random
from typing import Optional

from .grammar import (
    DEFAULT_MAX_DEPTH,
    DerivationTree,
    Grammar,
    minimal_tree,
    replace_subtree,
    sample_tree,
)

__all__ = [
    "AllZeroWeightsError",
    "DEFAULT_WEIGHTS",
    "MutationKind",
    "random_mutation",
]

class MutationKind(enum.Enum):
    REGENERATE = "regenerate"
    RULE_SWAP = "rule-swap"
    SPLICE = "splice"
    SCALAR_TWEAK = "scalar-tweak"


DEFAULT_WEIGHTS: dict[MutationKind, int] = {
    MutationKind.REGENERATE: 4,
    MutationKind.RULE_SWAP: 3,
    MutationKind.SPLICE: 2,
    MutationKind.SCALAR_TWEAK: 1,
}


class AllZeroWeightsError(ValueError):
    pass


def _regenerate(
    t: DerivationTree, g: Grammar, rng: Random, max_depth: int
) -> DerivationTree:
    sites = t.paths
    path, node = sites[rng.randrange(len(sites))]
    # never drop below the minimal finite depth, even for deep nodes
    budget = max(max_depth - len(path), g.min_depth(node.token))
    return replace_subtree(t, path, sample_tree(g, node.token, budget, rng))


def _rule_swap(t: DerivationTree, g: Grammar, rng: Random) -> DerivationTree:
    sites = [
        (path, node)
        for path, node in t.paths
        if len(g.productions[node.token]) >= 2
    ]
    if not sites:
        return t
    path, node = sites[rng.randrange(len(sites))]
    rules = g.productions[node.token]
    idx = rng.randrange(len(rules) - 1)
    if idx >= node.rule_index:
        idx += 1
    children = tuple(minimal_tree(g, ref) for ref in rules[idx].refs)
    return replace_subtree(t, path, DerivationTree(node.token, idx, children))


def _splice(
    t: DerivationTree, donor: DerivationTree, g: Grammar, rng: Random
) -> DerivationTree:
    pool: dict[str, list[DerivationTree]] = {}
    for _, node in donor.paths:
        pool.setdefault(node.token, []).append(node)
    sites = [(path, node) for path, node in t.paths if node.token in pool]
    if not sites:
        return t
    path, node = sites[rng.randrange(len(sites))]
    grafts = pool[node.token]
    return replace_subtree(t, path, grafts[rng.randrange(len(grafts))])


def _scalar_tweak(t: DerivationTree, g: Grammar, rng: Random) -> DerivationTree:
    sites = [
        (path, node, options)
        for path, node in t.paths
        if (options := g.numeric_steps(node.token, node.rule_index))
    ]
    if not sites:
        return t
    path, node, options = sites[rng.randrange(len(sites))]
    idx = options[rng.randrange(len(options))]
    return replace_subtree(t, path, DerivationTree(node.token, idx))


def random_mutation(
    t: DerivationTree,
    g: Grammar,
    seed: int,
    weights: Optional[dict[MutationKind, float]] = None,
    *,
    donor: Optional[DerivationTree] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[DerivationTree, MutationKind]:
    """Apply one weighted-random operator; returns the tree and the kind.

    A kind missing from ``weights`` gets weight zero, so passing a
    single-entry dict forces that operator.  Splicing uses ``donor`` as
    the source of grafts and falls back to the input tree itself.
    """
    table = DEFAULT_WEIGHTS if weights is None else weights
    for kind, w in table.items():
        if w < 0:
            raise ValueError(f"negative weight for {kind.value}: {w}")
    total = sum(table.get(kind, 0) for kind in MutationKind)
    if total <= 0:
        raise AllZeroWeightsError("all mutation weights are zero")

    rng = Random(seed)
    x = rng.random() * total
    chosen = MutationKind.SCALAR_TWEAK
    acc = 0.0
    for kind in MutationKind:
        acc += table.get(kind, 0)
        if x < acc:
            chosen = kind
            break

    if chosen is MutationKind.REGENERATE:
        return _regenerate(t, g, rng, max_depth), chosen
    if chosen is MutationKind.RULE_SWAP:
        return _rule_swap(t, g, rng), chosen
    if chosen is MutationKind.SPLICE:
        return _splice(t, donor if donor is not None else t, g, rng), chosen
    return _scalar_tweak(t, g, rng), chosen
