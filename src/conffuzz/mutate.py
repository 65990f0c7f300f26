"""Structure-preserving mutations over derivation trees.

Every operator takes a valid tree and returns a valid tree for the same
grammar, so mutated inputs always stay inside the grammar's language.
Operators draw all randomness from the generator they are handed, never
seed one of their own, and fall back to returning the input unchanged when
no applicable mutation site exists.

``random_mutation`` picks one operator by configurable weight and applies
it, which is the per-iteration step of a fuzzing campaign; a single-entry
weight dict such as ``{MutationKind.SPLICE: 1}`` forces one operator.  A
campaign hands it one worker's stream, so successive mutations continue
that stream instead of reseeding.
"""

from __future__ import annotations

import enum
from random import Random
from types import MappingProxyType
from typing import Mapping, Optional

from .grammar import (
    DEFAULT_MAX_DEPTH,
    DerivationTree,
    Grammar,
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


class AllZeroWeightsError(ValueError):
    pass


def _draw_table(
    weights: Mapping[MutationKind, float],
) -> tuple[float, tuple[tuple[float, MutationKind], ...]]:
    """The weights' total and their running sums in ``MutationKind`` order:
    a draw below a running sum, and not below the one before it, picks
    that sum's kind."""
    for kind, w in weights.items():
        if w < 0:
            raise ValueError(f"negative weight for {kind.value}: {w}")
    total = sum(weights.get(kind, 0) for kind in _KINDS)
    if total <= 0:
        raise AllZeroWeightsError("all mutation weights are zero")
    steps = []
    acc = 0.0
    for kind in _KINDS:
        acc += weights.get(kind, 0)
        steps.append((acc, kind))
    return total, tuple(steps)


_DEFAULT_DRAW = _draw_table(DEFAULT_WEIGHTS)


def _regenerate(
    t: DerivationTree, g: Grammar, rng: Random, max_depth: int
) -> DerivationTree:
    sites = t.paths
    path, node = sites[rng.randrange(len(sites))]
    # never drop below the minimal finite depth, even for deep nodes
    budget = max(max_depth - len(path), g.min_depth(node.token))
    return replace_subtree(t, path, sample_tree(g, node.token, budget, rng))


def _rule_swap(t: DerivationTree, g: Grammar, rng: Random) -> DerivationTree:
    swappable = g.swappable
    sites = [(path, node) for path, node in t.paths if node.token in swappable]
    if not sites:
        return t
    path, node = sites[rng.randrange(len(sites))]
    idx = rng.randrange(len(g.productions[node.token]) - 1)
    if idx >= node.rule_index:
        idx += 1
    # the new rule's children are minimal
    return replace_subtree(t, path, g.smallest(node.token, idx))


def _splice(
    t: DerivationTree, donor: DerivationTree, g: Grammar, rng: Random
) -> DerivationTree:
    pool = donor.grafts
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
    return replace_subtree(t, path, g.smallest(node.token, idx))


def random_mutation(
    t: DerivationTree,
    g: Grammar,
    rng: Random,
    weights: Optional[Mapping[MutationKind, float]] = None,
    *,
    donor: Optional[DerivationTree] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[DerivationTree, MutationKind]:
    """Apply one weighted-random operator drawn from ``rng``; returns the
    tree and the kind.

    A kind missing from ``weights`` gets weight zero, so passing a
    single-entry dict forces that operator.  Splicing uses ``donor`` as
    the source of grafts and falls back to the input tree itself.
    """
    total, steps = _DEFAULT_DRAW if weights is None else _draw_table(weights)
    x = rng.random() * total
    chosen = MutationKind.SCALAR_TWEAK
    for acc, kind in steps:
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
