"""The mutation hot path as it was before its input-independent work
moved into tables built once: the four operators, ``random_mutation``,
``sample_tree`` and ``minimal_tree``, each recomputing its weights, rule
eligibility, site lists, graft pool and smallest trees on every call
(``minimal_tree`` only once per token and grammar).

Kept only as the reference that ``test_mutate_differential.py`` compares
``conffuzz.mutate`` against; the package does not use it.
"""

from __future__ import annotations

from random import Random
from typing import Optional

from conffuzz.grammar import (
    DEFAULT_MAX_DEPTH,
    DepthInfeasibleError,
    DerivationTree,
    Grammar,
    replace_subtree,
)
from conffuzz.mutate import MutationKind


class AllZeroWeightsError(ValueError):
    pass


DEFAULT_WEIGHTS: dict[MutationKind, int] = {
    MutationKind.REGENERATE: 4,
    MutationKind.RULE_SWAP: 3,
    MutationKind.SPLICE: 2,
    MutationKind.SCALAR_TWEAK: 1,
}


def minimal_tree(g: Grammar, token: str) -> DerivationTree:
    """The canonical smallest derivation of token (lowest rule index on ties)."""
    # the reference's own per-grammar cache, apart from the grammar's tables
    cache = g.__dict__.setdefault("_reference_minimal_cache", {})
    cached = cache.get(token)
    if cached is not None:
        return cached
    sizes = g.rule_sizes(token)
    best = min(range(len(sizes)), key=sizes.__getitem__)
    rule = g.productions[token][best]
    tree = DerivationTree(
        token, best, tuple(minimal_tree(g, ref) for ref in rule.refs)
    )
    cache[token] = tree
    return tree


def sample_tree(g: Grammar, token: str, budget: int, rng: Random) -> DerivationTree:
    """Sample a derivation of ``token`` within ``budget`` depth levels.

    Rules are drawn uniformly among those whose minimal completion still fits
    the remaining budget; the caller must pass budget >= g.min_depth(token).
    """
    rules = g.productions[token]
    depths = g.rule_depths(token)
    eligible = [i for i in range(len(rules)) if depths[i] <= budget]
    if not eligible:
        raise DepthInfeasibleError(
            f"no rule of {token!r} fits in depth budget {budget}"
        )
    if len(eligible) > 1:
        idx = eligible[rng.randrange(len(eligible))]
    else:
        idx = eligible[0]
    children = tuple(
        sample_tree(g, ref, budget - 1, rng) for ref in rules[idx].refs
    )
    return DerivationTree(token, idx, children)


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
