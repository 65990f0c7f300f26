"""Minimization as it was before it skipped known failures: every pass
re-runs each candidate from the root, including those that failed before
and have not changed since.

Kept only as the reference that ``test_triage_differential.py`` compares
``conffuzz.triage.minimize`` against; the package does not use it.
"""

from __future__ import annotations

from collections import deque

from conffuzz.grammar import DerivationTree, Grammar, minimal_tree, replace_subtree, unparse
from conffuzz.target import TargetSpec, execute
from conffuzz.triage import NonReproducibleError, dedup_key


def _bfs_paths(
    t: DerivationTree,
) -> list[tuple[tuple[int, ...], DerivationTree]]:
    out = []
    queue = deque([((), t)])
    while queue:
        path, node = queue.popleft()
        out.append((path, node))
        for i, child in enumerate(node.children):
            queue.append((path + (i,), child))
    return out


def reference_minimize(
    tree: DerivationTree, g: Grammar, target: TargetSpec, key: str
) -> DerivationTree:
    """Shrink a crashing tree while its dedup key is preserved.

    Greedy pass in breadth-first order, restarted after every accepted
    replacement, until no node can be swapped for its token's minimal
    derivation.  The result never has more nodes than the input.
    """

    def reproduces(t: DerivationTree) -> bool:
        outcome, fb = execute(target, unparse(t, g))
        return outcome.is_crash and dedup_key(outcome, fb) == key

    if not reproduces(tree):
        raise NonReproducibleError(f"input does not reproduce key {key}")

    changed = True
    while changed:
        changed = False
        for path, node in _bfs_paths(tree):
            replacement = minimal_tree(g, node.token)
            if replacement == node:
                continue
            candidate = replace_subtree(tree, path, replacement)
            if reproduces(candidate):
                tree = candidate
                changed = True
                break
    return tree
