"""Grammar files, derivation trees, and deterministic tree sampling.

A grammar file is a JSON object mapping token names (``"<NAME>"``) to lists
of rules, where every rule is an array of strings.  A string that exactly
names a defined token is a reference to it; every other string is a literal.
Inputs are represented as derivation trees that record the rule chosen at
each node, which lets mutation stay structure-aware without reparsing text.

Termination of sampling is guaranteed by a minimal-finite-derivation depth
table computed at load time: once the remaining depth budget shrinks to a
token's minimal depth, only depth-minimal rules stay eligible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from random import Random

__all__ = [
    "DEFAULT_START",
    "BadTokenNameError",
    "DepthInfeasibleError",
    "DerivationTree",
    "Grammar",
    "GrammarError",
    "InvalidTreeError",
    "MalformedJsonError",
    "MissingStartError",
    "NoFiniteDerivationError",
    "Rule",
    "RuleItem",
    "UndefinedTokenRefError",
    "derive_tree",
    "generate_tree",
    "minimal_tree",
    "parse_grammar",
    "replace_subtree",
    "sample_tree",
    "tree_size",
    "unparse",
    "validate_tree",
]

DEFAULT_START = "<START>"

_TOKEN_NAME_RE = re.compile(r"<[A-Za-z0-9_-]+>")
_INT_LITERAL_RE = re.compile(r"-?\d+")
_INF = float("inf")


class GrammarError(Exception):
    """Base class for grammar loading and sampling failures."""


class MalformedJsonError(GrammarError):
    """Input is not a JSON object of token -> array-of-arrays-of-strings."""


class BadTokenNameError(GrammarError):
    """A production key does not match ``<IDENT>`` with IDENT in [A-Za-z0-9_-]."""


class UndefinedTokenRefError(GrammarError):
    """Strict mode only: a rule references a token that is not defined."""


class MissingStartError(GrammarError):
    """The grammar does not define its start token."""


class NoFiniteDerivationError(GrammarError):
    """Some token cannot derive any finite string."""


class DepthInfeasibleError(GrammarError):
    """Requested max_depth is below the start token's minimal derivation depth."""


class InvalidTreeError(GrammarError):
    """A derivation tree is inconsistent with the grammar it is unparsed against."""


@dataclass(frozen=True)
class RuleItem:
    """One element of a rule: literal text or a reference to another token."""

    text: str
    is_ref: bool


@dataclass(frozen=True)
class Rule:
    items: tuple[RuleItem, ...]
    # Token names referenced by this rule, in order; derived from items.
    refs: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "refs", tuple(item.text for item in self.items if item.is_ref)
        )


@dataclass(frozen=True)
class DerivationTree:
    """A concrete derivation: token, the rule picked for it, one child per ref."""

    token: str
    rule_index: int
    children: tuple["DerivationTree", ...] = ()


@dataclass
class Grammar:
    productions: dict[str, tuple[Rule, ...]]
    start: str = DEFAULT_START

    def __post_init__(self) -> None:
        self._min_depth, self._rule_depths = _depth_tables(self.productions)
        self._min_size, self._rule_sizes = _size_tables(self.productions)
        self._minimal_cache: dict[str, DerivationTree] = {}
        self._numeric_steps = _numeric_step_table(self.productions)
        dead = sorted(t for t, d in self._min_depth.items() if d == _INF)
        if dead:
            raise NoFiniteDerivationError(
                "token(s) with no finite derivation: " + ", ".join(dead)
            )

    def min_depth(self, token: str) -> int:
        """Minimal finite derivation depth of token (a lone leaf has depth 1)."""
        return self._min_depth[token]

    def rule_depths(self, token: str) -> tuple[float, ...]:
        return self._rule_depths[token]

    def min_size(self, token: str) -> int:
        """Node count of the smallest finite derivation of token."""
        return self._min_size[token]

    def rule_sizes(self, token: str) -> tuple[float, ...]:
        return self._rule_sizes[token]

    def numeric_steps(self, token: str, rule_index: int) -> tuple[int, ...]:
        """Rule indices an integer-literal rule may step to, nearest first.

        Empty unless the rule is a single integer literal and the token has
        another such rule.
        """
        return self._numeric_steps.get((token, rule_index), ())


def _depth_tables(
    productions: dict[str, tuple[Rule, ...]],
) -> tuple[dict[str, float], dict[str, tuple[float, ...]]]:
    # Fixpoint over depth[t] = min over rules of 1 + max(depth of refs).
    depth: dict[str, float] = {t: _INF for t in productions}

    def rule_depth(rule: Rule) -> float:
        worst = 0.0
        for ref in rule.refs:
            worst = max(worst, depth.get(ref, _INF))
        return 1.0 + worst

    changed = True
    while changed:
        changed = False
        for token, rules in productions.items():
            best = min((rule_depth(r) for r in rules), default=_INF)
            if best < depth[token]:
                depth[token] = best
                changed = True
    per_rule = {
        token: tuple(rule_depth(r) for r in rules)
        for token, rules in productions.items()
    }
    return depth, per_rule


def _size_tables(
    productions: dict[str, tuple[Rule, ...]],
) -> tuple[dict[str, float], dict[str, tuple[float, ...]]]:
    # Fixpoint over size[t] = min over rules of 1 + sum(size of refs).
    size: dict[str, float] = {t: _INF for t in productions}

    def rule_size(rule: Rule) -> float:
        total = 1.0
        for ref in rule.refs:
            total += size.get(ref, _INF)
        return total

    changed = True
    while changed:
        changed = False
        for token, rules in productions.items():
            best = min((rule_size(r) for r in rules), default=_INF)
            if best < size[token]:
                size[token] = best
                changed = True
    per_rule = {
        token: tuple(rule_size(r) for r in rules)
        for token, rules in productions.items()
    }
    return size, per_rule


def _numeric_step_table(
    productions: dict[str, tuple[Rule, ...]],
) -> dict[tuple[str, int], tuple[int, ...]]:
    # Per integer-literal rule: the next larger and next smaller value, zero,
    # the minimum and the maximum among the token's other such rules.
    table: dict[tuple[str, int], tuple[int, ...]] = {}
    for token, rules in productions.items():
        literals = {
            i: int(rule.items[0].text)
            for i, rule in enumerate(rules)
            if len(rule.items) == 1
            and not rule.items[0].is_ref
            and _INT_LITERAL_RE.fullmatch(rule.items[0].text)
        }
        for index, cur in literals.items():
            others = [(i, v) for i, v in literals.items() if i != index]
            if not others:
                continue
            picks = (
                min((i for i, v in others if v > cur), key=literals.get, default=None),
                max((i for i, v in others if v < cur), key=literals.get, default=None),
                next((i for i, v in others if v == 0), None),
                min(others, key=lambda iv: iv[1])[0],
                max(others, key=lambda iv: iv[1])[0],
            )
            table[(token, index)] = tuple(
                dict.fromkeys(p for p in picks if p is not None)
            )
    return table


def parse_grammar(text: str, strict: bool = True) -> Grammar:
    """Load a grammar from its JSON text.

    With ``strict`` set, every ``<...>``-shaped rule item must name a defined
    token; otherwise such items silently degrade to literals.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise MalformedJsonError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedJsonError("grammar must be a JSON object")
    for name, rules in raw.items():
        if not isinstance(rules, list) or not all(
            isinstance(rule, list) and all(isinstance(s, str) for s in rule)
            for rule in rules
        ):
            raise MalformedJsonError(
                f"rules for {name!r} must be an array of arrays of strings"
            )
    for name in raw:
        if not _TOKEN_NAME_RE.fullmatch(name):
            raise BadTokenNameError(f"bad token name: {name!r}")

    defined = set(raw)
    productions: dict[str, tuple[Rule, ...]] = {}
    for name, rules in raw.items():
        built = []
        for rule in rules:
            items = []
            for s in rule:
                if s in defined:
                    items.append(RuleItem(s, True))
                elif _TOKEN_NAME_RE.fullmatch(s):
                    if strict:
                        raise UndefinedTokenRefError(
                            f"rule for {name!r} references undefined token {s!r}"
                        )
                    items.append(RuleItem(s, False))
                else:
                    items.append(RuleItem(s, False))
            built.append(Rule(tuple(items)))
        productions[name] = tuple(built)

    if DEFAULT_START not in productions:
        raise MissingStartError(f"grammar does not define {DEFAULT_START!r}")
    if not productions[DEFAULT_START]:
        raise NoFiniteDerivationError(f"{DEFAULT_START!r} has no rules")
    return Grammar(productions)


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


def generate_tree(g: Grammar, seed: int, max_depth: int = 64) -> DerivationTree:
    """Deterministically sample a tree rooted at the start token."""
    if g.start not in g.productions:
        raise MissingStartError(f"grammar does not define {g.start!r}")
    need = g.min_depth(g.start)
    if max_depth < need:
        raise DepthInfeasibleError(
            f"max_depth {max_depth} below minimal derivation depth {need}"
        )
    return sample_tree(g, g.start, max_depth, Random(seed))


def minimal_tree(g: Grammar, token: str) -> DerivationTree:
    """The canonical smallest derivation of token (lowest rule index on ties)."""
    cached = g._minimal_cache.get(token)
    if cached is not None:
        return cached
    sizes = g.rule_sizes(token)
    best = min(range(len(sizes)), key=sizes.__getitem__)
    rule = g.productions[token][best]
    tree = DerivationTree(
        token, best, tuple(minimal_tree(g, ref) for ref in rule.refs)
    )
    g._minimal_cache[token] = tree
    return tree


def replace_subtree(
    t: DerivationTree, path: tuple[int, ...], subtree: DerivationTree
) -> DerivationTree:
    """``t`` with the node at ``path`` (child indices from the root)
    replaced by ``subtree``; the nodes off that path are shared."""
    if not path:
        return subtree
    i = path[0]
    children = (
        t.children[:i]
        + (replace_subtree(t.children[i], path[1:], subtree),)
        + t.children[i + 1 :]
    )
    return DerivationTree(t.token, t.rule_index, children)


def unparse(t: DerivationTree, g: Grammar) -> str:
    """Concatenate literals in order, expanding child subtrees at each ref."""
    out: list[str] = []
    _unparse_into(t, g, out)
    return "".join(out)


def _unparse_into(t: DerivationTree, g: Grammar, out: list[str]) -> None:
    rules = g.productions.get(t.token)
    if rules is None or not 0 <= t.rule_index < len(rules):
        raise InvalidTreeError(
            f"node {t.token!r} has rule_index {t.rule_index} out of range"
        )
    rule = rules[t.rule_index]
    if len(t.children) != len(rule.refs):
        raise InvalidTreeError(
            f"node {t.token!r} has {len(t.children)} children, expected {len(rule.refs)}"
        )
    child_i = 0
    for item in rule.items:
        if item.is_ref:
            child = t.children[child_i]
            child_i += 1
            if child.token != item.text:
                raise InvalidTreeError(
                    f"child of {t.token!r} is {child.token!r}, expected {item.text!r}"
                )
            _unparse_into(child, g, out)
        else:
            out.append(item.text)


def validate_tree(t: DerivationTree, g: Grammar) -> bool:
    """Total check that every node's rule index and child arity are consistent."""
    stack = [t]
    while stack:
        node = stack.pop()
        rules = g.productions.get(node.token)
        if rules is None or not 0 <= node.rule_index < len(rules):
            return False
        refs = rules[node.rule_index].refs
        if len(node.children) != len(refs):
            return False
        for child, ref in zip(node.children, refs):
            if child.token != ref:
                return False
        stack.extend(node.children)
    return True


def tree_size(t: DerivationTree) -> int:
    """Total node count of the tree."""
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


class _DeriveBudgetExceeded(Exception):
    pass


def derive_tree(
    g: Grammar, text: str, max_steps: int = 200_000
) -> DerivationTree | None:
    """Best-effort exact parse: a derivation tree unparsing to ``text``, or None.

    Backtracking search with memoization; gives up (returns None) once
    ``max_steps`` match attempts are spent, and does not support
    left-recursive grammars.  Intended for tree-ifying known seed inputs,
    not as a general CFG parser.
    """
    productions = g.productions
    memo: dict[tuple[str, int], list[tuple[int, DerivationTree]]] = {}
    steps = 0

    def derive(token: str, pos: int) -> list[tuple[int, DerivationTree]]:
        nonlocal steps
        key = (token, pos)
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = []  # blocks left-recursive re-entry
        results: list[tuple[int, DerivationTree]] = []
        for idx, rule in enumerate(productions[token]):
            for end, children in match_items(rule.items, 0, pos):
                results.append((end, DerivationTree(token, idx, children)))
        memo[key] = results
        return results

    def match_items(items, i, pos):
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise _DeriveBudgetExceeded
        if i == len(items):
            yield pos, ()
            return
        item = items[i]
        if not item.is_ref:
            if text.startswith(item.text, pos):
                yield from match_items(items, i + 1, pos + len(item.text))
        else:
            for end, sub in derive(item.text, pos):
                for tail_end, rest in match_items(items, i + 1, end):
                    yield tail_end, (sub,) + rest

    if g.start not in productions:
        return None
    try:
        for end, tree in derive(g.start, 0):
            if end == len(text):
                return tree
    except _DeriveBudgetExceeded:
        return None
    return None
