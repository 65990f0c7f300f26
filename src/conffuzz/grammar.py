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
import operator
import re
from functools import cached_property
from random import Random
from types import MappingProxyType
from typing import Callable, Mapping

from .record import Record

__all__ = [
    "DEFAULT_MAX_DEPTH",
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
    "check_max_depth",
    "derive_tree",
    "generate_tree",
    "grammar_slot",
    "minimal_tree",
    "parse_grammar",
    "replace_subtree",
    "sample_tree",
    "tree_size",
    "unparse",
]

DEFAULT_START = "<START>"
# the depth budget of a generated tree and of a regenerated subtree
DEFAULT_MAX_DEPTH = 64

_TOKEN_NAME_RE = re.compile(r"<[A-Za-z0-9_-]+>")
_INT_LITERAL_RE = re.compile(r"-?\d+")
_INF = float("inf")
# derive_tree gives up past this many nested steps (a derive call or a
# rule item each), far below the interpreter's recursion limit, so the
# verdict does not depend on how deep the caller's stack already is
DERIVE_MAX_DEPTH = 400
# and past this many match attempts in all
DERIVE_MAX_STEPS = 200_000


class GrammarError(Exception):
    """Base class for grammar loading and sampling failures."""


class MalformedJsonError(GrammarError):
    """Input is not a JSON object of token -> array-of-arrays-of-strings."""


class BadTokenNameError(GrammarError):
    """A production key does not match ``<IDENT>`` with IDENT in [A-Za-z0-9_-]."""


class UndefinedTokenRefError(GrammarError):
    """A rule references a token that is not defined."""


class MissingStartError(GrammarError):
    """The grammar does not define its start token."""


class NoFiniteDerivationError(GrammarError):
    """Some token cannot derive any finite string."""


class DepthInfeasibleError(GrammarError):
    """Requested max_depth is below the start token's minimal derivation depth."""


class InvalidTreeError(GrammarError):
    """A derivation tree is inconsistent with the grammar it is unparsed against."""


class RuleItem(Record):
    """One element of a rule: literal text or a reference to another token.
    Immutable."""

    __slots__ = _fields = ("text", "is_ref")

    def __init__(self, text: str, is_ref: bool) -> None:
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "is_ref", is_ref)


class Rule(Record):
    """A rule's items, and the token names it references (``refs``, in
    order, derived from the items).  Immutable."""

    __slots__ = ("items", "refs")
    _fields = ("items",)

    def __init__(self, items: tuple[RuleItem, ...]) -> None:
        object.__setattr__(self, "items", items)
        object.__setattr__(
            self, "refs", tuple(item.text for item in items if item.is_ref)
        )


class DerivationTree(Record):
    """A concrete derivation: token, the rule picked for it, one child per ref.

    Immutable.  The instance ``__dict__`` holds what is derived from the
    fields on first use, and nothing else; none of it takes part in
    equality, hashing, ``repr`` or pickling:

    - ``paths`` and ``grafts``, which depend on the tree alone;
    - ``_text``, the tree's ``unparse`` text under one grammar;
    - ``_swap_sites`` and ``_tweak_sites``, the sites that rule-swap and
      scalar-tweak may edit under one grammar.

    The last three are grammar-keyed slots, and ``grammar_slot`` is their
    one owner: it writes each as a ``(grammar, value)`` pair, which another
    grammar object builds again and replaces.
    """

    __slots__ = ("token", "rule_index", "children", "__dict__")
    _fields = ("token", "rule_index", "children")

    def __init__(
        self, token: str, rule_index: int, children: tuple[DerivationTree, ...] = ()
    ) -> None:
        _set_token(self, token)
        _set_rule_index(self, rule_index)
        _set_children(self, children)

    # Written out rather than the base's: ``minimize`` compares trees about
    # 30 times per crash, and this measured about twice as fast per compare.
    def __eq__(self, other: object) -> bool:
        if type(other) is not DerivationTree:
            return NotImplemented
        return (self.token, self.rule_index, self.children) == (
            other.token,
            other.rule_index,
            other.children,
        )

    def __hash__(self) -> int:
        return hash((self.token, self.rule_index, self.children))

    @cached_property
    def paths(self) -> tuple[tuple[tuple[int, ...], "DerivationTree"], ...]:
        """All (path, node) pairs in pre-order, the root path being ();
        walked once per tree, since a corpus entry is mutated many times."""
        out: list[tuple[tuple[int, ...], DerivationTree]] = []
        stack = [((), self)]
        while stack:
            path, node = stack.pop()
            out.append((path, node))
            for i in range(len(node.children) - 1, -1, -1):
                stack.append((path + (i,), node.children[i]))
        return tuple(out)

    @cached_property
    def grafts(self) -> dict[str, tuple["DerivationTree", ...]]:
        """The nodes of ``paths`` grouped by token, each group in pre-order:
        what splicing may graft from this tree when it is the donor."""
        pool: dict[str, list[DerivationTree]] = {}
        for _, node in self.paths:
            pool.setdefault(node.token, []).append(node)
        return {token: tuple(nodes) for token, nodes in pool.items()}


# the slots' own setters, which bypass the refusing ``__setattr__``: every
# mutation builds trees, and these are cheaper than ``object.__setattr__``
_set_token = DerivationTree.token.__set__
_set_rule_index = DerivationTree.rule_index.__set__
_set_children = DerivationTree.children.__set__


class Grammar(Record):
    """A grammar's productions, read-only, and the tables built from them.
    Immutable: every table is built from the productions once, so neither
    they nor the tables may be rebound afterwards."""

    _fields = ("productions",)
    # unhashable, like the read-only mapping that holds its productions
    __hash__ = None

    def __init__(self, productions: Mapping[str, tuple[Rule, ...]]) -> None:
        # read-only, and a copy, so the caller's dict cannot change it either
        productions = MappingProxyType(dict(productions))
        for token, rules in productions.items():
            for rule in rules:
                for ref in rule.refs:
                    if ref not in productions:
                        raise UndefinedTokenRefError(
                            f"rule for {token!r} references undefined token {ref!r}"
                        )
        min_depth, rule_depths = _cost_tables(productions, max)
        min_size, rule_sizes = _cost_tables(productions, operator.add)
        numeric_steps = _numeric_step_table(productions)
        dead = sorted(t for t, d in min_depth.items() if d == _INF)
        if dead:
            raise NoFiniteDerivationError(
                "token(s) with no finite derivation: " + ", ".join(dead)
            )
        # every depth is finite now, so each is a whole number of levels
        min_depth = {t: int(d) for t, d in min_depth.items()}

        def rooted(token: str, i: int) -> DerivationTree:
            refs = productions[token][i].refs
            return DerivationTree(token, i, tuple(minimal[r] for r in refs))

        # A token's smallest rule refers only to smaller tokens, so minimal
        # trees built smallest first find their children already built.
        minimal: dict[str, DerivationTree] = {}
        for token in sorted(productions, key=min_size.__getitem__):
            sizes = rule_sizes[token]
            smallest_rule = min(range(len(sizes)), key=sizes.__getitem__)
            minimal[token] = rooted(token, smallest_rule)
        # Tables the mutation operators, ``sample_tree`` and ``unparse`` read
        # on every call, built once since they depend on the grammar alone;
        # set past the refusing ``__setattr__``.
        vars(self).update(
            productions=productions,
            _min_depth=min_depth,
            _rule_depths=rule_depths,
            _rule_sizes=rule_sizes,
            _numeric_steps=numeric_steps,
            swappable=frozenset(t for t, r in productions.items() if len(r) > 1),
            # every rule fits a budget of at least this, so none is filtered
            _max_rule_depth={t: max(d) for t, d in rule_depths.items()},
            _minimal=minimal,
            _smallest={
                (token, i): rooted(token, i)
                for token, rules in productions.items()
                for i in range(len(rules))
            },
            # what ``unparse`` appends for a childless node, without a descent
            _leaf_text={
                (token, i): "".join(item.text for item in rule.items)
                for token, rules in productions.items()
                for i, rule in enumerate(rules)
                if not rule.refs
            },
        )

    def min_depth(self, token: str) -> int:
        """Minimal finite derivation depth of token (a lone leaf has depth 1)."""
        return self._min_depth[token]

    def rule_depths(self, token: str) -> tuple[float, ...]:
        return self._rule_depths[token]

    def rule_sizes(self, token: str) -> tuple[float, ...]:
        return self._rule_sizes[token]

    def numeric_steps(self, token: str, rule_index: int) -> tuple[int, ...]:
        """Rule indices an integer-literal rule may step to, nearest first.

        Empty unless the rule is a single integer literal and the token has
        another such rule.
        """
        return self._numeric_steps.get((token, rule_index), ())

    def smallest(self, token: str, rule_index: int) -> DerivationTree:
        """The smallest tree whose root is ``token`` by rule ``rule_index``:
        each child is its token's ``minimal_tree``.  One shared instance
        per rule, so a leaf is never built twice."""
        return self._smallest[(token, rule_index)]


def _cost_tables(
    productions: Mapping[str, tuple[Rule, ...]],
    combine: Callable[[float, float], float],
) -> tuple[dict[str, float], dict[str, tuple[float, ...]]]:
    # Fixpoint over cost[t] = min over rules of 1 + combine(costs of refs):
    # combine = max gives the minimal derivation depth, add the node count.
    cost: dict[str, float] = {t: _INF for t in productions}

    def rule_cost(rule: Rule) -> float:
        acc = 0.0
        for ref in rule.refs:
            acc = combine(acc, cost[ref])
        return 1.0 + acc

    changed = True
    while changed:
        changed = False
        for token, rules in productions.items():
            best = min((rule_cost(r) for r in rules), default=_INF)
            if best < cost[token]:
                cost[token] = best
                changed = True
    per_rule = {
        token: tuple(rule_cost(r) for r in rules)
        for token, rules in productions.items()
    }
    return cost, per_rule


def _numeric_step_table(
    productions: Mapping[str, tuple[Rule, ...]],
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
    return Grammar(productions)


def sample_tree(g: Grammar, token: str, budget: int, rng: Random) -> DerivationTree:
    """Sample a derivation of ``token`` within ``budget`` depth levels.

    Rules are drawn uniformly among those whose minimal completion still fits
    the remaining budget; the caller must pass budget >= g.min_depth(token).
    """
    rules = g.productions[token]
    if budget >= g._max_rule_depth[token]:
        eligible = range(len(rules))
    else:
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
    refs = rules[idx].refs
    if not refs:
        return g.smallest(token, idx)
    children = tuple(sample_tree(g, ref, budget - 1, rng) for ref in refs)
    return DerivationTree(token, idx, children)


def generate_tree(
    g: Grammar, seed: int, max_depth: int = DEFAULT_MAX_DEPTH
) -> DerivationTree:
    """Deterministically sample a tree rooted at the start token."""
    if DEFAULT_START not in g.productions:
        raise MissingStartError(f"grammar does not define {DEFAULT_START!r}")
    check_max_depth(g, max_depth)
    return sample_tree(g, DEFAULT_START, max_depth, Random(seed))


def check_max_depth(g: Grammar, max_depth: int) -> None:
    """Raise DepthInfeasibleError unless a tree rooted at the start token
    fits in ``max_depth`` levels."""
    need = g.min_depth(DEFAULT_START)
    if max_depth < need:
        raise DepthInfeasibleError(
            f"max_depth {max_depth} below minimal derivation depth {need}"
        )


def minimal_tree(g: Grammar, token: str) -> DerivationTree:
    """The canonical smallest derivation of token (lowest rule index on ties)."""
    return g._minimal[token]


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


def grammar_slot(t: DerivationTree, g: Grammar, name: str, build: Callable) -> object:
    """``build(t, g)``, kept in ``t.__dict__[name]`` as a ``(g, value)``
    pair: built once per tree and grammar object, and built again under
    another grammar object, whose pair replaces the one kept."""
    kept = t.__dict__.get(name)
    if kept is None or kept[0] is not g:
        kept = t.__dict__[name] = (g, build(t, g))
    return kept[1]


def unparse(t: DerivationTree, g: Grammar) -> str:
    """Concatenate literals in order, expanding child subtrees at each ref.

    Raises InvalidTreeError on a node whose token is unknown, whose rule
    index is out of range, or whose children do not match its rule's refs.
    The text is kept in the tree's ``_text`` slot (see ``grammar_slot``),
    so a tree unparsed again under the same grammar is not walked again.
    """
    # the slot read written out, since a call here is paid on every exec
    kept = t.__dict__.get("_text")
    if kept is not None and kept[0] is g:
        return kept[1]
    return grammar_slot(t, g, "_text", _text)


def _text(t: DerivationTree, g: Grammar) -> str:
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
            if not child.children:
                text = g._leaf_text.get((child.token, child.rule_index))
                if text is not None:
                    out.append(text)
                    continue
            _unparse_into(child, g, out)
        else:
            out.append(item.text)


def tree_size(t: DerivationTree) -> int:
    """Total node count of the tree."""
    return len(t.paths)


class _DeriveBudgetExceeded(Exception):
    pass


def derive_tree(g: Grammar, text: str) -> DerivationTree | None:
    """Best-effort exact parse: a derivation tree unparsing to ``text``, or None.

    Backtracking search with memoization; gives up (returns None) once
    ``DERIVE_MAX_STEPS`` match attempts are spent or the search nests
    deeper than ``DERIVE_MAX_DEPTH`` steps, and does not support
    left-recursive grammars.  Intended for tree-ifying known seed inputs,
    not as a general CFG parser.
    """
    productions = g.productions
    memo: dict[tuple[str, int], list[tuple[int, DerivationTree]]] = {}
    steps = 0

    def derive(token: str, pos: int, depth: int) -> list[tuple[int, DerivationTree]]:
        key = (token, pos)
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = []  # blocks left-recursive re-entry
        results: list[tuple[int, DerivationTree]] = []
        for idx, rule in enumerate(productions[token]):
            for end, children in match_items(rule.items, 0, pos, depth + 1):
                results.append((end, DerivationTree(token, idx, children)))
        memo[key] = results
        return results

    def match_items(items, i, pos, depth):
        nonlocal steps
        steps += 1
        if steps > DERIVE_MAX_STEPS or depth > DERIVE_MAX_DEPTH:
            raise _DeriveBudgetExceeded
        if i == len(items):
            yield pos, ()
            return
        item = items[i]
        if not item.is_ref:
            if text.startswith(item.text, pos):
                yield from match_items(items, i + 1, pos + len(item.text), depth + 1)
        else:
            for end, sub in derive(item.text, pos, depth + 1):
                for tail_end, rest in match_items(items, i + 1, end, depth + 1):
                    yield tail_end, (sub,) + rest

    if DEFAULT_START not in productions:
        return None
    try:
        for end, tree in derive(DEFAULT_START, 0, 0):
            if end == len(text):
                return tree
    except _DeriveBudgetExceeded:
        return None
    return None
