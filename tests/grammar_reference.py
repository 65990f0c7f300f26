"""The grammar's depth and size tables as two separate fixpoints, as they
were before one fixpoint with a combine step (max or add) replaced them.

Kept only as the reference that ``test_grammar_differential.py``
compares ``conffuzz.grammar.Grammar`` against; the package does not use
it.
"""

from __future__ import annotations

from conffuzz.grammar import Rule

_INF = float("inf")


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


def dead_tokens(productions: dict[str, tuple[Rule, ...]]) -> list[str]:
    """The tokens ``Grammar`` rejected with ``NoFiniteDerivationError``."""
    depth, _ = _depth_tables(productions)
    return sorted(t for t, d in depth.items() if d == _INF)
