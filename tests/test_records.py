"""The record types: immutable where they were frozen, and equal and
hashed field by field.  The classes among them subclass
``conffuzz.record.Record``, which writes those methods once; the named
tuples get theirs from ``tuple``.

Each case builds a record by keyword from the same values twice; the two
must be equal with equal hashes, changing any one field must make them
differ, and assigning or deleting a field must raise ``AttributeError``.
Its repr must read ``Name(field=value, ...)``, and it must come back equal
from ``pickle``, ``copy.copy`` and ``copy.deepcopy``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from conffuzz.configfmt import ConfigDocument, ParamPath
from conffuzz.explain import ParamInfo, TestCaseRecord
from conffuzz.gnb_validator import BandSpec
from conffuzz.grammar import DerivationTree, Grammar, Rule, RuleItem
from conffuzz.target import (
    ExecOutcome,
    OutcomeKind,
    TargetSpec,
    register_builtin,
)
from conffuzz.triage import CrashReport, ParamTable


def _rule(text: str) -> Rule:
    return Rule((RuleItem(text, False),))


# a builtin spec resolves its name when it is built, so the name the
# TargetSpec case builds is registered
register_builtin("run {input}", lambda text: (ExecOutcome(OutcomeKind.OK), frozenset()))


# (class, keyword fields, a different value per field, derived attributes
# that must be read-only too)
FROZEN = [
    (
        ExecOutcome,
        {"kind": OutcomeKind.CRASH, "code": 101, "stderr_excerpt": "x"},
        {"kind": OutcomeKind.REJECT, "code": 102, "stderr_excerpt": "y"},
        (),
    ),
    (
        TargetSpec,
        {"text": "builtin:run {input}", "timeout_ms": 10},
        {"text": "exec:go {input}", "timeout_ms": 20},
        ("run",),
    ),
    (ConfigDocument, {"root": {"a": 1}}, {"root": {"a": True}}, ()),
    (ParamPath, {"segments": ("a", 0, "b")}, {"segments": ("a", 1, "b")}, ()),
    (
        RuleItem,
        {"text": "<A>", "is_ref": True},
        {"text": "<B>", "is_ref": False},
        (),
    ),
    (
        Rule,
        {"items": (RuleItem("<A>", True),)},
        {"items": (RuleItem("<A>", False),)},
        ("refs",),
    ),
    (
        DerivationTree,
        {"token": "<A>", "rule_index": 0, "children": (DerivationTree("<B>", 1),)},
        {"token": "<C>", "rule_index": 1, "children": ()},
        (),
    ),
    (
        Grammar,
        {"productions": {"<START>": (_rule("a"),)}},
        {"productions": {"<START>": (_rule("b"),)}},
        ("swappable",),
    ),
    (
        BandSpec,
        {"band": 78, "arfcn_lo": 620000, "arfcn_hi": 653333, "min_bw_rb": 25},
        {"band": 41, "arfcn_lo": 499200, "arfcn_hi": 537999, "min_bw_rb": 24},
        (),
    ),
    (
        TestCaseRecord,
        {"name": "t1", "args": (("f", "1"),)},
        {"name": "t2", "args": (("f", "2"),)},
        (),
    ),
    (
        ParamInfo,
        {"flag": "f", "var_name": "v", "meaning": "m", "range": ("1",)},
        {"flag": "g", "var_name": "w", "meaning": "n", "range": ("2",)},
        (),
    ),
    (
        CrashReport,
        {
            "dedup_key": "k",
            "outcome": ExecOutcome(OutcomeKind.CRASH, 101),
            "input_text": "a = 1;",
            "minimized_text": "a = 0;",
            "param_diff": ((ParamPath(("a",)), 0, 1),),
            "first_seen_exec": 3,
        },
        {
            "dedup_key": "j",
            "outcome": ExecOutcome(OutcomeKind.CRASH, 102),
            "input_text": "a = 2;",
            "minimized_text": "a = 3;",
            "param_diff": (),
            "first_seen_exec": 4,
        },
        (),
    ),
    (
        ParamTable,
        {"paths": ("a",), "columns": (("initial", ("1",)),)},
        {"paths": ("b",), "columns": (("initial", ("2",)),)},
        (),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, other, derived", FROZEN, ids=[case[0].__name__ for case in FROZEN]
)
def test_frozen_record_contract(cls, fields, other, derived):
    a, b = cls(**fields), cls(**fields)
    assert a is not b and a == b
    if cls is Grammar:
        # unhashable, like the read-only mapping that holds its productions
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in fields:
        assert cls(**{**fields, name: other[name]}) != a, name
    for name in [*fields, *derived]:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(cls(**other), name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    assert a == b
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({shown})"
    assert copy.copy(a) == a
    if cls is Grammar:
        # its productions are a read-only mapping, which neither pickles nor
        # deep-copies; no worker needs a grammar
        return
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    if cls is DerivationTree:
        # the cached walks are derived, so they are not pickled
        assert a.paths and a.grafts and vars(a)
        back = pickle.loads(pickle.dumps(a))
        assert back == a and vars(back) == {}

