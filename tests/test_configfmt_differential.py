"""parse_config against the reference parser it replaced.

Texts are assembled from well-formed documents (names drawn from a small
pool, so nested groups repeat them) with noise spliced in: comments, lone
signs and dots, ``1e``, unterminated strings, a backslash before a newline
inside a string, bad escapes, integers just past 64 bits, stray
characters, and non-ASCII digits and spaces, which the token rules' digit
and whitespace classes take in.  The two parsers must agree on every text:
equal documents, compared through their repr (which shows each scalar's
type) and their serialized bytes, or the same exception type, message,
line and column.
"""

from __future__ import annotations

import pytest
from configfmt_reference import reference_parse_config
from hypothesis import given, settings
from hypothesis import strategies as st

from conffuzz.configfmt import ConfigError, parse_config, serialize_config

NAMES = ("a", "b", "g", "x_1", "true", "false")

SCALARS = (
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.sampled_from(
        [
            "0", "+7", "-0", "1.5", ".5", "1.", "-2.5e3", "+.25E-2", "3e5", "2E3",
            "true", "false", '""', '"gNB-demo"', r'"tab\there"', r'"q\"uote\\"',
        ]
    ),
)

SEPARATORS = st.sampled_from(["", " ", "\n", "\t", "  \n  ", " # note\n", "// note\n"])

NOISE = st.sampled_from(
    [
        "+", "-", ".", "1e", "1E+", "@", "'x'", "/", "#", "//",
        '"open', '"a\\\nb"', r'"\q"', '"\n"',
        str(2**63), str(-(2**63) - 1), "99999999999999999999",
        "{", "}", "(", ")", ",", ";", "=", "maybe", "\u0663", "\u00b2", "\xa0",
    ]
)


@st.composite
def values(draw, depth: int) -> list[str]:
    kinds = ["scalar"] if depth <= 0 else ["scalar", "scalar", "group", "list"]
    kind = draw(st.sampled_from(kinds))
    if kind == "scalar":
        return [draw(st.one_of(*SCALARS))]
    if kind == "group":
        return ["{"] + draw(settings_list(depth - 1)) + ["}"]
    items = draw(st.lists(values(depth - 1), max_size=3))
    out = ["("]
    for i, item in enumerate(items):
        if i:
            out.append(",")
        out += item
    return out + [")"]


@st.composite
def settings_list(draw, depth: int) -> list[str]:
    out: list[str] = []
    # a scope repeats a name in one draw out of four
    unique = draw(st.integers(0, 3)) > 0
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=unique)):
        out += [name, "="] + draw(values(depth)) + [";"]
    return out


@st.composite
def config_texts(draw) -> str:
    tokens = draw(settings_list(3))
    # each edit inserts noise, drops a token or duplicates one
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "drop", "repeat"]))
        if edit == "insert":
            tokens.insert(at, draw(NOISE))
        elif tokens and at < len(tokens):
            if edit == "drop":
                del tokens[at]
            else:
                tokens.insert(at, tokens[at])
    return "".join(tok + draw(SEPARATORS) for tok in tokens)


def _outcome(parse, text: str):
    try:
        doc = parse(text)
    except ConfigError as e:
        return type(e), str(e), e.line, e.col
    try:
        serialized = serialize_config(doc)
    except ValueError as e:  # a real that overflowed to inf
        serialized = f"unserializable: {e}"
    return repr(doc), serialized


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a = 1;",
        "a = 1",
        "a = @;",
        "a = 1 @",
        "a = ; b = @;",
        "a = 1;\na = 2; @",
        f"a = {2**63}; b = '",
        'a = "x\\\ny";',
        'a = "\\q"; b = 1 2;',
        "a = ( 1, );",
        "g = { a = 1; g = { a = 1; a = 2; }; };",
        "a = 1e;",
        "a = +;",
        "a = .;",
        "a = -.5e+3;\n# c\nb = 1.;// d",
        "a = \u0663;",
        "a = \u00b2;",
        "a = 2E3;",
        "x = }",
        "a = { b = 1; ",
    ],
)
def test_agrees_on_known_cases(text):
    assert _outcome(parse_config, text) == _outcome(reference_parse_config, text)


@settings(max_examples=400, deadline=None)
@given(config_texts())
def test_agrees_with_reference(text):
    assert _outcome(parse_config, text) == _outcome(reference_parse_config, text)
