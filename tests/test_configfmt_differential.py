"""parse_config against the reference parser it replaced.

Texts are assembled from well-formed documents (names drawn from a small
pool, so nested groups repeat them) with noise spliced in: comments, lone
signs and dots, ``1e``, unterminated strings, a backslash before a newline
inside a string, bad escapes, integers just past 64 bits, integers longer
than ``int()`` converts (with and without leading zeros), reals that
overflow to infinity, runs of 18 to 20 digits (ASCII or not) around the
parser's plain-integer cut, groups and lists opened past the nesting limit
(closed or not), stray characters, and non-ASCII digits and spaces, which
the token rules' digit and whitespace classes take in.  The two
parsers must agree on every text: equal documents, compared through their
repr (which shows each scalar's type) and their serialized bytes, or the
same exception type, message, line and column.
"""

from __future__ import annotations

import pytest
from configfmt_reference import reference_parse_config
from hypothesis import given, settings
from hypothesis import strategies as st

from conffuzz.configfmt import ConfigError, parse_config, serialize_config

NAMES = ("a", "b", "g", "x_1", "true", "false")


def _digit_runs() -> dict[str, str]:
    """Integer lexemes on both sides of the parser's plain-integer cut:
    18 digits always fit 64 bits, 19 may not, 20 never do unless zeros
    lead; each with and without a sign, and runs of non-ASCII decimal
    digits, which the digit class and ``int`` both take."""
    runs = {
        "9x18": "9" * 18,
        "10**18": "1" + "0" * 18,
        "9x19": "9" * 19,
        "2**63-1": str(2**63 - 1),
        "2**63": str(2**63),
        "9x20": "9" * 20,
        "zeros-17+7": "0" * 17 + "7",
        "zeros-18+7": "0" * 18 + "7",
        "zeros-19+7": "0" * 19 + "7",
        "zeros-18": "0" * 18,
        "zeros-1+2**63": "0" + str(2**63),
        "arabic-3x18": "\u0663" * 18,
        "arabic-9x19": "\u0669" * 19,
        "arabic-zeros-18+7": "\u0660" * 18 + "\u0667",
        "fullwidth-1x18": "\uff11" * 18,
        "devanagari-9x19": "\u096f" * 19,
    }
    return {
        sign_id + run_id: sign + run
        for run_id, run in runs.items()
        for sign_id, sign in (("", ""), ("plus-", "+"), ("minus-", "-"))
    }


DIGIT_RUNS = _digit_runs()

SCALARS = (
    st.integers(-(2**63), 2**63 - 1).map(str),
    # the runs that fit; the rest are noise, as an out-of-range value fails
    st.sampled_from(
        sorted(r for r in DIGIT_RUNS.values() if -(2**63) <= int(r) < 2**63)
    ),
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
        "1" * 5000, "0" * 5000 + "1", "-" + "\u0660" * 4400 + "7", "1e999", "-1E999",
        "{", "}", "(", ")", ",", ";", "=", "maybe", "\u0663", "\u00b2", "\xa0",
        "{ a = " * 120, "(" * 120, "( {" * 60,
        "{ a = " * 99 + "1;" + " };" * 99, "(" * 100 + "1" + ")" * 100,
        *sorted(DIGIT_RUNS.values()),
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
    return repr(doc), serialize_config(doc)


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
        pytest.param("a = " + "1" * 5000 + ";", id="5000-digit-int"),
        pytest.param("a = " + "0" * 5000 + "1;", id="zero-padded-1"),
        pytest.param("a = -" + "0" * 30 + str(2**63) + ";", id="zero-padded-2**63"),
        pytest.param("a = " + "\u0660" * 4400 + "5;", id="arabic-zero-padded-5"),
        "a = 1e999;",
        "a = -1e999; b = @;",
        "x = }",
        "a = { b = 1; ",
        pytest.param("a = " + "{ b = " * 100 + "1;" + " };" * 100, id="groups-100"),
        pytest.param("a = " + "{ b = " * 101 + "1;" + " };" * 101, id="groups-101"),
        pytest.param("a = " + "(" * 100 + ")" * 100 + ";", id="lists-100"),
        pytest.param("a = " + "(" * 101 + ")" * 101 + ";", id="lists-101"),
        pytest.param("a = " + "( { b = " * 60, id="mixed-120-unclosed"),
        pytest.param("a = " + "(" * 5000 + " @", id="lists-5000-bad-char"),
        pytest.param("a = " + "{ b = " * 600 + "1;" + " };" * 600, id="groups-600"),
    ],
)
def test_agrees_on_known_cases(text):
    assert _outcome(parse_config, text) == _outcome(reference_parse_config, text)


@pytest.mark.parametrize("lexeme", DIGIT_RUNS.values(), ids=DIGIT_RUNS.keys())
def test_agrees_on_digit_runs(lexeme):
    for text in (f"a = {lexeme};", f"a = ( {lexeme} );", f"a = {lexeme} @"):
        assert _outcome(parse_config, text) == _outcome(reference_parse_config, text)


@settings(max_examples=400, deadline=None)
@given(config_texts())
def test_agrees_with_reference(text):
    assert _outcome(parse_config, text) == _outcome(reference_parse_config, text)
