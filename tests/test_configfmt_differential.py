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

``parse_config`` lexes a text line by line through a bounded cache of each
line's lexemes, which keeps a line that is exactly one ``name = scalar;``
setting as its parsed ``(name, value)`` pair.  Over the same texts, with
separators that probe the line split added, lexing line by line must give
the whole text's lexemes, each such line's four standing as its pair, and
the parser must agree with the reference whether the cache is cold or
warm, and once the cache has been filled past its bound, by one thread
or by several at once.  Whole setting lines are spliced in where a value,
a list element, ``=``, ``;``, ``,`` or ``)`` belongs, repeat a name, and
run past the cache's line length, so that a pair reaches every place the
parser reads a lexeme.
"""

from __future__ import annotations

import pytest
from configfmt_reference import reference_parse_config
from conftest import on_threads
from hypothesis import given, settings
from hypothesis import strategies as st

from conffuzz import configfmt
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
# what lexing line by line must get right: the characters other than "\n"
# that ``\s`` takes in or ``str.splitlines`` splits at, a quote a newline
# leaves open, and a comment that the end of the text closes
LINE_SEPARATORS = st.one_of(
    SEPARATORS,
    st.sampled_from(
        ["\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", '"\n', " # end"]
    ),
)

NOISE_TEXTS = [
    "+", "-", ".", "1e", "1E+", "@", "'x'", "/", "#", "//",
    '"open', '"a\\\nb"', r'"\q"', '"\n"',
    str(2**63), str(-(2**63) - 1), "99999999999999999999",
    "1" * 5000, "0" * 5000 + "1", "-" + "\u0660" * 4400 + "7", "1e999", "-1E999",
    "{", "}", "(", ")", ",", ";", "=", "maybe", "\u0663", "\u00b2", "\xa0",
    "{ a = " * 120, "(" * 120, "( {" * 60,
    "{ a = " * 99 + "1;" + " };" * 99, "(" * 100 + "1" + ")" * 100,
    *sorted(DIGIT_RUNS.values()),
]
NOISE = st.sampled_from(NOISE_TEXTS)

# whole one-setting lines, one of them longer than the cache keeps, for
# splicing anywhere into a text; the names repeat ``NAMES``
SETTING_LINES = [
    "\na = 1;\n",
    "\nb = -2.5e3;\n",
    '\ng = "s";\n',
    "\nx_1 = true;\n",
    "\ntrue = 7;\n",
    "\nfalse = false;\n",
    '\na = "' + "s" * configfmt._LINE_CHARS + '";\n',
]
SETTING_NOISE = st.sampled_from(NOISE_TEXTS + SETTING_LINES)


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
def config_texts(draw, separators=SEPARATORS, noise=NOISE) -> str:
    tokens = draw(settings_list(3))
    # each edit inserts noise, drops a token or duplicates one
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "drop", "repeat"]))
        if edit == "insert":
            tokens.insert(at, draw(noise))
        elif tokens and at < len(tokens):
            if edit == "drop":
                del tokens[at]
            else:
                tokens.insert(at, tokens[at])
    return "".join(tok + draw(separators) for tok in tokens)


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


def _line_items(line: str) -> list:
    """What ``_lex`` must make of one line: its lexemes, or, when they are
    one ``name = scalar;`` setting by the reference parser, the pair of
    that setting's name and value."""
    lexemes = [lex for lex in configfmt._TOKEN_RE.findall(line) if lex]
    if len(lexemes) == 4:
        try:
            root = reference_parse_config(line).root
        except ConfigError:
            root = {}
        if len(root) == 1:
            ((name, value),) = root.items()
            if not isinstance(value, (dict, tuple)):
                assert lexemes[:2] == [name, "="] and lexemes[3] == ";"
                return [(name, value)]
    return lexemes


@settings(max_examples=400, deadline=None)
@given(config_texts(LINE_SEPARATORS, SETTING_NOISE))
def test_lexing_line_by_line_equals_lexing_the_whole_text(text):
    whole = configfmt._TOKEN_RE.findall(text)
    lines = text.split("\n")
    by_line = [
        lex for line in lines for lex in configfmt._TOKEN_RE.findall(line) if lex
    ]
    # the whole text's lexemes are the lines', then one or two empty ones
    assert whole[: len(by_line)] == by_line
    assert whole[len(by_line) :] in ([""], ["", ""])
    # each one-setting line's four lexemes stand as its pair; repr shows
    # each value's type
    items = [item for line in lines for item in _line_items(line)]
    assert len(by_line) == sum(4 if type(i) is tuple else 1 for i in items)
    configfmt._lines.clear()
    assert repr(configfmt._lex(text)) == repr(items + [""])
    assert repr(configfmt._lex(text)) == repr(items + [""])


@settings(max_examples=400, deadline=None)
@given(config_texts(LINE_SEPARATORS))
def test_agrees_with_reference_with_the_line_cache_cold_and_warm(text):
    expected = _outcome(reference_parse_config, text)
    configfmt._lines.clear()
    assert _outcome(parse_config, text) == expected
    assert _outcome(parse_config, text) == expected


LONG_SETTING = 'a = "' + "s" * configfmt._LINE_CHARS + '";'

# a whole setting line where each other lexeme belongs, a name repeated
# through setting lines, and a setting line longer than the cache keeps
SETTING_LINE_CASES = {
    "after-equals": "a =\nb = 1;\n",
    "after-equals-long": "b =\n" + LONG_SETTING,
    "after-equals-bool-name": "a =\ntrue = 1;\n",
    "list-element": "a = (\nb = 1;\n);",
    "after-comma": "a = ( 1,\nb = 1;\n);",
    "for-equals": "a\nb = 1;\n= 1;",
    "for-semicolon": "a = 1\nb = 1;\n",
    "for-comma-or-paren": "a = ( 1\nb = 1;\n);",
    "for-closer": "a = {\nb = 1;\n",
    "true-value-then-equals": "a = (\ntrue = 1;\n);",
    "repeat-two-lines": "a = 1;\nb = 2;\na = 3;\n",
    "repeat-after-plain": "a = 1; b = 2;\na = 3;\n",
    "repeat-before-plain": "a = 3;\nb = 2; a = 1;\n",
    "repeat-in-group": "g = {\na = 1;\na = 2;\n};",
    "same-name-other-groups": "g = {\na = 1;\n};\nx_1 = {\na = 1;\n};\na = 1;",
    "repeat-long": LONG_SETTING + "\n" + LONG_SETTING,
    "long-then-short": LONG_SETTING + "\na = 1;",
    "group-closes": "g = {\na = 1;\n};\nb = 2;",
    "bad-value-line": "a = 1;\nb = 1e999;\nc = @;",
    "bad-char-after": "a = 1;\nb = 2;\n@",
    "out-of-range": "a = 1;\nb = " + str(2**63) + ";",
    "bad-escape": 'a = 1;\nb = "\\q";',
    "open-list-at-end": "a = (\nb = 1;",
    # four lexemes, but the third opens a group or a list
    "group-opens-in-line": "a = {;\nb = 1;\n};",
    "list-opens-in-line": "a = (;\n);",
}


@pytest.mark.parametrize(
    "text", SETTING_LINE_CASES.values(), ids=SETTING_LINE_CASES.keys()
)
def test_agrees_on_setting_lines_cold_and_warm(text):
    expected = _outcome(reference_parse_config, text)
    configfmt._lines.clear()
    assert _outcome(parse_config, text) == expected
    assert _outcome(parse_config, text) == expected


def test_agrees_on_setting_lines_shared_by_threads():
    texts = list(SETTING_LINE_CASES.values())
    expected = [_outcome(reference_parse_config, text) for text in texts]
    faults: list[str] = []

    def parse_all(worker: int) -> None:
        for _ in range(20):
            # each thread starts at another case
            for i in range(worker, worker + len(texts)):
                text = texts[i % len(texts)]
                if _outcome(parse_config, text) != expected[i % len(texts)]:
                    faults.append(text)

    configfmt._lines.clear()
    on_threads(parse_all)
    assert faults == []


@settings(max_examples=400, deadline=None)
@given(config_texts(SEPARATORS, st.sampled_from(SETTING_LINES)))
def test_agrees_with_setting_lines_spliced_in(text):
    expected = _outcome(reference_parse_config, text)
    configfmt._lines.clear()
    assert _outcome(parse_config, text) == expected
    assert _outcome(parse_config, text) == expected


def test_line_cache_stays_bounded():
    entries, chars = configfmt._LINE_ENTRIES, configfmt._LINE_CHARS
    long_line = "b = ( " + ", ".join(["7"] * chars) + " );"
    one_line = "a = 1;\r" * chars
    texts = [long_line, one_line, long_line + "\nb = 1;", "a = 1; # " + "c" * chars]
    # eight fresh lines a text, some of them wrong, past the entry cap
    for i in range(entries // 4):
        lines = [f"x{i}_{j} = {j};" for j in range(8)]
        if i % 3 == 1:
            lines[i % 8] = f"x{i}_0 = {i};"
        elif i % 3 == 2:
            lines[i % 8] += " @"
        texts.append("\n".join(lines))
    configfmt._lines.clear()
    for text in texts:
        assert _outcome(parse_config, text) == _outcome(reference_parse_config, text)
        assert len(configfmt._lines) <= entries
        assert all(len(line) <= chars for line in configfmt._lines)
    assert long_line not in configfmt._lines
    assert one_line not in configfmt._lines


def test_line_cache_stays_bounded_under_threads():
    """A caller's own threads may parse at once and share the cache."""
    entries = configfmt._LINE_ENTRIES
    faults: list[str] = []

    def parse_fresh_lines(worker: int) -> None:
        for i in range(entries // 8):
            names = [f"t{worker}_{i}_{j}" for j in range(8)]
            text = "\n".join(f"{name} = {j};" for j, name in enumerate(names))
            if parse_config(text).root != {name: j for j, name in enumerate(names)}:
                faults.append(f"wrong document for {text!r}")
            if len(configfmt._lines) > entries:
                faults.append(f"{len(configfmt._lines)} lines cached")

    configfmt._lines.clear()
    on_threads(parse_fresh_lines)
    assert faults == []
