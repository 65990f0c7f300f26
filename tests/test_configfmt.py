"""Config dialect: parser, canonical serializer, parameter addressing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conffuzz.configfmt import (
    ConfigDocument,
    ConfigSyntaxError,
    DuplicateNameError,
    NotAScalarError,
    ParamPath,
    PathNotFoundError,
    diff_params,
    format_scalar,
    get_param,
    parse_config,
    serialize_config,
)

SMALL = """\
alpha = 1;
beta = -2;
gamma = 3.5;
name = "hello";
flag = true;
off = false;
"""

NESTED = """\
gNBs = (
  {
    gNB_ID = 3584;
    cells = (
      {
        physCellId = 0;
      },
      {
        physCellId = 1;
      }
    );
  }
);
"""


class TestParse:
    def test_scalars(self):
        d = parse_config(SMALL)
        got = d.root
        assert got == {
            "alpha": 1,
            "beta": -2,
            "gamma": 3.5,
            "name": "hello",
            "flag": True,
            "off": False,
        }
        # bools must stay bools and ints ints
        assert type(got["alpha"]) is int
        assert type(got["flag"]) is bool

    def test_setting_order_preserved(self):
        d = parse_config(SMALL)
        assert list(d.root) == [
            "alpha",
            "beta",
            "gamma",
            "name",
            "flag",
            "off",
        ]

    def test_nested_groups_and_lists(self):
        d = parse_config(NESTED)
        gnbs = d.root["gNBs"]
        assert isinstance(gnbs, tuple)
        assert len(gnbs) == 1
        cell_list = gnbs[0]["cells"]
        assert isinstance(cell_list, tuple)
        assert [g["physCellId"] for g in cell_list] == [0, 1]

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x = 0.5;", 0.5),
            ("x = .5;", 0.5),
            ("x = 2.;", 2.0),
            ("x = 1e3;", 1000.0),
            ("x = -1.5e-2;", -0.015),
            ("x = +3;", 3),
            ("x = -0;", 0),
        ],
    )
    def test_numeric_forms(self, text, expected):
        v = parse_config(text).root["x"]
        assert v == expected
        assert type(v) is type(expected)

    def test_comments_ignored(self):
        text = "# leading\na = 1; // trailing\n// whole line\nb = 2; # another\n"
        d = parse_config(text)
        assert list(d.root) == ["a", "b"]

    def test_empty_group_and_list(self):
        d = parse_config("g = { };\nl = ( );\n")
        assert d.root["g"] == {}
        assert d.root["l"] == ()

    def test_scalar_list(self):
        d = parse_config("xs = ( 1, 2, 3 );\n")
        assert d.root["xs"] == (1, 2, 3)

    def test_string_escapes(self):
        d = parse_config(r'm = "a\"b\\c\nd\te\rf";' + "\n")
        assert d.root["m"] == 'a"b\\c\nd\te\rf'

    def test_int64_bounds_accepted(self):
        d = parse_config(f"lo = {-(2**63)};\nhi = {2**63 - 1};\n")
        assert d.root["lo"] == -(2**63)
        assert d.root["hi"] == 2**63 - 1

    def test_leading_zeros_past_int_digit_limit(self):
        # int() alone refuses more than 4300 digits, zeros included
        d = parse_config("a = " + "0" * 5000 + "1;\nb = -" + "0" * 5000 + "7;\n")
        assert list(d.root.values()) == [1, -7]

    def test_whitespace_insensitive(self):
        a = parse_config("a=1;b={c=2;};")
        b = parse_config("a = 1;\nb = {\n  c = 2;\n};\n")
        assert a == b


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "a = 1",  # missing semicolon
            "a = ;",
            "= 1;",
            "a 1;",
            "a = {;",
            "a = ( 1, );",
            "a = ( 1 2 );",
            'a = "unterminated;',
            "a = 'single';",
            "a = @;",
            "x = }",
            "a = { b = 1; ",
            f"a = {2**63};",
            f"a = {-(2**63) - 1};",
            pytest.param("a = " + "1" * 5000 + ";", id="5000-digit-int"),
            pytest.param("a = " + "0" * 5000 + str(2**63) + ";", id="zero-padded-2**63"),
            "a = 1e999;",
            "a = -1E999;",
            r'a = "\q";',
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ConfigSyntaxError):
            parse_config(text)

    def test_error_location(self):
        with pytest.raises(ConfigSyntaxError) as info:
            parse_config("a = 1;\nb = @;\n")
        assert info.value.line == 2
        assert info.value.col == 5

    def test_duplicate_name_same_scope(self):
        with pytest.raises(DuplicateNameError) as info:
            parse_config("a = 1;\na = 2;\n")
        assert info.value.name == "a"
        assert info.value.line == 2

    def test_duplicate_allowed_across_scopes(self):
        d = parse_config("a = 1;\ng = {\n  a = 2;\n};\n")
        assert get_param(d, ParamPath.parse("a")) == 1
        assert get_param(d, ParamPath.parse("g.a")) == 2

    def test_true_false_not_names(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("a = maybe;\n")

    def test_nesting_limit_is_a_syntax_error_at_the_opener(self):
        deep = "a = " + "{ b = " * 100 + "1;" + " };" * 100
        assert get_param(
            parse_config(deep), ParamPath.parse("a" + ".b" * 100)
        ) == 1
        lists = parse_config("a = " + "(" * 100 + "1" + ")" * 100 + ";")
        assert get_param(lists, ParamPath.parse("a" + "[0]" * 100)) == 1
        for text, col in [
            ("a = " + "{ b = " * 101 + "1;" + " };" * 101, 5 + 6 * 100),
            ("a = " + "(" * 101 + ")" * 101 + ";", 5 + 100),
            ("a = " + "( { b = " * 600, 5 + 8 * 50),
        ]:
            with pytest.raises(ConfigSyntaxError) as info:
                parse_config(text)
            assert "nesting deeper than 100 levels" in str(info.value)
            assert (info.value.line, info.value.col) == (1, col)


class TestSerialize:
    def test_canonical_bytes(self):
        d = ConfigDocument(
            {
                "n": 3,
                "g": {"inner": True, "s": 'say "hi"'},
                "xs": (1, {"y": 2.5}),
                "empty_g": {},
                "empty_l": (),
            }
        )
        assert serialize_config(d) == (
            "n = 3;\n"
            "g = {\n"
            "  inner = true;\n"
            '  s = "say \\"hi\\"";\n'
            "};\n"
            "xs = (\n"
            "  1,\n"
            "  {\n"
            "    y = 2.5;\n"
            "  }\n"
            ");\n"
            "empty_g = { };\n"
            "empty_l = ( );\n"
        )

    def test_nested_round_trip_is_identity(self):
        canonical = serialize_config(parse_config(NESTED))
        assert canonical == NESTED
        assert serialize_config(parse_config(canonical)) == canonical

    def test_trailing_newline(self):
        assert serialize_config(parse_config("a=1;")).endswith(";\n")

    @pytest.mark.parametrize(
        "value,text",
        [
            (True, "true"),
            (False, "false"),
            (0, "0"),
            (-7, "-7"),
            (2.5, "2.5"),
            (0.1, "0.1"),
            ("", '""'),
            ("tab\there", '"tab\\there"'),
        ],
    )
    def test_format_scalar(self, value, text):
        assert format_scalar(value) == text

    def test_format_scalar_rejects_nonfinite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                format_scalar(bad)

    def test_serialize_rejects_out_of_range_int(self):
        d = ConfigDocument({"a": 2**63})
        with pytest.raises(ValueError):
            serialize_config(d)


class TestDocumentEquality:
    def test_int_vs_bool_distinct(self):
        a = parse_config("x = 1;\n")
        b = parse_config("x = true;\n")
        assert a != b

    def test_int_vs_real_distinct(self):
        assert parse_config("x = 1;\n") != parse_config("x = 1.0;\n")

    def test_equal_documents_hash_equal(self):
        a = parse_config("x = 1; y = { z = 2; };")
        b = parse_config("x=1;y={z=2;};")
        assert a == b
        assert hash(a) == hash(b)


class TestParamPath:
    @pytest.mark.parametrize(
        "text,segments",
        [
            ("a", ("a",)),
            ("a.b", ("a", "b")),
            ("a[0]", ("a", 0)),
            ("a[0].b[12].c", ("a", 0, "b", 12, "c")),
            ("_x1[3]", ("_x1", 3)),
        ],
    )
    def test_parse_and_str_round_trip(self, text, segments):
        p = ParamPath.parse(text)
        assert p.segments == segments
        assert str(p) == text

    @pytest.mark.parametrize(
        "text",
        ["", ".", "a.", ".a", "a..b", "[0]", "a[-1]", "a[x]", "a[0", "1a", "a b"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            ParamPath.parse(text)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ParamPath(())
        with pytest.raises(ValueError):
            ParamPath((0, "a"))
        with pytest.raises(ValueError):
            ParamPath(("a", True))
        with pytest.raises(ValueError, match=r"^bad identifier in path: '1a'$"):
            ParamPath(("a", "1a"))
        with pytest.raises(ValueError, match=r"^negative list index in path: -1$"):
            ParamPath(("a", -1))


class TestGetSetDiff:
    def test_get_nested(self):
        d = parse_config(NESTED)
        p = ParamPath.parse("gNBs[0].cells[1].physCellId")
        assert get_param(d, p) == 1

    def test_get_missing_raises(self):
        d = parse_config(NESTED)
        for bad in ("nope", "gNBs[0].nope", "gNBs[2].gNB_ID", "gNBs[0].gNB_ID.x"):
            with pytest.raises(PathNotFoundError):
                get_param(d, ParamPath.parse(bad))

    def test_get_non_scalar_raises(self):
        d = parse_config(NESTED)
        with pytest.raises(NotAScalarError, match=r"^gNBs addresses a list$"):
            get_param(d, ParamPath.parse("gNBs"))
        with pytest.raises(NotAScalarError, match=r"^gNBs\[0\] addresses a group$"):
            get_param(d, ParamPath.parse("gNBs[0]"))

    def test_diff_follows_document_order(self):
        a = parse_config(NESTED)
        b = parse_config(
            NESTED.replace("3584", "2").replace("= 0;", "= 7;").replace("= 1;", "= 2;")
        )
        assert [(str(p), va, vb) for p, va, vb in diff_params(a, b)] == [
            ("gNBs[0].gNB_ID", 3584, 2),
            ("gNBs[0].cells[0].physCellId", 0, 7),
            ("gNBs[0].cells[1].physCellId", 1, 2),
        ]

    def test_diff_ignores_type_identical_values(self):
        a = parse_config("x = 1;\ny = 2;\n")
        b = parse_config("x = 1;\ny = 3;\n")
        assert diff_params(a, b) == [(ParamPath(("y",)), 2, 3)]

    def test_diff_flags_type_changes(self):
        a = parse_config("x = 1;\n")
        b = parse_config("x = true;\n")
        assert diff_params(a, b) == [(ParamPath(("x",)), 1, True)]

    def test_diff_skips_paths_missing_in_either(self):
        a = parse_config("x = 1;\ny = 2;\n")
        b = parse_config("y = 2;\nz = 3;\n")
        assert diff_params(a, b) == []


# Hypothesis: any document built from dicts, tuples and scalars survives a
# serialize/parse round trip unchanged.

_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("true", "false")
)
_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(
        st.characters(blacklist_categories=("Cs", "Cc")), max_size=12
    ),
)


def _values(depth: int):
    if depth <= 0:
        return _scalars
    sub = _values(depth - 1)
    return st.one_of(
        _scalars,
        st.lists(sub, max_size=3).map(tuple),
        _groups(depth - 1),
    )


def _groups(depth: int):
    return st.dictionaries(_names, _values(depth), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_groups(2))
def test_round_trip_property(root):
    doc = ConfigDocument(root)
    text = serialize_config(doc)
    again = parse_config(text)
    assert again == doc
    assert serialize_config(again) == text


# Hypothesis: diff_params gives the list its earlier definition gave, which
# built a ParamPath for every scalar of both documents.


def _reference_iter_params(d: ConfigDocument):
    def walk(value, prefix):
        if isinstance(value, dict):
            for name, item in value.items():
                yield from walk(item, prefix + (name,))
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                yield from walk(item, prefix + (i,))
        else:
            yield ParamPath(prefix), value

    yield from walk(d.root, ())


def _reference_diff_params(a: ConfigDocument, b: ConfigDocument):
    b_values = {p: v for p, v in _reference_iter_params(b)}
    out = []
    for p, va in _reference_iter_params(a):
        if p in b_values and not (
            type(va) is type(b_values[p]) and va == b_values[p]
        ):
            out.append((p, va, b_values[p]))
    return out


@st.composite
def _edited(draw, value):
    """``value`` with some scalars replaced and some settings dropped, so
    that a pair of documents shares most of its paths."""
    if isinstance(value, dict):
        return {
            name: draw(_edited(item))
            for name, item in value.items()
            if draw(st.integers(0, 5))
        }
    if isinstance(value, tuple):
        return tuple(draw(_edited(item)) for item in value)
    return draw(st.one_of(st.just(value), _scalars))


@st.composite
def _document_pairs(draw):
    a = draw(_groups(2))
    b = draw(st.one_of(_edited(a), _groups(2)))
    return ConfigDocument(a), ConfigDocument(b)


@settings(max_examples=300, deadline=None)
@given(_document_pairs())
def test_diff_params_matches_its_reference(pair):
    a, b = pair
    # repr shows each scalar's type, which == would not
    assert repr(diff_params(a, b)) == repr(_reference_diff_params(a, b))
    assert diff_params(a, a) == []
