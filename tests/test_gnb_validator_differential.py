"""The rule-table validator against the block-per-rule validator it replaced.

``gnb_validator_reference`` holds ``validate`` and ``run_text`` as they
were before one loop over a rule table replaced the five crash blocks.
Starting from the baseline document, each of the eight watched parameters
is set from a pool of edge values around every domain bound, band range
and bug window, dropped, or retyped as a bool or a string: one parameter
at a time for every value, and several at once under hypothesis.  Both
validators must then give the same outcome kind, code, stderr excerpt and
branch set.  So must they when a list or group on the way to the watched
parameters is replaced by a value of another kind, or dropped.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem

import gnb_validator_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gnb_validator import with_param

from conffuzz import gnb_validator
from conffuzz.configfmt import ConfigDocument, ParamPath, serialize_config
from conffuzz.gnb_validator import BANDS, WATCH_PATHS, baseline_document
from conffuzz.target import OutcomeKind

DROP = object()
KEEP = object()
ODD = [DROP, False, True, "", "1", "band"]


def _around(*points: int) -> list[int]:
    return sorted({p + d for p in points for d in (-1, 0, 1)})


_BAND_EDGES = [e for b in BANDS for e in (b.arfcn_lo, b.arfcn_hi)]
EDGES = {
    "do_CSIRS": _around(0, 1),
    "do_SRS": _around(0, 1),
    "controlResourceSetZero": _around(0, 12, 13, 15),
    "searchSpaceZero": _around(0, 15),
    "absoluteFrequencySSB": _around(0, 641280, *_BAND_EDGES),
    "dl_frequencyBand": _around(0, 257, *(b.band for b in BANDS)),
    "dl_absoluteFrequencyPointA": _around(0, 640008, *_BAND_EDGES),
    "dl_carrierBandwidth": _around(0, 106, *(b.min_bw_rb for b in BANDS)),
}


def _value(name: str):
    # mostly the baseline value or an edge, so that combinations get past
    # extraction and the domain checks to the crash rules
    odd = st.sampled_from(ODD)
    edge = st.sampled_from(EDGES[name])
    return st.integers(0, 9).flatmap(
        lambda k: odd if k == 0 else st.just(KEEP) if k < 5 else edge
    )


def _changed(doc: ConfigDocument, path, value) -> ConfigDocument:
    if value is KEEP:
        return doc
    if value is DROP:
        return _drop(doc, path.segments[-1])
    # every document here is built fresh, so its groups can be edited
    return with_param(doc, str(path), value)


@st.composite
def documents(draw) -> ConfigDocument:
    doc = baseline_document()
    for path in WATCH_PATHS:
        doc = _changed(doc, path, draw(_value(path.segments[-1])))
    return doc


def _drop(doc: ConfigDocument, name: str) -> ConfigDocument:
    """The document without any setting called ``name``."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != name}
        if isinstance(value, tuple):
            return tuple(strip(item) for item in value)
        return value

    return ConfigDocument(strip(doc.root))


def _view(result):
    outcome, branches = result
    return outcome.kind, outcome.code, outcome.stderr_excerpt, branches


def _assert_same(doc: ConfigDocument):
    got = _view(gnb_validator.validate(doc))
    assert got == _view(reference.validate(doc))
    text = serialize_config(doc)
    assert _view(gnb_validator.run_text(text)) == _view(reference.run_text(text))
    return got


def test_single_changes_match_reference():
    outcomes = set()
    for path in WATCH_PATHS:
        for value in EDGES[path.segments[-1]] + ODD:
            kind, code, _, _ = _assert_same(_changed(baseline_document(), path, value))
            outcomes.add((kind.value, code))
    # every rule is exercised, or the comparison would leave one untested
    assert outcomes == {
        ("ok", None),
        ("reject", 2),
        *(("crash", code) for code in (101, 102, 103, 104, 105)),
    }


@settings(max_examples=500, deadline=None)
@given(documents())
def test_combined_changes_match_reference(doc):
    _assert_same(doc)


# every list and group on the way to the watched parameters
PREFIXES = (
    "gNBs",
    "gNBs[0]",
    "gNBs[0].servingCellConfigCommon",
    "gNBs[0].servingCellConfigCommon[0]",
)


def _reshaped(current) -> list:
    """Values of other kinds to put where ``current``, a list or a group, is."""
    other = ["x", "band", 0, 7, True, False, (), {}]
    if isinstance(current, tuple):
        # a group where a list belongs, and a list whose [0] is a
        # one-character string
        return other + [current[0], ("x",)]
    # a list where a group belongs
    return other + [(current,)]


@pytest.mark.parametrize("prefix", PREFIXES)
def test_reshaped_prefixes_match_reference(prefix):
    segments = ParamPath.parse(prefix).segments
    current = reduce(getitem, segments, baseline_document().root)
    for value in _reshaped(current):
        # each list on the way holds one element, so its [0] is replaced by
        # replacing the list
        if prefix.endswith("[0]"):
            doc = with_param(baseline_document(), prefix[:-3], (value,))
        else:
            doc = with_param(baseline_document(), prefix, value)
        kind, _, _, branches = _assert_same(doc)
        # no watched parameter under the prefix can be read any more
        assert kind is OutcomeKind.REJECT, value
        assert "chk:extract:ok" not in branches, value


@pytest.mark.parametrize(
    "name, first_watched",
    [("gNBs", "do_CSIRS"), ("servingCellConfigCommon", "controlResourceSetZero")],
)
def test_dropped_prefixes_match_reference(name, first_watched):
    # a parent that cannot be reached fails on the first parameter under it
    kind, _, _, branches = _assert_same(_drop(baseline_document(), name))
    assert kind is OutcomeKind.REJECT
    assert f"chk:extract:{first_watched}:fail" in branches
    assert "chk:extract:ok" not in branches
