"""The rule-table validator against the block-per-rule validator it replaced.

``gnb_validator_reference`` holds ``validate`` and ``run_text`` as they
were before one loop over a rule table replaced the five crash blocks.
Starting from the baseline document, each of the eight watched parameters
is set from a pool of edge values around every domain bound, band range
and bug window, dropped, or retyped as a bool or a string: one parameter
at a time for every value, and several at once under hypothesis.  Both
validators must then give the same outcome kind, code, stderr excerpt and
branch set.
"""

from __future__ import annotations

import gnb_validator_reference as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from conffuzz import gnb_validator
from conffuzz.configfmt import (
    ConfigDocument,
    ConfigList,
    Group,
    Setting,
    serialize_config,
    set_param,
)
from conffuzz.gnb_validator import WATCH_PATHS, band_table, baseline_document

DROP = object()
KEEP = object()
ODD = [DROP, False, True, "", "1", "band"]


def _around(*points: int) -> list[int]:
    return sorted({p + d for p in points for d in (-1, 0, 1)})


_BAND_EDGES = [e for b in band_table() for e in (b.arfcn_lo, b.arfcn_hi)]
EDGES = {
    "do_CSIRS": _around(0, 1),
    "do_SRS": _around(0, 1),
    "controlResourceSetZero": _around(0, 12, 13, 15),
    "searchSpaceZero": _around(0, 15),
    "absoluteFrequencySSB": _around(0, 641280, *_BAND_EDGES),
    "dl_frequencyBand": _around(0, 257, *(b.band for b in band_table())),
    "dl_absoluteFrequencyPointA": _around(0, 640008, *_BAND_EDGES),
    "dl_carrierBandwidth": _around(0, 106, *(b.min_bw_rb for b in band_table())),
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
    return set_param(doc, path, value)


@st.composite
def documents(draw) -> ConfigDocument:
    doc = baseline_document()
    for path in WATCH_PATHS:
        doc = _changed(doc, path, draw(_value(path.segments[-1])))
    return doc


def _drop(doc: ConfigDocument, name: str) -> ConfigDocument:
    """The document without any setting called ``name``."""

    def strip(value):
        if isinstance(value, Group):
            return Group(
                tuple(
                    Setting(s.name, strip(s.value))
                    for s in value.settings
                    if s.name != name
                )
            )
        if isinstance(value, ConfigList):
            return ConfigList(tuple(strip(item) for item in value.values))
        return value

    return ConfigDocument(strip(doc.root))


def _view(result):
    outcome, fb = result
    return outcome.kind, outcome.code, outcome.stderr_excerpt, fb.branches


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
