"""Demo fuzz target: a gNB radio-configuration validator with planted bugs.

The validator reads eight parameters from a parsed config document, rejects
inputs that fail basic domain checks, and then applies band-consistency
rules that crash (rather than reject) on violation.  Each decision emits a
``chk:`` branch label so campaigns can tell novel behavior from repeats.

Consistency rules, first violation wins:

  1. SSB ARFCN outside the configured band        -> crash 101
  2. pointA ARFCN outside the configured band     -> crash 102
  3. carrier bandwidth below the band minimum     -> crash 103
  4. band not in the supported table              -> crash 104
  5. coreset0 index 13..15 (table lookup bug)     -> crash 105

Rules 1..3 need a known band, so an unknown band skips straight to rule 4.

The module doubles as a standalone executable (``python -m
conffuzz.gnb_validator FILE``) that reports branches on stderr and aborts
on crash, for exercising the external-target path end to end.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from itertools import groupby

from .configfmt import (
    ConfigDocument,
    ConfigError,
    ParamPath,
    parse_config,
    serialize_config,
)
from .target import BRANCH_PREFIX, ExecOutcome, OutcomeKind, register_builtin

__all__ = [
    "BANDS",
    "BandSpec",
    "CRASH_CORESET0_BUG",
    "CRASH_MIN_BW",
    "CRASH_POINTA_OUT_OF_BAND",
    "CRASH_SSB_OUT_OF_BAND",
    "CRASH_UNKNOWN_BAND",
    "WATCH_PATHS",
    "baseline_document",
    "baseline_text",
    "main",
    "run_text",
    "validate",
]

CRASH_SSB_OUT_OF_BAND = 101
CRASH_POINTA_OUT_OF_BAND = 102
CRASH_MIN_BW = 103
CRASH_UNKNOWN_BAND = 104
CRASH_CORESET0_BUG = 105

REJECT_BAD_INPUT = 2

BUILTIN_NAME = "gnb-validator"


class BandSpec(namedtuple("BandSpec", "band arfcn_lo arfcn_hi min_bw_rb")):
    __slots__ = ()

    def contains(self, arfcn: int) -> bool:
        return self.arfcn_lo <= arfcn <= self.arfcn_hi


BANDS = (
    BandSpec(41, 499200, 537999, 25),
    BandSpec(78, 620000, 653333, 25),
)


WATCH_PATHS = tuple(
    ParamPath.parse(p)
    for p in (
        "gNBs[0].do_CSIRS",
        "gNBs[0].do_SRS",
        "gNBs[0].servingCellConfigCommon[0].controlResourceSetZero",
        "gNBs[0].servingCellConfigCommon[0].searchSpaceZero",
        "gNBs[0].servingCellConfigCommon[0].absoluteFrequencySSB",
        "gNBs[0].servingCellConfigCommon[0].dl_frequencyBand",
        "gNBs[0].servingCellConfigCommon[0].dl_absoluteFrequencyPointA",
        "gNBs[0].servingCellConfigCommon[0].dl_carrierBandwidth",
    )
)


# (parent's path segments, ((name, failure branch), ...)) per parent of the
# watched parameters, the parents and their names in WATCH_PATHS order, so
# that a parent is read once and the first unreadable parameter still
# fails with its own branch
_WATCHED = tuple(
    (
        parent,
        tuple((p.segments[-1], f"chk:extract:{p.segments[-1]}:fail") for p in paths),
    )
    for parent, paths in groupby(WATCH_PATHS, lambda p: p.segments[:-1])
)


def _extract_view(
    d: ConfigDocument, branches: set[str]
) -> dict[str, int] | None:
    """The eight parameters the validator reads, keyed by name."""
    view = {}
    for segments, params in _WATCHED:
        # plain subscripts: a missing name or index, or a value of the
        # wrong shape on the way, raises one of these; a string indexed by
        # [0] gets through, but only a group holds parameters
        parent = d.root
        try:
            for seg in segments:
                parent = parent[seg]
        except (KeyError, IndexError, TypeError):
            parent = None
        if not isinstance(parent, dict):
            parent = {}
        for name, fail in params:
            v = parent.get(name)
            # strict int: bool is a different parameter type here
            if type(v) is not int:
                branches.add(fail)
                return None
            view[name] = v
    branches.add("chk:extract:ok")
    return view


# (name, lowest, highest, branch when inside, branch when outside)
_DOMAIN_CHECKS = tuple(
    (name, lo, hi, f"chk:{name}:ok", f"chk:{name}:bad")
    for name, lo, hi in (
        ("do_CSIRS", 0, 1),
        ("do_SRS", 0, 1),
        ("controlResourceSetZero", 0, 15),
        ("searchSpaceZero", 0, 15),
    )
)

_BAND_OF = {b.band: b for b in BANDS}

# (branch when the rule holds, branch when it is violated, crash code,
# holds(view, band), message template over the view and the band ``b``).
# Rules 1..3 need a known band, so rule 4 is checked first; the rest keep
# the order of the module docstring.
_CRASH_RULES = (
    (
        "chk:band:known",
        "chk:band:unknown",
        CRASH_UNKNOWN_BAND,
        lambda v, b: b is not None,
        "unknown NR band {dl_frequencyBand}",
    ),
    (
        "chk:ssb_in_band:ok",
        "chk:ssb_in_band:viol",
        CRASH_SSB_OUT_OF_BAND,
        lambda v, b: b.contains(v["absoluteFrequencySSB"]),
        "SSB ARFCN {absoluteFrequencySSB} outside band {b.band} range "
        "[{b.arfcn_lo}, {b.arfcn_hi}]",
    ),
    (
        "chk:pointa_in_band:ok",
        "chk:pointa_in_band:viol",
        CRASH_POINTA_OUT_OF_BAND,
        lambda v, b: b.contains(v["dl_absoluteFrequencyPointA"]),
        "pointA ARFCN {dl_absoluteFrequencyPointA} outside band {b.band} "
        "range [{b.arfcn_lo}, {b.arfcn_hi}]",
    ),
    (
        "chk:min_bw:ok",
        "chk:min_bw:viol",
        CRASH_MIN_BW,
        lambda v, b: v["dl_carrierBandwidth"] >= b.min_bw_rb,
        "carrier bandwidth {dl_carrierBandwidth} RB below minimum "
        "{b.min_bw_rb} for band {b.band}",
    ),
    (
        "chk:coreset0_bug:ok",
        "chk:coreset0_bug:viol",
        CRASH_CORESET0_BUG,
        lambda v, b: not 13 <= v["controlResourceSetZero"] <= 15,
        "coreset0 index {controlResourceSetZero} hits table bug window "
        "[13, 15]",
    ),
)


def validate(d: ConfigDocument) -> tuple[ExecOutcome, frozenset[str]]:
    """Check one parsed document, emitting a branch per decision."""
    branches: set[str] = set()
    view = _extract_view(d, branches)
    if view is None:
        reason = "missing or non-integer parameter"
        return (
            ExecOutcome(OutcomeKind.REJECT, REJECT_BAD_INPUT, reason),
            frozenset(branches),
        )

    for name, lo, hi, inside, outside in _DOMAIN_CHECKS:
        value = view[name]
        if lo <= value <= hi:
            branches.add(inside)
        else:
            branches.add(outside)
            reason = f"{name} = {value} outside [{lo}, {hi}]"
            return (
                ExecOutcome(OutcomeKind.REJECT, REJECT_BAD_INPUT, reason),
                frozenset(branches),
            )

    band = _BAND_OF.get(view["dl_frequencyBand"])
    for held, violated, code, holds, message in _CRASH_RULES:
        if holds(view, band):
            branches.add(held)
        else:
            branches.add(violated)
            reason = f"FATAL[{code}]: " + message.format(b=band, **view)
            return ExecOutcome(OutcomeKind.CRASH, code, reason), frozenset(branches)

    return ExecOutcome(OutcomeKind.OK), frozenset(branches)


def run_text(text: str) -> tuple[ExecOutcome, frozenset[str]]:
    """Parse then validate raw config text: the builtin target entry point."""
    try:
        doc = parse_config(text)
    except ConfigError as e:
        return (
            ExecOutcome(OutcomeKind.REJECT, REJECT_BAD_INPUT, str(e)),
            frozenset({"chk:parse:fail"}),
        )
    outcome, branches = validate(doc)
    return outcome, branches | {"chk:parse:ok"}


# ---------------------------------------------------------------------------
# Baseline configuration


def baseline_document() -> ConfigDocument:
    cell = {
        "physCellId": 0,
        "controlResourceSetZero": 12,
        "searchSpaceZero": 0,
        "absoluteFrequencySSB": 641280,
        "dl_frequencyBand": 78,
        "dl_absoluteFrequencyPointA": 640008,
        "dl_carrierBandwidth": 106,
    }
    gnb = {
        "gNB_ID": 3584,
        "gNB_name": "gNB-demo",
        "do_CSIRS": 1,
        "do_SRS": 1,
        "servingCellConfigCommon": (cell,),
    }
    return ConfigDocument({"gNBs": (gnb,)})


def baseline_text() -> str:
    return serialize_config(baseline_document())


register_builtin(BUILTIN_NAME, run_text)


# ---------------------------------------------------------------------------
# Standalone executable


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: gnb-validator CONFIG_FILE", file=sys.stderr)
        return 1
    try:
        with open(args[0], encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read {args[0]}: {e}", file=sys.stderr)
        return 1
    outcome, branches = run_text(text)
    for branch in sorted(branches):
        print(BRANCH_PREFIX.decode() + branch, file=sys.stderr)
    if outcome.stderr_excerpt:
        print(outcome.stderr_excerpt, file=sys.stderr)
    sys.stderr.flush()
    if outcome.kind is OutcomeKind.CRASH:
        os.abort()
    return 0 if outcome.kind is OutcomeKind.OK else REJECT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
