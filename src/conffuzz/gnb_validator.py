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
from dataclasses import dataclass
from pathlib import Path

from .configfmt import (
    ConfigDocument,
    ConfigError,
    ConfigList,
    Group,
    ParamPath,
    Setting,
    get_param,
    parse_config,
    serialize_config,
    set_param,
)
from .target import ExecOutcome, Feedback, register_builtin

__all__ = [
    "BandSpec",
    "CRASH_CORESET0_BUG",
    "CRASH_MIN_BW",
    "CRASH_POINTA_OUT_OF_BAND",
    "CRASH_SSB_OUT_OF_BAND",
    "CRASH_UNKNOWN_BAND",
    "SAMPLE_CASES",
    "WATCH_PATHS",
    "band_table",
    "baseline_document",
    "baseline_text",
    "main",
    "run_text",
    "sample_case_document",
    "validate",
]

CRASH_SSB_OUT_OF_BAND = 101
CRASH_POINTA_OUT_OF_BAND = 102
CRASH_MIN_BW = 103
CRASH_UNKNOWN_BAND = 104
CRASH_CORESET0_BUG = 105

REJECT_BAD_INPUT = 2

BUILTIN_NAME = "gnb-validator"


@dataclass(frozen=True)
class BandSpec:
    band: int
    arfcn_lo: int
    arfcn_hi: int
    min_bw_rb: int

    def contains(self, arfcn: int) -> bool:
        return self.arfcn_lo <= arfcn <= self.arfcn_hi


_BANDS = (
    BandSpec(41, 499200, 537999, 25),
    BandSpec(78, 620000, 653333, 25),
)


def band_table() -> tuple[BandSpec, ...]:
    return _BANDS


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


def _extract_view(
    d: ConfigDocument, branches: set[str]
) -> dict[str, int] | None:
    """The eight parameters the validator reads, keyed by name."""
    view = {}
    for path in WATCH_PATHS:
        name = path.segments[-1]
        try:
            v = get_param(d, path)
        except ConfigError:
            branches.add(f"chk:extract:{name}:fail")
            return None
        # strict int: bool is a different parameter type here
        if type(v) is not int:
            branches.add(f"chk:extract:{name}:fail")
            return None
        view[name] = v
    branches.add("chk:extract:ok")
    return view


_DOMAIN_CHECKS = (
    ("do_CSIRS", 0, 1),
    ("do_SRS", 0, 1),
    ("controlResourceSetZero", 0, 15),
    ("searchSpaceZero", 0, 15),
)

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


def validate(d: ConfigDocument) -> tuple[ExecOutcome, Feedback]:
    """Check one parsed document, emitting a branch per decision."""
    branches: set[str] = set()
    view = _extract_view(d, branches)
    if view is None:
        return (
            ExecOutcome.reject(REJECT_BAD_INPUT, "missing or non-integer parameter"),
            Feedback(frozenset(branches)),
        )

    for name, lo, hi in _DOMAIN_CHECKS:
        value = view[name]
        if lo <= value <= hi:
            branches.add(f"chk:{name}:ok")
        else:
            branches.add(f"chk:{name}:bad")
            return (
                ExecOutcome.reject(
                    REJECT_BAD_INPUT, f"{name} = {value} outside [{lo}, {hi}]"
                ),
                Feedback(frozenset(branches)),
            )

    band = next(
        (b for b in _BANDS if b.band == view["dl_frequencyBand"]), None
    )
    for held, violated, code, holds, message in _CRASH_RULES:
        if holds(view, band):
            branches.add(held)
        else:
            branches.add(violated)
            return (
                ExecOutcome.crash(
                    code, f"FATAL[{code}]: " + message.format(b=band, **view)
                ),
                Feedback(frozenset(branches)),
            )

    return ExecOutcome.ok(), Feedback(frozenset(branches))


def run_text(text: str) -> tuple[ExecOutcome, Feedback]:
    """Parse then validate raw config text: the builtin target entry point."""
    try:
        doc = parse_config(text)
    except ConfigError as e:
        return (
            ExecOutcome.reject(REJECT_BAD_INPUT, str(e)),
            Feedback.of("chk:parse:fail"),
        )
    outcome, fb = validate(doc)
    return outcome, Feedback(fb.branches | {"chk:parse:ok"})


# ---------------------------------------------------------------------------
# Baseline configuration and the calibrated sample cases


def baseline_document() -> ConfigDocument:
    cell = Group(
        (
            Setting("physCellId", 0),
            Setting("controlResourceSetZero", 12),
            Setting("searchSpaceZero", 0),
            Setting("absoluteFrequencySSB", 641280),
            Setting("dl_frequencyBand", 78),
            Setting("dl_absoluteFrequencyPointA", 640008),
            Setting("dl_carrierBandwidth", 106),
        )
    )
    gnb = Group(
        (
            Setting("gNB_ID", 3584),
            Setting("gNB_name", "gNB-demo"),
            Setting("do_CSIRS", 1),
            Setting("do_SRS", 1),
            Setting("servingCellConfigCommon", ConfigList((cell,))),
        )
    )
    return ConfigDocument(Group((Setting("gNBs", ConfigList((gnb,))),)))


def baseline_text() -> str:
    return serialize_config(baseline_document())


# Misconfiguration scenarios exercised in tests and shipped as fixtures;
# values give only the parameters changed from the baseline.
SAMPLE_CASES: dict[str, dict[str, int]] = {
    "case1": {
        "do_CSIRS": 0,
        "do_SRS": 0,
        "controlResourceSetZero": 9,
        "searchSpaceZero": 9,
        "absoluteFrequencySSB": 433096,
    },
    "case2": {
        "do_CSIRS": 0,
        "do_SRS": 0,
        "controlResourceSetZero": 3,
        "searchSpaceZero": 8,
        "absoluteFrequencySSB": 641272,
        "dl_absoluteFrequencyPointA": 43000,
        "dl_carrierBandwidth": 25,
    },
    "case3": {
        "do_CSIRS": 0,
        "do_SRS": 0,
        "controlResourceSetZero": 9,
        "searchSpaceZero": 9,
        "absoluteFrequencySSB": 642016,
        "dl_frequencyBand": 41,
        "dl_absoluteFrequencyPointA": 43000,
        "dl_carrierBandwidth": 25,
    },
    "case4": {
        "do_CSIRS": 0,
        "controlResourceSetZero": 6,
        "searchSpaceZero": 8,
        "absoluteFrequencySSB": 623232,
        "dl_absoluteFrequencyPointA": 43000,
        "dl_carrierBandwidth": 24,
    },
    "case5": {
        "dl_frequencyBand": 257,
    },
}


def sample_case_document(name: str) -> ConfigDocument:
    overrides = SAMPLE_CASES[name]
    doc = baseline_document()
    for path in WATCH_PATHS:
        tail = path.segments[-1]
        if tail in overrides:
            doc = set_param(doc, path, overrides[tail])
    return doc


register_builtin(BUILTIN_NAME, run_text)


# ---------------------------------------------------------------------------
# Standalone executable


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: gnb-validator CONFIG_FILE", file=sys.stderr)
        return 1
    try:
        text = Path(args[0]).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read {args[0]}: {e}", file=sys.stderr)
        return 1
    outcome, fb = run_text(text)
    for branch in sorted(fb.branches):
        print(f"##branch:{branch}", file=sys.stderr)
    if outcome.stderr_excerpt:
        print(outcome.stderr_excerpt, file=sys.stderr)
    sys.stderr.flush()
    if outcome.kind.value == "crash":
        os.abort()
    return 0 if outcome.kind.value == "ok" else REJECT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
