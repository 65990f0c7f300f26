"""The demo validator's checks as they were before one loop over a rule
table replaced the five copy-pasted crash blocks: ``validate`` reads the
eight watched parameters into a frozen ``ValidatorView`` and checks each
consistency rule in its own block, and ``run_text`` adds the parse branch
with ``Feedback.union``.  ``Feedback.union`` is inlined here as a set
union.

Kept only as the reference that ``test_gnb_validator_differential.py``
compares ``conffuzz.gnb_validator.validate`` and ``run_text`` against;
the package does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from conffuzz.configfmt import ConfigDocument, ConfigError, get_param, parse_config
from conffuzz.gnb_validator import (
    BANDS,
    CRASH_CORESET0_BUG,
    CRASH_MIN_BW,
    CRASH_POINTA_OUT_OF_BAND,
    CRASH_SSB_OUT_OF_BAND,
    CRASH_UNKNOWN_BAND,
    REJECT_BAD_INPUT,
    WATCH_PATHS,
)
from conffuzz.target import ExecOutcome, OutcomeKind


@dataclass(frozen=True)
class ValidatorView:
    """The eight parameters the validator actually reads."""

    do_CSIRS: int
    do_SRS: int
    controlResourceSetZero: int
    searchSpaceZero: int
    absoluteFrequencySSB: int
    dl_frequencyBand: int
    dl_absoluteFrequencyPointA: int
    dl_carrierBandwidth: int


def _extract_view(
    d: ConfigDocument, branches: set[str]
) -> ValidatorView | None:
    values = []
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
        values.append(v)
    branches.add("chk:extract:ok")
    return ValidatorView(*values)


_DOMAIN_CHECKS = (
    ("do_CSIRS", 0, 1),
    ("do_SRS", 0, 1),
    ("controlResourceSetZero", 0, 15),
    ("searchSpaceZero", 0, 15),
)


def validate(d: ConfigDocument) -> tuple[ExecOutcome, frozenset[str]]:
    """Check one parsed document, emitting a branch per decision."""
    branches: set[str] = set()
    view = _extract_view(d, branches)
    if view is None:
        return (
            ExecOutcome(
                OutcomeKind.REJECT, REJECT_BAD_INPUT, "missing or non-integer parameter"
            ),
            frozenset(branches),
        )

    for name, lo, hi in _DOMAIN_CHECKS:
        value = getattr(view, name)
        if lo <= value <= hi:
            branches.add(f"chk:{name}:ok")
        else:
            branches.add(f"chk:{name}:bad")
            return (
                ExecOutcome(
                    OutcomeKind.REJECT,
                    REJECT_BAD_INPUT, f"{name} = {value} outside [{lo}, {hi}]"
                ),
                frozenset(branches),
            )

    band = next(
        (b for b in BANDS if b.band == view.dl_frequencyBand), None
    )
    if band is None:
        branches.add("chk:band:unknown")
        return (
            ExecOutcome(
                OutcomeKind.CRASH,
                CRASH_UNKNOWN_BAND,
                f"FATAL[{CRASH_UNKNOWN_BAND}]: unknown NR band "
                f"{view.dl_frequencyBand}",
            ),
            frozenset(branches),
        )
    branches.add("chk:band:known")

    if band.contains(view.absoluteFrequencySSB):
        branches.add("chk:ssb_in_band:ok")
    else:
        branches.add("chk:ssb_in_band:viol")
        return (
            ExecOutcome(
                OutcomeKind.CRASH,
                CRASH_SSB_OUT_OF_BAND,
                f"FATAL[{CRASH_SSB_OUT_OF_BAND}]: SSB ARFCN "
                f"{view.absoluteFrequencySSB} outside band {band.band} range "
                f"[{band.arfcn_lo}, {band.arfcn_hi}]",
            ),
            frozenset(branches),
        )

    if band.contains(view.dl_absoluteFrequencyPointA):
        branches.add("chk:pointa_in_band:ok")
    else:
        branches.add("chk:pointa_in_band:viol")
        return (
            ExecOutcome(
                OutcomeKind.CRASH,
                CRASH_POINTA_OUT_OF_BAND,
                f"FATAL[{CRASH_POINTA_OUT_OF_BAND}]: pointA ARFCN "
                f"{view.dl_absoluteFrequencyPointA} outside band {band.band} "
                f"range [{band.arfcn_lo}, {band.arfcn_hi}]",
            ),
            frozenset(branches),
        )

    if view.dl_carrierBandwidth >= band.min_bw_rb:
        branches.add("chk:min_bw:ok")
    else:
        branches.add("chk:min_bw:viol")
        return (
            ExecOutcome(
                OutcomeKind.CRASH,
                CRASH_MIN_BW,
                f"FATAL[{CRASH_MIN_BW}]: carrier bandwidth "
                f"{view.dl_carrierBandwidth} RB below minimum {band.min_bw_rb} "
                f"for band {band.band}",
            ),
            frozenset(branches),
        )

    if 13 <= view.controlResourceSetZero <= 15:
        branches.add("chk:coreset0_bug:viol")
        return (
            ExecOutcome(
                OutcomeKind.CRASH,
                CRASH_CORESET0_BUG,
                f"FATAL[{CRASH_CORESET0_BUG}]: coreset0 index "
                f"{view.controlResourceSetZero} hits table bug window [13, 15]",
            ),
            frozenset(branches),
        )
    branches.add("chk:coreset0_bug:ok")

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
