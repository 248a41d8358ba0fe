"""Report payloads: tagged rational values, stable JSON, plot-data CSV.

Every number that enters a report is wrapped with an exactness tag so a
reader can tell a true value from an enclosure from a finite-scale
observation:

  "exact"            single rational, no approximation anywhere
  "bracket"          certified enclosure [lo, hi] of the true value
  "window-validated" constant checked only over a finite range of scales

Serialization is byte-stable: rationals render as canonical fraction
strings, decimals via exact integer rounding, JSON with sorted keys.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Union

from .certify import ProductBracket
from .doubling import DoublingReport
from .ratio import PLOT_EXACT_BITS, SERIALIZE_PLACES, decimal_str, rat_str

Rat = Union[Fraction, int, str]


def tag_exact(x: Rat) -> dict:
    x = Fraction(x)
    return {"kind": "exact", "value": str(x), "decimal": decimal_str(x)}


def tag_bracket(lo: Rat, hi: Rat) -> dict:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        return tag_exact(lo)
    return {"kind": "bracket", "lo": str(lo), "hi": str(hi),
            "lo_decimal": decimal_str(lo), "hi_decimal": decimal_str(hi)}


def tag_window(window: tuple[Rat, Rat]):
    """The tag of a constant that was only checked for scales inside `window`,
    as a function of the constant; the window's ends render once."""
    lo, hi = rat_str(window[0]), rat_str(window[1])

    def tag(x: Rat) -> dict:
        x = Fraction(x)
        return {"kind": "window-validated", "value": str(x), "decimal": decimal_str(x), "window": [lo, hi]}
    return tag


def tag_product(pb: ProductBracket) -> dict:
    # a product's ends are huge exact rationals: the report stores their
    # certified outward rounding to the SERIALIZE_PLACES grid
    scale = 10**SERIALIZE_PLACES
    lo, hi = pb.grid(scale)
    out = tag_bracket(Fraction(lo, scale), Fraction(hi, scale))
    out["n_terms"] = pb.n_terms
    return out


def doubling_report_payload(rep: DoublingReport) -> dict:
    """Serialize a scan report; scan constants hold on the scanned window."""
    tag = tag_window(rep.window)
    out: dict[str, Any] = {
        "c_lower": tag(rep.c_lower),
        "c_upper": tag(rep.c_upper),
        "s_lower": tag(rep.s_lower),
        "s_upper": tag(rep.s_upper),
        "depth": rep.depth,
        "exact": rep.exact,
        "witness": {
            "x": rat_str(rep.witness.x),
            "r": rat_str(rep.witness.r),
            "ratio_lower": rat_str(rep.witness.ratio_lower),
        },
        "notes": list(rep.notes),
    }
    if rep.ratio_decay is not None:
        out["ratio_decay"] = {
            "big_lam": tag(rep.ratio_decay.big_lam),
            "t": tag(rep.ratio_decay.t),
            "pairs_checked": rep.ratio_decay.pairs_checked,
            "holdout_size": rep.ratio_decay.holdout_size,
            "rounds": rep.ratio_decay.rounds,
        }
    if rep.mass_window is not None:
        out["mass_window"] = {
            "lam": tag(rep.mass_window.lam),
            "s": tag(rep.mass_window.s),
            "big_lam": tag(rep.mass_window.big_lam),
            "t": tag(rep.mass_window.t),
            "samples": rep.mass_window.samples,
        }
    return out


def _plot_value(y: Rat) -> Fraction:
    # keep small rationals exact; park astronomical ones on the decimal grid
    y = Fraction(y)
    if y.denominator.bit_length() > PLOT_EXACT_BITS:
        scale = 10**SERIALIZE_PLACES
        y = Fraction(y.numerator * scale // y.denominator, scale)
    return y


def plot_series(name: str, points: list[tuple[Rat, Rat]]) -> dict:
    """One named series of (x, y) rational pairs for the plot-data CSV."""
    return {
        "series": name,
        "points": [
            {"x": rat_str(x), "y": rat_str(_plot_value(y))} for x, y in points
        ],
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


PLOT_HEADER = "series,x,y_num,y_den,y_decimal"


def emit_plotdata(report: dict) -> str:
    """Long-format CSV of every series in the report's plot block."""
    lines = [PLOT_HEADER]
    for series in report.get("plot", []):
        name = series["series"]
        for pt in series["points"]:
            y = Fraction(pt["y"])
            lines.append(
                f"{name},{pt['x']},{y.numerator},{y.denominator},{decimal_str(y)}"
            )
    return "\n".join(lines) + "\n"
