"""Report payloads: tagged rational values, stable JSON, plot-data CSV.

Every number that enters a report is wrapped with an exactness tag so a
reader can tell a true value from an enclosure from a finite-scale
observation:

  "exact"            single rational, no approximation anywhere
  "bracket"          certified enclosure [lo, hi] of the true value
  "window-validated" constant checked only over a finite range of scales

Serialization is byte-stable: rationals render as canonical fraction
strings, decimals via exact integer rounding, and `dump_report` writes in one
pass the JSON that `json.dumps(report, indent=2, sort_keys=True)` would.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, Union

from .certify import ProductBracket
from .doubling import DoublingReport
from .ratio import PLOT_EXACT_BITS, SERIALIZE_PLACES, decimal_str, parse_rational, rat_str

Rat = Union[Fraction, int, str]


def tag_exact(x: Rat) -> dict:
    x = parse_rational(x)
    return {"kind": "exact", "value": str(x), "decimal": decimal_str(x)}


def tag_bracket(lo: Rat, hi: Rat) -> dict:
    lo, hi = parse_rational(lo), parse_rational(hi)
    if lo == hi:
        return tag_exact(lo)
    return {"kind": "bracket", "lo": str(lo), "hi": str(hi),
            "lo_decimal": decimal_str(lo), "hi_decimal": decimal_str(hi)}


def tag_window(window: tuple[Rat, Rat]):
    """The tag of a constant that was only checked for scales inside `window`,
    as a function of the constant; the window's ends render once."""
    lo, hi = rat_str(window[0]), rat_str(window[1])

    def tag(x: Rat) -> dict:
        x = parse_rational(x)
        return {"kind": "window-validated", "value": str(x), "decimal": decimal_str(x), "window": [lo, hi]}
    return tag


# a product's ends, and a rational with a term past 4300 digits (CPython's default
# printing limit), are stored as their outward rounding to the SERIALIZE_PLACES grid
GRID, PRINTABLE = 10**SERIALIZE_PLACES, 10**4300


def _tag_grid(lo: int, hi: int) -> dict:
    return tag_bracket(Fraction(lo, GRID), Fraction(hi, GRID))


def tag_product(pb: ProductBracket) -> dict:
    return {**_tag_grid(*pb.grid(GRID)), "n_terms": pb.n_terms}


def tag_printable(x: Fraction) -> dict:
    """`tag_exact(x)`, or its outward rounding by x's size, not by a process's own limit."""
    n, d = x.as_integer_ratio()
    return tag_exact(x) if abs(n) < PRINTABLE > d else _tag_grid(n * GRID // d, -(-n * GRID // d))


def doubling_report_payload(rep: DoublingReport) -> dict:
    """Serialize a scan report; scan constants hold on the scanned window.  A
    fit is written field by field: its counts as they are, the rest tagged."""
    tag = tag_window(rep.window)
    out: dict[str, Any] = {
        "c_lower": tag(rep.c_lower),
        "c_upper": tag(rep.c_upper),
        "s_lower": tag(rep.s_lower),
        "s_upper": tag(rep.s_upper),
        "depth": rep.depth,
        "exact": rep.exact,
        "witness": {name: rat_str(v) for name, v in zip(rep.witness._fields, rep.witness)},
        "notes": list(rep.notes),
    }
    for name in ("ratio_decay", "mass_window"):
        if (fit := getattr(rep, name)) is not None:
            out[name] = {key: v if type(v) is int else tag(v) for key, v in zip(fit._fields, fit)}
    return out


def plot_series(name: str, points: list[tuple]) -> dict:
    """One named series of (x, y) points for the plot-data CSV.  A coordinate
    is a rational or an integer pair (n, d), d > 0, in any terms, and prints
    in lowest terms; a y whose reduced denominator passes PLOT_EXACT_BITS
    bits prints its floor on the decimal grid."""
    scale, rows = 10**SERIALIZE_PLACES, []
    for x, y in points:
        xn, xd = _lowest(*x) if type(x) is tuple else parse_rational(x).as_integer_ratio()
        yn, yd = _lowest(*y) if type(y) is tuple else parse_rational(y).as_integer_ratio()
        if yd.bit_length() > PLOT_EXACT_BITS:
            yn, yd = _lowest(yn * scale // yd, scale)
        rows.append({"x": str(xn) if xd == 1 else f"{xn}/{xd}", "y": str(yn) if yd == 1 else f"{yn}/{yd}"})
    return {"series": name, "points": rows}


def _lowest(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


def dump_report(report: dict) -> str:
    """`json.dumps(report, indent=2, sort_keys=True) + "\n"` (the tests'
    oracle), byte for byte, without json's pure-Python indenting encoder.  A
    report is a tree of dicts with str keys, lists, tuples, strs, ints, bools
    and None; a float or a non-str key raises TypeError, where json would
    print the float's repr, or sort int keys as numbers and print them as strs."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, pad: str, out: list[str]) -> None:
    # pad: x's newline and indent; the closer replaces the last item's separator
    kind = type(x)
    if kind is str:
        out.append(encode_basestring_ascii(x))
    elif kind is dict or kind is list or kind is tuple:
        if not x:
            out.append("{}" if kind is dict else "[]")
            return
        inner = pad + "  "
        sep = "," + inner
        if kind is dict:
            out.append("{" + inner)
            for key in sorted(x):
                out += (encode_basestring_ascii(key), ": ")  # TypeError if key is no str
                _write(x[key], inner, out)
                out.append(sep)
            out[-1] = pad + "}"
        else:
            out.append("[" + inner)
            for item in x:
                _write(item, inner, out)
                out.append(sep)
            out[-1] = pad + "]"
    elif kind is int:
        out.append(str(x))
    elif x is None or kind is bool:
        out.append("null" if x is None else "true" if x else "false")
    else:
        raise TypeError(f"a report cannot hold {kind.__name__} {x!r}")


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
