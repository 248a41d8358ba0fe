"""Serialization: tags, outward rounding, deterministic dumps, plot CSV."""

from fractions import Fraction

from dmlab.certify import ProductBracket
from dmlab.reports import (
    PLOT_HEADER,
    decimal_str,
    dump_report,
    emit_plotdata,
    plot_series,
    tag_bracket,
    tag_exact,
    tag_product,
    tag_window,
)


class TestDecimalStrings:
    def test_twelve_significant_digits(self):
        assert decimal_str(Fraction(1, 3)) == "0.333333333333"
        assert decimal_str(Fraction(2, 3)) == "0.666666666667"

    def test_terminating_values_stay_short(self):
        assert decimal_str(Fraction(1, 2)) == "0.5"
        assert decimal_str(Fraction(0)) == "0"
        assert decimal_str(Fraction(-1, 4)) == "-0.25"

    def test_extreme_magnitudes_use_exponent_form(self):
        assert decimal_str(Fraction(10**20)) == "1e+20"
        assert decimal_str(Fraction(1, 10**7)) == "1e-7"


class TestTags:
    def test_exact_tag(self):
        tag = tag_exact(Fraction(2, 5))
        assert tag == {"kind": "exact", "value": "2/5", "decimal": "0.4"}

    def test_bracket_tag_keeps_both_sides(self):
        tag = tag_bracket(Fraction(1, 3), Fraction(1, 2))
        assert tag["kind"] == "bracket"
        assert tag["lo"] == "1/3" and tag["hi"] == "1/2"
        assert Fraction(tag["lo"]) <= Fraction(tag["hi"])

    def test_degenerate_bracket_collapses_to_exact(self):
        assert tag_bracket(Fraction(2, 5), Fraction(2, 5))["kind"] == "exact"

    def test_window_tag_records_scales(self):
        tag = tag_window((Fraction(1, 8), Fraction(1, 2)))(Fraction(3, 2))
        assert tag["kind"] == "window-validated"
        assert tag["window"] == ["1/8", "1/2"]

    def test_outward_rounding_encloses(self):
        # partial products 1/3 and 2/3 over full tails: the ends move out to the 60-place grid
        tag = tag_product(ProductBracket(((1, 3, 2, 3, 1), (1, 1, 1, 1, 1)), Fraction(1), Fraction(1)))
        lo, hi = Fraction(tag["lo"]), Fraction(tag["hi"])
        assert lo <= Fraction(1, 3) and hi >= Fraction(2, 3)
        assert lo.denominator == hi.denominator == 10**60
        assert tag["n_terms"] == 2

    def test_rounded_bracket_still_encloses(self):
        huge = Fraction(10**300 + 1, 3 * 10**300)
        width = Fraction(1, 10**90)
        tag = tag_product(ProductBracket(((*huge.as_integer_ratio(), *(huge + width).as_integer_ratio(), 1),),
                                         Fraction(1), Fraction(1)))
        assert Fraction(tag["lo"]) <= huge <= huge + width <= Fraction(tag["hi"])


class TestDumps:
    def test_key_order_insensitive(self):
        a = dump_report({"b": 1, "a": {"y": 2, "x": 3}})
        b = dump_report({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_repeated_dump_identical(self):
        report = {"schema": "dmlab-report/1", "value": tag_exact(Fraction(1, 7))}
        assert dump_report(report) == dump_report(report)


class TestPlotData:
    def test_series_rows(self):
        series = plot_series("partials", [(Fraction(n), Fraction(1, n)) for n in (1, 2, 3)])
        text = emit_plotdata({"plot": [series]})
        lines = text.splitlines()
        assert lines[0] == PLOT_HEADER
        assert lines[1] == "partials,1,1,1,1"
        assert lines[3] == "partials,3,1,3,0.333333333333"
        assert len(lines) == 4

    def test_no_plot_block_gives_header_only(self):
        assert emit_plotdata({}) == PLOT_HEADER + "\n"
