"""Serialization: tags, outward rounding, deterministic dumps, plot CSV."""

import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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


# every code point, lone surrogates among them
TEXT = st.text(st.characters(blacklist_categories=()), max_size=12)
LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
          | TEXT)
TREES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                     | st.dictionaries(TEXT, kids, max_size=4), max_leaves=24)


class TestWriterMatchesJson:
    """`dump_report` against its oracle, `json.dumps(indent=2, sort_keys=True)`."""

    @given(TREES)
    @example({"q\"uote": 'back\\slash', "ctl": "\x00\x1f\x7f\n\t", "é": "\u00e9\u2028\U0001f600",
              "lone": "\ud800", "low": "x\udfff"})
    @example({"": {}, "e": [], "t": (), "n": [None, True, False, 0, -1, 2**64, -2**64 - 1, 10**40]})
    @example([{"a": [{"b": ({}, [[]])}]}])
    def test_same_bytes(self, value):
        assert dump_report(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_golden_reports(self):
        for name in ("measure_grid_binomial_37_101_d10", "certify_cutout_d5", "example_cutout_fat"):
            text = (pathlib.Path(__file__).parent / "golden" / f"{name}.json").read_text(encoding="utf-8")
            assert dump_report(json.loads(text)) == text

    @pytest.mark.parametrize("value", [
        0.5, {"a": 1.0}, [float("nan")], {"a": Fraction(1, 2)}, {"a": b"x"},
        {1: "x"}, {None: 1}, {True: 1}, {("a",): 1}, {"a": {2: 3}}, {"a": 1, 2: 3},
    ])
    def test_refuses_floats_non_str_keys_and_other_types(self, value):
        """json would print a float's repr and turn a key into a string; a
        report holds neither, so the writer raises TypeError."""
        with pytest.raises(TypeError):
            dump_report(value)


class TestPlotData:
    def test_series_rows(self):
        series = plot_series("partials", [(Fraction(n), Fraction(1, n)) for n in (1, 2, 3)])
        text = emit_plotdata({"plot": [series]})
        lines = text.splitlines()
        assert lines[0] == PLOT_HEADER
        assert lines[1] == "partials,1,1,1,1"
        assert lines[3] == "partials,3,1,3,0.333333333333"
        assert len(lines) == 4

    def test_a_y_prints_exactly_up_to_200_denominator_bits(self):
        half_up = Fraction((1 << 199) + 1, 1 << 200)  # 201 bits: floored at 60 places, 1/2
        rows = plot_series("s", [(0, Fraction(1, 1 << 199)), (1, half_up),
                                 ((2, 4), (3 * half_up.numerator, 3 << 200))])["points"]
        assert [row["y"] for row in rows] == [f"1/{1 << 199}", "1/2", "1/2"]
        assert [row["x"] for row in rows] == ["0", "1", "1/2"]

    @pytest.mark.parametrize("y", [Fraction(0), Fraction(-4, 6), Fraction(5, 7), Fraction(7),
                                   Fraction(3, (1 << 200) - 1), Fraction(-7, 3 << 200)])
    def test_integer_pairs_in_any_terms_print_as_their_rationals(self, y):
        n, d = y.as_integer_ratio()
        assert plot_series("s", [((-12, 8), (9 * n, 9 * d))]) == plot_series("s", [(Fraction(-3, 2), y)])

    def test_no_plot_block_gives_header_only(self):
        assert emit_plotdata({}) == PLOT_HEADER + "\n"
