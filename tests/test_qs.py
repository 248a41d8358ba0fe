"""Quasisymmetry tooling: map evaluation, ratio scans, pullback constants."""

from fractions import Fraction

import pytest

from dmlab.errors import PreconditionViolated
from dmlab.measure import BinomialWeights, TreeMeasure, cdf
from dmlab.qs import (
    DEFAULT_TAUS,
    pullback_constant,
    qs_ratio_scan,
)

from helpers import ratio_rows_csv


def binom(p) -> TreeMeasure:
    return TreeMeasure(BinomialWeights(Fraction(p)))


class TestEvaluate:
    """f(x) = mu([0, x]) read off the measure's cdf at depth 24."""

    def test_dyadic_points_exact(self, binom13):
        got = cdf(binom13, Fraction(1, 2), 24)
        assert got.lower == got.upper == Fraction(1, 3)
        got = cdf(binom13, Fraction(3, 4), 24)
        assert got.lower == got.upper == Fraction(5, 9)

    def test_endpoints(self, binom13):
        assert cdf(binom13, Fraction(0), 24).upper == 0
        assert cdf(binom13, Fraction(1), 24).lower == 1

    def test_off_grid_bracket_stays_tight(self, binom13):
        got = cdf(binom13, Fraction(1, 7), 24)
        assert got.lower < got.upper
        assert got.upper - got.lower < Fraction(1, 10**6)


class TestRatioScan:
    def test_identity_map_hits_shape_exactly(self, lebesgue):
        rows = qs_ratio_scan(lebesgue, 6)
        assert tuple(r.tau for r in rows) == DEFAULT_TAUS
        for row in rows:
            assert row.max_ratio == row.tau  # image ratio equals shape ratio

    def test_half_weight_reduces_to_identity(self, lebesgue):
        symmetric = qs_ratio_scan(binom(Fraction(1, 2)), 5)
        plain = qs_ratio_scan(lebesgue, 5)
        assert [(r.tau, r.max_ratio) for r in symmetric] == [
            (r.tau, r.max_ratio) for r in plain
        ]

    def test_skewed_weight_known_rows(self, binom13):
        rows = qs_ratio_scan(binom13, 6)
        got = [(r.tau, r.max_ratio) for r in rows]
        assert got == [
            (Fraction(1, 4), Fraction(16, 9)),
            (Fraction(1, 2), Fraction(16, 3)),
            (Fraction(1), Fraction(16)),
            (Fraction(2), Fraction(24)),
            (Fraction(4), Fraction(36)),
        ]

    def test_symmetric_straddle_ratio_grows_with_depth(self, binom13):
        maxima = []
        for depth in (4, 6, 8):
            row = next(r for r in qs_ratio_scan(binom13, depth) if r.tau == 1)
            maxima.append(row.max_ratio)
        assert maxima == [Fraction(4), Fraction(16), Fraction(64)]  # 2^(depth-2)
        row = next(r for r in qs_ratio_scan(binom13, 8) if r.tau == 1)
        assert row.witness == (Fraction(1, 2), Fraction(127, 256), Fraction(129, 256))

    def test_rows_cumulative_in_tau(self, binom13):
        rows = qs_ratio_scan(binom13, 6)
        for a, b in zip(rows, rows[1:]):
            assert a.max_ratio <= b.max_ratio

    def test_random_triples_deterministic(self, binom13):
        first = qs_ratio_scan(binom13, 5, random_triples=200, seed=9)
        second = qs_ratio_scan(binom13, 5, random_triples=200, seed=9)
        assert [(r.max_ratio, r.witness) for r in first] == [
            (r.max_ratio, r.witness) for r in second
        ]
        base = qs_ratio_scan(binom13, 5)
        for extra, plain in zip(first, base):
            assert extra.max_ratio >= plain.max_ratio

    def test_negative_random_triples_refused(self, binom13):
        with pytest.raises(PreconditionViolated, match="random triples must be >= 0"):
            qs_ratio_scan(binom13, 3, random_triples=-4)

    def test_csv_shape(self, lebesgue):
        text = ratio_rows_csv(qs_ratio_scan(lebesgue, 4))
        lines = text.splitlines()
        assert lines[0] == "tau,max_ratio_num,max_ratio_den,witness"
        assert len(lines) == 1 + len(DEFAULT_TAUS)


class TestPullback:
    def test_power_of_two_scale_exact(self):
        got = pullback_constant(2, 2)
        assert got.lo == got.hi == 8

    def test_unit_scale_exact(self):
        got = pullback_constant(2, 1)
        assert got.lo == got.hi == 2

    def test_power_of_two_scale_base_three(self):
        got = pullback_constant(3, 4)
        assert got.lo == got.hi == 243

    def test_general_scale_brackets_true_value(self):
        got = pullback_constant(2, 3)  # 2^(2 log2 3 + 1) = 18
        assert got.lo <= 18 <= got.hi
        assert got.hi - got.lo < Fraction(1, 10**9)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            pullback_constant(Fraction(1, 2), 2)
        with pytest.raises(PreconditionViolated):
            pullback_constant(2, Fraction(1, 2))
