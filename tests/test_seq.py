"""Sequence families: exact terms, summability classes, certified tails."""

from fractions import Fraction

import mpmath as mp
import pytest

from dmlab.errors import DivergentSeries, IndexOutOfRange, InvalidFamily, Undecidable
from dmlab.seq import (
    Constant,
    ExplicitFinite,
    Geometric,
    LogFloor,
    Power,
    Scaled,
    Summability,
    classify_ell0,
    classify_ellp,
    family_from_spec,
    family_to_spec,
    logfloor_exponent,
    series_total,
    sup_term,
    tail_sum_upper,
    term,
    terms,
)

from helpers import logfloor_exponent_oracle

mp.mp.prec = 200


def test_geometric_terms():
    g = Geometric(Fraction(1, 2), Fraction(1, 2))
    assert [term(g, n) for n in (1, 2, 3)] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
    ]


def test_power_terms_and_offset():
    f = Power(Fraction(1), 2, 1)
    assert term(f, 1) == Fraction(1, 4)
    assert term(f, 9) == Fraction(1, 100)


def test_power_first_term_may_hit_one():
    f = Power(Fraction(1), 1, 0)  # terms 1, 1/2, 1/3, ...
    assert term(f, 1) == 1
    assert term(f, 5) == Fraction(1, 5)


def test_power_rejects_terms_above_one():
    with pytest.raises(InvalidFamily):
        Power(Fraction(3, 2), 1, 0)


def test_indices_start_at_one():
    with pytest.raises(IndexOutOfRange):
        term(Geometric(Fraction(1, 2), Fraction(1, 2)), 0)


def test_explicit_finite_length_and_bounds():
    f = ExplicitFinite((Fraction(1, 2), Fraction(1, 4)))
    assert term(f, 2) == Fraction(1, 4)
    with pytest.raises(IndexOutOfRange):
        term(f, 3)


@pytest.mark.parametrize("n", list(range(1, 70)))
def test_logfloor_exponent_matches_oracle(n):
    assert logfloor_exponent(n) == logfloor_exponent_oracle(n)


def test_logfloor_terms():
    f = LogFloor(Fraction(1, 3))
    # exponents 1,1,2,2,2,2,3,... drive the powers
    assert term(f, 1) == Fraction(1, 3)
    assert term(f, 3) == Fraction(1, 9)
    assert term(f, 7) == Fraction(1, 27)


@pytest.mark.parametrize("f", [
    Geometric(Fraction(1, 2), Fraction(1, 2)),
    Power(Fraction(1), 1, 0),
    LogFloor(Fraction(1, 3)),
    Constant(Fraction(1, 4)),
    ExplicitFinite((Fraction(1, 2), Fraction(1, 3))),
    Scaled(Fraction(1, 2), Power(Fraction(1), 1, 0)),
], ids=lambda f: type(f).__name__)
@pytest.mark.parametrize("start", [0, -2])
def test_terms_below_index_one_are_refused(f, start):
    """terms refuses a start below 1 as term does, before any pair: a power
    term at 0 would otherwise have the denominator 0."""
    for run in (lambda: list(terms(f, start, 3)), lambda: term(f, start)):
        with pytest.raises(IndexOutOfRange, match="term indices start at 1"):
            run()


class TestClassification:
    def test_geometric_always_summable(self):
        g = Geometric(Fraction(1, 2), Fraction(1, 2))
        for p in (Fraction(1, 10), Fraction(1), Fraction(5)):
            assert classify_ellp(g, p) is Summability.CONVERGES

    def test_power_threshold(self):
        f = Power(Fraction(1), 2, 1)  # terms ~ n^-2
        assert classify_ellp(f, Fraction(3, 5)) is Summability.CONVERGES
        assert classify_ellp(f, Fraction(1, 2)) is Summability.DIVERGES  # boundary
        assert classify_ellp(f, Fraction(2, 5)) is Summability.DIVERGES

    def test_logfloor_threshold(self):
        # sum over n of base^(p*m_n) = sum over m of (2 base^p)^m
        assert classify_ellp(LogFloor(Fraction(1, 3)), Fraction(1)) is Summability.CONVERGES
        assert classify_ellp(LogFloor(Fraction(2, 3)), Fraction(1)) is Summability.DIVERGES
        assert classify_ellp(LogFloor(Fraction(1, 2)), Fraction(1)) is Summability.DIVERGES

    def test_constant_never_summable(self):
        assert classify_ellp(Constant(Fraction(1, 2)), Fraction(3)) is Summability.DIVERGES

    def test_ell0_classes(self):
        from dmlab.seq import Ell0Kind

        geo = classify_ell0(Geometric(Fraction(1, 2), Fraction(1, 2)))
        assert geo.kind is Ell0Kind.IN_ELL0
        pow2 = classify_ell0(Power(Fraction(1), 2, 1))
        assert pow2.kind is Ell0Kind.NOT_IN_ELL0
        assert pow2.witness is not None  # a p whose power sum diverges


class TestTails:
    def test_geometric_tail_exact(self):
        g = Geometric(Fraction(1, 2), Fraction(1, 2))
        # sum_{n>2} 2^-n = 1/4
        assert tail_sum_upper(g, Fraction(1), 2) == Fraction(1, 4)

    def test_power_tail_dominates_reference(self):
        f = Power(Fraction(1), 2, 1)
        up = tail_sum_upper(f, Fraction(1), 10)
        true = mp.nsum(lambda n: 1 / (n + 1) ** 2, [11, mp.inf])
        assert mp.mpf(up.numerator) / mp.mpf(up.denominator) >= true
        assert up <= Fraction(1, 5)  # stays in the right ballpark

    def test_tail_of_divergent_power_raises(self):
        with pytest.raises(DivergentSeries):
            tail_sum_upper(Power(Fraction(1), 1, 0), Fraction(1), 5)

    def test_logfloor_tail_dominates_partials(self):
        f = LogFloor(Fraction(1, 3))
        up = tail_sum_upper(f, Fraction(1), 6)
        partial = sum((term(f, n) for n in range(7, 200)), Fraction(0))
        assert up >= partial


def test_series_total_routes():
    assert series_total(Geometric(Fraction(1, 2), Fraction(1, 2))) == 1
    assert series_total(ExplicitFinite((Fraction(1, 4), Fraction(1, 4)))) == Fraction(1, 2)
    assert series_total(LogFloor(Fraction(1, 3))) == Fraction(2, 3) / Fraction(1, 3)
    with pytest.raises(DivergentSeries):
        series_total(Constant(Fraction(1, 2)))
    with pytest.raises(Undecidable):
        series_total(Power(Fraction(1), 2, 1))


def test_sup_term():
    assert sup_term(Geometric(Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)
    assert sup_term(Power(Fraction(1), 1, 0)) == 1


@pytest.mark.parametrize(
    "family",
    [
        Geometric(Fraction(1, 2), Fraction(1, 3)),
        Power(Fraction(1), 2, 1),
        LogFloor(Fraction(2, 3)),
        Constant(Fraction(1, 7)),
        ExplicitFinite((Fraction(1, 2), Fraction(1, 5))),
        Scaled(Fraction(1, 2), Power(Fraction(1), 2, 1)),
    ],
)
def test_spec_round_trip(family):
    assert family_from_spec(family_to_spec(family)) == family
