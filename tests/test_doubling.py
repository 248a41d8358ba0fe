"""Doubling-ratio scans, window fits, and the lower-bound property suite."""

import contextlib
import io
import json
import pathlib
import time
from fractions import Fraction

import pytest

from dmlab import doubling
from dmlab.cli import main
from dmlab.doubling import (
    SmallBallCase,
    doubling_scan,
    fit_mass_window,
    fit_ratio_decay,
    per_scale_max_ratios,
    scan_core,
    verify_small_ball_bound,
)
from dmlab.errors import DepthBudgetExceeded, EnclosureInconclusive, PreconditionViolated, ZeroMassBall
from dmlab.geom import build_cantor
from dmlab.measure import BinomialWeights, TableWeights, TreeMeasure, restrict
from dmlab.seq import Constant

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


class TestScan:
    def test_lebesgue_constant_exact(self, lebesgue):
        rep = scan_core(lebesgue, 7)
        assert rep.c_upper == rep.c_lower == 2
        assert rep.exact
        assert rep.witness.ratio_lower == 2

    def test_binomial_distorts(self, binom13):
        rep = scan_core(binom13, 7)
        assert rep.c_lower >= 3
        assert rep.witness is not None
        assert rep.c_upper >= rep.c_lower

    def test_reflection_symmetry(self):
        p = Fraction(1, 3)
        a = scan_core(TreeMeasure(BinomialWeights(p)), 6)
        b = scan_core(TreeMeasure(BinomialWeights(1 - p)), 6)
        assert a[0] == b[0]  # c_upper
        assert a[1] == b[1]  # c_lower

    def test_zero_measure_rejected(self):
        empty = TreeMeasure(BinomialWeights(Fraction(1, 2)), total_mass=Fraction(0))
        with pytest.raises(ZeroMassBall):
            scan_core(empty, 3)

    def test_per_scale_refuses_zero_measure(self):
        empty = TreeMeasure(BinomialWeights(Fraction(1, 2)), total_mass=Fraction(0))
        with pytest.raises(ZeroMassBall, match="the zero measure has no doubling ratios"):
            per_scale_max_ratios(empty, 3)

    def test_per_scale_lebesgue(self, lebesgue):
        rows = per_scale_max_ratios(lebesgue, 6)
        assert [k for k, _ in rows] == list(range(1, 7))
        assert all(v == 2 for _, v in rows)


class TestFits:
    def test_lebesgue_window_is_tight(self, lebesgue):
        rep = doubling_scan(lebesgue, 6)
        mw = rep.mass_window
        assert mw is not None
        assert (mw.lam, mw.s, mw.big_lam, mw.t) == (1, 1, 1, 1)
        assert rep.c_upper == 2 and rep.exact

    def test_ratio_decay_validates_on_holdout(self, lebesgue):
        fit = fit_ratio_decay(lebesgue, 6)
        assert fit.t >= Fraction(1)
        assert fit.holdout_size > 0

    def test_binomial_window_brackets_exponents(self, binom13):
        mw = fit_mass_window(binom13, 6, c_upper=Fraction(87))
        # log2(3) < s and t < log2(3/2) ordering: t <= 1 <= s is forced here
        assert mw.t <= 1 <= mw.s
        assert mw.lam <= 1 <= mw.big_lam


    @pytest.mark.parametrize("m", [
        TreeMeasure(BinomialWeights(Fraction(1, 3))),
        restrict(TreeMeasure(BinomialWeights(Fraction(1, 3))), build_cantor(Constant(Fraction(1, 2)), 3)),
    ], ids=["binomial", "restricted_cantor"])
    def test_scan_builds_one_oracle_and_one_log2_end(self, monkeypatch, m):
        """doubling_scan hands one ball oracle to scan_core and both fits, and
        the scan's upper log2 end of c_upper to the window fit; called
        alone, each public pass builds its own."""
        built, ends = [], []
        log2_end = doubling._log2_end

        class Counted(doubling._MassOracle):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        def counted_log2_end(n, d, bits, upper):
            ends.append((Fraction(n, d), upper))
            return log2_end(n, d, bits, upper)

        monkeypatch.setattr(doubling, "_MassOracle", Counted)
        monkeypatch.setattr(doubling, "_log2_end", counted_log2_end)
        rep = doubling_scan(m, 5, lambda_cap=Fraction(2))
        assert rep.ratio_decay is not None and rep.mass_window is not None  # both fits ran
        assert built == [(m, 5)]
        assert ends.count((rep.c_upper, True)) == 1
        scan_core(m, 5)
        fit_ratio_decay(m, 5, lambda_cap=Fraction(2))
        fit_mass_window(m, 5, c_upper=rep.c_upper, lambda_cap=Fraction(2))
        assert built == [(m, 5)] * 4
        # the public scan encloses its own s ends, the window fit its own s
        assert ends.count((rep.c_upper, True)) == 3

    @pytest.mark.parametrize("name", sorted(
        name for name, case in GOLDEN_CASES.items() if case["argv"][:2] == ["doubling", "scan"]))
    def test_exponent_search_settles_in_two_probes(self, monkeypatch, name):
        """On the golden dyadic scans the float guess of each fit's exponent
        is exact: its two checks settle the search, with no bisection."""
        probes = []
        largest_within = doubling._largest_within

        def counted(bound, cap, guess):
            def counted_bound(k):
                probes[-1] += 1
                return bound(k)
            probes.append(0)
            return largest_within(counted_bound, cap, guess)

        monkeypatch.setattr(doubling, "_largest_within", counted)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(GOLDEN_CASES[name]["argv"]) == 0
        assert len(probes) >= 2 and max(probes) <= 2, probes


class TestSmallBallBound:
    def test_scanned_constant_never_fails(self, lebesgue):
        res = verify_small_ball_bound(lebesgue, c=Fraction(2), count=150, depth=8, seed=4)
        assert res.holds and res.counterexample is None
        assert res.checked == 150

    def test_wrong_constant_produces_witness(self, binom13):
        # claiming the Lebesgue exponent for the skewed measure must fail
        res = verify_small_ball_bound(binom13, s=Fraction(1, 8), count=400, depth=8, seed=4)
        assert not res.holds
        case = res.counterexample
        assert case is not None
        assert case.a_lo <= case.x <= case.a_hi
        assert res.margin is not None and res.margin > 0

    def test_explicit_case_checked_first(self, lebesgue):
        case = SmallBallCase(Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        res = verify_small_ball_bound(lebesgue, c=Fraction(2), count=1, cases=[case])
        assert res.holds

    def test_case_no_precision_settles_is_refused_at_once(self):
        # the table splits only to depth 2, so mu(B) stays in [0, 1/15], and
        # the bound asks for mu(B) >= mu(A) / 729 = 1/2187: no precision of
        # the factor settles that, and escalating to 4096 bits took seconds
        m = TreeMeasure(TableWeights(((Fraction(1, 3),), (Fraction(1, 5), Fraction(2, 7)))))
        case = SmallBallCase(Fraction(0), Fraction(1, 2), Fraction(1, 8), Fraction(1, 64))
        start = time.process_time()
        with pytest.raises(EnclosureInconclusive) as info:
            verify_small_ball_bound(m, c=Fraction(3), depth=6, count=1, cases=[case])
        assert time.process_time() - start < 0.1
        assert str(info.value) == (
            "cannot settle the case A=[0,1/2], x=1/8, r=1/64 at any precision: "
            "mu(A) in [1/3, 1/3], mu(B) in [0, 1/15] at eval depth 2 "
            "(depth 6 + 8, capped at the split depth 2)"
        )

    def test_ratio_equal_to_a_rational_factor_holds_at_once(self, lebesgue):
        # rho = 1/8 and s = 1/2: mu(B) / mu(A) = 1/4 = (rho/2)^s exactly, which
        # no enclosure of 2^-s rho^s settles; escalating to 4096 bits took 0.9 s
        case = SmallBallCase(Fraction(17, 64), Fraction(107, 128), Fraction(21, 64), Fraction(73, 1024))
        start = time.process_time()
        res = verify_small_ball_bound(lebesgue, s=Fraction(1, 2), count=1, cases=[case], bits=2, max_bits=2)
        assert time.process_time() - start < 0.1
        assert res.holds and res.checked == 1

    def test_uncapped_eval_depth_is_named_as_such(self, binom13):
        # a ball narrower than a leaf at depth 1 + 8 has no leaf inside it:
        # mu(B) >= 0 says nothing, whatever the factor's precision
        case = SmallBallCase(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 1000))
        with pytest.raises(EnclosureInconclusive) as info:
            verify_small_ball_bound(binom13, c=Fraction(2), depth=1, count=1, cases=[case])
        assert str(info.value) == (
            "cannot settle the case A=[0,1], x=1/2, r=1/1000 at any precision: "
            "mu(A) in [1, 1], mu(B) in [0, 86/6561] at eval depth 9 (depth 1 + 8)"
        )

    def test_reversed_given_case_is_refused_as_reversed(self, lebesgue):
        # 3/8 lies between the ends, so the refusal names the order, not the center
        case = SmallBallCase(Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(1, 16))
        with pytest.raises(PreconditionViolated) as info:
            verify_small_ball_bound(lebesgue, s=Fraction(1), count=1, cases=[case])
        assert type(info.value) is PreconditionViolated and str(info.value) == "interval [1/2, 1/4] is reversed"

    def test_requires_exactly_one_exponent_form(self, lebesgue):
        with pytest.raises(PreconditionViolated):
            verify_small_ball_bound(lebesgue, c=Fraction(2), s=Fraction(1), count=1)

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(depth=-1), PreconditionViolated, "depth must be >= 0"),
        # past the depth cap of 32, refused before a table of 16 << depth leaves is sized
        (dict(depth=33), DepthBudgetExceeded, "depth 33 exceeds cap 32"),
        # a negative count would check no case and report that the bound holds
        (dict(count=-5), PreconditionViolated, "count must be >= 0"),
    ])
    def test_bad_depth_or_count_refused_first(self, lebesgue, kwargs, error, message):
        with pytest.raises(error) as info:
            verify_small_ball_bound(lebesgue, c=Fraction(2), **kwargs)
        assert type(info.value) is error and str(info.value) == message
