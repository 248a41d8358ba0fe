"""Certificates against direct multiplication, literal enumeration, mpmath."""

import random
import time
from fractions import Fraction
from math import prod

import mpmath as mp
import pytest

from dmlab import certify
from dmlab.certify import (
    EXACT_BIT_BUDGET,
    Conclusion,
    LimitVerdict,
    PackingVerdict,
    certify_fat_thick,
    certify_thin_porous,
    cutout_lower_bound,
    inflated_remainder_check,
    interval_packing_verdict,
    logfloor_schedule_mass,
    logfloor_vanishing_stage,
    power_tail_lower,
    power_tail_upper,
    product_bracket,
    solve_inflation_exponent,
    tail_domination_start,
)
from dmlab.doubling import doubling_scan
from dmlab.enclosure import _power_ends, pow_bounds, refine
from dmlab.errors import (
    LengthMismatch,
    NotInEllT,
    PreconditionViolated,
    SeriesConverges,
)
from dmlab.geom import CutOutConfig, build_cantor, closed, thick_from_cantor
from dmlab.measure import BinomialWeights, TreeMeasure
from dmlab.reports import tag_product
from dmlab.seq import Constant, ExplicitFinite, Geometric, LogFloor, Power, term, terms

from helpers import bracket_oracle, direct_product, logfloor_mass_oracle, stage_plot_values_oracle

mp.mp.prec = 250


def mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


class TestProductBracket:
    def test_partial_matches_direct_multiplication(self):
        g = Geometric(Fraction(1, 2), Fraction(1, 2))
        pb = product_bracket(g, 100)
        oracle = direct_product([term(g, n) for n in range(1, 101)])
        assert pb.n_terms == 100
        assert prod(Fraction(ln, ld) ** count for ln, ld, _, _, count in pb.factors) == oracle
        ends = bracket_oracle(pb)
        assert ends.lower_value <= ends.upper_value <= oracle  # the infinite tail only shrinks it

    def test_encloses_q_pochhammer_limit(self):
        pb = product_bracket(Geometric(Fraction(1, 2), Fraction(1, 2)), 60)
        limit = mp.qp(mp.mpf(1) / 2)  # prod_{n>=1}(1 - 2^-n)
        ends = bracket_oracle(pb)
        assert mpf(ends.lower_value) <= limit <= mpf(ends.upper_value)
        assert pb.width_at_most(Fraction(1, 10**12)) and not pb.width_at_most(0)

    def test_telescoping_family_encloses_half(self):
        pb = product_bracket(Power(Fraction(1), 2, 1), 200)
        assert pb.encloses(Fraction(1, 2))
        assert pb.width_at_most(Fraction(1, 20))

    def test_finite_family_is_exact(self):
        f = ExplicitFinite((Fraction(1, 2), Fraction(1, 3)))
        pb = product_bracket(f, 2)
        ends = bracket_oracle(pb)
        assert ends.lower_value == ends.upper_value == Fraction(1, 3)

    def test_divergent_family_floors_at_zero(self):
        pb = product_bracket(Constant(Fraction(1, 2)), 20)
        ends = bracket_oracle(pb)
        assert ends.lower_value == 0 and not pb.positive()
        assert ends.upper_value <= direct_product([Fraction(1, 2)] * 20)

    def test_rejects_terms_at_one(self):
        with pytest.raises(PreconditionViolated):
            product_bracket(Power(Fraction(1), 1, 0), 5)  # first term is 1


def _spy_rungs(monkeypatch) -> list[tuple[int, int]]:
    """(bits, max_bits) of every rung that certify's ladder checks from now on."""
    seen = []

    def spy(check, start_bits, max_bits):
        def rung(bits):
            seen.append((bits, max_bits))
            return check(bits)

        return refine(rung, start_bits, max_bits)

    monkeypatch.setattr(certify, "refine", spy)
    return seen


class TestWorkingPrecision:
    def test_a_grid_tie_takes_the_exact_rung(self, monkeypatch):
        cert = certify_fat_thick(ExplicitFinite((Fraction(1, 5), Fraction(1, 2))), Fraction(1), Fraction(1))
        seen = _spy_rungs(monkeypatch)
        tag = tag_product(cert.bound)
        assert (tag["kind"], tag["value"]) == ("exact", "2/5")
        bits, size = seen[-1]
        assert bits >= size  # the rung that forms the product exactly

    def test_a_near_bound_needs_a_second_rung(self, monkeypatch):
        # factors of about 700 bits at t = 20: the second rung is still fixed point
        cert = certify_fat_thick(Geometric(Fraction(1, 4), Fraction(1, 2)), Fraction(20), Fraction(1, 2))
        a = bracket_oracle(cert.bound).lower_value
        seen = _spy_rungs(monkeypatch)
        assert tag_product(cert.bound)["kind"] == "bracket" and len(seen) == 1
        assert cert.bound.lower_at_least(a - Fraction(1, 1 << 300))
        assert not cert.bound.lower_at_least(a + Fraction(1, 1 << 300))
        start, last = seen[0]
        assert [bits for bits, _ in seen] == [start, start, 2 * start, start, 2 * start] and 2 * start < last

    def test_a_bound_on_an_end_takes_the_exact_rung_after_the_start(self, monkeypatch):
        # 64 factors of about 170 bits: a second fixed rung would cost about the exact products
        cert = certify_fat_thick(Geometric(Fraction(1, 4), Fraction(1, 2)), Fraction(1, 2), Fraction(7, 4))
        a = bracket_oracle(cert.bound).lower_value
        seen = _spy_rungs(monkeypatch)
        assert cert.bound.lower_at_least(a) and not cert.bound.lower_at_least(a + Fraction(1, 1 << 300))
        start, last = seen[0]
        assert [bits for bits, _ in seen] == [start, 2 * start] * 2 and last == 2 * start

    def test_a_vanishing_schedule_settles_on_the_first_rungs(self, monkeypatch):
        # p = 9/10: the first partials lie on the grid, the last far below 10^-60
        seen = _spy_rungs(monkeypatch)
        report = logfloor_schedule_mass(Fraction(9, 10), 600)
        assert report.stage_partials[0] == Fraction(1, 10) and report.stage_partials[-1] == 0
        # a positive mass below every rung's resolution still has the ceiling 10^-60
        tag = tag_product(report.closed_form)
        assert (tag["lo"], tag["hi"]) == ("0", f"1/{10**60}")
        assert [bits for bits, _ in seen] == [(600).bit_length() + 232] * 2

    def test_logfloor_certificate_reads_huge_ends_at_working_precision(self, monkeypatch):
        started = time.perf_counter()
        cert = certify_fat_thick(LogFloor(Fraction(1, 8)), Fraction(1, 2), Fraction(1, 2))
        seen = _spy_rungs(monkeypatch)
        tag = tag_product(cert.bound)
        assert time.perf_counter() - started < 5
        assert cert.bound.n_terms == 65536 and len(cert.bound.factors) == 16
        assert tag["lo_decimal"] == "0.285526165187" and tag["hi_decimal"] == "0.287442380161"
        assert [bits for bits, _ in seen] == [(65536).bit_length() + 232]  # the first rung settles


class TestFatCertificates:
    def test_positive_with_unit_scale(self):
        cert = certify_fat_thick(
            Geometric(Fraction(1, 2), Fraction(1, 2)), Fraction(1), Fraction(1)
        )
        assert cert.conclusion is Conclusion.POSITIVE
        assert cert.n0 == 1
        # frozen reference value, accurate to ten decimal places
        frozen = Fraction("2887880951") / 10**10
        tol = Fraction(1, 10**8)
        ends = bracket_oracle(cert.bound)
        assert abs(ends.lower_value - frozen) <= tol
        assert abs(ends.upper_value - frozen) <= tol
        # the true limit sits strictly inside the certified bracket
        limit = mp.qp(mp.mpf(1) / 2)
        assert mpf(ends.lower_value) <= limit <= mpf(ends.upper_value)

    def test_larger_scale_shifts_start(self):
        cert = certify_fat_thick(
            Geometric(Fraction(1, 2), Fraction(1, 2)), Fraction(1), Fraction(4)
        )
        assert cert.n0 == 3  # first stage with 4 * 2^-n < 1
        assert cert.conclusion is Conclusion.POSITIVE

    def test_divergent_family_rejected(self):
        with pytest.raises(NotInEllT):
            certify_fat_thick(Constant(Fraction(1, 2)), Fraction(1), Fraction(1))

    def test_verified_structure_gives_the_family_certificate(self):
        tree = build_cantor(Geometric(Fraction(1, 2), Fraction(1, 2)), 4)
        cert = certify_fat_thick(thick_from_cantor(tree), Fraction(1), Fraction(1))
        direct = certify_fat_thick(tree.beta, Fraction(1), Fraction(1))
        assert (cert.n0, cert.bound, cert.conclusion) == (direct.n0, direct.bound, direct.conclusion)
        assert cert.notes == ("structure verified across 4 levels",)

    def test_failing_structure_names_its_first_violation(self):
        thick = thick_from_cantor(build_cantor(Geometric(Fraction(1, 2), Fraction(1, 2)), 3))
        # shrink the first level-2 witness ball below c * diam(piece)
        first, *rest = thick.levels[1]
        small = first._replace(witness_radius=first.witness_radius / 2)
        broken = thick._replace(levels=(thick.levels[0], (small, *rest), *thick.levels[2:]))
        with pytest.raises(PreconditionViolated, match=r"^structure fails verification: condition iv "
                           r"at level 2: witness radius below c \* diam\(piece\)$"):
            certify_fat_thick(broken, Fraction(1), Fraction(1))

    def test_factor_runs_take_one_power_entry_call(self, monkeypatch):
        """The ends of every factor run come from one call over the runs'
        first pairs; only the search for n0 and the lookahead call it apart."""
        calls = []

        def spy(bases, e, sides, bits):
            bases = list(bases)
            calls.append((len(bases), sides))
            return _power_ends(bases, e, sides, bits)

        monkeypatch.setattr(certify, "_power_ends", spy)
        cert = certify_fat_thick(LogFloor(Fraction(1, 8)), Fraction(1, 2), Fraction(1, 2))
        assert (cert.n0, cert.bound.n_terms, len(cert.bound.factors)) == (1, 65536, 16)
        assert calls == [(1, (False, True)), (16, (False, True)), (64, (False,))]

    def test_finite_family_settles_each_stage_once(self, monkeypatch):
        """A finite family's factors are the ends its suffix scan settled:
        one base per stage scanned reaches the power entry (the scan and a
        factor batch after it passed 200 here), and each factor is the one
        the ladder gives it alone."""
        rng = random.Random(5)
        alpha = ExplicitFinite(tuple(Fraction(rng.randrange(1, 1000), 4000) for _ in range(100)))
        t, scale = Fraction(1, 2), Fraction(1)
        bases = []

        def spy(pairs, e, sides, bits):
            pairs = list(pairs)
            bases.extend(pairs)
            return _power_ends(pairs, e, sides, bits)

        monkeypatch.setattr(certify, "_power_ends", spy)
        cert = certify_fat_thick(alpha, t, scale)
        assert (cert.n0, len(bases)) == (1, 100)
        monkeypatch.undo()
        assert cert.bound.factors == tuple((*certify._factor_ends(x.as_integer_ratio(), t, scale, 128), 1)
                                           for x in alpha.terms)

    def test_search_can_meet_a_range_refusal_past_n0(self):
        """The n0 search probes up to about 2 n0, and the power entry refuses
        an end of alpha_n^t below 2^(-2^22).  Here a stage-by-stage scan stops
        at n0 = 82 (stage 81 is certainly >= 1, stage 82 certainly < 1, and
        the terms decrease), but stage 128, the probe after 64, lies past the
        range, so the search refuses: the README's stated exception."""
        alpha, t, scale = Power(Fraction(1, 3 << (2**23 - 29)), 4), Fraction(1, 2), Fraction(1 << (2**22 - 1))

        def small(n: int):
            return certify._factor_ends(next(terms(alpha, n, n + 1)), t, scale, 128, decide=True) is not False

        assert (small(81), small(82)) == (False, True)
        for stage in (lambda: small(128), lambda: certify._first_small_stage(alpha, t, scale, 128)):
            with pytest.raises(PreconditionViolated, match="^exponent magnitude out of supported range$"):
                stage()

    @pytest.mark.parametrize("alpha, t, size", [
        # 100000 * (1 + 66 bits of the 64th term) * 64 factors, before any power
        (Geometric(Fraction(1, 4), Fraction(1, 2)), 100000, 428800000),
        # slow decay doubles the factor count until 2 * 18 bits * 32768 passes it
        (Power(Fraction(1, 2), 1, 1), 2, 1179648),
    ])
    def test_exact_path_refused_over_the_bit_budget(self, alpha, t, size):
        start = time.process_time()
        with pytest.raises(PreconditionViolated, match=f"needs about {size} bits, over the "
                           f"exact-arithmetic budget of {EXACT_BIT_BUDGET} bits"):
            certify_fat_thick(alpha, Fraction(t), Fraction(1, 2))
        assert time.process_time() - start < 1


class TestThinCertificates:
    def test_constant_half_decays_dyadically(self):
        cert = certify_thin_porous(
            Constant(Fraction(1, 2)), Fraction(1), Fraction(1), Fraction(1, 1000)
        )
        assert cert.n_star == 10
        assert cert.decay_curve == tuple(Fraction(1, 1 << n) for n in range(1, 11))

    def test_harmonic_telescopes(self):
        cert = certify_thin_porous(
            Power(Fraction(1), 1, 0), Fraction(1), Fraction(1), Fraction(1, 10)
        )
        assert cert.n_star == 11
        assert cert.skipped_stages == (1,)  # the stage with factor 1 - 1 = 0
        # after the skip the curve telescopes to exactly 1/n
        assert cert.decay_curve[-1] == Fraction(1, 11)
        for n in range(2, 12):
            assert cert.decay_curve[n - 1] == Fraction(1, n)

    def test_convergent_holes_refused(self):
        with pytest.raises(SeriesConverges):
            certify_thin_porous(
                Geometric(Fraction(1, 2), Fraction(1, 2)),
                Fraction(1),
                Fraction(1),
                Fraction(1, 10),
            )

    def test_exact_path_refused_over_the_bit_budget(self):
        # each stage's exact power fits, but the decay product grows by
        # 400000 bits a stage and passes the budget at stage 3
        start = time.process_time()
        with pytest.raises(PreconditionViolated, match="the decay product after stage 3"):
            certify_thin_porous(Constant(Fraction(1, 4)), Fraction(100000), Fraction(1), Fraction(1, 10))
        assert time.process_time() - start < 1
        with pytest.raises(PreconditionViolated, match="the exact power of stage 1"):
            certify_thin_porous(Constant(Fraction(1, 4)), Fraction(300000), Fraction(1), Fraction(1, 10))

    def test_scale_constant_validated(self):
        with pytest.raises(PreconditionViolated):
            certify_thin_porous(
                Constant(Fraction(1, 2)), Fraction(1), Fraction(2), Fraction(1, 10)
            )


class TestInflationExponent:
    def test_frozen_grid_values(self):
        got = solve_inflation_exponent(Fraction(1), Fraction(1), Fraction(1), Fraction(6))
        assert got == Fraction(166, 64)
        got = solve_inflation_exponent(Fraction(1), Fraction(1), Fraction(1), Fraction(12))
        assert got == Fraction(102, 64)

    def test_grid_minimality(self):
        big_lam, t, d, eps = Fraction(1), Fraction(1), Fraction(1), Fraction(1, 2)
        q = solve_inflation_exponent(big_lam, t, d, eps)
        threshold = eps / 6

        def lhs(exponent: Fraction):
            return pow_bounds(Fraction(2), 1 - t * exponent, 256)

        assert big_lam * 3 * lhs(q).hi < threshold
        assert big_lam * 3 * lhs(q - Fraction(1, 64)).lo >= threshold


class TestPowerTails:
    def test_tail_sandwich_against_reference(self):
        up = power_tail_upper(Fraction(2), 10)
        lo = power_tail_lower(Fraction(2), 10)
        true = mp.nsum(lambda m: 1 / m**2, [10, mp.inf])
        assert mpf(lo) <= true <= mpf(up)
        assert up - lo < Fraction(1, 50)

    def test_domination_start_small_case(self):
        # tail of m^-2 must drop below eps * N^-gamma
        assert tail_domination_start(Fraction(1), Fraction(2), Fraction(1, 2)) == 2
        # N = 1 certifiably fails: the full tail already exceeds eps * 1
        assert power_tail_lower(Fraction(2), 1) > 1
        # every N in the certified range keeps holding
        for n in range(2, 9):
            tail = power_tail_upper(Fraction(2), n)
            assert tail < pow_bounds(Fraction(n), Fraction(-1, 2), 256).lo

    def test_domination_start_tight_case(self):
        got = tail_domination_start(Fraction(1, 10), Fraction(3), Fraction(1))
        assert got == 6
        # reference check on both sides of the boundary
        for n, should_hold in ((5, False), (6, True)):
            tail = mp.nsum(lambda m: 1 / m**3, [n, mp.inf])
            assert (tail < mp.mpf(1) / 10 / n) == should_hold

    def test_exponent_gap_required(self):
        with pytest.raises(PreconditionViolated):
            tail_domination_start(Fraction(1), Fraction(3, 2), Fraction(1))


def nested_ball_config(count: int = 64) -> CutOutConfig:
    balls = [closed(0, Fraction(1, 1 << i)) for i in range(1, count + 1)]
    return CutOutConfig(balls, diam_family=Geometric(Fraction(1, 2), Fraction(1, 2)))


@pytest.fixture(scope="module")
def scan():
    return doubling_scan(TreeMeasure(BinomialWeights(Fraction(1, 2))), 6)


class TestCutoutBound:

    def test_enough_balls_certify_survival(self, scan):
        bound = cutout_lower_bound(nested_ball_config(), scan, Fraction(1), 18, Fraction(1, 4))
        assert bound.conclusion is Conclusion.POSITIVE
        assert Fraction(7, 1000) < bound.value < Fraction(72, 10000)
        assert bound.gap.lo == Fraction(1, 2) and bound.gap_diameter == Fraction(1, 2)

    def test_few_balls_stay_inconclusive(self, scan):
        bound = cutout_lower_bound(nested_ball_config(), scan, Fraction(1), 4, Fraction(1, 4))
        assert bound.conclusion is Conclusion.INCONCLUSIVE
        assert bound.value < 0

    def test_diameter_power_sum_matches_geometric_series(self, scan):
        bound = cutout_lower_bound(nested_ball_config(), scan, Fraction(1), 18, Fraction(1, 4))
        true = 1 / (mp.power(2, mp.mpf(1) / 4) - 1)  # sum of 2^(-i/4)
        assert true <= mpf(bound.diam_power_sum_upper) <= true + mp.mpf(1) / 1000

    def test_window_fit_required(self, lebesgue):
        bare = doubling_scan(lebesgue, 4, fit=False)
        with pytest.raises(PreconditionViolated):
            cutout_lower_bound(nested_ball_config(), bare, Fraction(1), 8, Fraction(1, 4))

    def test_exponent_window_must_open(self, scan):
        from dmlab.errors import ExponentWindowEmpty

        with pytest.raises(ExponentWindowEmpty):
            cutout_lower_bound(nested_ball_config(), scan, Fraction(1), 8, Fraction(1))

    def test_inflated_remainder_survives(self, scan, lebesgue):
        q = solve_inflation_exponent(
            scan.mass_window.big_lam, scan.mass_window.t, Fraction(1), Fraction(1, 2)
        )
        check = inflated_remainder_check(
            lebesgue, nested_ball_config(), 18, q, Fraction(1, 2), 20
        )
        assert check.passed
        assert check.remaining_lower > check.slack_required


class TestRemovalSchedule:
    def test_literal_enumeration_agrees(self):
        # third route: simulate surviving words explicitly (stages <= 7)
        for p in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            for stages in (1, 3, 5, 7):
                report = logfloor_schedule_mass(p, stages)
                assert report.match_exact
                assert report.stage_partials[-1] == logfloor_mass_oracle(p, stages)

    def test_stage_partials_are_the_plotted_values(self):
        for p in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(9, 10)):
            report = logfloor_schedule_mass(p, 300)
            assert list(report.stage_partials) == stage_plot_values_oracle(p, 300)

    def test_stage_four_known_value(self):
        report = logfloor_schedule_mass(Fraction(1, 3), 4)
        assert report.stage_partials[-1] == Fraction(256, 729)

    def test_brute_force_skipped_above_limit(self):
        report = logfloor_schedule_mass(Fraction(1, 3), 600)
        assert report.brute_force is None and report.match_exact is None
        assert logfloor_schedule_mass(Fraction(1, 3), 513).brute_force is None
        # the limit itself still runs the enumeration
        report = logfloor_schedule_mass(Fraction(1, 3), 512)
        assert report.match_exact
        assert report.brute_force == direct_product([term(LogFloor(Fraction(1, 3)), j) for j in range(1, 513)])

    def test_verdicts_split_at_half(self):
        assert logfloor_schedule_mass(Fraction(1, 3), 4).verdict is LimitVerdict.POSITIVE_LIMIT
        assert logfloor_schedule_mass(Fraction(2, 3), 4).verdict is LimitVerdict.ZERO_LIMIT

    def test_vanishing_stage_for_heavy_weight(self):
        stage, value = logfloor_vanishing_stage(Fraction(2, 3), Fraction(1, 10**6))
        assert stage == 51
        assert value < Fraction(1, 10**6)
        # the previous stage was still above the threshold
        prior = logfloor_schedule_mass(Fraction(2, 3), 50).stage_partials[-1]
        assert prior >= Fraction(1, 10**6)


class TestPackings:
    def test_disjoint_is_thin(self):
        lengths = ExplicitFinite((Fraction(1, 2), Fraction(1, 2)))
        ivs = [closed(0, Fraction(1, 2)), closed(Fraction(1, 2), 1)]
        assert interval_packing_verdict(ivs, lengths, Fraction(1)) is PackingVerdict.THIN

    def test_overlap_is_fat(self):
        lengths = ExplicitFinite((Fraction(1, 2), Fraction(1, 2)))
        ivs = [closed(0, Fraction(1, 2)), closed(Fraction(1, 4), Fraction(3, 4))]
        assert interval_packing_verdict(ivs, lengths, Fraction(1)) is PackingVerdict.FAT

    def test_empty_is_fat(self):
        lengths = ExplicitFinite((Fraction(1, 2), Fraction(1, 2)))
        assert interval_packing_verdict([], lengths, Fraction(1)) is PackingVerdict.FAT

    def test_wrong_length_rejected(self):
        lengths = ExplicitFinite((Fraction(1, 2), Fraction(1, 2)))
        ivs = [closed(0, Fraction(1, 3)), closed(Fraction(1, 2), 1)]
        with pytest.raises(LengthMismatch):
            interval_packing_verdict(ivs, lengths, Fraction(1))
