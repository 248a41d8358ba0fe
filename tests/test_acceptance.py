"""Acceptance gate. One test per shipped guarantee, tolerances pinned here.

Run with -v to get a one-line PASS/FAIL verdict per criterion.
"""

import contextlib
import subprocess
import sys
import time
from fractions import Fraction

from dmlab.certify import (
    Conclusion,
    certify_fat_thick,
    certify_thin_porous,
    logfloor_schedule_mass,
    logfloor_vanishing_stage,
    power_tail_lower,
    power_tail_upper,
    product_bracket,
    tail_domination_start,
)
from dmlab.doubling import doubling_scan, verify_small_ball_bound
from dmlab.enclosure import pow_bounds
from dmlab.experiments import EXPERIMENT_NAMES
from dmlab.measure import BinomialWeights, TreeMeasure
from dmlab.qs import pullback_constant
from dmlab.seq import Constant, Geometric, LogFloor, Power, term

from helpers import bracket_oracle, direct_product, logfloor_mass_oracle

SCHEDULE_WEIGHTS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
SCHEDULE_STAGES = 12
SCHEDULE_BUDGET_SECONDS = 10.0
DEEP_STAGE = 4096
VANISH_THRESHOLD = Fraction(1, 10**6)
HALF_TOLERANCE = Fraction(1, 1000)
FAT_REFERENCE = Fraction("2887880951") / 10**10
FAT_TOLERANCE = Fraction(1, 10**8)
SAMPLED_CONFIGS = 1000


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def binom(p) -> TreeMeasure:
    return TreeMeasure(BinomialWeights(Fraction(p)))


def test_removal_schedule_mass_is_exact():
    with criterion("removal schedule mass exact for all four weights"):
        started = time.perf_counter()
        for p in SCHEDULE_WEIGHTS:
            for stages in range(1, SCHEDULE_STAGES + 1):
                report = logfloor_schedule_mass(p, stages)
                assert report.match_exact is True
                partial = direct_product([term(LogFloor(p), j) for j in range(1, stages + 1)])
                assert report.brute_force == report.stage_partials[-1] == partial
                if stages <= 7:  # third route: explicit word simulation
                    assert partial == logfloor_mass_oracle(p, stages)
        elapsed = time.perf_counter() - started
        assert elapsed < SCHEDULE_BUDGET_SECONDS


def test_removal_limit_verdicts():
    with criterion("light weight keeps mass, heavy weight loses it"):
        deep = product_bracket(LogFloor(Fraction(1, 3)), DEEP_STAGE)
        assert deep.lower_at_least(Fraction(1, 10))
        assert bracket_oracle(deep).lower_value >= Fraction(1, 10)
        stage, partial = logfloor_vanishing_stage(Fraction(2, 3), VANISH_THRESHOLD)
        assert stage == 51
        assert partial < VANISH_THRESHOLD


def test_telescoping_product_encloses_half():
    with criterion("telescoping product pinched at one half"):
        pb = product_bracket(Power(Fraction(1), 2, 1), 10**4)
        assert pb.encloses(Fraction(1, 2))
        ends = bracket_oracle(pb)
        assert abs(ends.lower_value - Fraction(1, 2)) <= HALF_TOLERANCE
        assert abs(ends.upper_value - Fraction(1, 2)) <= HALF_TOLERANCE


def test_fat_certificate_matches_reference_product():
    with criterion("fatness certificate pins the halving product"):
        cert = certify_fat_thick(
            Geometric(Fraction(1, 2), Fraction(1, 2)), Fraction(1), Fraction(1)
        )
        assert cert.conclusion is Conclusion.POSITIVE
        family = Geometric(Fraction(1, 2), Fraction(1, 2))
        oracle = direct_product([term(family, n) for n in range(1, 101)])
        assert abs(oracle - FAT_REFERENCE) <= FAT_TOLERANCE
        ends = bracket_oracle(cert.bound)
        assert abs(ends.lower_value - FAT_REFERENCE) <= FAT_TOLERANCE
        assert abs(ends.upper_value - FAT_REFERENCE) <= FAT_TOLERANCE


def test_tail_domination_start_certified_on_both_sides():
    with criterion("tail domination threshold lands at two"):
        eps, delta, gamma = Fraction(1), Fraction(2), Fraction(1, 2)
        assert tail_domination_start(eps, delta, gamma) == 2
        assert power_tail_lower(delta, 1) > eps  # start 1 certifiably fails
        for n in range(2, 9):
            envelope = eps * pow_bounds(Fraction(n), -gamma, 256).lo
            assert power_tail_upper(delta, n) < envelope


def test_depth_ten_doubling_scans():
    with criterion("depth-ten scans: exact, skewed, reflected"):
        even = doubling_scan(binom(Fraction(1, 2)), 10, fit=False)
        assert even.exact and even.c_lower == even.c_upper == 2
        skew = doubling_scan(binom(Fraction(1, 3)), 10, fit=False)
        assert skew.c_lower >= 3
        assert skew.witness is not None
        mirror = doubling_scan(binom(Fraction(2, 3)), 10, fit=False)
        assert mirror.c_lower == skew.c_lower
        assert mirror.c_upper == skew.c_upper


def test_sampled_ball_configurations():
    with criterion("thousand sampled balls respect the scanned constant"):
        sound = verify_small_ball_bound(
            binom(Fraction(1, 2)), c=Fraction(2), count=SAMPLED_CONFIGS, depth=10, seed=0
        )
        assert sound.holds and sound.checked == SAMPLED_CONFIGS
        assert sound.counterexample is None
        broken = verify_small_ball_bound(
            binom(Fraction(1, 3)), c=Fraction(2), count=SAMPLED_CONFIGS, depth=10, seed=0
        )
        assert not broken.holds
        assert broken.counterexample is not None
        assert broken.margin > 0


def test_map_measure_round_trip():
    with criterion("pullback constant exact at a power-of-two gauge"):
        eight = pullback_constant(2, 2)
        assert eight.lo == eight.hi == 8


def test_thin_certificates_decay_exactly():
    with criterion("thinness curves match closed forms"):
        dyadic = certify_thin_porous(
            Constant(Fraction(1, 2)), Fraction(1), Fraction(1), Fraction(1, 1000)
        )
        assert dyadic.n_star == 10
        assert dyadic.decay_curve == tuple(Fraction(1, 1 << n) for n in range(1, 11))
        harmonic = certify_thin_porous(
            Power(Fraction(1), 1, 0), Fraction(1), Fraction(1), Fraction(1, 10)
        )
        assert harmonic.skipped_stages == (1,)
        assert harmonic.decay_curve[1:] == tuple(
            Fraction(1, n) for n in range(2, harmonic.n_star + 1)
        )


def test_bundled_examples_are_reproducible():
    with criterion("every bundled example reruns byte-identically"):
        for name in EXPERIMENT_NAMES:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "dmlab.cli", "example", name],
                    capture_output=True,
                    check=True,
                )
                for _ in range(2)
            ]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout.startswith(b"{")
