"""Directed-rounding enclosures against mpmath at high working precision."""

import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

import dmlab
from dmlab.enclosure import (
    DEFAULT_BITS,
    Bounds,
    add_bounds,
    exp2_64ths,
    exp2_bounds,
    exp_neg_upper,
    log2_bounds,
    mul_bounds,
    pow_bounds,
    pow_end,
    refine,
)
from dmlab.doubling import doubling_scan
from dmlab.errors import EnclosureInconclusive, PreconditionViolated
from dmlab.measure import BinomialWeights, TreeMeasure

mp.mp.prec = 300


def mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def contains(b: Bounds, value) -> bool:
    return mpf(b.lo) <= value <= mpf(b.hi)


SAMPLES = [
    Fraction(1, 3),
    Fraction(2),
    Fraction(7, 5),
    Fraction(1, 1024),
    Fraction(355, 113),
    Fraction(99, 100),
]


@pytest.mark.parametrize("x", SAMPLES)
def test_log2_encloses_reference(x):
    b = log2_bounds(x, DEFAULT_BITS)
    assert contains(b, mp.log(mpf(x), 2))
    assert b.hi - b.lo <= Fraction(1, 1 << 100)


def test_log2_exact_on_powers_of_two():
    assert log2_bounds(Fraction(8)).lo == log2_bounds(Fraction(8)).hi == 3
    assert log2_bounds(Fraction(1, 4)).lo == -2


@pytest.mark.parametrize("x", [Fraction(-3, 2), Fraction(1, 3), Fraction(5, 2)])
def test_exp2_encloses_reference(x):
    b = exp2_bounds(x, DEFAULT_BITS)
    assert contains(b, mp.power(2, mpf(x)))


@pytest.mark.parametrize("bits", [8, 64, 128, 256])
def test_exp2_64ths_is_exp2_bounds(bits):
    # every table entry, then shifted by integer parts of both signs
    for n in [*range(64), -1000, -129, -64, -63, -1, 64, 65, 700]:
        lo, hi, den = exp2_64ths(n, bits)
        b = exp2_bounds(Fraction(n, 64), bits)
        assert (Fraction(lo, den), Fraction(hi, den)) == (b.lo, b.hi), n


def test_exp2_64ths_table_fills_lazily():
    code = (
        "import dmlab, dmlab.cli; dmlab.cli.build_parser();"
        "from dmlab.enclosure import _exp2_64ths_row as row;"
        "assert row.cache_info().currsize == 0;"
        "from dmlab.enclosure import exp2_64ths; exp2_64ths(70, 128);"
        "assert sum(e is not None for e in row(128)) == 1"
    )
    src = os.path.dirname(os.path.dirname(dmlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize(
    "x,e",
    [
        (Fraction(2), Fraction(1, 2)),
        (Fraction(5, 3), Fraction(-3, 4)),
        (Fraction(1, 10), Fraction(2, 5)),
        (Fraction(18), Fraction(-166, 64)),
    ],
)
def test_pow_encloses_reference(x, e):
    b = pow_bounds(x, e, DEFAULT_BITS)
    assert contains(b, mp.power(mpf(x), mpf(e)))


@pytest.mark.parametrize("bits", [0, 1, 2, 3, 64, DEFAULT_BITS, 512])
@pytest.mark.parametrize(
    "x,e",
    [
        (Fraction(2), Fraction(1, 2)),
        (Fraction(5, 3), Fraction(-3, 4)),
        (Fraction(1, 10), Fraction(2, 5)),
        (Fraction(77), Fraction(-13, 8)),
        (Fraction(1, 3), Fraction(-7, 2)),
        (Fraction(99, 100), Fraction(1, 1000)),
    ],
)
def test_pow_end_encloses_reference(x, e, bits):
    lo, hi = pow_end(x, e, False, bits), pow_end(x, e, True, bits)
    with mp.workprec(2 * bits + 300):  # finer than the enclosure at every bits
        assert mpf(lo) <= mp.power(mpf(x), mpf(e)) <= mpf(hi)
    assert lo < hi
    assert Bounds(lo, hi) == pow_bounds(x, e, bits)


def test_pow_exact_for_integer_exponents():
    b = pow_bounds(Fraction(3, 2), Fraction(4))
    assert b.lo == b.hi == Fraction(81, 16)
    b = pow_bounds(Fraction(2), Fraction(-3))
    assert b.lo == b.hi == Fraction(1, 8)


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(20)])
def test_exp_neg_upper_dominates_reference(s):
    up = exp_neg_upper(s)
    assert mpf(up) >= mp.e ** (-mpf(s))
    # and stays within a useful factor for moderate s
    if s <= 4:
        assert mpf(up) <= 2 * mp.e ** (-mpf(s))


def test_bounds_algebra_keeps_direction():
    a = Bounds(Fraction(1, 3), Fraction(1, 2))
    b = Bounds(Fraction(-2), Fraction(3))
    prod = mul_bounds(a, b)
    assert prod.lo <= Fraction(1, 3) * Fraction(-2)
    assert prod.hi >= Fraction(1, 2) * Fraction(3)
    total = add_bounds(a, b)
    assert total.lo == a.lo + b.lo and total.hi == a.hi + b.hi


def test_refine_escalates_until_decision():
    calls = []

    def check(bits):
        calls.append(bits)
        if bits < 512:
            return None
        return True

    assert refine(check, 128, 2048) is True
    assert calls == [128, 256, 512]


@pytest.mark.parametrize("start, cap, rungs", [
    (128, 512, [128, 256, 512]),
    (128, 4096, [128, 256, 512, 1024, 2048, 4096]),
    (3, 8, [3, 6, 12]),  # up to and including the first rung past the cap
    (600, 512, [600]),
])
def test_refine_gives_up_with_error(start, cap, rungs):
    calls = []
    with pytest.raises(EnclosureInconclusive) as info:
        refine(calls.append, start, cap)
    assert calls == rungs
    assert str(info.value) == f"bounds still inconclusive at {rungs[-1]} bits"
    assert info.value.bits == rungs[-1]


@pytest.mark.parametrize("call", [
    "refine(lambda bits: None, {bits})",
    "certify_fat_thick(Geometric(F(1, 4), F(1, 2)), F(1, 2), F(1, 2), bits={bits})",
    "tail_sum_upper(Power(1, 1, 0), F(3, 2), 5, {bits})",
    "verify_small_ball_bound(TreeMeasure(TableWeights(((F(1, 3),), (F(1, 5), F(2, 7))))),"
    " s=F(1, 8), count=25, depth=4, seed=3, bits={bits})",
], ids=lambda call: call.split("(")[0])
def test_ladder_refuses_a_start_below_one_bit(call):
    # 0 * 2 stays 0, so a ladder started there must be refused, not climbed;
    # the subprocess's timeout bounds a ladder that climbs for ever
    code = "\n".join([
        "from fractions import Fraction as F",
        "from dmlab import Geometric, Power, TableWeights, TreeMeasure, certify_fat_thick, refine,"
        " tail_sum_upper, verify_small_ball_bound",
        "for bits in (0, -3):",
        "    try:",
        f"        print('returned', {call.format(bits='bits')})",
        "    except Exception as exc:",
        "        print(type(exc).__name__, exc)",
    ])
    src = os.path.dirname(os.path.dirname(dmlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == [f"PreconditionViolated precision must start at >= 1 bit, got {bits}"
                                for bits in (0, -3)]


@pytest.mark.parametrize("call", [
    lambda: log2_bounds(Fraction(1, 3), -3),
    lambda: exp2_bounds(Fraction(1, 3), -3),
    lambda: pow_bounds(Fraction(1, 3), Fraction(1, 2), -3),
    lambda: pow_end(Fraction(1, 3), Fraction(1, 2), True, -3),
    # an exact root (4^(1/2) = 2) is refused as the inexact ones are
    lambda: pow_bounds(Fraction(4), Fraction(1, 2), -3),
    lambda: pow_end(Fraction(4), Fraction(1, 2), True, -3),
    lambda: pow_end(Fraction(4), Fraction(1, 2), False, -3),
    lambda: pow_bounds(Fraction(1), Bounds(Fraction(1, 3), Fraction(1, 2)), -3),
    lambda: doubling_scan(TreeMeasure(BinomialWeights(Fraction(1, 3))), 4, bits=-3),
], ids=["log2_bounds", "exp2_bounds", "pow_bounds", "pow_end", "pow_bounds_exact_root", "pow_end_exact_root",
        "pow_end_exact_root_lower", "pow_bounds_one_to_an_interval", "doubling_scan"])
def test_negative_bits_refused(call):
    with pytest.raises(PreconditionViolated, match=r"^precision must be >= 0 bits, got -3$"):
        call()
