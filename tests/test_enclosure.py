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
from dmlab.errors import EnclosureInconclusive

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


@pytest.mark.parametrize("bits", [1, 2, 3, 64, DEFAULT_BITS, 512])
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


def test_refine_gives_up_with_error():
    with pytest.raises(EnclosureInconclusive):
        refine(lambda bits: None, 128, 512)
