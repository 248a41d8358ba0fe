"""Certified enclosures for log2, 2^y, and rational powers.

All bounds are exact dyadic rationals produced by integer arithmetic with
directed rounding; no floats enter any comparison.  The working precision
(`bits`, default 128) controls enclosure width, never soundness: a floor-pass
mantissa stays <= the true value at every step and a ceil-pass stays >= it,
so the returned interval always contains the true real number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import EnclosureInconclusive, PreconditionViolated

DEFAULT_BITS = 128
_GUARD = 32


@dataclass(frozen=True)
class Bounds:
    """A closed interval [lo, hi] guaranteed to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise PreconditionViolated(f"empty bounds [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(x: Fraction) -> "Bounds":
        x = Fraction(x)
        return Bounds(x, x)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


def mul_bounds(a: Bounds, b: Bounds) -> Bounds:
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Bounds(min(cands), max(cands))


def add_bounds(a: Bounds, b: Bounds) -> Bounds:
    return Bounds(a.lo + b.lo, a.hi + b.hi)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _ilog2(x: Fraction) -> int:
    """floor(log2(x)) for x > 0, exactly."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    # adjust so 2^e <= x < 2^(e+1)
    if e >= 0:
        if n < d << e:
            e -= 1
    else:
        if n << -e < d:
            e -= 1
    if e + 1 >= 0:
        if n >= d << (e + 1):
            e += 1
    else:
        if n << -(e + 1) >= d:
            e += 1
    return e


def _pow2_int(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def _log2_frac_bits(n: int, d: int, bits: int, round_up: bool) -> int:
    # Fractional log2 bits of m = n/d in [1, 2) via squaring with directed
    # rounding.  Rounding direction alone guarantees the bound's side.
    B = bits + _GUARD
    one = 1 << B
    two = one << 1
    M = _ceil_div(n << B, d) if round_up else (n << B) // d
    f = 0
    for _ in range(bits):
        M2 = M * M
        M2 = _ceil_div(M2, one) if round_up else M2 // one
        f <<= 1
        if M2 >= two:
            f |= 1
            M2 = _ceil_div(M2, 2) if round_up else M2 // 2
        M = M2
    return f


def log2_bounds(x: Fraction, bits: int = DEFAULT_BITS) -> Bounds:
    """Certified enclosure of log2(x) for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise PreconditionViolated("log2 needs a positive argument")
    n, d = x.numerator, x.denominator
    if n % d == 0:
        q = n // d
        if q & (q - 1) == 0:
            return Bounds.exact(Fraction(q.bit_length() - 1))
    if d % n == 0:
        q = d // n
        if q & (q - 1) == 0:
            return Bounds.exact(Fraction(-(q.bit_length() - 1)))
    e = _ilog2(x)
    # mantissa m = x / 2^e in [1, 2)
    if e >= 0:
        mn, md = n, d << e
    else:
        mn, md = n << -e, d
    f_lo = _log2_frac_bits(mn, md, bits, round_up=False)
    f_hi = _log2_frac_bits(mn, md, bits, round_up=True)
    unit = 1 << bits
    return Bounds(e + Fraction(f_lo, unit), e + Fraction(f_hi + 1, unit))


@lru_cache(maxsize=8)
def _root_tables(bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # scaled enclosures of 2^(2^-i) for i = 1..bits at scale 2^(bits+_GUARD)
    B = bits + _GUARD
    S = 1 << B
    down, up = [], []
    lo = hi = 2 * S  # represents the value 2.0
    for _ in range(bits):
        t = isqrt(lo * S)
        lo = t
        t = isqrt(hi * S)
        if t * t < hi * S:
            t += 1
        hi = t
        down.append(lo)
        up.append(hi)
    return tuple(down), tuple(up)


def _exp2_frac(f_scaled: int, bits: int, round_up: bool) -> Fraction:
    # 2^(f_scaled / 2^bits) for 0 <= f_scaled < 2^bits, directed
    B = bits + _GUARD
    S = 1 << B
    down, up = _root_tables(bits)
    table = up if round_up else down
    P = S
    for i in range(1, bits + 1):
        if (f_scaled >> (bits - i)) & 1:
            P = _ceil_div(P * table[i - 1], S) if round_up else (P * table[i - 1]) // S
    return Fraction(P, S)


def exp2_bounds(y: Fraction, bits: int = DEFAULT_BITS) -> Bounds:
    """Certified enclosure of 2^y for rational y."""
    y = Fraction(y)
    if y.denominator == 1:
        k = y.numerator
        if abs(k) > 1 << 22:
            raise PreconditionViolated("exponent magnitude out of supported range")
        return Bounds.exact(_pow2_int(k))
    n_floor = y.numerator // y.denominator
    if abs(n_floor) > 1 << 22:
        raise PreconditionViolated("exponent magnitude out of supported range")
    f = y - n_floor  # in (0, 1)
    scale = 1 << bits
    f_lo = (f.numerator * scale) // f.denominator
    exact_dyadic = f_lo * f.denominator == f.numerator * scale
    f_hi = f_lo if exact_dyadic else f_lo + 1
    base = _pow2_int(n_floor)
    lo = base * _exp2_frac(f_lo, bits, round_up=False)
    if f_hi >= scale:
        hi = base * 2
    else:
        hi = base * _exp2_frac(f_hi, bits, round_up=True)
    return Bounds(lo, hi)


@lru_cache(maxsize=8)
def _exp2_64ths_row(bits: int) -> list:
    # entry r encloses 2^(r/64); filled by exp2_64ths as entries are asked for
    return [None] * 64


def exp2_64ths(n: int, bits: int = DEFAULT_BITS) -> tuple[int, int, int]:
    """exp2_bounds(Fraction(n, 64), bits) as integers (lo, hi, den), with
    lo / den <= 2^(n/64) <= hi / den and den a power of two.

    With n = 64q + r, exp2_bounds encloses 2^(n/64) as 2^q times its
    enclosure of 2^(r/64), so each (r, bits) is enclosed once, by
    exp2_bounds itself, and every result equals exp2_bounds' bit for bit."""
    q, r = divmod(n, 64)
    if abs(q) > 1 << 22:
        raise PreconditionViolated("exponent magnitude out of supported range")
    row = _exp2_64ths_row(bits)
    if row[r] is None:
        b = exp2_bounds(Fraction(r, 64), bits)
        den = max(b.lo.denominator, b.hi.denominator)
        row[r] = (b.lo.numerator * (den // b.lo.denominator),
                  b.hi.numerator * (den // b.hi.denominator), den.bit_length() - 1)
    lo, hi, shift = row[r]
    if q >= shift:
        return lo << (q - shift), hi << (q - shift), 1
    return lo, hi, 1 << (shift - q)


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Integer floor k-th root of n >= 0 plus exactness flag."""
    if n < 0 or k <= 0:
        raise PreconditionViolated("iroot needs n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n, True
    x = 1 << _ceil_div(n.bit_length(), k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x**k == n


def _exact_rational_pow(x: Fraction, e: Fraction) -> Fraction | None:
    # x^e as an exact rational when the root extraction is exact, else None
    if e.denominator == 1:
        return x ** e.numerator
    rn, okn = iroot(x.numerator, e.denominator)
    if not okn:
        return None
    rd, okd = iroot(x.denominator, e.denominator)
    if not okd:
        return None
    return Fraction(rn, rd) ** e.numerator


def pow_bounds(x: Fraction, e: Fraction | Bounds, bits: int = DEFAULT_BITS) -> Bounds:
    """Certified enclosure of x^e for rational x > 0.

    `e` may be an exact rational or itself an enclosure (for irrational
    exponents such as log2 of a non-power constant).  Exact shortcuts cover
    integer exponents and exact rational roots.
    """
    x = Fraction(x)
    if x <= 0:
        raise PreconditionViolated("pow_bounds needs a positive base")
    if isinstance(e, Bounds):
        if e.is_exact:
            e = e.lo
    if isinstance(e, Fraction) or isinstance(e, int):
        e = Fraction(e)
        if x == 1 or e == 0:
            return Bounds.exact(Fraction(1))
        exact = _exact_rational_pow(x, e)
        if exact is not None:
            return Bounds.exact(exact)
        e_bounds = Bounds.exact(e)
    else:
        e_bounds = e
        if x == 1:
            return Bounds.exact(Fraction(1))
    prod = mul_bounds(e_bounds, log2_bounds(x, bits))
    if prod.is_exact:  # x a power of two: one enclosure of 2^prod serves both ends
        return exp2_bounds(prod.lo, bits)
    lo = exp2_bounds(prod.lo, bits).lo
    hi = exp2_bounds(prod.hi, bits).hi
    return Bounds(lo, hi)


def exp_neg_upper(s: Fraction) -> Fraction:
    """Exact rational upper bound for e^(-s), s >= 0.

    Uses e^(-1) < 2/5 for the integer part and the alternating truncation
    1 - f + f^2/2 >= e^(-f) for the fractional part.
    """
    s = Fraction(s)
    if s < 0:
        raise PreconditionViolated("exp_neg_upper needs s >= 0")
    if s == 0:
        return Fraction(1)
    k = s.numerator // s.denominator
    f = s - k
    return Fraction(2, 5) ** k * (1 - f + f * f / 2)


def refine(check, start_bits: int = DEFAULT_BITS, max_bits: int = 2048):
    """Run `check(bits)` at doubling precision until it returns non-None."""
    bits = start_bits
    while bits <= max_bits:
        result = check(bits)
        if result is not None:
            return result
        bits *= 2
    raise EnclosureInconclusive(f"bounds still inconclusive at {max_bits} bits")
