"""Certified enclosures for log2, 2^y, and rational powers.

All bounds are exact dyadic rationals from integer arithmetic with directed
rounding at scale 2^B, B = bits + 32: `x >> B` floors, `-((-x) >> B)` ceils,
and no floats enter any comparison.  `bits` (default 128) sets the width,
never soundness: a floor pass stays <= the true value at every step and a
ceil pass >= it.  A log2 end is an integer over 2^bits: where a short series
proves both squaring passes return its value (all but about 2^-27 of
mantissas) it gives both ends, elsewhere the passes run.  An exp2 end is an
integer pair (numerator, power-of-two denominator); `_power_ends`, the one way
from a rational exponent to x^e, computes only those each asked side needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import EnclosureInconclusive, PreconditionViolated
from .ratio import Value

DEFAULT_BITS = 128
_GUARD = 32


class Bounds(Value):
    """A closed interval [lo, hi] guaranteed to contain a real value."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
            raise PreconditionViolated(f"empty bounds [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def exact(x: Fraction) -> "Bounds":
        x = Fraction(x)
        return Bounds(x, x)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi


def mul_bounds(a: Bounds, b: Bounds) -> Bounds:
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Bounds(min(cands), max(cands))


def add_bounds(a: Bounds, b: Bounds) -> Bounds:
    return Bounds(a.lo + b.lo, a.hi + b.hi)


EXACT_POWER_BITS = 1 << 23  # an exact power past this many bits is refused before it is built


def _check_power_bits(size: int) -> None:
    if size > EXACT_POWER_BITS:
        raise PreconditionViolated(f"an exact power needs about {size} bits, over the {EXACT_POWER_BITS}-bit budget")


def _pow2_pair(k: int) -> tuple[int, int]:
    _check_power_bits(abs(k))
    return (1 << k, 1) if k >= 0 else (1, 1 << -k)


def _log2_frac_bits(n: int, d: int, bits: int, round_up: bool) -> int:
    # Fractional log2 bits of m = n/d in (1, 2) via squaring with directed rounding; rounding direction
    # alone guarantees the bound's side.  Test i sees 2^(b_i + r_i), b_i the bit of t = log2 m and
    # r_i = frac(2^i t), off by a factor within h_i, where h_0 = 3 2^-B and h_i = 2 h_(i-1) + h_(i-1)^2
    # bound e_i + 2^(1-B), e_i the running value's relative error, while the tests are right; so
    # h_i <= 3 2^(i-B) (1 + 2^(i+1-B)) < 2^(i+2-B).  A test errs only if b_i = 1 and r_i < 3 h_i (floor) or
    # b_i = 0 and 1 - r_i < 3 h_i (ceil): then frac(2^bits t) is within 2^(bits-i) 3 h_i < 2^-28 of an
    # integer.  Otherwise both passes return floor(2^bits t).
    B = bits + _GUARD
    s = -1 if round_up else 1  # M is s times the running value: `>>` floors it, or ceils it
    M = (s * n << B) // d
    two = 2 << B
    f = 0
    for _ in range(bits):
        M = s * M * M >> B
        f <<= 1
        if s * M >= two:
            f |= 1
            M >>= 1
    return f


@lru_cache(maxsize=8)
def _series_plan(bits: int) -> tuple[int, int, int, int, int]:
    # W roots, scale 2^P, K terms, L = 2^P ln 2 - l, 0 <= l < P/3 + 2, from ln 2 = sum 2 / ((2k+1) 3^(2k+1))
    # with each term floored and the tail past k = P // 3 below 1, and the pad 2^12 + E of _log2_series
    W = isqrt(bits) // 4 + 1
    P = bits + W + 42
    K = P // (2 * W + 2) + 1
    L = sum((2 << P) // ((2 * k + 1) * 3 ** (2 * k + 1)) for k in range(P // 3 + 1))
    return W, P, K, L, (1 << 12) + 2 * K + (P >> W) + 3


def _log2_series(n: int, d: int, bits: int) -> int | None:
    """floor(2^bits log2 m) for m = n / d in (1, 2), or None if a test of the
    squaring loop might err.  With x = m^(2^-W), a = atanh(z) and
    z = (x - 1) / (x + 1) < 2^-(W+1), log2 m = 2^(W+1) a / ln 2.  W floored
    roots at scale 2^P, each halving the error before it, give Y = 2^P y,
    x - 2^(1-P) < y <= x.  A sums K terms of atanh's series at
    Z = floor(2^P (y - 1) / (y + 1)), all floored: 0 <= a 2^P - A < 2K + 1 (y
    and Z cost < 1.1 each, the tail < 0.4, each later term < 1.9).  So
    T = floor(2^(N+W+1) A / L), N = bits + 40, is within E = 2K + (P >> W) + 3
    of S = 2^N log2 m (A's error moves it < 0.73 (2K + 1), L's < l 2^-(W+1),
    the floor < 1).  Where T mod 2^40 is at least 2^12 + E from 0 and 2^40,
    floor(S / 2^40) = T >> 40 and frac(2^bits log2 m) is over 2^-28 from an
    integer, so no test errs and both passes return T >> 40."""
    W, P, K, L, pad = _series_plan(bits)
    Y = (n << P) // d
    for _ in range(W):
        Y = isqrt(Y << P)
    Z = ((Y - (1 << P)) << P) // (Y + (1 << P))
    Z2 = Z * Z >> P
    A = term = Z
    for k in range(3, 2 * K, 2):
        term = term * Z2 >> P
        A += term // k
    T = (A << (bits + W + 41)) // L
    return T >> 40 if pad <= T & ((1 << 40) - 1) <= (1 << 40) - pad else None


def _log2_ends(n: int, d: int, bits: int) -> tuple[int, int]:
    """Both ends of log2_bounds(n / d, bits) times 2^bits, n, d > 0 not necessarily coprime."""
    if bits < 0:
        raise PreconditionViolated(f"precision must be >= 0 bits, got {bits}")
    e = n.bit_length() - d.bit_length()  # so 2^(e-1) < n / d < 2^(e+1)
    mn, md = (n, d << e) if e >= 0 else (n << -e, d)
    if mn < md:  # n / d < 2^e: the mantissa below is (n / d) / 2^(e-1) = 2 mn / md
        e, mn = e - 1, mn << 1
    if mn == md:  # n / d = 2^e
        return e << bits, e << bits
    f = _log2_series(mn, md, bits)
    if f is None:
        return (e << bits) + _log2_frac_bits(mn, md, bits, False), (e << bits) + _log2_frac_bits(mn, md, bits, True) + 1
    return (e << bits) + f, (e << bits) + f + 1


def _log2_end(n: int, d: int, bits: int, upper: bool) -> int:
    """The upper end of _log2_ends(n, d, bits) when `upper`, else the lower."""
    return _log2_ends(n, d, bits)[upper]


def log2_bounds(x: Fraction, bits: int = DEFAULT_BITS) -> Bounds:
    """Certified enclosure of log2(x) for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise PreconditionViolated("log2 needs a positive argument")
    lo, hi = _log2_ends(*x.as_integer_ratio(), bits)
    return Bounds(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


@lru_cache(maxsize=8)
def _root_tables(bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # scaled enclosures of 2^(2^-i) for i = 1..bits at scale 2^(bits+_GUARD)
    B = bits + _GUARD
    S = 1 << B
    down, up = [], []
    lo = hi = 2 * S  # represents the value 2.0
    for _ in range(bits):
        lo = isqrt(lo * S)
        t = isqrt(hi * S)
        hi = t + (t * t < hi * S)
        down.append(lo)
        up.append(hi)
    return tuple(down), tuple(up)


def _exp2_end(num: int, den: int, bits: int, upper: bool) -> tuple[int, int]:
    """The upper or lower end of exp2_bounds(num / den, bits), den > 0, as an
    integer pair (numerator, denominator) with a power-of-two denominator.

    2^y = 2^k * 2^f with k = floor(y); f is cut to bits fractional bits
    (rounded toward the wanted side) and 2^f is the product of the roots
    2^(2^-i) over its set bits, most significant first, each step floored or
    ceiled at scale 2^B."""
    if bits < 0:
        raise PreconditionViolated(f"precision must be >= 0 bits, got {bits}")
    k, rem = divmod(num, den)
    if abs(k) > 1 << 22:
        raise PreconditionViolated("exponent magnitude out of supported range")
    if rem == 0:
        return _pow2_pair(k)
    f, inexact = divmod(rem << bits, den)
    if upper and inexact:
        f += 1
        if f >> bits:  # f rounded up to 1
            return _pow2_pair(k + 1)
    B = bits + _GUARD
    P = 1 << B
    roots = _root_tables(bits)[upper]
    while f:  # bit i of f (from the top) selects the root 2^(2^-i)
        i = f.bit_length()
        f ^= 1 << (i - 1)
        P = -((-P * roots[bits - i]) >> B) if upper else (P * roots[bits - i]) >> B
    return (P << k, 1 << B) if k >= 0 else (P, 1 << (B - k))


def exp2_bounds(y: Fraction, bits: int = DEFAULT_BITS) -> Bounds:
    """Certified enclosure of 2^y for rational y."""
    n, d = Fraction(y).as_integer_ratio()
    return Bounds(Fraction(*_exp2_end(n, d, bits, False)), Fraction(*_exp2_end(n, d, bits, True)))


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
    e = n.bit_length() - 1
    if n == 1 << e and e % k == 0:  # n = 2^e with k dividing e: the root is 2^(e/k)
        return 1 << e // k, True
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x**k == n


def _exact_rational_pow(n: int, d: int, u: int, k: int) -> tuple[int, int] | None:
    """(n / d)^(u / k) as an integer pair, n, d, k > 0 and u / k in lowest
    terms, when the root extraction is exact, else None; refused past
    EXACT_POWER_BITS before the power is built.  The root test needs n / d in
    lowest terms: (20, 45) has no square root, its reduced form 4/9 has 2/3."""
    if k > 1:
        # a k-th power holds a multiple of k factors 2: refuse the rest before any root
        if ((n & -n).bit_length() - 1) % k or ((d & -d).bit_length() - 1) % k:
            return None
        n, ok = iroot(n, k)
        if ok:
            d, ok = iroot(d, k)
        if not ok:
            return None
    _check_power_bits(abs(u) * (n.bit_length() + d.bit_length() - 2))
    return (n**u, d**u) if u >= 0 else (d**-u, n**-u)


def _power_ends(bases, e: Fraction, sides, bits: int) -> list[tuple[int, int]]:
    """For each integer pair (n, d) of `bases` in turn, not necessarily
    coprime, the ends of (n / d)^e that `sides` names (True the upper), as
    pow_bounds gives them, each an integer pair, all in one list.

    This is the one way from a rational exponent to power ends.  A pair with
    n <= 0 or d <= 0 and a negative `bits` are refused.  Each pair is reduced;
    a dyadic one, 2^(a - b), is exact exactly when e (a - b) is an integer,
    any other has its exact root tried.  Otherwise an end is 2^(e log2 x).
    For x = 2^a o / (2^b o'), o and o' odd, x and o / o' share a mantissa,
    all that the series and the squarings see, so x's log2 ends are those of
    o / o' plus (a - b) 2^bits, bit for bit: each odd part's pair is computed
    once per call, a dyadic base's (0, 0) with no series.  The exp2 end of
    y = k + rem / D, D = 2^bits times e's denominator for every pair, is 2^k
    times the end of 2^(rem / D), which depends on rem and the side alone: it
    too is computed once per call.  Where the end not asked for might leave
    the exponent range it is computed too, so the refusal is pow_bounds'."""
    if bits < 0:
        raise PreconditionViolated(f"precision must be >= 0 bits, got {bits}")
    num, den = e.as_integer_ratio()
    memo: dict = {}  # (o, o') -> the log2 ends of o / o'; rem, or ~rem on the lower side -> 2^(rem / D)'s end
    out = []
    for n, d in bases:
        if n <= 0 or d <= 0:
            raise PreconditionViolated("pow_bounds needs a positive base")
        g = gcd(n, d)
        n, d = n // g, d // g
        if n & (n - 1) or d & (d - 1):
            exact = _exact_rational_pow(n, d, num, den)
        else:  # 2^(a - b): exact, before any range check as an exact root is, when den divides num (a - b)
            k, rem = divmod(num * (n.bit_length() - d.bit_length()), den)
            exact = None if rem else _pow2_pair(k)
        if exact is not None:
            out += [exact] * len(sides)
            continue
        a, b = (n & -n).bit_length() - 1, (d & -d).bit_length() - 1
        odd_n, odd_d, shift = n >> a, d >> b, (a - b) << bits
        logs = memo.get(odd := (odd_n, odd_d)) or memo.setdefault(odd, _log2_ends(odd_n, odd_d, bits))
        # both ends, as pow_bounds computes them, where the other one might leave the exponent range
        near = abs(num) * (n.bit_length() + d.bit_length()) >= den << 22
        ends = []
        for side in (False, True) if near else sides:
            # with e < 0 the lower log2 end gives the upper end
            k, rem = divmod(num * (logs[side == (num > 0)] + shift), den << bits)
            if abs(k) > 1 << 22:
                raise PreconditionViolated("exponent magnitude out of supported range")
            r = rem if side else ~rem
            P, Q = memo.get(r) or memo.setdefault(r, _exp2_end(rem, den << bits, bits, side))
            # 2^(rem / D)'s end is (P, 2^B), or (1, 1) for rem = 0 or (2, 1) rounded up: 2^k times it
            ends.append(_pow2_pair(k + P - 1) if Q == 1 else (P << k, Q) if k >= 0 else (P, Q << -k))
        out += [ends[side] for side in sides] if near else ends
    return out


def pow_bounds(x: Fraction | int, e: Fraction | Bounds, bits: int = DEFAULT_BITS) -> Bounds:
    """Certified enclosure of x^e for rational x > 0.

    `e` may be an exact rational or itself an enclosure (for irrational
    exponents such as log2 of a non-power constant).  Exact shortcuts cover
    integer exponents and exact rational roots.
    """
    x = Fraction(x)
    if isinstance(e, Bounds) and e.is_exact:
        e = e.lo
    if not isinstance(e, Bounds):
        lo, hi = _power_ends((x.as_integer_ratio(),), Fraction(e), (False, True), bits)
        return Bounds(Fraction(*lo), Fraction(*hi))
    if x <= 0:
        raise PreconditionViolated("pow_bounds needs a positive base")
    prod = mul_bounds(e, log2_bounds(x, bits))
    lo, hi = prod.lo.as_integer_ratio(), prod.hi.as_integer_ratio()
    return Bounds(Fraction(*_exp2_end(*lo, bits, False)), Fraction(*_exp2_end(*hi, bits, True)))


def pow_end(x: Fraction | int, e: Fraction, upper: bool, bits: int = DEFAULT_BITS) -> Fraction:
    """pow_bounds(x, e, bits).hi when `upper`, else .lo, for a rational e:
    only the log2 end and the exp2 end that side needs are computed."""
    [end] = _power_ends((x.as_integer_ratio(),), e, (upper,), bits)
    return Fraction(*end)


def exp_neg_upper(s: Fraction) -> Fraction:
    """Exact rational upper bound for e^(-s), s >= 0.

    Uses e^(-1) < 2/5 for the integer part and the alternating truncation
    1 - f + f^2/2 >= e^(-f) for the fractional part.
    """
    s = Fraction(s)
    if s < 0:
        raise PreconditionViolated("exp_neg_upper needs s >= 0")
    k = s.numerator // s.denominator
    f = s - k
    return Fraction(2, 5) ** k * (1 - f + f * f / 2)


def refine(check, start_bits: int = DEFAULT_BITS, max_bits: int = 2048):
    """Run `check(bits)` until it returns non-None, at bits = start_bits,
    2 start_bits, 4 start_bits, ... up to and including the first rung >=
    max_bits; a start below 1 bit is refused before the first check.

    This is the one precision ladder: every caller that escalates a
    precision passes its check here.  The refusal is an
    EnclosureInconclusive naming, in its message and its `bits`, the last
    rung checked."""
    if start_bits < 1:
        raise PreconditionViolated(f"precision must start at >= 1 bit, got {start_bits}")
    bits = start_bits
    while True:
        result = check(bits)
        if result is not None:
            return result
        if bits >= max_bits:
            raise EnclosureInconclusive(f"bounds still inconclusive at {bits} bits", bits)
        bits *= 2
