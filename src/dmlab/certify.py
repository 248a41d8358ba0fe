"""Positivity and decay certificates from certified products and tail bounds.

The central object is ProductBracket: the first factors (1 - x_i) of an
infinite product, each enclosed by integer-pair ends, together with
certified rational bounds on the rest of the product, so that

    prod(lower ends) * tail_lower  <=  prod_{i>=1}(1 - x_i)  <=  prod(upper ends) * tail_upper

holds unconditionally.  The tail lower bound comes from the elementary
inequality prod(1 - x_i) >= 1 - sum(x_i) (useful once the remaining sum drops
below 1); the tail upper bound from prod(1 - x_i) <= exp(-sum(x_i)) with the
exponential enclosed rationally from above.  Terms and factors travel as
integer (numerator, denominator) pairs (seq.terms), a run of equal factors
once.  A reading (the report's 60-place floor and ceiling, a comparison
with a bound) runs a partial product as B-bit fixed point rounded outward,
doubling B until both sides agree; only at the exact product's bit size is
it formed.  A fractional power's ends come from the integer enclosure ends.

On top of that sit:
  * certify_fat_thick      positive-mass certificates for thick constructions
  * certify_thin_porous    decay-to-zero certificates for porous constructions
  * solve_inflation_exponent / tail_domination_start / cutout_lower_bound
                           the constant-chasing steps for cut-out sets
  * logfloor_schedule_mass the exactly solvable removal schedule driven by
                           floor(log2(j+1)), with an independent brute-force
                           tree enumeration that must agree rational-for-
                           rational with the closed form
  * interval_packing_verdict  the overlap criterion for unions of intervals
                           whose lengths use up an exact length budget
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from fractions import Fraction
from math import comb, prod
from operator import itemgetter, mul
from typing import Iterator, NamedTuple, Union

from .doubling import DoublingReport
from .enclosure import (
    DEFAULT_BITS,
    _power_ends,
    exp2_bounds,
    exp_neg_upper,
    log2_bounds,
    pow_bounds,
    pow_end,
    refine,
)
from .errors import (
    DivergentSeries,
    EnclosureInconclusive,
    ExponentWindowEmpty,
    GapTooSmall,
    LengthMismatch,
    NotInEllT,
    PreconditionViolated,
    SeriesConverges,
    TailTooLarge,
    Undecidable,
)
from .geom import (
    CutOutConfig,
    RationalInterval,
    ThickStructure,
    inflate,
    largest_gap,
    remaining_set,
    verify_thick,
)
from .measure import TreeMeasure, _pair_sum, cutout_mass
from .ratio import PLOT_EXACT_BITS, SERIALIZE_PLACES, Value
from .seq import (
    LogFloor,
    SequenceFamily,
    Summability,
    classify_ellp,
    family_length,
    logfloor_exponent,
    series_total,
    tail_sum_upper,
    term,
    terms,
)


class Conclusion(enum.Enum):
    POSITIVE = "positive"
    INCONCLUSIVE = "inconclusive"


class LimitVerdict(enum.Enum):
    POSITIVE_LIMIT = "positive_limit"
    ZERO_LIMIT = "zero_limit"


class PackingVerdict(enum.Enum):
    THIN = "thin"
    FAT = "fat"


# --- certified infinite products ---------------------------------------------

Pair = tuple[int, int]  # (numerator, denominator), denominator > 0, unreduced


def _fixed_product(runs, bits: int, up: bool = False) -> int:
    """2^bits times the product of the runs' lower ends, floored after every
    factor, or with `up` of the upper ends, ceiled (run negated): with ends
    in [0, 1], n factors leave it less than n units from 2^bits times the exact one."""
    acc, i = (-1 << bits, 2) if up else (1 << bits, 0)
    for run in runs:
        n, d, count = run[i], run[i + 1], run[4]
        if count == 1:  # most runs: a range per factor would cost as much as the factor
            acc = acc * n // d
            continue
        for _ in range(count):
            acc = acc * n // d
    return -acc if up else acc


def _runs(pairs, ends) -> tuple:
    """Runs (*ends(pair, i), count) of the i-th of `pairs`, (ln, ld, hn, hd,
    count) for factor ends: one pair object repeated (a logfloor block) makes
    one run, and one flat tuple a run, so few objects stay alive for the GC."""
    runs, prev, count = [], None, 0
    for i, pair in enumerate(pairs, start=1):
        if pair is not prev:
            if count:
                runs.append((*run_ends, count))
            run_ends, prev, count = ends(pair, i), pair, 0
        count += 1
    if count:
        runs.append((*run_ends, count))
    return tuple(runs)


def _exact_product(runs, up: bool) -> Pair:
    """The exact product of the lower (upper when `up`) ends of the runs."""
    i = 2 if up else 0
    return prod(run[i] ** run[4] for run in runs), prod(run[i + 1] ** run[4] for run in runs)


class ProductBracket(Value):
    """Enclosure of an infinite product of factors (1 - x_i), x_i in (0,1).

    `factors` holds the first n_terms factors as runs (ln, ld, hn, hd, count)
    of `count` equal factors with ends 0 <= ln / ld <= hn / hd <= 1 (equal
    for an exact factor); lower_value = prod(lower ends) * tail_lower and
    upper_value = prod(upper ends) * tail_upper enclose the product.  A
    reading never forms those products first: at B bits `_fixed_product`
    floors the lower ends' product and ceils the upper ends' after every
    factor, within n_terms units of 2^B times the exact one, and a reading
    both sides agree on is the exact ends' reading.  Else B doubles on
    `refine` from bit_length(n_terms) + 232; a rung costs about n_terms * B,
    so the rung after the start where that reaches the exact products' bit
    size (or the start, if B does) forms them: no reading costs much more.
    """

    __slots__ = ("factors", "tail_lower", "tail_upper", "n_terms", "_size", "_same", "_rungs")
    _fields = ("factors", "tail_lower", "tail_upper")

    def __init__(self, factors: tuple, tail_lower: Fraction, tail_upper: Fraction) -> None:
        if not 0 <= tail_lower <= tail_upper <= 1:
            raise PreconditionViolated(f"tail bounds out of order: [{tail_lower}, {tail_upper}]")
        same = True
        for ln, ld, hn, hd, count in factors:
            if not (0 <= ln and 0 < ld and 0 < hd and hn <= hd and ln * hd <= hn * ld and count >= 1):
                raise PreconditionViolated("factor runs need ends 0 <= lower <= upper <= 1 and a count >= 1")
            same = same and ln == hn and ld == hd
        counts = [run[4] for run in factors]
        size = sum(map(mul, counts, map(int.bit_length, map(itemgetter(3), factors))))
        for name, value in (("factors", factors), ("tail_lower", tail_lower), ("tail_upper", tail_upper),
                            ("n_terms", sum(counts)), ("_size", size), ("_same", same), ("_rungs", {})):
            object.__setattr__(self, name, value)

    def _decide(self, reading):
        """reading(lo, hi, den) of lower_value = lo / den and upper_value =
        hi / den, monotone in lo and in hi: its answer at the corners (a, e)
        and (b, c) of the first rung's bounds a <= lower_value * den <= b,
        c <= upper_value * den <= e at which the two agree."""
        runs, same, size, start = self.factors, self._same, self._size, self.n_terms.bit_length() + 232
        last = min(size, max(2 * start, -(-size // max(self.n_terms, 1))))
        (tl, tld), (tu, tud) = self.tail_lower.as_integer_ratio(), self.tail_upper.as_integer_ratio()

        def settle(bits: int):
            if bits not in self._rungs:
                if bits >= last:  # the last rung: the exact products
                    low = _exact_product(runs, False)
                    (pn, pd), (qn, qd) = low, low if same else _exact_product(runs, True)
                    n, unit, low, high = 0, pd * qd, pn * qd, qn * pd
                else:  # exact factors: the floored product encloses both ends
                    n, unit, low = self.n_terms, 1 << bits, _fixed_product(runs, bits)
                    high = low + n if same else _fixed_product(runs, bits, True)
                lo, hi = tl * tud, tu * tld
                self._rungs[bits] = low * lo, (low + n) * lo, (high - n) * hi, high * hi, unit * tld * tud
            a, b, c, e, den = self._rungs[bits]
            answer = reading(a, e, den)
            return answer if answer == reading(b, c, den) else None

        return refine(settle, start, last)

    def grid(self, scale: int) -> tuple[int, int]:
        """floor(scale * lower_value) and ceil(scale * upper_value), >= 1 if upper_value > 0."""
        least = int(self.tail_upper > 0 and all(run[2] for run in self.factors))
        return self._decide(lambda lo, hi, den: (lo * scale // den, max(-(-hi * scale // den), least)))

    def encloses(self, value: Fraction) -> bool:
        vn, vd = Fraction(value).as_integer_ratio()
        return self._decide(lambda lo, hi, den: lo * vd <= vn * den <= hi * vd)

    def lower_at_least(self, bound: Fraction) -> bool:
        bn, bd = Fraction(bound).as_integer_ratio()
        return self._decide(lambda lo, hi, den: bn * den <= lo * bd)

    def width_at_most(self, bound: Fraction) -> bool:
        bn, bd = Fraction(bound).as_integer_ratio()
        return self._decide(lambda lo, hi, den: (hi - lo) * bd <= bn * den)

    def positive(self) -> bool:
        """lower_value > 0, read off the lower ends and tail_lower."""
        return self.tail_lower > 0 and all(run[0] for run in self.factors)


# The exact products a ladder's last rung forms (product_bracket, the logfloor
# schedule, integer exponents in certify_fat_thick) grow with the exponent, the
# terms' bit lengths and the factor count; refuse one past this many bits first.
EXACT_BIT_BUDGET = 1 << 20


def _check_exact_bits(size: int, what: str) -> None:
    if size > EXACT_BIT_BUDGET:
        raise PreconditionViolated(
            f"{what} needs about {size} bits, over the exact-arithmetic "
            f"budget of {EXACT_BIT_BUDGET} bits"
        )


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _check_product_bits(x: SequenceFamily, count: int, power: int, what: str) -> None:
    """Refuse, before any factor is drawn, `count` factors 1 - c * x_n^power
    of about power * count * max(bits of x_1, bits of x_count) bits; past
    EXACT_BIT_BUDGET factors x_1 alone decides (every term holds 3 bits or
    more), as the last term of a geometric family is itself costly."""
    if count:
        ends = (1, count) if count <= EXACT_BIT_BUDGET else (1,)
        _check_exact_bits(power * max(_bits(term(x, n)) for n in ends) * count, what)


def product_bracket(x: SequenceFamily, n_partial: int, lookahead: int = 64) -> ProductBracket:
    """Certified enclosure of prod_{i>=1}(1 - x_i) truncated after n_partial
    exact factors.

    Divergent sum(x_i) is fine: the lower bound degrades to 0 and the upper
    bound shrinks with the lookahead window, reflecting a vanishing product.
    """
    if n_partial < 0:
        raise PreconditionViolated("truncation index must be >= 0")
    length = family_length(x)
    used = n_partial if length is None else min(n_partial, length)
    count = used if length is None else length
    _check_product_bits(x, count, 1, f"the exact product of {count} factors")

    def ends(term_pair: Pair, i: int) -> tuple[int, int, int, int]:
        n, d = term_pair
        if not 0 < n < d:
            raise PreconditionViolated(f"factor term {i} = {Fraction(n, d)} outside (0,1)")
        return d - n, d, d - n, d

    factors = _runs(terms(x, 1, used + 1), ends)

    if length is not None:
        # finite families carry an exactly computable tail
        tail = prod((Fraction(d - n, d) for n, d in terms(x, used + 1, length + 1)), start=Fraction(1))
        return ProductBracket(factors, tail, tail)

    try:
        tail_sum = tail_sum_upper(x, Fraction(1), used)
    except DivergentSeries:
        tail_sum = None
    tail_lower = 1 - tail_sum if tail_sum is not None and tail_sum < 1 else Fraction(0)
    ahead = Fraction(*_pair_sum(terms(x, used + 1, used + lookahead + 1)))  # an infinite family
    tail_upper = min(Fraction(1), exp_neg_upper(ahead))
    return ProductBracket(factors, tail_lower, tail_upper)


# --- fatness: thick constructions --------------------------------------------

class FatnessCertificate(NamedTuple):
    alpha: SequenceFamily
    t: Fraction
    factor_scale: Fraction  # the combined constant multiplying alpha_n^t
    n0: int                 # first stage whose decay factor is certified < 1
    bound: ProductBracket
    conclusion: Conclusion
    notes: tuple[str, ...] = ()


# certify_fat_thick doubles its factor count until the scaled tail sum of the
# remaining factors is at most this (or the count reaches max_terms)
TAIL_TARGET = Fraction(1, 1 << 34)


def _settle(lo: Pair, hi: Pair, scale: Fraction, decide: bool = False):
    """The factor 1 - scale * x^t's ends (lower numerator, denominator, upper
    numerator, denominator) from x^t's ends lo, hi if scale * x^t < 1 is
    certain; with `decide`, False if scale * x^t >= 1 is; else None."""
    (ln, ld), (hn, hd), (sn, sd) = lo, hi, scale.as_integer_ratio()
    if ln * hd > hn * ld:
        raise PreconditionViolated(f"empty bounds [{Fraction(ln, ld)}, {Fraction(hn, hd)}]")
    if sn * hn < sd * hd:
        return sd * hd - sn * hn, sd * hd, sd * ld - sn * ln, sd * ld
    if decide and sn * ln >= sd * ld:
        return False
    return None


def _factor_ends(x: Pair, t: Fraction, scale: Fraction, bits: int, decide: bool = False):
    """_settle's answer at the first rung from bits up to 4096 that has one,
    x an integer pair in (0, 1], t > 0."""
    return refine(lambda b: _settle(*_power_ends((x,), t, (False, True), b), scale, decide), bits, 4096)


def _first_small_stage(alpha: SequenceFamily, t: Fraction, scale: Fraction, bits: int) -> tuple[int, tuple | None]:
    """Least n0 with scale * alpha_n^t certifiably < 1 for every n >= n0, and for a finite
    family the runs (ln, ld, hn, hd, 1) of factors n0 .. its length its suffix scan settled."""

    def ends(n: int):
        return _factor_ends(next(terms(alpha, n, n + 1)), t, scale, bits, decide=True)

    length = family_length(alpha)
    if length is not None:
        # explicit prefixes need not be monotone: take the longest good suffix
        settled = []
        while len(settled) < length and (factor := ends(length - len(settled))):
            settled.append(factor)
        return length + 1 - len(settled), tuple((*f, 1) for f in reversed(settled))
    # the infinite families have non-increasing terms, so n >= n0 are the
    # small stages: probe n = 1, 2, 4, ... up to 10^6, then bisect
    lo, hi = 0, 1
    while not ends(hi):
        if hi == 1_000_000:
            raise Undecidable("decay factors stayed >= 1 for 10^6 stages")
        lo, hi = hi, min(2 * hi, 1_000_000)
    return bisect_left(range(hi), True, lo + 1, key=lambda n: ends(n) is not False), None


def certify_fat_thick(thick: Union[ThickStructure, SequenceFamily], t: Fraction, factor_scale: Fraction,
                      max_terms: int = 65536, bits: int = DEFAULT_BITS) -> FatnessCertificate:
    """Certificate that a thick construction keeps positive mass.

    Accepts either a verified ThickStructure (its gap-ratio family is used)
    or the family directly when the geometry has been checked separately.
    The certified lower bound is a ProductBracket of the per-stage decay
    factors 1 - factor_scale * alpha_n^t starting at the first stage n0 where
    every later factor is positive.
    """
    if isinstance(thick, ThickStructure):
        verdict = verify_thick(thick)
        if not verdict.valid:
            first = verdict.violations[0]
            raise PreconditionViolated(
                f"structure fails verification: condition {first.condition} "
                f"at level {first.level}: {first.detail}"
            )
        alpha = thick.alpha
        notes = (f"structure verified across {len(thick.levels)} levels",)
    else:
        alpha = thick
        notes = ("family supplied directly; geometry not re-checked here",)
    t = Fraction(t)
    scale = Fraction(factor_scale)
    if t <= 0 or scale <= 0:
        raise PreconditionViolated("exponent and factor scale must be positive")
    length = family_length(alpha)
    if length is None:
        if classify_ellp(alpha, t) is not Summability.CONVERGES:
            raise NotInEllT(f"gap powers at exponent {t} are not summable")

    exact_terms = t.denominator == 1
    if exact_terms:  # the first factors: all of a finite family, else 64
        first = length or 64
        _check_product_bits(alpha, first, t.numerator,
                            f"the exact product of {first} factors at exponent {t}")
    n0, factors = _first_small_stage(alpha, t, scale, bits)

    if length is not None:
        last = length
        tail_sum = Fraction(0)
    else:
        count = 64
        while True:
            last = n0 + count - 1
            if exact_terms:
                _check_exact_bits(t.numerator * _bits(term(alpha, last)) * count,
                                  f"the exact product of {count} factors at exponent {t}")
            tail_sum = scale * tail_sum_upper(alpha, t, last, bits)
            if tail_sum <= TAIL_TARGET or count >= max_terms:
                break
            count = min(2 * count, max_terms)
        if tail_sum >= 1:
            raise TailTooLarge(f"tail sum {tail_sum} still >= 1 after {count} factors")

    if factors is None:  # every run's ends from one entry call; a factor unsettled at `bits` climbs the ladder alone
        runs = _runs(terms(alpha, n0, last + 1), lambda x, i: (x,))
        batch = iter(_power_ends(map(itemgetter(0), runs), t, (False, True), bits))
        factors = tuple((*(_settle(lo, hi, scale) or _factor_ends(x, t, scale, bits)), count)
                        for (x, count), lo, hi in zip(runs, batch, batch))
    tail_lower = 1 - tail_sum if tail_sum < 1 else Fraction(0)
    if length is not None and last >= length:
        tail_upper = Fraction(1)
    else:  # an infinite family: the next 64 lower ends of alpha_n^t
        ahead = Fraction(*_pair_sum(_power_ends(terms(alpha, last + 1, last + 65), t, (False,), bits)))
        tail_upper = min(Fraction(1), exp_neg_upper(scale * ahead))
    bound = ProductBracket(factors, tail_lower, tail_upper)
    conclusion = Conclusion.POSITIVE if bound.positive() else Conclusion.INCONCLUSIVE
    return FatnessCertificate(alpha=alpha, t=t, factor_scale=scale, n0=n0, bound=bound,
                              conclusion=conclusion, notes=notes)


# --- thinness: porous constructions ------------------------------------------

class ThinnessCertificate(NamedTuple):
    alpha: SequenceFamily
    s: Fraction
    c: Fraction
    divergence_witness: Summability
    decay_curve: tuple[Fraction, ...]
    epsilon: Fraction
    n_star: int
    skipped_stages: tuple[int, ...] = ()


def certify_thin_porous(alpha: SequenceFamily, s: Fraction, c: Fraction, epsilon: Fraction) -> ThinnessCertificate:
    """Decay certificate: stage masses shrink by (1 - c * alpha_n^s) each
    stage, and divergence of sum(alpha_n^s) drives the product to zero.

    Stages whose factor is not certifiably inside (0,1) carry no usable decay
    (a relative hole cannot exceed the whole piece) and are skipped; the
    recorded curve keeps the original stage indexing either way.
    """
    s, c, epsilon = Fraction(s), Fraction(c), Fraction(epsilon)
    if s <= 0:
        raise PreconditionViolated("porosity exponent must be positive")
    if not 0 < c <= 1:
        raise PreconditionViolated("comparability constant must lie in (0,1]")
    if not 0 < epsilon <= 1:
        raise PreconditionViolated("target epsilon must lie in (0,1]")
    witness = classify_ellp(alpha, s)
    if witness is not Summability.DIVERGES:
        raise SeriesConverges(f"sum of alpha^({s}) converges; no decay certificate this way")
    exact_terms = s.denominator == 1

    curve: list[Fraction] = []
    skipped: list[int] = []
    u = Fraction(1)
    max_stages = 1_000_000
    for n in range(1, max_stages + 1):
        a_n = term(alpha, n)
        if exact_terms:
            _check_exact_bits(s.numerator * _bits(a_n), f"the exact power of stage {n} at exponent {s}")
            drop = c * a_n**s.numerator
        else:
            drop = c * pow_end(a_n, s, False)
        factor_up = 1 - drop
        if factor_up <= 0:
            skipped.append(n)
        else:
            u *= factor_up
            _check_exact_bits(_bits(u), f"the decay product after stage {n}")
        curve.append(u)
        if u < epsilon:
            return ThinnessCertificate(alpha=alpha, s=s, c=c, divergence_witness=witness,
                                       decay_curve=tuple(curve), epsilon=epsilon, n_star=n,
                                       skipped_stages=tuple(skipped))
    raise Undecidable(f"decay curve stayed >= {epsilon} for {max_stages} stages")


# --- constant solvers for cut-out sets ----------------------------------------

GRID_STEP = Fraction(1, 64)


def solve_inflation_exponent(big_lam: Fraction, t: Fraction, d: Fraction, epsilon: Fraction) -> Fraction:
    """Least grid multiple Q of 1/64 with big_lam*(d+2)^t * 2^(1-t*Q) < eps/6.

    The left side is strictly decreasing in Q, so an analytic enclosure of the
    crossing point pins down a short certified scan.
    """
    big_lam, t, d, epsilon = map(Fraction, (big_lam, t, d, epsilon))
    if min(big_lam, t, d, epsilon) <= 0:
        raise PreconditionViolated("all inputs must be positive")
    rhs = epsilon / 6
    base = d + 2

    # crossing point: Q* = (1 + log2(big_lam/rhs) + t*log2(base)) / t
    l1 = log2_bounds(big_lam / rhs)
    l2 = log2_bounds(base)
    q_lo = (1 + l1.lo + t * l2.lo) / t
    q_hi = (1 + l1.hi + t * l2.hi) / t

    def certified(q: Fraction) -> bool:
        def attempt(b: int):
            lhs_pow = pow_bounds(base, t, b)
            lhs_exp = exp2_bounds(1 - t * q, b)
            hi = big_lam * lhs_pow.hi * lhs_exp.hi
            lo = big_lam * lhs_pow.lo * lhs_exp.lo
            if hi < rhs:
                return True
            if lo >= rhs:
                return False
            return None

        return refine(attempt, max_bits=4096)

    q = Fraction((q_lo / GRID_STEP).__floor__()) * GRID_STEP
    steps = int((q_hi - q_lo) / GRID_STEP) + 3
    for _ in range(steps):
        if certified(q):
            return q
        q += GRID_STEP
    raise EnclosureInconclusive("no grid point certified within the scan window")


def power_tail_upper(delta: Fraction, n_from: int, bits: int = DEFAULT_BITS, head: int = 64) -> Fraction:
    """Certified upper bound on sum_{m >= n_from} m^(-delta), delta > 1.

    First `head` terms are bounded individually, the rest by the integral
    comparison from n_from+head-1.
    """
    delta = Fraction(delta)
    if delta <= 1:
        raise DivergentSeries("polynomial tail needs delta > 1")
    if n_from < 1:
        raise PreconditionViolated("tail start must be >= 1")
    cut = n_from + head
    total = Fraction(*_pair_sum(_power_ends(((m, 1) for m in range(n_from, cut)), -delta, (True,), bits)))
    integral = pow_end(cut - 1, 1 - delta, True, bits) / (delta - 1)
    return total + integral


def power_tail_lower(delta: Fraction, n_from: int, bits: int = DEFAULT_BITS, head: int = 64) -> Fraction:
    delta = Fraction(delta)
    if n_from < 1:
        raise PreconditionViolated("tail start must be >= 1")
    return Fraction(*_pair_sum(_power_ends(((m, 1) for m in range(n_from, n_from + head)), -delta, (False,), bits)))


def _tail_dominated(n: int, delta: Fraction, gamma: Fraction, epsilon: Fraction) -> bool:
    """Certified decision of sum_{m>=n} m^(-delta) < epsilon * n^(-gamma)."""

    def attempt(b: int):
        head = min(4096, 64 * max(1, b // DEFAULT_BITS))
        up = power_tail_upper(delta, n, b, head)
        rhs = pow_bounds(n, -gamma, b)
        if up < epsilon * rhs.lo:
            return True
        lo = power_tail_lower(delta, n, b, head)
        if lo >= epsilon * rhs.hi:
            return False
        return None

    return refine(attempt, max_bits=4096)


def tail_domination_start(epsilon: Fraction, delta: Fraction, gamma: Fraction) -> int:
    """Least M with sum_{m>=N} m^(-delta) < epsilon * N^(-gamma) for all
    N >= M, certified.

    Beyond a computed stage the closed-form envelope
    N^gamma * (N-1)^(1-delta) / (delta-1), strictly decreasing when
    delta > gamma + 1, settles every remaining N; up to that stage each N is
    checked directly.
    """
    epsilon, delta, gamma = map(Fraction, (epsilon, delta, gamma))
    if epsilon <= 0:
        raise PreconditionViolated("epsilon must be positive")
    if gamma <= 0 or delta <= gamma + 1:
        raise PreconditionViolated("need delta > gamma + 1 > 1")

    def envelope_ok(n: int) -> bool:
        def attempt(b: int):
            def h(upper: bool) -> Fraction:
                return (pow_end(n, gamma, upper, b)
                        * pow_end(n - 1, 1 - delta, upper, b) / (delta - 1))

            if h(True) < epsilon:
                return True
            if h(False) >= epsilon:
                return False
            return None

        return refine(attempt, max_bits=4096)

    scan_cap = 10000
    n1 = None
    for n in range(2, scan_cap):
        if envelope_ok(n):
            n1 = n
            break
    if n1 is None:
        raise Undecidable(f"envelope never dropped below {epsilon} by {scan_cap}")

    cache: dict[int, bool] = {}

    def direct(n: int) -> bool:
        if n not in cache:
            cache[n] = _tail_dominated(n, delta, gamma, epsilon)
        return cache[n]

    for m in range(1, scan_cap):
        if not direct(m):
            continue
        horizon = max(4 * m, n1)
        if all(direct(k) for k in range(m + 1, horizon + 1)):
            return m
    raise Undecidable(f"no certified start found below {scan_cap}")


# --- the final lower bound for cut-out sets -----------------------------------

class CutoutBound(NamedTuple):
    value: Fraction          # certified lower bound on the surviving mass
    conclusion: Conclusion
    main_term: Fraction      # lam * n_balls^(-r*s), rounded down
    penalty: Fraction        # upper bound on the subtracted tail expression
    lam: Fraction
    s: Fraction
    big_lam: Fraction
    t: Fraction
    p: Fraction
    r: Fraction
    n_balls: int
    diam_power_sum_upper: Fraction  # upper bound on sum of ball diameters^p
    tail_upper: Fraction            # upper bound on sum_{m>=N} m^(-t/p)
    gap: RationalInterval
    gap_diameter: Fraction


def cutout_lower_bound(config: CutOutConfig, report: DoublingReport, r: Fraction, n_balls: int,
                       p: Fraction) -> CutoutBound:
    """Certified lower bound on the mass left after removing the first
    n_balls balls, using a validated mass-window fit (lam, s, big_lam, t).

    The bound is main_term - penalty with
        main_term = lam * n_balls^(-r*s)          (rounded down)
        penalty   = (sum diam^p)^(t/p) * big_lam * sum_{m>=n_balls} m^(-t/p)
                                                   (rounded up)
    A positive value certifies survival at the fit's scale window; a negative
    value decides nothing.
    """
    r, p = Fraction(r), Fraction(p)
    fit = report.mass_window
    if fit is None:
        raise PreconditionViolated("doubling report carries no mass-window fit")
    lam, s, big_lam, t = fit.lam, fit.s, fit.big_lam, fit.t
    if p <= 0 or r <= 0:
        raise PreconditionViolated("need p > 0 and r > 0")
    if n_balls < 1:
        raise PreconditionViolated("need at least one removed ball")
    if p * (r * s + 1) >= t:
        raise ExponentWindowEmpty(f"p = {p} does not satisfy p * (r*s + 1) < t = {t}")
    if config.diam_family is None:
        raise PreconditionViolated("config must declare a diameter family")
    if classify_ellp(config.diam_family, p) is not Summability.CONVERGES:
        raise NotInEllT(f"diameter powers at exponent {p} are not summable")
    gap, gap_diam = largest_gap(remaining_set(config, n_balls), n_balls)

    def attempt(b: int):
        nb = pow_bounds(n_balls, -r, b)
        return True if gap_diam >= nb.hi else False if gap_diam < nb.lo else None

    if not refine(attempt, max_bits=4096):
        raise GapTooSmall(f"largest surviving gap {gap_diam} < {n_balls}^(-{r})")
    main_term = lam * pow_end(n_balls, -(r * s), False)
    # sum of ball diameters^p: listed balls exactly, declared family beyond
    diams = (ball.diameter.as_integer_ratio() for ball in config.balls)
    cp_up = Fraction(*_pair_sum(_power_ends(diams, p, (True,), DEFAULT_BITS)))
    cp_up += tail_sum_upper(config.diam_family, p, len(config.balls))
    tail_up = power_tail_upper(t / p, n_balls)
    penalty = pow_end(cp_up, t / p, True) * big_lam * tail_up
    value = main_term - penalty
    return CutoutBound(
        value=value, conclusion=Conclusion.POSITIVE if value > 0 else Conclusion.INCONCLUSIVE,
        main_term=main_term, penalty=penalty, lam=lam, s=s, big_lam=big_lam, t=t, p=p, r=r,
        n_balls=n_balls, diam_power_sum_upper=cp_up, tail_upper=tail_up, gap=gap, gap_diameter=gap_diam,
    )


class InflationCheck(NamedTuple):
    zeta_upper: Fraction      # inflation radius used (upper bound on 2N^-Q)
    remaining_lower: Fraction  # certified lower mass outside the inflated balls
    slack_required: Fraction   # the epsilon/2 the remainder must exceed
    passed: bool


def inflated_remainder_check(m: TreeMeasure, config: CutOutConfig, n_balls: int, q: Fraction, epsilon: Fraction,
                             depth: int) -> InflationCheck:
    """Check that the first n_balls balls, inflated by 2*n_balls^(-q) on each
    side, still leave more than epsilon/2 of the mass untouched.

    Inflating by an upper bound of the true radius only shrinks the
    remainder, so a pass here certifies the pass at the exact radius.
    """
    q, epsilon = Fraction(q), Fraction(epsilon)
    if epsilon <= 0:
        raise PreconditionViolated("epsilon must be positive")
    zeta_up = 2 * pow_end(n_balls, -q, True)
    grown = inflate(config, n_balls, zeta_up)  # the remaining set merges the balls that overlap
    remaining = cutout_mass(m, CutOutConfig(balls=tuple(grown)), len(grown), depth)
    required = epsilon / 2
    return InflationCheck(zeta_upper=zeta_up, remaining_lower=remaining.lower,
                          slack_required=required, passed=remaining.lower > required)


# --- the exactly solvable removal schedule ------------------------------------

class ScheduleMassReport(NamedTuple):
    p: Fraction
    stages: int
    exponents: tuple[int, ...]          # removal depth at each stage
    closed_form: ProductBracket
    brute_force: Fraction | None        # exact tree mass, None when skipped
    match_exact: bool | None
    verdict: LimitVerdict
    stage_partials: tuple[Fraction, ...]  # the plot's values of the partial products


# logfloor_schedule_mass enumerates the tree only up to this many stages
BRUTE_LIMIT = 512


def logfloor_schedule_mass(p: Fraction, stages: int) -> ScheduleMassReport:
    """Mass of the set left by the floor(log2(j+1))-driven removal schedule.

    Stage j removes, from every surviving piece, its leftmost descendant
    m_j = floor(log2(j+1)) levels down; under the left-weight-p tree measure
    each stage scales the mass by exactly (1 - p^(m_j)).  The closed-form
    partial product and an independent brute-force enumeration (aggregated by
    left-edge counts, never forming the per-stage factors) must agree exactly.
    Each stage partial is the value a report plots: exact while its
    denominator has at most PLOT_EXACT_BITS bits, else its SERIALIZE_PLACES
    floor.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise PreconditionViolated("weight p must lie in (0,1)")
    if stages < 1:
        raise PreconditionViolated("need at least one stage")
    _check_product_bits(LogFloor(p), stages, 1, f"the exact product of {stages} stages")
    exponents = tuple(logfloor_exponent(j) for j in range(1, stages + 1))
    closed_form = product_bracket(LogFloor(p), stages)
    # a partial's pair is in lowest terms (its denominator a power of p's): while it
    # fits PLOT_EXACT_BITS it is plotted as is, and after it no partial lies on the grid
    small = itertools.takewhile(lambda nd: nd[1].bit_length() <= PLOT_EXACT_BITS, _logfloor_partials(p))
    partials = [Fraction(*nd) for nd in itertools.islice(small, stages)]
    if len(partials) < stages:
        scale = 10**SERIALIZE_PLACES
        partials += [Fraction(k, scale) for k in _prefix_floors(closed_form.factors, scale, len(partials))]

    brute = match = None
    if stages <= BRUTE_LIMIT:
        brute = _schedule_brute_force(p, exponents)
        (bn, bd), (pn, pd) = brute.as_integer_ratio(), _exact_product(closed_form.factors, False)
        match = bn * pd == pn * bd

    converges = classify_ellp(LogFloor(p), Fraction(1)) is Summability.CONVERGES
    verdict = LimitVerdict.POSITIVE_LIMIT if converges else LimitVerdict.ZERO_LIMIT
    return ScheduleMassReport(p=p, stages=stages, exponents=exponents, closed_form=closed_form,
                              brute_force=brute, match_exact=match, verdict=verdict,
                              stage_partials=tuple(partials))


def _logfloor_partials(p: Fraction) -> Iterator[Pair]:
    """The schedule's exact partial products, stage by stage, as unreduced
    (numerator, denominator) pairs."""
    num, den = 1, 1
    for j in itertools.count(1):
        m_j = logfloor_exponent(j)
        num *= p.denominator**m_j - p.numerator**m_j
        den *= p.denominator**m_j
        yield num, den


def _prefix_floors(runs, scale: int, start: int) -> list[int]:
    """floor(scale * P_k), k = start + 1, ..., for the products P_k of the
    first k lower ends of `runs` (each in [0, 1]): A_k, 2^bits P_k floored
    after every factor, has A_k <= 2^bits P_k < A_k + k, so a floor is
    settled once A_k and A_k + k agree on it; the ladder's last rung is exact."""
    size = sum(run[4] * run[1].bit_length() for run in runs)

    def settle(bits: int):
        factors = itertools.chain.from_iterable(itertools.repeat(run[:2], run[4]) for run in runs)
        if bits >= size:
            pairs = itertools.accumulate(factors, lambda a, f: (a[0] * f[0], a[1] * f[1]))
            return [n * scale // d for n, d in itertools.islice(pairs, start, None)]
        accs = enumerate(itertools.accumulate(factors, lambda acc, f: acc * f[0] // f[1], initial=1 << bits))
        floors = [(acc * scale >> bits, (acc + k) * scale >> bits)
                  for k, acc in itertools.islice(accs, start + 1, None)]
        return [lo for lo, hi in floors] if all(lo == hi for lo, hi in floors) else None

    return refine(settle, sum(run[4] for run in runs).bit_length() + 232, size)


def _schedule_brute_force(p: Fraction, exponents: tuple[int, ...]) -> Fraction:
    """Exact surviving mass by enumerating the tree, aggregated by the number
    of left edges on each surviving path (the measure only sees that count)."""
    counts = [1]  # counts[a] = surviving paths with a left edges
    for m in exponents:
        rows = [comb(m, z) for z in range(m)]  # all-left child is the removal
        new = [0] * (len(counts) + m)
        for a, cnt in enumerate(counts):
            if cnt == 0:
                continue
            for z, ways in enumerate(rows):
                new[a + z] += cnt * ways
        counts = new
    depth = sum(exponents)
    pn, pd = p.numerator, p.denominator
    qn = pd - pn
    total = 0
    for a, cnt in enumerate(counts):
        if cnt:
            total += cnt * pn**a * qn ** (depth - a)
    return Fraction(total, pd**depth)


def logfloor_vanishing_stage(p: Fraction, threshold: Fraction) -> tuple[int, Fraction]:
    """First stage whose exact partial product drops below the threshold."""
    p, threshold = Fraction(p), Fraction(threshold)
    if not 0 < p < 1:
        raise PreconditionViolated("weight p must lie in (0,1)")
    if not 0 < threshold < 1:
        raise PreconditionViolated("threshold must lie in (0,1)")
    thr_num, thr_den = threshold.as_integer_ratio()
    max_stages = 200_000
    for j, (num, den) in enumerate(itertools.islice(_logfloor_partials(p), max_stages), start=1):
        if num * thr_den < thr_num * den:  # reduced once, for the value returned
            return j, Fraction(num, den)
    raise Undecidable(f"partial product stayed >= {threshold} through {max_stages} stages")


# --- interval packings ---------------------------------------------------------

def interval_packing_verdict(intervals: list[RationalInterval], lengths: SequenceFamily,
                             total: Fraction | None = None) -> PackingVerdict:
    """Overlap criterion for a union of intervals whose declared lengths sum
    to the ambient length `total` (ambient rescaled to [0,1]).

    Thin exactly when the interiors are pairwise disjoint: the packing then
    spends its entire length budget with nothing doubled up.  Any interior
    overlap (or an empty prefix) wastes budget and the union stays fat.
    """
    if total is None:
        total = series_total(lengths)
    total = Fraction(total)
    if total <= 0:
        raise PreconditionViolated("ambient length must be positive")
    if not intervals:
        return PackingVerdict.FAT

    declared = Fraction(0)
    for i, iv in enumerate(intervals, start=1):
        expected = term(lengths, i)
        if iv.diameter * total != expected:
            raise LengthMismatch(
                f"interval {i} has rescaled length {iv.diameter}, "
                f"declared {expected}/{total}"
            )
        declared += expected
    if declared > total:
        raise LengthMismatch(f"prefix lengths sum to {declared} > ambient length {total}")

    ordered = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    for prev, nxt in zip(ordered, ordered[1:]):
        # open interiors overlap iff they share more than an endpoint
        if nxt.lo < prev.hi and prev.lo < prev.hi and nxt.lo < nxt.hi:
            return PackingVerdict.FAT
    return PackingVerdict.THIN
