"""Doubling diagnostics for tree measures on [0,1].

doubling_scan certifies two-sided bounds on the doubling constant over a
finite window of centers and radii. fit_ratio_decay validates a decay pair
(Lambda, t) bounding small-ball mass ratios, and fit_mass_window produces the
four-constant window fit (lam, s, Lambda, t) sandwiching ball masses between
multiples of diameter powers. verify_small_ball_bound is a conservative
three-state checker for the mass lower bound with exponent s: it certifies a
hold, certifies a counterexample, or raises after exhausting precision.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat
from math import ceil, floor, gcd, inf, lcm, log2
from operator import add, mul, sub
from typing import NamedTuple

from .enclosure import (DEFAULT_BITS, Bounds, _exact_rational_pow, _log2_end, exp2_64ths, exp2_bounds, log2_bounds,
                        mul_bounds, pow_bounds, refine)
from .errors import EnclosureInconclusive, NotUniformlyPerfect, PreconditionViolated, ZeroMassBall
from .geom import check_depth, check_nodes, realized_beta_max
from .measure import LeafPrefixes, TreeMeasure, cdf_floats, dyadic_cdf_numerators
from .ratio import first_max, randbelow

PERFECTNESS_GAP_CAP = Fraction(15, 16)


class ScanWitness(NamedTuple):
    x: Fraction
    r: Fraction
    ratio_lower: Fraction


class RatioDecayFit(NamedTuple):
    big_lam: Fraction
    t: Fraction
    pairs_checked: int
    holdout_size: int
    rounds: int


class MassWindowFit(NamedTuple):
    lam: Fraction
    s: Fraction
    big_lam: Fraction
    t: Fraction
    samples: int


class DoublingReport(NamedTuple):
    c_upper: Fraction
    c_lower: Fraction
    witness: ScanWitness
    s_lower: Fraction
    s_upper: Fraction
    depth: int
    exact: bool
    ratio_decay: RatioDecayFit | None = None
    mass_window: MassWindowFit | None = None
    notes: tuple[str, ...] = ()
    per_scale: tuple[tuple[int, Fraction], ...] = ()  # scan_core's per-scale maxima

    @property
    def window(self) -> tuple[Fraction, Fraction]:
        """The scanned radii, 2^-depth to 1/2, on which the constants hold."""
        return Fraction(1, 1 << self.depth), Fraction(1, 2)


class _MassOracle:
    """Ball masses for the scan grids, with ball ends integers over `unit`.

    On the dyadic base, unit = 2^(depth + 1) and `cdf` holds the cdf
    numerators at the query level cap = min(depth + 1, split_depth) over
    one denominator `cdf_den`, so a leaf spans 2^shift units, shift =
    depth + 1 - cap. At shift 0 every scan ball is a union of leaves and
    exact. On a construction tree a ball is bracketed at the query level
    split_depth as `interval_mass` brackets it, through a `LeafPrefixes`
    table (`table`) whose query ends are integers over `unit` too. A row's
    floats are within `err` of its masses, in one unit per scan."""

    def __init__(self, m: TreeMeasure, depth: int):
        self.table = None
        if m.base is None:
            cap = min(depth + 1, m.split_depth)
            check_nodes(1 << (depth + 1))  # the centers, before the padded cdf rows
            (cdf, self.cdf_den), n, s = dyadic_cdf_numerators(m, cap), 1 << (depth + 1), depth + 1 - cap
            self.cdf, self.unit, self.shift = cdf, n, s
            # the cdf's floats at the floor and the ceiling of q / 2^s for q in -n..2n
            fl, self.err = cdf_floats(cdf)
            pad = lambda ends: [fl[0]] * n + ends + [fl[-1]] * n  # noqa: E731
            self.floor = pad([fl[q >> s] for q in range(n + 1)] if s else fl)
            self.ceil = pad([fl[-(-q >> s)] for q in range(n + 1)]) if s else self.floor
            return
        check_nodes(1 << m.split_depth)
        # node ends at every level are leaf edges (children keep their
        # parent's outer ends), the scan halves them for midpoints, and
        # fit_ratio_decay's centers are dyadic at depth + 1
        self.table = LeafPrefixes(m, m.split_depth, 1 << (depth + 1))
        self.unit, self.bracket, self.err = self.table.unit, self.table.bracket_units, 2  # as `LeafPrefixes.rows`

    def bracket(self, lo: int, hi: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """`bracket_units` of mu([lo / unit, hi / unit]), 0 <= lo <= hi <= unit,
        over the cdf's denominator (left out): lower from the ceiling of lo in
        leaf widths to the floor of hi, upper from the floor of lo to the
        ceiling of hi. On a tree the table's `bracket_units` stands in."""
        s, cdf = self.shift, self.cdf
        if not s:  # the exact grid: both ends are leaf edges
            v = (cdf[hi] - cdf[lo], 1)
            return v, v
        a, b = -(-lo >> s), hi >> s
        return (cdf[b] - cdf[a] if b > a else 0, 1), (cdf[-(-hi >> s)] - cdf[lo >> s], 1)

    def row(self, k: int, xs: range | list[int], lower: bool = True) -> tuple:
        """(low, up, mass) for the balls of radius 2^-k around the centers xs
        / unit: float rows of lower and upper masses, 0 just where the mass
        is (low is up where all are exact, None below the cdf's level if not
        asked for), and mass(idx, upper) the exact masses of balls idx as
        (numerators, denominators), the latter None over the cdf's one."""
        n, h = self.unit, self.unit >> k
        if self.table is not None:
            return self.table.rows(list(map(sub, xs, repeat(h))), list(map(add, xs, repeat(h))))  # ends clip
        lo = slice(n + xs.start - h, n + xs.stop - h, xs.step)
        hi = slice(lo.start + 2 * h, lo.stop + 2 * h, xs.step)

        def mass(idx: list[int], upper: bool) -> tuple[list[int], None]:
            return [self.bracket(max(xs[i] - h, 0), min(xs[i] + h, n))[upper][0] for i in idx], None

        up = list(map(sub, self.ceil[hi], self.floor[lo]))
        if self.err and not all(up):  # every upper mass is positive
            up = list(map(max, up, repeat(1.0)))
        if not self.shift or not lower:
            return None if self.shift else up, up, mass
        low = list(map(max, map(sub, self.floor[hi], self.ceil[lo]), repeat(0.0)))
        if self.err and 2 * h >> self.shift and not all(low):  # 0 is exact in a ball narrower than a leaf
            s = self.shift
            low = [v or float(min(x + h, n) >> s > -(-max(x - h, 0) >> s)) for v, x in zip(low, xs)]
        return low, up, mass


def _scan_centers(m: TreeMeasure, depth: int, unit: int) -> range | list[int]:
    """The scan's centers as integers over the oracle's unit: i / 2^(depth+1)
    on the dyadic base, else the ends and midpoints of the tree's nodes at
    level min(depth, tree depth), whose denominator halves unit."""
    if m.base is None:
        return range(unit + 1)
    den, lows, highs = m.base.edges[min(depth, m.base.depth)]
    step = unit // (2 * den)
    return sorted({2 * e * step for e in lows + highs}.union(
        (lo + hi) * step for lo, hi in zip(lows, highs)))


def _ratios(a: tuple, b: tuple) -> tuple[list[int], list[int]]:
    """a / b entrywise for two lists of masses, as (numerators,
    denominators); masses over the cdf's denominator divide as they are."""
    (an, ad), (bn, bd) = a, b
    if ad is None:
        return an, bn
    return list(map(mul, an, bd)), list(map(mul, ad, bn))


def _scan_pass(m: TreeMeasure, depth: int, oracle: _MassOracle) -> tuple:
    """`scan_core` in whole rows on the ball oracle of (m, depth): (c_upper,
    c_lower, witness, exact, notes, per_scale), witness None if no ratio is
    certified. The row of scale k holds every center's small ball, the row
    before it the doubled balls. scan_core skips a small ball without
    certified mass, the per-scale maxima only one that certainly has none. A
    row's first maximum replaces the best so far only when strictly greater,
    so the witness is the first (k, center) in scan order."""
    xs = _scan_centers(m, depth, oracle.unit)
    up_n, up_d = 0, 1  # c_upper
    lo_n, lo_d = 0, 1  # c_lower
    witness = None  # (k, center index)
    skipped = 0
    per_scale = []
    big_low, big_up, big_mass = oracle.row(0, xs)
    exact, err = big_low is big_up, oracle.err

    def ratio(idx: list[int], upper: bool = False) -> tuple:  # big.lower / small.upper, upper: big.upper / small.lower
        return _ratios(big_mass(idx, upper), mass(idx, not upper))

    for k in range(1, depth + 1):
        low, up, mass = oracle.row(k, xs)
        exact = exact and low is up
        skipped += 0 if all(low) else low.count(0.0)
        i, rn, rd = first_max(big_low, up, err, ratio) or (None, 0, 1)
        per_scale.append((k, Fraction(rn, rd)))
        if i is not None and not low[i]:  # the small ball has no certified mass: drop those that have none
            held = [v if w else -inf for v, w in zip(big_low, low)]
            i, rn, rd = first_max(held, up, err, ratio) or (None, 0, 1)
        if rn * lo_d > lo_n * rd:
            lo_n, lo_d, witness = rn, rd, (k, i)
        if low is not up or big_low is not big_up:  # else the same ratios
            i, rn, rd = first_max(big_up, low, err, lambda idx: ratio(idx, True)) or (None, 0, 1)
        if rn * up_d > up_n * rd:
            up_n, up_d = rn, rd
        big_low, big_up, big_mass = low, up, mass
    c_lower = Fraction(lo_n, lo_d)
    if witness is not None:
        k, i = witness
        witness = ScanWitness(x=Fraction(xs[i], oracle.unit), r=Fraction(1, 1 << k), ratio_lower=c_lower)
    notes = (f"skipped {skipped} pairs whose small ball had no certified mass",) if skipped else ()
    return Fraction(up_n, up_d), c_lower, witness, exact and not skipped, notes, per_scale


def _check_scan(m: TreeMeasure, depth: int) -> None:
    if depth < 1:
        raise PreconditionViolated("scan needs depth >= 1")
    if m.total_mass == 0:
        raise ZeroMassBall("the zero measure has no doubling ratios")


def scan_core(m: TreeMeasure, depth: int, bits: int = DEFAULT_BITS, *,
              oracle: _MassOracle | None = None) -> DoublingReport:
    """Certified doubling-ratio bounds over the grid of centers and radii
    2^-k, k = 1..depth, comparing each ball with its doubled ball: a report
    without fits, s_lower and s_upper enclosing log2 of the two bounds. The
    same pass yields the per-scale maxima of `per_scale_max_ratios`."""
    _check_scan(m, depth)
    c_upper, c_lower, witness, exact, notes, per_scale = _scan_pass(m, depth, oracle or _MassOracle(m, depth))
    if witness is None:
        raise ZeroMassBall("no scanned ball produced a certifiable ratio")
    s_up = Fraction(_log2_end(*c_upper.as_integer_ratio(), bits, True), 1 << bits)
    s_lo = Fraction(_log2_end(*c_lower.as_integer_ratio(), bits, False), 1 << bits) if c_lower >= 1 else Fraction(0)
    return DoublingReport(c_upper=c_upper, c_lower=c_lower, witness=witness, s_lower=s_lo, s_upper=s_up,
                          depth=depth, exact=exact, notes=notes, per_scale=tuple(per_scale))


def per_scale_max_ratios(m: TreeMeasure, depth: int) -> list[tuple[int, Fraction]]:
    """Certified max doubling ratio at each scale 2^-k, k = 1..depth.

    Lower-certified: each entry is a ratio the measure provably attains at
    that scale, so the list under-reports rather than over-reports."""
    _check_scan(m, depth)
    return _scan_pass(m, depth, _MassOracle(m, depth))[-1]


def _guard_tree_perfectness(m: TreeMeasure) -> None:
    if m.base is None:
        return
    worst = realized_beta_max(m.base)
    if worst is not None and worst >= PERFECTNESS_GAP_CAP:
        raise NotUniformlyPerfect(
            f"construction gaps reach fraction {worst}; ratio fits need gaps "
            f"below {PERFECTNESS_GAP_CAP}"
        )


T_STEP = Fraction(1, 64)
T_MAX = 4 * 64  # fitted exponents t <= 4, in steps of T_STEP


def _guess_steps(cap: Fraction, terms) -> int:
    """A float guess at `_largest_within`'s k for the bound max over terms (v's numerator,
    denominator, e) of v * 2^(e k / 64): the least floor(64 (log2 cap - log2 v) / e), v, e > 0."""
    room = log2(cap.numerator) - log2(cap.denominator)
    return min((floor(64 * (room - log2(n) + log2(d)) / e) for n, d, e in terms if n and e > 0),
               default=T_MAX)


def _largest_within(bound, cap: Fraction, guess: int) -> tuple[int, tuple[int, int] | None]:
    """(k, bound(k)) for the largest k in 1..T_MAX whose bound(k), an integer pair
    growing with k, is at most cap; (0, None) when bound(1) is not. Two probes
    settle the guess when bound(guess) is within and bound(guess + 1) is not;
    else a bisection over k, narrowed by those probes, decides."""
    found = {}

    def within(k: int) -> bool:
        num, den = found[k] = bound(k)
        return num * cap.denominator <= cap.numerator * den

    lo_k, hi_k = 0, T_MAX  # within(lo_k) holds (0: none yet), within(hi_k + 1) fails
    k = max(0, min(guess, T_MAX))
    if k and not within(k):
        hi_k = k - 1
    elif k < T_MAX and within(k + 1):
        lo_k = k + 1
    else:
        return k, found.get(k)
    while lo_k < hi_k:
        mid = (lo_k + hi_k + 1) // 2
        if within(mid):
            lo_k = mid
        else:
            hi_k = mid - 1
    return lo_k, found.get(lo_k)


def _concentric_maxima(oracle: _MassOracle, depth: int) -> tuple[dict[int, tuple[int, int]], int]:
    """(top, pairs): top[l] the first largest certified bound on mu(B(x, R / 2^l))
    / mu(B(x, R)), an integer pair, over interior centers x = i / 2^j and radii
    R = 2^-j, j = 1..depth-1; pairs counts the pairs whose big ball has certified
    mass. One row of balls per radius 2^-k around the centers i / 2^k; the (j,
    l) row is every 2^l-th small ball's upper mass over the big balls' lower."""
    n, err, top, pairs = oracle.unit, oracle.err, {}, 0
    rows = [None] + [oracle.row(k, range(n >> k, n, n >> k), k < depth) for k in range(1, depth + 1)]

    def ratio(idx: list[int]) -> tuple[list[int], list[int]]:  # the exact ratios of the (j, l) row
        return _ratios(rows[j + l][2]([(i + 1 << l) - 1 for i in idx], True), rows[j][2](idx, False))

    for j in range(1, depth):
        big, big_up = rows[j][:2]
        held = (1 << j) - 1 - (0 if all(big) else big.count(0.0))
        pairs += held * (depth - j + 1)
        for l in range(depth - j + 1) if held else ():
            small = rows[j + l][1][(1 << l) - 1::1 << l]
            found = (0, 1, 1) if not l and big is big_up else first_max(small, big, err, ratio)  # exact over itself: 1
            if found and found[1] and (l not in top or found[1] * top[l][1] > top[l][0] * found[2]):
                top[l] = found[1:]
    return top, pairs


def fit_ratio_decay(
    m: TreeMeasure,
    depth: int,
    lambda_cap: Fraction = Fraction(1),
    seed: int = 0,
    bits: int = DEFAULT_BITS,
    *,
    oracle: _MassOracle | None = None,
) -> RatioDecayFit:
    """Largest grid exponent t (steps of 1/64) with a validated ratio bound
    mu(B(x,r)) / mu(B(x,R)) <= Lambda * (r/R)^t, Lambda <= lambda_cap, over
    concentric interior pairs, t <= 4; then re-checked on a fresh random
    holdout of 64 draws.

    If the holdout finds a worse ratio the offending scales join the fitting
    sample and t is refitted, up to four rounds. Without a ball `oracle`
    one is built after the checks.
    """
    if depth < 2:
        raise PreconditionViolated("ratio fit needs depth >= 2")
    if lambda_cap < 1:
        raise PreconditionViolated("lambda cap below 1 can never validate l = 0")
    _guard_tree_perfectness(m)
    oracle = oracle or _MassOracle(m, depth)
    top, pairs = _concentric_maxima(oracle, depth)
    if not pairs or not m.total_mass:
        raise PreconditionViolated("no interior pair produced a certified ratio")

    def lam_at(t_steps: int) -> tuple[int, int]:
        """max over l of top[l] * 2^(l * t_steps / 64), rounded up."""
        worst_n, worst_d = 0, 1
        for l, (num, den) in top.items():
            _, g, g_den = exp2_64ths(l * t_steps, bits)
            val_n, val_d = num * g, den * g_den
            if val_n * worst_d > worst_n * val_d:
                worst_n, worst_d = val_n, val_d
        return worst_n, worst_d

    # holdout balls: center x = (2i + 1) / 2^(j+1), radii R = 2^-j and R / 2^l
    n, bracket, getrandbits = oracle.unit, oracle.bracket, random.Random(seed).getrandbits
    j_bits = (depth - 1).bit_length()
    rounds = holdout_seen = 0
    while True:
        rounds += 1
        guess = _guess_steps(lambda_cap, ((num, den, l) for l, (num, den) in top.items()))
        k, lam = _largest_within(lam_at, lambda_cap, guess)
        if k == 0:
            raise PreconditionViolated("no positive exponent validates at this Lambda cap")
        (lam_n, lam_d), factors = lam, [exp2_64ths(l * k, bits)[1:] for l in range(depth)]
        failures = 0
        for _ in range(64):  # randrange(1, depth), randrange(0, 2^j), ... as randbelow draws them
            while (j := getrandbits(j_bits) + 1) >= depth:
                pass
            while (i := getrandbits(j + 1)) >> j:
                pass
            if i == 0 or i + 1 == 1 << j:  # x = (2i + 1) / 2^(j+1) within 2^-j of an end
                continue
            l = randbelow(getrandbits, depth - j + 1)
            c, big_h = (2 * i + 1) * (n >> (j + 1)), n >> j
            bn, bd = bracket(c - big_h, c + big_h)[0]
            if not bn:  # the big ball has no certified mass
                continue
            holdout_seen += 1
            # the ratio's certified upper bound, rounded as the fit rounds, so
            # a pair never fails against the bound it itself defines
            sn, sd = bracket(c - (big_h >> l), c + (big_h >> l))[1]
            num, den = sn * bd, sd * bn
            g, g_den = factors[l]
            if num * g * lam_d > lam_n * den * g_den:
                failures += 1
                cur_n, cur_d = top.get(l, (0, 1))
                if num * cur_d > cur_n * den:
                    top[l] = num, den
        if not failures:
            return RatioDecayFit(big_lam=Fraction(lam_n, lam_d), t=k * T_STEP,
                                 pairs_checked=pairs + holdout_seen, holdout_size=holdout_seen, rounds=rounds)
        if rounds >= 4:
            raise PreconditionViolated(f"holdout kept failing after {rounds} refit rounds")


def fit_mass_window(
    m: TreeMeasure,
    depth: int,
    c_upper: Fraction,
    lambda_cap: Fraction = Fraction(1),
    bits: int = DEFAULT_BITS,
    *,
    oracle: _MassOracle | None = None,
    s_hi: Fraction | None = None,
) -> MassWindowFit:
    """Window fit lam * diam^s <= mass <= Lambda * diam^t over node samples
    and doubled-node samples: s is the 1/64-grid ceiling of log2(doubling
    constant); lam is the worst observed mass/diam^s; (Lambda, t) come from
    the same samples with t maximized subject to Lambda <= lambda_cap.
    Without a ball `oracle` or the upper log2 end `s_hi` of c_upper, each is
    made after the checks."""
    if depth < 1:
        raise PreconditionViolated("window fit needs depth >= 1")
    _guard_tree_perfectness(m)
    if c_upper < 1:
        raise PreconditionViolated("doubling bound below 1 is impossible")
    if s_hi is None:
        s_hi = Fraction(_log2_end(*c_upper.as_integer_ratio(), bits, True), 1 << bits)
    s_steps = ceil(s_hi * 64)

    # Samples are node masses and doubled-node masses, exact or safe from
    # below, grouped by diameter: lam needs only the lightest mass of each
    # diameter and upper_lam the heaviest, so each diameter power is enclosed
    # once per exponent.  Masses, powers and bounds are pairs of integers,
    # compared by cross-multiplication.
    lightest, heaviest, samples = {}, {}, 0

    def note(diam, low: tuple[int, int], high: tuple[int, int]) -> None:
        cur = lightest.get(diam)
        if cur is None or low[0] * cur[1] < cur[0] * low[1]:
            lightest[diam] = low
        cur = heaviest.get(diam)
        if cur is None or high[0] * cur[1] > cur[0] * high[1]:
            heaviest[diam] = high

    oracle = oracle or _MassOracle(m, depth)
    if m.base is None:
        # a diameter 2^-j is keyed by j; its powers 2^(-j * steps / 64) come
        # from exp2_64ths, equal to pow_bounds' enclosures of them
        def power(j: int, steps: int) -> tuple[tuple[int, int], tuple[int, int]]:
            lo, hi, den = exp2_64ths(-j * steps, bits)
            return (lo, den), (hi, den)

        cdf, den = oracle.cdf, oracle.cdf_den
        for level in range(min(depth, m.split_depth) + 1):  # strided differences of the cdf
            row = cdf[::(len(cdf) - 1) >> level]
            masses = list(map(sub, row[1:], row[:-1]))
            doubled = list(map(sum, zip(masses, masses[1:])))
            samples += len(masses) + len(doubled)
            note(level, (min(masses), den), (max(masses), den))
            if doubled:
                note(level - 1, (min(doubled), den), (max(doubled), den))
    else:
        def power(diam: Fraction, steps: int) -> tuple[tuple[int, int], tuple[int, int]]:
            b = pow_bounds(diam, Fraction(steps, 64), bits)
            return b.lo.as_integer_ratio(), b.hi.as_integer_ratio()

        # node ends are leaf edges of the oracle's level, split_depth, so node
        # i of level L is the 2^(split_depth - L) leaves from i * width on:
        # its mass is one exact difference of the oracle's prefixes
        mass = oracle.table.mass
        for level in range(min(depth, m.base.depth) + 1):
            den, lows, highs = m.base.edges[level]
            width = 1 << (m.split_depth - level)
            for i, lo in enumerate(lows):
                samples += 1
                single = mass(i * width, (i + 1) * width)
                note(Fraction(highs[i] - lo, den), single, single)
                if i + 1 < len(lows):
                    samples += 1
                    pair = mass(i * width, (i + 2) * width)
                    note(Fraction(highs[i + 1] - lo, den), pair, pair)

    # lower constant: worst mass / diam^s, rounded down through the enclosure
    lam_n, lam_d = None, 1
    for diam, (mass_n, mass_d) in lightest.items():
        p_n, p_d = power(diam, s_steps)[1]
        val_n, val_d = mass_n * p_d, mass_d * p_n
        if lam_n is None or val_n * lam_d < lam_n * val_d:
            lam_n, lam_d = val_n, val_d

    def upper_lam(steps: int) -> tuple[int, int]:
        worst_n, worst_d = 0, 1
        for diam, (mass_n, mass_d) in heaviest.items():
            p_n, p_d = power(diam, steps)[0]
            if p_n == 0:
                raise EnclosureInconclusive("diameter power underflowed")
            val_n, val_d = mass_n * p_d, mass_d * p_n
            if val_n * worst_d > worst_n * val_d:
                worst_n, worst_d = val_n, val_d
        return worst_n, worst_d

    # a key is a diameter, or on the dyadic base the j of a diameter 2^-j
    guess = _guess_steps(lambda_cap, ((*v, d if m.base is None else -log2(d)) for d, v in heaviest.items()))
    lo_k, big_lam = _largest_within(upper_lam, lambda_cap, guess)
    if lo_k == 0:
        raise PreconditionViolated("no positive growth exponent fits under the cap")
    return MassWindowFit(
        lam=Fraction(lam_n, lam_d),
        s=Fraction(s_steps, 64),
        big_lam=Fraction(*big_lam),
        t=lo_k * T_STEP,
        samples=samples,
    )


def doubling_scan(
    m: TreeMeasure,
    depth: int,
    fit: bool = True,
    lambda_cap: Fraction = Fraction(1),
    seed: int = 0,
    bits: int = DEFAULT_BITS,
) -> DoublingReport:
    """`scan_core` and, with `fit`, both fits, all on one ball oracle, the
    window fit on the scan's s_upper; a fit that does not apply leaves a note."""
    check_depth(depth)
    _check_scan(m, depth)
    oracle = _MassOracle(m, depth)
    rep = scan_core(m, depth, bits, oracle=oracle)
    if not fit:
        return rep
    notes, ratio_decay, window_fit = rep.notes, None, None
    try:
        ratio_decay = fit_ratio_decay(m, depth, lambda_cap, seed, bits, oracle=oracle)
    except (PreconditionViolated, NotUniformlyPerfect) as exc:
        notes += (f"ratio fit unavailable: {exc}",)
    try:
        window_fit = fit_mass_window(m, depth, rep.c_upper, lambda_cap, bits, oracle=oracle, s_hi=rep.s_upper)
    except (PreconditionViolated, NotUniformlyPerfect) as exc:
        notes += (f"window fit unavailable: {exc}",)
    return rep._replace(ratio_decay=ratio_decay, mass_window=window_fit, notes=notes)


# --- conservative lower-bound verification ------------------------------------

class SmallBallCase(NamedTuple):
    a_lo: Fraction
    a_hi: Fraction
    x: Fraction
    r: Fraction


class SmallBallResult(NamedTuple):
    holds: bool
    checked: int
    counterexample: SmallBallCase | None = None
    margin: Fraction | None = None


def _rhs_bounds(
    rho: Fraction, c: Fraction | None, s: Fraction | None, bits: int
) -> Bounds:
    """Enclosure of 2^-s * rho^s with s either given or read off c = 2^s."""
    if s is not None:
        s_b = Bounds(Fraction(s), Fraction(s))
        inv = exp2_bounds(-Fraction(s), bits)
    else:
        s_b = log2_bounds(c, bits)
        inv = Bounds(1 / Fraction(c), 1 / Fraction(c))
    rho_pow = pow_bounds(rho, s_b, bits)
    return mul_bounds(inv, rho_pow)


def _below(p: tuple[int, int], q: tuple[int, int], f: tuple[int, int]) -> bool:
    """p < q * f, for integer pairs p, q and f."""
    return p[0] * q[1] * f[1] < q[0] * f[0] * p[1]


def _unsettled(case: SmallBallCase) -> str:
    return f"cannot settle the case A=[{case.a_lo},{case.a_hi}], x={case.x}, r={case.r}"


def verify_small_ball_bound(
    m: TreeMeasure,
    c: Fraction | None = None,
    s: Fraction | None = None,
    count: int = 1000,
    depth: int = 10,
    seed: int = 0,
    cases: list[SmallBallCase] | None = None,
    bits: int = DEFAULT_BITS,
    max_bits: int = 4096,
) -> SmallBallResult:
    """For sampled sets A = [a,b], centers x in A and radii 0 < r < diam A,
    certify mu(B(x,r)) >= 2^-s (r/diam A)^s mu(A) or produce a certified
    counterexample. s may be given directly or derived from a constant c."""
    check_depth(depth)
    if count < 0:
        raise PreconditionViolated("count must be >= 0")
    if (c is None) == (s is None):
        raise PreconditionViolated("give exactly one of c or s")
    if c is not None and Fraction(c) < 1:
        raise PreconditionViolated("constant must be >= 1")
    eval_depth = min(depth + 8, m.split_depth)
    given = list(cases) if cases else []
    # every case as integers (a, b, x, r) over the unit of one prefix table, a
    # multiple of the given cases' denominators and of the sampled ones', 2^(depth + 4)
    ends = [(case.a_lo, case.a_hi, case.x, case.r) for case in given]
    table = LeafPrefixes(m, eval_depth, lcm(16 << depth, *(f.denominator for e in ends for f in e)))
    unit = table.unit
    todo = [(case, *(f.numerator * (unit // f.denominator) for f in e)) for case, e in zip(given, ends)]
    getrandbits = random.Random(seed).getrandbits
    grid, step = 1 << depth, unit >> depth
    while len(todo) < count:  # randrange(0, grid), randrange(ia + 1, grid + 1), ...
        ia = randbelow(getrandbits, grid)
        ib = ia + 1 + randbelow(getrandbits, grid - ia)
        ix = ia + randbelow(getrandbits, ib - ia + 1)
        r = (ib - ia) * step >> (1 + randbelow(getrandbits, 4))
        todo.append((None, ia * step, ib * step, ix * step, r))

    def reported(case: SmallBallCase | None, *ends: int) -> SmallBallCase:  # built to be reported
        return case or SmallBallCase(*(Fraction(v, unit) for v in ends))

    # the factor's ends once per distinct (r / diam A, bits)
    factors: dict[tuple[int, int, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    capped = f", capped at the split depth {m.split_depth}" if eval_depth < depth + 8 else ""
    checked = 0
    for case, a, b, x, r in todo:
        if a > b:  # a given case: the sampled ones ascend
            raise PreconditionViolated(f"interval [{case.a_lo}, {case.a_hi}] is reversed")
        if not a <= x <= b:
            raise PreconditionViolated("center must lie in the set")
        if not 0 < r < b - a:
            raise PreconditionViolated("radius must be in (0, diam A)")
        if a < 0 or b > unit:  # a given case: the sampled ones lie inside
            raise PreconditionViolated(
                f"interval [{case.a_lo}, {case.a_hi}] must sit inside [0, 1]"
            )
        mu_a = table.bracket_units(a, b)
        mu_b = table.bracket_units(x - r, x + r)  # ends past [0, 1] clip
        g = gcd(r, b - a)
        rho = r // g, (b - a) // g
        # the factor is (rho/2)^s; when that is rational, a mass ratio equal
        # to it holds, though no enclosure of the factor can show it
        exact = None if s is None else _exact_rational_pow(*Fraction(rho[0], 2 * rho[1]).as_integer_ratio(),
                                                           *Fraction(s).as_integer_ratio())

        def settle(cur: int):
            """True once the case holds, its result once it fails, None to escalate."""
            if (*rho, cur) not in factors:
                f = _rhs_bounds(Fraction(*rho), c, s, cur)
                factors[(*rho, cur)] = f.lo.as_integer_ratio(), f.hi.as_integer_ratio()
            lo_f, hi_f = factors[(*rho, cur)]
            # mu_b.lower >= mu_a.upper * factor.hi
            if not _below(mu_b[0], mu_a[1], hi_f):
                return True
            # mu_b.upper < mu_a.lower * factor.lo
            if _below(mu_b[1], mu_a[0], lo_f):
                rhs_lo = Fraction(*mu_a[0]) * Fraction(*lo_f)
                return SmallBallResult(
                    holds=False,
                    checked=checked + 1,
                    counterexample=reported(case, a, b, x, r),
                    margin=rhs_lo - Fraction(*mu_b[1]),
                )
            if exact is not None and not _below(mu_b[0], mu_a[1], exact):
                return True
            if _below(mu_b[0], mu_a[1], lo_f) and not _below(mu_b[1], mu_a[0], hi_f):
                # no factor in [factor.lo, factor.hi] settles the case, so no
                # precision can: only a deeper evaluation narrows the masses
                (a_lo, a_up), (b_lo, b_up) = ([Fraction(*p) for p in mu] for mu in (mu_a, mu_b))
                raise EnclosureInconclusive(
                    f"{_unsettled(reported(case, a, b, x, r))} at any precision: "
                    f"mu(A) in [{a_lo}, {a_up}], mu(B) in [{b_lo}, {b_up}] "
                    f"at eval depth {eval_depth} (depth {depth} + 8{capped})"
                )
            return None

        try:
            verdict = refine(settle, bits, max_bits)
        except EnclosureInconclusive as exc:
            if exc.bits is None:  # the case's own refusal, at any precision
                raise
            raise EnclosureInconclusive(f"{_unsettled(reported(case, a, b, x, r))} at {exc.bits} bits") from None
        if verdict is not True:
            return verdict
        checked += 1
    return SmallBallResult(holds=True, checked=checked)
