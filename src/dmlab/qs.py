"""Increasing-map view of tree measures on [0,1].

A finite measure and the non-decreasing function f(x) = mu([0,x]) carry the
same information; this module reads f off a tree measure, probes how
strongly f distorts symmetric triples, and encloses the doubling constant a
measure inherits when pulled back through such a map.  Ratio tables are
empirical: they lower-envelope any distortion gauge, they do not assert one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product, repeat
from operator import sub
from typing import NamedTuple

from .enclosure import Bounds, add_bounds, log2_bounds, mul_bounds, pow_bounds
from .errors import PreconditionViolated
from .measure import TreeMeasure, cdf_floats, dyadic_cdf_numerators
from .ratio import first_max, randbelow

DEFAULT_TAUS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))

_STRADDLE_STEPS = (1, 2, 4)


class RatioScanRow(NamedTuple):
    tau: Fraction
    max_ratio: Fraction
    witness: tuple[Fraction, Fraction, Fraction]  # (x, y, z) attaining the max


def _outranks(a: tuple, b: tuple) -> bool:
    """a = (num, den, order, ...) beats b: a larger ratio num/den, or the
    same ratio earlier in scan order."""
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    return lhs > rhs or (lhs == rhs and a[2] < b[2])


def _straddle_maxima(cdf: list[int], depth: int) -> dict[Fraction, tuple]:
    """Best straddle per shape ratio, on integer cdf numerators of positive
    total mass, from rows of rises of the cdf's floats (`cdf_floats`).

    Returns shape -> (num, den, order, (j, y, z)): the largest image ratio
    num/den of that shape and the grid indices of the first triple attaining
    it, where `order` is the triple's position in the scan order (j, k, a, b,
    forward before reverse)."""
    size = 1 << depth
    fl, err = cdf_floats(cdf)
    rises: dict[int, list[float]] = {}  # offset o -> [fl[i + o] - fl[i]]

    def rise(o: int) -> list[float]:  # every rise is positive: one whose float came out 0 reads 1, within err
        if o not in rises:
            row = list(map(sub, fl[o:], fl[:-o]))
            rises[o] = row if all(row) else list(map(max, row, repeat(1.0)))
        return rises[o]

    def exact(idx: list[int]) -> tuple[list[int], list[int]]:  # the exact rises about centers lo + t
        pair = [cdf[lo + t] - cdf[t] for t in idx], [cdf[lo + t + hi] - cdf[lo + t] for t in idx]
        return pair[::-1] if direction else pair

    best: dict[Fraction, tuple] = {}
    for k in range(1, depth + 1):
        unit = 1 << (depth - k)
        for (ai, a), (bi, b) in product(enumerate(_STRADDLE_STEPS), repeat=2):
            lo, hi = a * unit, b * unit
            # k > 1, a and b even: the (k - 1, a/2, b/2) row entry for entry (same lo, hi and shape), so its
            # candidate ties that row's at a later order (same j, larger k) and never outranks the best.
            if lo + hi > size or k > 1 and a % 2 == b % 2 == 0:
                continue
            # centers j = lo .. size - hi
            left = rise(lo)[:size - hi - lo + 1]
            right = rise(hi)[lo:size - hi + 1]
            for direction, nums, dens, shape in (
                (0, left, right, Fraction(a, b)),
                (1, right, left, Fraction(b, a)),
            ):
                found = first_max(nums, dens, err, exact)
                if found is None:
                    continue
                top_t, top_n, top_d = found
                j = lo + top_t
                y, z = (j - lo, j + hi) if direction == 0 else (j + hi, j - lo)
                cand = (top_n, top_d, (j, k, ai, bi, direction), (j, y, z))
                if shape not in best or _outranks(cand, best[shape]):
                    best[shape] = cand
    return best


def qs_ratio_scan(
    m: TreeMeasure,
    depth: int,
    random_triples: int = 0,
    seed: int = 0,
) -> list[RatioScanRow]:
    """Largest observed |f(x)-f(y)| / |f(x)-f(z)| per shape bound tau in
    DEFAULT_TAUS, for f(x) = mu([0, x]) read off the measure m's exact cdf
    grid at the scan depth.

    Triples are symmetric dyadic straddles y = x -/+ a*2^-k, z = x +/- b*2^-k
    with a, b in {1, 2, 4}; a triple enters every row whose tau admits its
    shape ratio |x-y|/|x-z| = a/b, so rows grow monotonically with tau.
    Optionally mixes in uniformly random grid triples.  Each row keeps the
    first triple, in scan order, that attains its maximum.
    """
    if depth < 1:
        raise PreconditionViolated("scan depth must be >= 1")
    if random_triples < 0:
        raise PreconditionViolated("random triples must be >= 0")
    cdf, _ = dyadic_cdf_numerators(m, depth)
    size = 1 << depth
    shapes = _straddle_maxima(cdf, depth) if cdf[-1] else {}

    def point(j: int) -> Fraction:
        return Fraction(j, size)

    best: dict[Fraction, tuple[Fraction, tuple[Fraction, ...]] | None] = {}
    for t in DEFAULT_TAUS:
        top = None
        for shape, cand in shapes.items():
            if shape <= t and (top is None or _outranks(cand, top)):
                top = cand
        best[t] = top and (Fraction(top[0], top[1]), tuple(map(point, top[3])))

    if random_triples:
        getrandbits = random.Random(seed).getrandbits
        made = 0
        while made < random_triples:
            j, jy, jz = (randbelow(getrandbits, size + 1) for _ in range(3))
            if j == jy or j == jz or jy == jz:
                continue
            made += 1
            den = abs(cdf[j] - cdf[jz])
            if den == 0:
                continue
            shape = Fraction(abs(j - jy), abs(j - jz))
            image = Fraction(abs(cdf[j] - cdf[jy]), den)
            for t in DEFAULT_TAUS:
                cur = best[t]
                if shape <= t and (cur is None or image > cur[0]):
                    best[t] = (image, (point(j), point(jy), point(jz)))

    return [RatioScanRow(tau=t, max_ratio=found[0], witness=found[1]) for t, found in best.items() if found]


def pullback_constant(
    c: Fraction, eta2: Fraction
) -> Bounds:
    """Certified enclosure of c^(2*log2(eta2) + 1), the doubling constant a
    measure inherits when pulled back through a map with gauge value eta2 at
    ratio 2.  Exact whenever eta2 is a power of two."""
    c, eta2 = Fraction(c), Fraction(eta2)
    if c < 1 or eta2 < 1:
        raise PreconditionViolated("need c >= 1 and eta2 >= 1")
    exponent = add_bounds(
        mul_bounds(Bounds.exact(Fraction(2)), log2_bounds(eta2)),
        Bounds.exact(Fraction(1)),
    )
    return pow_bounds(c, exponent)
