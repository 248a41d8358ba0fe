"""Independent routes that the benchmark uses to check dmlab's answers.

Every check here recomputes a certified value by a different algorithm from
the one the library uses, from exact rationals only:

* masses of intervals come from a flat walk over the leaves at the
  evaluation level, summing canonical dyadic blocks of `measure.node_mass`
  values, instead of the recursive `interval_mass`;
* partial products and partial tail sums are multiplied or added out
  term by term;
* classifications are re-derived from the closed-form criteria.

A failed check raises `CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from dmlab import measure, seq


class CheckFailed(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# --- masses by a flat leaf walk ------------------------------------------------


def range_mass(m, level: int, i0: int, i1: int) -> Fraction:
    """Exact mass of the leaves i0 .. i1-1 at `level`, as a sum of the
    largest aligned blocks, each weighed by `measure.node_mass`."""
    total = Fraction(0)
    while i0 < i1:
        size = i0 & -i0 if i0 else 1 << level
        while size > i1 - i0:
            size >>= 1
        k = size.bit_length() - 1
        total += measure.node_mass(m, level - k, i0 >> k)
        i0 += size
    return total


def _leaf_edges(m, level: int):
    """(lows, highs) of the leaf intervals at `level`, or None for the dyadic
    base, whose leaf i is [i/2^level, (i+1)/2^level]."""
    if m.base is None:
        return None
    nodes = m.base.nodes[level]
    return [nd.lo for nd in nodes], [nd.hi for nd in nodes]


def leaf_bracket(m, lo: Fraction, hi: Fraction, level: int) -> tuple[Fraction, Fraction]:
    """(lower, upper) mass of the closed interval [lo, hi] at resolution
    `level`: lower counts the leaves inside it, upper also the leaves that
    overlap its interior without lying inside."""
    if lo >= hi:
        return Fraction(0), Fraction(0)
    edges = _leaf_edges(m, level)
    n = 1 << level
    if edges is None:
        a, b = lo * n, hi * n
        first_in = -((-a.numerator) // a.denominator)  # ceil(a)
        end_in = b.numerator // b.denominator          # floor(b)
        first_touch = a.numerator // a.denominator     # leaf holding lo
        end_touch = -((-b.numerator) // b.denominator)
    else:
        lows, highs = edges
        # inside: lo <= leaf.lo and leaf.hi <= hi; touching: leaf.hi > lo and leaf.lo < hi
        first_in = bisect.bisect_left(lows, lo)
        end_in = bisect.bisect_right(highs, hi)
        first_touch = bisect.bisect_right(highs, lo)
        end_touch = bisect.bisect_left(lows, hi)
    first_in, end_in = max(first_in, 0), min(end_in, n)
    first_touch, end_touch = max(first_touch, 0), min(end_touch, n)
    if first_in >= end_in:
        lower = Fraction(0)
        upper = range_mass(m, level, first_touch, end_touch)
        return lower, upper
    lower = range_mass(m, level, first_in, end_in)
    upper = lower
    upper += range_mass(m, level, first_touch, first_in)
    upper += range_mass(m, level, end_in, end_touch)
    return lower, upper


def scan_level(m, depth: int) -> int:
    """Resolution at which `doubling_scan` evaluates ball masses: the exact
    dyadic grid one level below the scan depth when the measure defines it,
    else the measure's own split depth."""
    if m.base is not None:
        return m.base.depth
    if m.split_depth >= depth + 1:
        return depth + 1
    return m.split_depth


def check_witness(m, depth: int, x: Fraction, r: Fraction, ratio: Fraction) -> None:
    """The scan's witness ratio equals mu(B(x,2r)).lower / mu(B(x,r)).upper
    recomputed from node masses at the scan's resolution."""
    level = scan_level(m, depth)
    one = Fraction(1)
    small = leaf_bracket(m, max(Fraction(0), x - r), min(one, x + r), level)
    big = leaf_bracket(m, max(Fraction(0), x - 2 * r), min(one, x + 2 * r), level)
    require(small[1] > 0, f"witness ball at x={x} r={r} has no mass")
    expect = big[0] / small[1]
    require(expect == ratio, f"witness ratio {ratio} != recomputed {expect}")


# --- products, tails and classifications ---------------------------------------


def partial_product(factors) -> Fraction:
    out = Fraction(1)
    for f in factors:
        out *= f
    return out


def product_upper(family, start: int, count: int, exponent: Fraction, scale: Fraction):
    """An exact upper bound for prod_{n=start}^{start+count-1} (1 - scale *
    a_n^exponent): a_n < 1, so a_n^ceil(exponent) <= a_n^exponent. None when a
    factor of the bound is not positive."""
    whole = -((-exponent.numerator) // exponent.denominator)
    factors = [1 - scale * seq.term(family, n) ** whole for n in range(start, start + count)]
    if any(f <= 0 for f in factors):
        return None
    return partial_product(factors)


def tail_lower(family, p: Fraction, n_from: int, count: int) -> Fraction:
    """Exact lower bound for sum_{n > n_from} a_n^p from `count` terms."""
    whole = -((-p.numerator) // p.denominator)
    return sum((seq.term(family, n) ** whole for n in range(n_from + 1, n_from + count + 1)), Fraction(0))


def summable(family, p: Fraction) -> bool:
    """Closed-form convergence criteria for sum a_n^p."""
    if isinstance(family, seq.Geometric):
        return True
    if isinstance(family, seq.Power):
        return family.gamma * p > 1
    if isinstance(family, seq.Constant):
        return False
    if isinstance(family, seq.LogFloor):
        # block k holds 2^k copies of base^k: converges iff 2 * base^p < 1,
        # i.e. base^(num) < 2^(-den) after raising to the denominator of p
        return family.base ** p.numerator * 2 ** p.denominator < 1
    raise CheckFailed(f"no closed-form criterion for {family!r}")


def union_pieces(balls: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Closures of the components of [0,1] minus the union of closed balls."""
    merged: list[list[Fraction]] = []
    for lo, hi in sorted(balls):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    out = []
    cursor = Fraction(0)
    for lo, hi in merged:
        if lo > cursor:
            out.append((cursor, min(lo, Fraction(1))))
        cursor = max(cursor, hi)
    if cursor < 1:
        out.append((cursor, Fraction(1)))
    return [(a, b) for a, b in out if a < b]


# --- report walks ----------------------------------------------------------------


def check_brackets(node) -> None:
    """Every bracket in a report has lo <= hi, every window lo <= hi."""
    if isinstance(node, dict):
        if node.get("kind") == "bracket":
            require(Fraction(node["lo"]) <= Fraction(node["hi"]), f"bracket {node['lo']} > {node['hi']}")
        if node.get("kind") == "window-validated":
            lo, hi = node["window"]
            require(Fraction(lo) <= Fraction(hi), f"window {lo} > {hi}")
        for v in node.values():
            check_brackets(v)
    elif isinstance(node, list):
        for v in node:
            check_brackets(v)


def tagged_lo(tag: dict) -> Fraction:
    return Fraction(tag["value"] if tag["kind"] != "bracket" else tag["lo"])


def tagged_hi(tag: dict) -> Fraction:
    return Fraction(tag["value"] if tag["kind"] != "bracket" else tag["hi"])


def check_doubling_payload(m, payload: dict) -> None:
    """c_lower <= c_upper, and the witness ratio matches node masses."""
    c_lo = Fraction(payload["c_lower"]["value"])
    c_hi = Fraction(payload["c_upper"]["value"])
    require(c_lo <= c_hi, f"c_lower {c_lo} > c_upper {c_hi}")
    w = payload["witness"]
    ratio = Fraction(w["ratio_lower"])
    require(ratio == c_lo, f"witness ratio {ratio} != c_lower {c_lo}")
    check_witness(m, payload["depth"], Fraction(w["x"]), Fraction(w["r"]), ratio)
