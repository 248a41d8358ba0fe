"""Independent oracles for the test suite: one per certified quantity.

No oracle runs through the kernel it checks.  Beyond the library's value
types and result records, they call only helpers other than the one under
test: the enclosure primitives (with oracles of their own here) and the tail
sums; they escalate a precision on a ladder of
their own, `ladder_oracle`.  `tests/test_hygiene.py` checks that this module
imports none of the scan, prefix-table, cdf and float-filter kernels, nor
`refine`, nor the working-precision products, nor the power entry
`_power_ends`, the log2 series `_log2_series` or the interval merge.

Quantity: its oracle, and the oracle's route.

* binomial interval masses: `interval_mass_oracle`, from p alone, every
  leaf's mass a product over the bits of its index, summed by overlap;
* `interval_mass`, `cutout_mass`: `interval_mass_recursive_oracle`, the
  recursive node walk on Fraction node ends;
* the dyadic cdf grid: `cdf_grid_oracle`, one `left_share` per node and a
  running sum of the leaf masses;
* `scan_core`, `per_scale_max_ratios`: `scan_core_oracle`, `per_scale_oracle`,
  one Fraction ratio per ball, its masses from `cdf_grid_oracle` on the grid
  and from the recursive walk elsewhere (`BallOracle`);
* `fit_ratio_decay`, `fit_mass_window`, the `doubling_scan` report:
  `fit_ratio_decay_oracle`, `fit_mass_window_oracle`, `doubling_scan_oracle`,
  per-ball Fraction ratios over `BallOracle` and the exponent by bisection;
* `qs_ratio_scan`: `qs_ratio_scan_oracle`, every straddle offered to every row;
* `restrict`: `restrict_oracle`, each node's bracket by the recursive walk;
* `verify_small_ball_bound`: `verify_small_ball_oracle` for verdicts and
  margins, `verify_small_ball_exact_oracle` for a rational s decided by q-th
  powers, `small_ball_refusal_oracle` for the cases no precision settles;
  per case, Fraction brackets by the recursive walk and a fresh factor
  enclosure at each precision;
* `log2_bounds`, `exp2_bounds`, `pow_bounds` and the power entry
  `_power_ends` behind it, the exact-root shortcut and `iroot`: their
  `_oracle` forms (`pow_bounds_oracle` for the entry), Fraction loops with
  general long division at every rounding step (the log2 oracle is the
  squaring loop on every mantissa, never the series), and Newton's
  iteration alone;
* `seq.term`, `seq.terms`: `term_oracle`, each family's Fraction formula;
* `product_bracket`, `certify_fat_thick`, `ProductBracket` and its readings,
  `tag_product`: `product_bracket_oracle`, `certify_fat_thick_oracle`,
  `ProductBracketOracle` (`bracket_oracle` reads a library bracket's factor
  runs into one), `product_readings_oracle`, `tag_product_oracle`, a
  Fraction per term and factor, exact reduced products compared as
  Fractions, and floor and ceiling of the values at 60 places;
* the logfloor schedule's plotted partials: `stage_plot_values_oracle`, a
  running Fraction product floored at 60 places;
* `power_tail_upper`, `power_tail_lower`, `cutout_lower_bound`: their
  `_oracle` forms, Fraction sums of `pow_bounds_oracle` ends;
* the logfloor schedule mass: `logfloor_mass_oracle`, every word written out;
* `build_cantor`: `build_cantor_oracle`, Fraction `RationalInterval` nodes;
* `LeafPrefixes`: `leaf_prefix_oracle`, one walk from the root per leaf;
* the ratio-decay fit's concentric rows: `concentric_maxima_oracle`, one
  ball at a time over `BallOracle`;
* `first_max`: `first_max_oracle`, an exact comparison of every entry;
* the fits' exponent search: `largest_within_oracle`, plain bisection;
* `decimal_str`: `decimal_str_oracle`, on Fraction arithmetic;
* union lengths: `union_length_oracle`, a sweep line;
* `merge_components` of closed balls, `remaining_set`, `largest_gap`:
  `closed_union_oracle`, `remaining_set_oracle`, a sweep line on closed
  `Fraction` spans.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb


def union_length_oracle(spans: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Sweep-line total length of a union of closed spans."""
    events = sorted((lo, hi) for lo, hi in spans if hi > lo)
    total = Fraction(0)
    cur_lo = cur_hi = None
    for lo, hi in events:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def closed_union_oracle(spans: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """The components of a union of closed spans [lo, hi], in order: a sweep
    line, where spans that share a point join."""
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def remaining_set_oracle(spans: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction, bool, bool]]:
    """[0, 1] minus closed spans inside it, as components (lo, hi, lo_open,
    hi_open) in order: the gaps the sweep line leaves between the union's
    components, open where a span ends them and closed at a kept 0 or 1."""
    out, cur, cur_open = [], Fraction(0), False
    for lo, hi in closed_union_oracle(spans):
        if lo > cur:
            out.append((cur, lo, cur_open, True))
        cur, cur_open = hi, True
    if cur < 1:
        out.append((cur, Fraction(1), cur_open, False))
    return out


def leaf_masses(p: Fraction, depth: int) -> list[Fraction]:
    """Exact masses of the 2^depth dyadic leaves under the left-weight-p
    measure, by direct product over the bits of the leaf index."""
    out = []
    for idx in range(1 << depth):
        mass = Fraction(1)
        for level in range(depth):
            bit = (idx >> (depth - 1 - level)) & 1
            mass *= (1 - p) if bit else p
        out.append(mass)
    return out


def interval_mass_oracle(
    p: Fraction, depth: int, lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """(inner, outer) mass of [lo,hi]: leaves inside vs leaves overlapping."""
    masses = leaf_masses(p, depth)
    width = Fraction(1, 1 << depth)
    inner = outer = Fraction(0)
    for idx, mass in enumerate(masses):
        a, b = idx * width, (idx + 1) * width
        if a >= lo and b <= hi:
            inner += mass
        if a < hi and b > lo:  # interior overlap; endpoints carry no mass
            outer += mass
    return inner, outer


def logfloor_exponent_oracle(n: int) -> int:
    m = 0
    while (1 << (m + 1)) <= n + 1:
        m += 1
    return m


def logfloor_survivor_words(stages: int) -> list[tuple[int, int]]:
    """(zero_count, one_count) of every word surviving the removal schedule,
    by literal expansion: each stage replaces a word with all extensions of
    length m_stage except the all-zeros one."""
    words = [(0, 0)]
    for stage in range(1, stages + 1):
        m = logfloor_exponent_oracle(stage)
        grown = []
        for zeros, ones in words:
            for ext in range(1, 1 << m):  # skip 0 = the all-left extension
                grown.append((zeros + m - ext.bit_count(), ones + ext.bit_count()))
        words = grown
    return words


def logfloor_mass_oracle(p: Fraction, stages: int) -> Fraction:
    return sum(
        (p**z * (1 - p) ** o for z, o in logfloor_survivor_words(stages)),
        Fraction(0),
    )


def direct_product(terms: list[Fraction]) -> Fraction:
    out = Fraction(1)
    for t in terms:
        out *= 1 - t
    return out


def binomial_row_counts(m: int) -> list[int]:
    return [comb(m, k) for k in range(m + 1)]


# --- Fraction oracles for the doubling and qs kernels --------------------------

from dmlab.doubling import (  # noqa: E402
    DoublingReport,
    MassWindowFit,
    RatioDecayFit,
    ScanWitness,
    SmallBallCase,
    SmallBallResult,
)
from dmlab.enclosure import (  # noqa: E402
    DEFAULT_BITS,
    Bounds,
    exp2_bounds,
    log2_bounds,
    mul_bounds,
)
from dmlab.errors import (  # noqa: E402
    EnclosureInconclusive,
    InvalidFamily,
    MisalignedTrees,
    PreconditionViolated,
    ZeroMassBall,
)
from dmlab.geom import closed  # noqa: E402
from dmlab.measure import (  # noqa: E402
    EXACT_ZERO,
    MassBracket,
    TableWeights,
    TreeMeasure,
    effective_depth,
)

T_STEP = Fraction(1, 64)
ZERO, ONE = Fraction(0), Fraction(1)


def node_ends(m, level: int, index: int) -> tuple[Fraction, Fraction]:
    if m.base is not None:
        node = m.base.nodes[level][index]
        return node.lo, node.hi
    unit = Fraction(1, 1 << level)
    return index * unit, (index + 1) * unit


def interval_mass_recursive_oracle(m, iv, depth: int) -> MassBracket:
    """`interval_mass` by recursion over the nodes: lower adds nodes inside
    iv, upper also charges the straddling boundary nodes at the query depth;
    iv is taken as its closed hull, which holds a node exactly when it holds
    the node's ends, whether the node is open or closed."""
    lo, hi = iv.lo, iv.hi
    if lo == hi:
        return EXACT_ZERO
    cap = effective_depth(m, depth)

    def rec(level: int, index: int, mass: Fraction) -> tuple[Fraction, Fraction]:
        node_lo, node_hi = node_ends(m, level, index)
        # single-point contact contributes nothing: require interior overlap
        if mass == 0 or node_hi <= lo or node_lo >= hi:
            return Fraction(0), Fraction(0)
        if lo <= node_lo and node_hi <= hi:
            return mass, mass
        if level == cap:
            return Fraction(0), mass
        w = m.weights.left_share(level, index)
        lo_l, hi_l = rec(level + 1, 2 * index, mass * w)
        lo_r, hi_r = rec(level + 1, 2 * index + 1, mass * (1 - w))
        return lo_l + lo_r, hi_l + hi_r

    lower, upper = rec(0, 0, m.total_mass)
    return MassBracket(lower, upper)


def cdf_grid_oracle(m, depth: int) -> list[Fraction]:
    """F[i] = mu([0, i/2^depth]) by rational splitting, level by level."""
    masses = [m.total_mass]
    for level in range(depth):
        nxt = []
        for index, mass in enumerate(masses):
            w = m.weights.left_share(level, index)
            nxt.append(mass * w)
            nxt.append(mass * (1 - w))
        masses = nxt
    out = [Fraction(0)]
    acc = Fraction(0)
    for mass in masses:
        acc += mass
        out.append(acc)
    return out


class BallOracle:
    """Ball masses of m for a scan of the given depth: exact grid masses
    where aligned, recursive brackets elsewhere. Each clipped ball is
    bracketed once, since the small ball at scale k is the big ball at scale
    k + 1; the scan, per-scale and fit oracles of one check share one."""

    def __init__(self, m, depth: int):
        self.m, self.depth = m, depth
        self.grid = None
        if m.base is None and min(depth + 1, m.split_depth) == depth + 1:
            self.grid = cdf_grid_oracle(m, depth + 1)
            self.grid_depth = depth + 1
        self.eval_depth = m.split_depth if m.base is not None else min(
            depth + 8, m.split_depth
        )
        self.memo: dict[tuple[Fraction, Fraction], MassBracket] = {}

    def ball(self, x: Fraction, r: Fraction) -> MassBracket:
        lo, hi = x - r, x + r
        ends = lo if lo > 0 else ZERO, hi if hi < 1 else ONE
        got = self.memo.get(ends)
        if got is None:
            got = self.memo[ends] = self._bracket(*ends)
        return got

    def _bracket(self, lo: Fraction, hi: Fraction) -> MassBracket:
        if self.grid is not None:
            scale = 1 << self.grid_depth
            li, hi_i = lo * scale, hi * scale
            if li.denominator == 1 and hi_i.denominator == 1:
                v = self.grid[int(hi_i)] - self.grid[int(li)]
                return MassBracket(v, v)
        return interval_mass_recursive_oracle(self.m, closed(lo, hi), self.eval_depth)


def scan_centers_oracle(m, depth: int) -> list[Fraction]:
    if m.base is None:
        step = Fraction(1, 1 << (depth + 1))
        return [i * step for i in range((1 << (depth + 1)) + 1)]
    level = min(depth, m.base.depth)
    pts: set[Fraction] = set()
    for node in m.base.nodes[level]:
        pts.update((node.lo, node.midpoint, node.hi))
    return sorted(pts)


def scan_core_oracle(oracle: BallOracle):
    """(c_upper, c_lower, (x, r, ratio_lower), exact, notes)."""
    m, depth = oracle.m, oracle.depth
    if m.total_mass == 0:
        raise ZeroMassBall("the zero measure has no doubling ratios")
    centers = scan_centers_oracle(m, depth)
    c_upper = Fraction(0)
    c_lower = Fraction(0)
    witness = None
    exact = True
    skipped = 0
    for k in range(1, depth + 1):
        r = Fraction(1, 1 << k)
        for x in centers:
            small = oracle.ball(x, r)
            big = oracle.ball(x, 2 * r)
            if small.lower == 0:
                skipped += 1
                exact = False
                continue
            up = big.upper / small.lower
            lo = big.lower / small.upper
            exact = exact and small.is_exact and big.is_exact
            if up > c_upper:
                c_upper = up
            if lo > c_lower:
                c_lower = lo
                witness = (x, r, lo)
    if witness is None:
        raise ZeroMassBall("no scanned ball produced a certifiable ratio")
    notes = []
    if skipped:
        notes.append(f"skipped {skipped} pairs whose small ball had no certified mass")
    return c_upper, c_lower, witness, exact, notes


def per_scale_oracle(oracle: BallOracle) -> list[tuple[int, Fraction]]:
    m, depth = oracle.m, oracle.depth
    centers = scan_centers_oracle(m, depth)
    out = []
    for k in range(1, depth + 1):
        r = Fraction(1, 1 << k)
        best = Fraction(0)
        for x in centers:
            small = oracle.ball(x, r)
            if small.upper == 0:
                continue
            lo = oracle.ball(x, 2 * r).lower / small.upper
            if lo > best:
                best = lo
        out.append((k, best))
    return out


def fit_ratio_decay_oracle(
    oracle: BallOracle, lambda_cap=Fraction(1), t_max=Fraction(4), seed=0,
    holdout=64, bits=DEFAULT_BITS,
):
    """(big_lam, t, pairs_checked, holdout_size, rounds); perfectness guard
    and precondition errors are left to the caller."""
    depth = oracle.depth
    best: dict[int, Fraction] = {}

    def feed(x, big_r, l):
        small = oracle.ball(x, big_r / (1 << l))
        big = oracle.ball(x, big_r)
        if big.lower == 0:
            return False
        ratio = small.upper / big.lower
        if ratio > best.get(l, Fraction(0)):
            best[l] = ratio
        return True

    pairs = 0
    for j in range(1, depth):
        big_r = Fraction(1, 1 << j)
        for i in range(1, 1 << j):
            x = i * big_r
            if x - big_r < 0 or x + big_r > 1:
                continue
            for l in range(0, depth - j + 1):
                if feed(x, big_r, l):
                    pairs += 1
    if not pairs:
        raise PreconditionViolated("no interior pair produced a certified ratio")
    grid_max = int(t_max / T_STEP)

    def lam_at(t_steps):
        worst = Fraction(0)
        for l, ratio in best.items():
            val = ratio * exp2_bounds(Fraction(l * t_steps, 64), bits).hi
            if val > worst:
                worst = val
        return worst

    def largest_feasible():
        lo_k, hi_k = 0, grid_max
        if lam_at(1) > lambda_cap:
            return 0
        lo_k = 1
        while lo_k < hi_k:
            mid = (lo_k + hi_k + 1) // 2
            if lam_at(mid) <= lambda_cap:
                lo_k = mid
            else:
                hi_k = mid - 1
        return lo_k

    rng = random.Random(seed)
    rounds = 0
    holdout_seen = 0
    while True:
        rounds += 1
        k = largest_feasible()
        if k == 0:
            raise PreconditionViolated("no positive exponent validates at this Lambda cap")
        t = k * T_STEP
        lam = lam_at(k)
        failures = []
        for _ in range(holdout):
            j = rng.randrange(1, depth)
            big_r = Fraction(1, 1 << j)
            i = rng.randrange(0, 1 << j) * 2 + 1
            x = Fraction(i, 1 << (j + 1))
            if x - big_r < 0 or x + big_r > 1:
                continue
            l = rng.randrange(0, depth - j + 1)
            small = oracle.ball(x, big_r / (1 << l))
            big = oracle.ball(x, big_r)
            if big.lower == 0:
                continue
            holdout_seen += 1
            ratio = small.upper / big.lower
            if ratio * exp2_bounds(Fraction(l * k, 64), bits).hi > lam:
                failures.append((x, big_r, l))
                if ratio > best.get(l, Fraction(0)):
                    best[l] = ratio
        if not failures:
            return lam, t, pairs + holdout_seen, holdout_seen, rounds
        if rounds >= 4:
            raise PreconditionViolated(f"holdout kept failing after {rounds} refit rounds")


def fit_mass_window_oracle(m, depth: int, c_upper: Fraction, lambda_cap=Fraction(1),
                           bits=DEFAULT_BITS):
    """(lam, s, big_lam, t, samples), one enclosure per sample."""
    s_hi = log2_bounds(c_upper, bits).hi
    s = Fraction(math.ceil(s_hi * 64), 64)
    samples = []
    if m.base is None:
        cap = min(depth, m.split_depth)
        masses = [m.total_mass]
        for level in range(cap + 1):
            diam = Fraction(1, 1 << level)
            for i, mass in enumerate(masses):
                samples.append((mass, diam))
                if i + 1 < len(masses):
                    samples.append((mass + masses[i + 1], 2 * diam))
            if level == cap:
                break
            nxt = []
            for i, mass in enumerate(masses):
                w = m.weights.left_share(level, i)
                nxt.append(mass * w)
                nxt.append(mass * (1 - w))
            masses = nxt
    else:
        cap = min(depth, m.base.depth)
        for level in range(cap + 1):
            nodes = m.base.nodes[level]
            row = [interval_mass_recursive_oracle(m, nd, m.split_depth) for nd in nodes]
            for i, nd in enumerate(nodes):
                samples.append((row[i].lower, nd.diameter))
                if i + 1 < len(nodes):
                    samples.append((row[i].lower + row[i + 1].lower, nodes[i + 1].hi - nd.lo))
    lam = None
    for mass, diam in samples:
        val = mass / pow_bounds_oracle(diam, s, bits).hi
        if lam is None or val < lam:
            lam = val

    def upper_lam(t):
        worst = Fraction(0)
        for mass, diam in samples:
            denom = pow_bounds_oracle(diam, t, bits).lo
            if denom == 0:
                raise EnclosureInconclusive("diameter power underflowed")
            val = mass / denom
            if val > worst:
                worst = val
        return worst

    lo_k, hi_k = 0, 4 * 64
    if upper_lam(T_STEP) > lambda_cap:
        raise PreconditionViolated("no positive growth exponent fits under the cap")
    lo_k = 1
    while lo_k < hi_k:
        mid = (lo_k + hi_k + 1) // 2
        if upper_lam(mid * T_STEP) <= lambda_cap:
            lo_k = mid
        else:
            hi_k = mid - 1
    t = lo_k * T_STEP
    return lam, s, upper_lam(t), t, len(samples)


def doubling_scan_oracle(m, depth: int, lambda_cap=Fraction(1), seed=0, bits=DEFAULT_BITS):
    """The report `doubling_scan` makes, from the scan and fit oracles; for
    measures on the dyadic base and depth >= 2, where the fits' guards pass."""
    oracle = BallOracle(m, depth)
    c_upper, c_lower, (x, r, ratio), exact, notes = scan_core_oracle(oracle)
    fits = []
    for kind, fit, cls in (
        ("ratio", lambda: fit_ratio_decay_oracle(oracle, lambda_cap, seed=seed, bits=bits),
         RatioDecayFit),
        ("window", lambda: fit_mass_window_oracle(m, depth, c_upper, lambda_cap, bits), MassWindowFit),
    ):
        try:
            fits.append(cls(*fit()))
        except PreconditionViolated as exc:
            fits.append(None)
            notes.append(f"{kind} fit unavailable: {exc}")
    return DoublingReport(
        c_upper=c_upper,
        c_lower=c_lower,
        witness=ScanWitness(x, r, ratio),
        s_lower=log2_bounds(c_lower, bits).lo if c_lower >= 1 else Fraction(0),
        s_upper=log2_bounds(c_upper, bits).hi,
        depth=depth,
        exact=exact,
        ratio_decay=fits[0],
        mass_window=fits[1],
        notes=tuple(notes),
        per_scale=tuple(per_scale_oracle(oracle)),
    )


def qs_ratio_scan_oracle(m, depth: int, taus, random_triples=0, seed=0):
    """[(tau, max_ratio, witness)] by offering every straddle to every row."""
    grid = cdf_grid_oracle(m, depth)
    size = 1 << depth
    taus = tuple(sorted(Fraction(t) for t in taus))
    best = {t: None for t in taus}

    def offer(shape, image, witness):
        for t in taus:
            if shape <= t:
                cur = best[t]
                if cur is None or image > cur[0]:
                    best[t] = (image, witness)

    def point(j):
        return Fraction(j, size)

    for j in range(size + 1):
        for k in range(1, depth + 1):
            unit = 1 << (depth - k)
            for a in (1, 2, 4):
                for b in (1, 2, 4):
                    left, right = j - a * unit, j + b * unit
                    if left < 0 or right > size:
                        continue
                    rise_l = grid[j] - grid[left]
                    rise_r = grid[right] - grid[j]
                    if rise_r > 0:
                        offer(Fraction(a, b), rise_l / rise_r,
                              (point(j), point(left), point(right)))
                    if rise_l > 0:
                        offer(Fraction(b, a), rise_r / rise_l,
                              (point(j), point(right), point(left)))
    if random_triples:
        rng = random.Random(seed)
        made = 0
        while made < random_triples:
            j, jy, jz = (rng.randrange(size + 1) for _ in range(3))
            if j == jy or j == jz or jy == jz:
                continue
            made += 1
            den = abs(grid[j] - grid[jz])
            if den == 0:
                continue
            offer(Fraction(abs(j - jy), abs(j - jz)), abs(grid[j] - grid[jy]) / den,
                  (point(j), point(jy), point(jz)))
    return [(t, best[t][0], best[t][1]) for t in taus if best[t] is not None]


# --- Fraction oracles for restrict and the small-ball check ----------------------


def restrict_oracle(m, tree, eval_depth=None):
    """`restrict` as it ran before its one-pass prefix table: every node's
    bracket on its own, here by the recursive node walk, each left share
    the midpoint ratio of the children's Fraction brackets."""
    if eval_depth is None:
        eval_depth = tree.depth + 6
    root = interval_mass_recursive_oracle(m, tree.nodes[0][0], eval_depth)
    if root.upper == 0:
        raise MisalignedTrees("the measure puts no mass on the tree's root")
    rows = []
    for level in range(tree.depth):
        row = []
        for index in range(1 << level):
            left = interval_mass_recursive_oracle(m, tree.nodes[level + 1][2 * index], eval_depth)
            right = interval_mass_recursive_oracle(m, tree.nodes[level + 1][2 * index + 1], eval_depth)
            denom = left.midpoint + right.midpoint
            if denom == 0 or left.midpoint == 0 or right.midpoint == 0:
                raise MisalignedTrees(f"node ({level}, {index}) splits with a vanishing side")
            row.append(left.midpoint / denom)
        rows.append(tuple(row))
    leaf_total = EXACT_ZERO
    for leaf in tree.nodes[tree.depth]:
        leaf_total = leaf_total + interval_mass_recursive_oracle(m, leaf, eval_depth)
    return TreeMeasure(TableWeights(tuple(rows)), base=tree, total_mass=leaf_total.midpoint,
                       base_mass_bracket=leaf_total)


def rhs_bounds_oracle(rho, c, s, bits: int) -> Bounds:
    """Enclosure of 2^-s * rho^s with s either given or read off c = 2^s."""
    if s is not None:
        s_b = Bounds(Fraction(s), Fraction(s))
        inv = exp2_bounds(-Fraction(s), bits)
    else:
        s_b = log2_bounds(c, bits)
        inv = Bounds(1 / Fraction(c), 1 / Fraction(c))
    return mul_bounds(inv, pow_bounds_oracle(rho, s_b, bits))


def _small_ball_brackets(m, count, depth, seed, cases):
    """The checked cases in order, given ones first and then sampled ones,
    each with brackets of mu(A) and mu(B) from the recursive node walk."""
    eval_depth = min(depth + 8, m.split_depth)
    todo = list(cases) if cases else []
    rng = random.Random(seed)
    grid = 1 << depth
    while len(todo) < count:
        ia = rng.randrange(0, grid)
        ib = rng.randrange(ia + 1, grid + 1)
        a, b = Fraction(ia, grid), Fraction(ib, grid)
        x = Fraction(rng.randrange(ia, ib + 1), grid)
        todo.append(SmallBallCase(a, b, x, (b - a) / (1 << rng.randrange(1, 5))))
    for case in todo:
        if case.a_lo > case.a_hi:
            raise PreconditionViolated(f"interval [{case.a_lo}, {case.a_hi}] is reversed")
        if not (case.a_lo <= case.x <= case.a_hi):
            raise PreconditionViolated("center must lie in the set")
        if not 0 < case.r < case.a_hi - case.a_lo:
            raise PreconditionViolated("radius must be in (0, diam A)")
        mu_a = interval_mass_recursive_oracle(m, closed(case.a_lo, case.a_hi), eval_depth)
        ball = closed(max(Fraction(0), case.x - case.r), min(Fraction(1), case.x + case.r))
        yield case, mu_a, interval_mass_recursive_oracle(m, ball, eval_depth)


def verify_small_ball_exact_oracle(m, s, count=1000, depth=10, seed=0, cases=None):
    """The small-ball check for a given s = p/q, decided without enclosures:
    mu(B) >= (rho/2)^s mu(A) compares mu(B)^q with (rho/2)^p mu(A)^q. Returns
    (holds, checked, counterexample, the exact margin's q-th power test) and
    raises EnclosureInconclusive where the mass brackets leave a case open."""
    p, q = Fraction(s).as_integer_ratio()
    checked = 0
    for case, mu_a, mu_b in _small_ball_brackets(m, count, depth, seed, cases):
        rhs = (case.r / (case.a_hi - case.a_lo) / 2) ** p
        checked += 1
        if mu_b.lower ** q >= rhs * mu_a.upper ** q:
            continue
        if mu_b.upper ** q < rhs * mu_a.lower ** q:
            def margin_ok(margin, mu_a=mu_a, mu_b=mu_b, rhs=rhs):
                # a margin is sound when mu(B) + margin <= (rho/2)^s mu(A) still holds
                return 0 < margin and (mu_b.upper + margin) ** q <= rhs * mu_a.lower ** q
            return False, checked, case, margin_ok
        raise EnclosureInconclusive(f"the brackets leave case {case} open")
    return True, checked, None, None


def verify_small_ball_oracle(m, c=None, s=None, count=1000, depth=10, seed=0, cases=None,
                             bits=DEFAULT_BITS, max_bits=4096):
    """`verify_small_ball_bound` as it ran before its prefix table: per
    case, Fraction brackets of mu(A) and mu(B) (here by the recursive node
    walk) and a fresh factor enclosure at every precision, doubled up to
    max_bits while the case stays open."""
    if (c is None) == (s is None):
        raise PreconditionViolated("give exactly one of c or s")
    if c is not None and Fraction(c) < 1:
        raise PreconditionViolated("constant must be >= 1")
    checked = 0
    for case, mu_a, mu_b in _small_ball_brackets(m, count, depth, seed, cases):
        rho = case.r / (case.a_hi - case.a_lo)
        cur = bits
        while True:
            factor = rhs_bounds_oracle(rho, c, s, cur)
            if mu_b.lower >= mu_a.upper * factor.hi:
                break
            if mu_b.upper < mu_a.lower * factor.lo:
                return SmallBallResult(holds=False, checked=checked + 1, counterexample=case,
                                       margin=mu_a.lower * factor.lo - mu_b.upper)
            if cur >= max_bits:
                raise EnclosureInconclusive(
                    f"cannot settle the case A=[{case.a_lo},{case.a_hi}], "
                    f"x={case.x}, r={case.r} at {cur} bits"
                )
            cur *= 2
        checked += 1
    return SmallBallResult(holds=True, checked=checked)


def small_ball_refusal_oracle(m, c=None, s=None, count=1000, depth=10, seed=0, cases=None, max_bits=4096):
    """The refusal `verify_small_ball_bound` gives a case that no precision
    settles: the first case that neither holds nor fails with the factor
    enclosed at max_bits, unless a rational factor (rho/2)^s shows that it
    holds, reported with its mu(A) and mu(B) brackets from the recursive node
    walk. None when a counterexample comes first, or no case is left open."""
    eval_depth = min(depth + 8, m.split_depth)
    capped = f", capped at the split depth {m.split_depth}" if eval_depth < depth + 8 else ""
    for case, mu_a, mu_b in _small_ball_brackets(m, count, depth, seed, cases):
        rho = case.r / (case.a_hi - case.a_lo)
        factor = rhs_bounds_oracle(rho, c, s, max_bits)
        if mu_b.upper < mu_a.lower * factor.lo:
            return None
        exact = None if s is None else exact_rational_pow_oracle(rho / 2, Fraction(s))
        if mu_b.lower >= mu_a.upper * (factor.hi if exact is None else exact):
            continue
        return (f"cannot settle the case A=[{case.a_lo},{case.a_hi}], x={case.x}, r={case.r} "
                f"at any precision: mu(A) in [{mu_a.lower}, {mu_a.upper}], "
                f"mu(B) in [{mu_b.lower}, {mu_b.upper}] "
                f"at eval depth {eval_depth} (depth {depth} + 8{capped})")
    return None


# --- Fraction oracles for the enclosure primitives -------------------------------
#
# log2_bounds, exp2_bounds and pow_bounds as they ran before their kernels
# moved to shifts and integer ends: general long division by 2^B at every
# rounding step, a Fraction per step, and pow_bounds asking for both ends of
# both exp2 enclosures.  The exact-root shortcut is the Fraction form it had
# before it took integer pairs, on Newton's iteration alone.

ORACLE_GUARD = 32


def exact_rational_pow_oracle(x: Fraction, e: Fraction) -> Fraction | None:
    """x^e as an exact rational when the root extraction is exact, else None."""
    if e.denominator == 1:
        return x ** e.numerator
    n, d, k = x.numerator, x.denominator, e.denominator
    if n and ((n & -n).bit_length() - 1) % k or ((d & -d).bit_length() - 1) % k:
        return None
    rn, okn = iroot_newton_oracle(n, k)
    if not okn:
        return None
    rd, okd = iroot_newton_oracle(d, k)
    if not okd:
        return None
    return Fraction(rn, rd) ** e.numerator


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _ilog2_oracle(x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
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


def _pow2_oracle(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def _log2_frac_bits_oracle(n: int, d: int, bits: int, round_up: bool) -> int:
    B = bits + ORACLE_GUARD
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


def log2_bounds_oracle(x: Fraction, bits: int = DEFAULT_BITS) -> Bounds:
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
    e = _ilog2_oracle(x)
    if e >= 0:
        mn, md = n, d << e
    else:
        mn, md = n << -e, d
    f_lo = _log2_frac_bits_oracle(mn, md, bits, round_up=False)
    f_hi = _log2_frac_bits_oracle(mn, md, bits, round_up=True)
    unit = 1 << bits
    return Bounds(e + Fraction(f_lo, unit), e + Fraction(f_hi + 1, unit))


@functools.lru_cache(maxsize=8)
def _root_tables_oracle(bits: int) -> tuple[list[int], list[int]]:
    B = bits + ORACLE_GUARD
    S = 1 << B
    down, up = [], []
    lo = hi = 2 * S
    for _ in range(bits):
        lo = math.isqrt(lo * S)
        t = math.isqrt(hi * S)
        hi = t + 1 if t * t < hi * S else t
        down.append(lo)
        up.append(hi)
    return down, up


def _exp2_frac_oracle(f_scaled: int, bits: int, round_up: bool) -> Fraction:
    B = bits + ORACLE_GUARD
    S = 1 << B
    table = _root_tables_oracle(bits)[1 if round_up else 0]
    P = S
    for i in range(1, bits + 1):
        if (f_scaled >> (bits - i)) & 1:
            P = _ceil_div(P * table[i - 1], S) if round_up else (P * table[i - 1]) // S
    return Fraction(P, S)


def exp2_bounds_oracle(y: Fraction, bits: int = DEFAULT_BITS) -> Bounds:
    y = Fraction(y)
    if y.denominator == 1:
        k = y.numerator
        if abs(k) > 1 << 22:
            raise PreconditionViolated("exponent magnitude out of supported range")
        return Bounds.exact(_pow2_oracle(k))
    n_floor = y.numerator // y.denominator
    if abs(n_floor) > 1 << 22:
        raise PreconditionViolated("exponent magnitude out of supported range")
    f = y - n_floor
    scale = 1 << bits
    f_lo = (f.numerator * scale) // f.denominator
    exact_dyadic = f_lo * f.denominator == f.numerator * scale
    f_hi = f_lo if exact_dyadic else f_lo + 1
    base = _pow2_oracle(n_floor)
    lo = base * _exp2_frac_oracle(f_lo, bits, round_up=False)
    if f_hi >= scale:
        hi = base * 2
    else:
        hi = base * _exp2_frac_oracle(f_hi, bits, round_up=True)
    return Bounds(lo, hi)


def pow_bounds_oracle(x: Fraction, e, bits: int = DEFAULT_BITS) -> Bounds:
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
        exact = exact_rational_pow_oracle(x, e)
        if exact is not None:
            return Bounds.exact(exact)
        e_bounds = Bounds.exact(e)
    else:
        e_bounds = e
        if x == 1:
            return Bounds.exact(Fraction(1))
    prod = mul_bounds(e_bounds, log2_bounds_oracle(x, bits))
    if prod.is_exact:
        return exp2_bounds_oracle(prod.lo, bits)
    lo = exp2_bounds_oracle(prod.lo, bits).lo
    hi = exp2_bounds_oracle(prod.hi, bits).hi
    return Bounds(lo, hi)


def iroot_newton_oracle(n: int, k: int) -> tuple[int, bool]:
    """`iroot` by Newton's iteration alone, from before powers of two were
    answered by a shift."""
    if k == 1 or n in (0, 1):
        return n, True
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x**k == n


# --- Fraction oracles for the certified products ---------------------------------
#
# product_bracket and certify_fat_thick as they ran before they moved to
# integer (numerator, denominator) pairs: a Fraction per term and factor from
# term_oracle, seq.term by each family's own formula, both ends of every
# fractional power from pow_bounds_oracle under ladder_oracle, the lookahead
# from its lower ends, and each end's partial product formed exactly on its
# own (math.prod of the numerators and of the denominators) and reduced to a
# Fraction, where the library reads its products at working precision.

from dmlab.certify import (  # noqa: E402
    Conclusion,
    FatnessCertificate,
    _bits,
    _check_exact_bits,
)
from dmlab.enclosure import exp_neg_upper  # noqa: E402
from dmlab.errors import (  # noqa: E402
    DivergentSeries,
    IndexOutOfRange,
    NotInEllT,
    TailTooLarge,
    Undecidable,
)
from dmlab.geom import ThickStructure, verify_thick  # noqa: E402
from dmlab.reports import SERIALIZE_PLACES, tag_bracket  # noqa: E402
from dmlab.seq import (  # noqa: E402
    Constant,
    ExplicitFinite,
    Geometric,
    LogFloor,
    Power,
    Scaled,
    Summability,
    classify_ellp,
    family_length,
    tail_sum_upper,
)


def ladder_oracle(attempt, start: int = DEFAULT_BITS, cap: int = 4096):
    """`enclosure.refine` written apart: the rungs start, 2 start, 4 start, ...
    up to and including the first rung >= cap, listed first and then checked
    in turn until one gives a result; a start below 1 bit is refused."""
    if start < 1:
        raise PreconditionViolated(f"precision must start at >= 1 bit, got {start}")
    rungs = [start]
    while rungs[-1] < cap:
        rungs.append(2 * rungs[-1])
    for bits in rungs:
        result = attempt(bits)
        if result is not None:
            return result
    raise EnclosureInconclusive(f"bounds still inconclusive at {rungs[-1]} bits", rungs[-1])


def term_oracle(f, n: int) -> Fraction:
    """`seq.term` by each family's Fraction formula, from before it read its
    pair off `seq.terms`."""
    if n < 1:
        raise IndexOutOfRange("term indices start at 1")
    if isinstance(f, Geometric):
        return f.a * f.q ** (n - 1)
    if isinstance(f, Power):
        return f.a / Fraction(n + f.offset) ** f.gamma
    if isinstance(f, LogFloor):
        return f.base ** logfloor_exponent_oracle(n)
    if isinstance(f, Constant):
        return f.value
    if isinstance(f, ExplicitFinite):
        if n > len(f.terms):
            raise IndexOutOfRange(f"finite family has {len(f.terms)} terms")
        return f.terms[n - 1]
    if isinstance(f, Scaled):
        return f.c * term_oracle(f.inner, n)
    raise InvalidFamily(f"unknown family {f!r}")


@dataclass(frozen=True)
class ProductBracketOracle:
    """`certify.ProductBracket` as it was before its partial products became
    unreduced integer pairs: reduced Fractions, compared as Fractions."""

    partial: Fraction
    tail_lower: Fraction
    tail_upper: Fraction
    n_terms: int
    partial_upper: Fraction | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.tail_lower <= self.tail_upper <= 1:
            raise PreconditionViolated(
                f"tail bounds out of order: [{self.tail_lower}, {self.tail_upper}]"
            )
        hi = self.partial if self.partial_upper is None else self.partial_upper
        if not 0 <= self.partial <= hi <= 1:
            raise PreconditionViolated("partial products outside 0 <= lower <= upper <= 1")
        if self.n_terms < 0:
            raise PreconditionViolated("n_terms must be >= 0")

    @property
    def lower_value(self) -> Fraction:
        return self.partial * self.tail_lower

    @property
    def upper_value(self) -> Fraction:
        hi = self.partial if self.partial_upper is None else self.partial_upper
        return hi * self.tail_upper

    @property
    def width(self) -> Fraction:
        return self.upper_value - self.lower_value

    def encloses(self, value: Fraction) -> bool:
        return self.lower_value <= value <= self.upper_value


def bracket_oracle(pb) -> ProductBracketOracle:
    """A library `ProductBracket` with its exact ends: the Fraction powers of
    its factor runs, multiplied out."""
    lower, upper = (math.prod((Fraction(*run[i:i + 2]) ** run[4] for run in pb.factors), start=Fraction(1))
                    for i in (0, 2))
    return ProductBracketOracle(lower, pb.tail_lower, pb.tail_upper, pb.n_terms, upper)


def tag_product_oracle(pb: ProductBracketOracle) -> dict:
    """`reports.tag_product` by another route: math.floor and math.ceil of
    the reduced values times 10^60."""
    scale = 10**SERIALIZE_PLACES
    lo = Fraction(math.floor(pb.lower_value * scale), scale)
    hi = Fraction(math.ceil(pb.upper_value * scale), scale)
    return {**tag_bracket(lo, hi), "n_terms": pb.n_terms}


def _frac_prod_oracle(vals: list[Fraction]) -> Fraction:
    return Fraction(math.prod(v.numerator for v in vals), math.prod(v.denominator for v in vals))


def product_readings_oracle(pb: ProductBracketOracle, probes) -> list[tuple[bool, bool, bool]]:
    """`encloses`, `lower_at_least` and `width_at_most` at each probe, by
    Fraction comparisons with the exact ends."""
    return [(pb.encloses(v), pb.lower_value >= v, pb.width <= v) for v in probes]


def stage_plot_values_oracle(p: Fraction, stages: int) -> list[Fraction]:
    """The plotted partial products of the logfloor schedule: each stage's
    reduced Fraction, floored to SERIALIZE_PLACES places once its
    denominator passes 200 bits."""
    out, partial, scale = [], Fraction(1), 10**SERIALIZE_PLACES
    for j in range(1, stages + 1):
        partial *= 1 - p ** logfloor_exponent_oracle(j)
        big = partial.denominator.bit_length() > 200
        out.append(Fraction(math.floor(partial * scale), scale) if big else partial)
    return out


def _exact_partial_oracle(terms: list[Fraction]) -> Fraction:
    return _frac_prod_oracle([1 - t for t in terms])


def _lookahead_sum_oracle(x, start: int, count: int) -> Fraction:
    length = family_length(x)
    stop = start + count if length is None else min(start + count, length)
    total = Fraction(0)
    for i in range(start + 1, stop + 1):
        total += term_oracle(x, i)
    return total


def product_bracket_oracle(x, n_partial: int, bits: int = DEFAULT_BITS,
                           lookahead: int = 64) -> ProductBracketOracle:
    if n_partial < 0:
        raise PreconditionViolated("truncation index must be >= 0")
    length = family_length(x)
    used = n_partial if length is None else min(n_partial, length)
    count = used if length is None else length
    if count:
        size = max(_bits(term_oracle(x, 1)), _bits(term_oracle(x, count))) * count
        _check_exact_bits(size, f"the exact product of {count} factors")
    terms = [term_oracle(x, i) for i in range(1, used + 1)]
    for i, t in enumerate(terms, start=1):
        if not 0 < t < 1:
            raise PreconditionViolated(f"factor term {i} = {t} outside (0,1)")
    partial = _exact_partial_oracle(terms)
    if length is not None:
        tail = _exact_partial_oracle([term_oracle(x, i) for i in range(used + 1, length + 1)])
        return ProductBracketOracle(partial, tail, tail, used)
    try:
        tail_sum = tail_sum_upper(x, Fraction(1), used, bits)
    except DivergentSeries:
        tail_sum = None
    tail_lower = 1 - tail_sum if tail_sum is not None and tail_sum < 1 else Fraction(0)
    ahead = _lookahead_sum_oracle(x, used, lookahead)
    tail_upper = min(Fraction(1), exp_neg_upper(ahead))
    return ProductBracketOracle(partial, tail_lower, tail_upper, used)


def _scaled_power_oracle(scale: Fraction, base: Fraction, exponent: Fraction, bits: int) -> Bounds:
    pb = pow_bounds_oracle(base, exponent, bits)
    return Bounds(scale * pb.lo, scale * pb.hi)


def _first_small_stage_oracle(alpha, t: Fraction, scale: Fraction, bits: int) -> int:
    def decided(n: int) -> bool:
        def attempt(b: int):
            sp = _scaled_power_oracle(scale, term_oracle(alpha, n), t, b)
            if sp.hi < 1:
                return True
            if sp.lo >= 1:
                return False
            return None

        return ladder_oracle(attempt, bits)

    length = family_length(alpha)
    if length is not None:
        n0 = length + 1
        for n in range(length, 0, -1):
            if decided(n):
                n0 = n
            else:
                break
        return n0
    n = 1
    while n <= 1_000_000:
        if decided(n):
            return n
        n += 1
    raise Undecidable("decay factors stayed >= 1 for 10^6 stages")


def certify_fat_thick_oracle(thick, t: Fraction, factor_scale: Fraction,
                             tail_target: Fraction = Fraction(1, 1 << 34), max_terms: int = 65536,
                             bits: int = DEFAULT_BITS) -> FatnessCertificate:
    notes: list[str] = []
    if isinstance(thick, ThickStructure):
        verdict = verify_thick(thick)
        if not verdict.valid:
            first = verdict.violations[0]
            raise PreconditionViolated(
                f"structure fails verification: condition {first.condition} "
                f"at level {first.level}: {first.detail}"
            )
        alpha = thick.alpha
        notes.append(f"structure verified across {len(thick.levels)} levels")
    else:
        alpha = thick
        notes.append("family supplied directly; geometry not re-checked here")
    t = Fraction(t)
    scale = Fraction(factor_scale)
    if t <= 0 or scale <= 0:
        raise PreconditionViolated("exponent and factor scale must be positive")
    length = family_length(alpha)
    if length is None:
        if classify_ellp(alpha, t) is not Summability.CONVERGES:
            raise NotInEllT(f"gap powers at exponent {t} are not summable")

    exact_terms = t.denominator == 1
    if exact_terms:
        first = length or 64
        size = t.numerator * max(_bits(term_oracle(alpha, 1)), _bits(term_oracle(alpha, first))) * first
        _check_exact_bits(size, f"the exact product of {first} factors at exponent {t}")
    n0 = _first_small_stage_oracle(alpha, t, scale, bits)

    if length is not None:
        last = length
        tail_sum = Fraction(0)
    else:
        count = 64
        while True:
            last = n0 + count - 1
            if exact_terms:
                _check_exact_bits(t.numerator * _bits(term_oracle(alpha, last)) * count,
                                  f"the exact product of {count} factors at exponent {t}")
            tail_sum = scale * tail_sum_upper(alpha, t, last, bits)
            if tail_sum <= tail_target or count >= max_terms:
                break
            count = min(2 * count, max_terms)
        if tail_sum >= 1:
            raise TailTooLarge(f"tail sum {tail_sum} still >= 1 after {count} factors")

    lower_factors: list[Fraction] = []
    upper_factors: list[Fraction] = []
    for n in range(n0, last + 1):
        if exact_terms:
            x = scale * term_oracle(alpha, n) ** t.numerator
            lower_factors.append(1 - x)
            upper_factors.append(1 - x)
        else:
            def attempt(b: int):
                sp = _scaled_power_oracle(scale, term_oracle(alpha, n), t, b)
                return sp if sp.hi < 1 else None

            sp = ladder_oracle(attempt, bits)
            lower_factors.append(1 - sp.hi)
            upper_factors.append(1 - sp.lo)

    partial_lo = _frac_prod_oracle(lower_factors)
    partial_hi = _frac_prod_oracle(upper_factors)
    tail_lower = 1 - tail_sum if tail_sum < 1 else Fraction(0)
    if length is not None and last >= length:
        tail_upper = Fraction(1)
    else:
        ahead = Fraction(0)
        for n in range(last + 1, last + 65):
            if length is not None and n > length:
                break
            if exact_terms:
                ahead += scale * term_oracle(alpha, n) ** t.numerator
            else:
                ahead += scale * pow_bounds_oracle(term_oracle(alpha, n), t, bits).lo
        tail_upper = min(Fraction(1), exp_neg_upper(ahead))
    bound = ProductBracketOracle(
        partial=partial_lo,
        tail_lower=tail_lower,
        tail_upper=tail_upper,
        n_terms=last - n0 + 1,
        partial_upper=None if partial_hi == partial_lo else partial_hi,
    )
    conclusion = Conclusion.POSITIVE if bound.lower_value > 0 else Conclusion.INCONCLUSIVE
    return FatnessCertificate(alpha=alpha, t=t, factor_scale=scale, n0=n0, bound=bound,
                              conclusion=conclusion, notes=tuple(notes))


# --- Fraction construction trees and the plain leaf-prefix walk ------------------

from dmlab.geom import open_interval  # noqa: E402


class CantorTreeOracle:
    """What `build_cantor` built before its levels became integer edges:
    nodes and gaps as `RationalInterval`s, split with Fractions, level
    edges by an lcm of the node denominators, lengths as sums of
    diameters. It has the attributes `thick_from_cantor` reads."""

    def __init__(self, beta, depth, nodes, gaps, perfectness_constant):
        self.beta, self.depth, self.nodes, self.gaps = beta, depth, nodes, gaps
        self.perfectness_constant = perfectness_constant

    def level_edges(self, level: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        nodes = self.nodes[level]
        den = math.lcm(*(n.lo.denominator for n in nodes), *(n.hi.denominator for n in nodes))
        return (den, tuple(n.lo.numerator * (den // n.lo.denominator) for n in nodes),
                tuple(n.hi.numerator * (den // n.hi.denominator) for n in nodes))

    def level_length(self, level: int) -> Fraction:
        return sum((n.diameter for n in self.nodes[level]), Fraction(0))


def build_cantor_oracle(beta, depth: int) -> CantorTreeOracle:
    levels = [(closed(0, 1),)]
    gaps = []
    worst = None
    for k in range(1, depth + 1):
        b = term_oracle(beta, k)
        if not 0 < b < 1:
            raise InvalidFamily(f"gap fraction at level {k} must be in (0,1), got {b}")
        worst = b if worst is None or b > worst else worst
        children, middles = [], []
        half = (1 - b) / 2
        for node in levels[k - 1]:
            length = node.diameter
            left_hi = node.lo + half * length
            right_lo = node.hi - half * length
            children.append(closed(node.lo, left_hi))
            children.append(closed(right_lo, node.hi))
            middles.append(open_interval(left_hi, right_lo))
        levels.append(tuple(children))
        gaps.append(tuple(middles))
    perfectness = None if worst is None else (1 + worst) / (1 - worst)
    return CantorTreeOracle(beta, depth, tuple(levels), tuple(gaps), perfectness)


def leaf_prefix_oracle(m, cap: int, j: int) -> tuple[int, int]:
    """P(j), the mass of leaves 0..j-1 at level cap, reduced, by one walk
    from the root down leaf j's path (`LeafPrefixes` before it resumed
    walks from memoised ancestors)."""
    left_share = m.weights.left_share
    total = m.total_mass
    mass, den, acc = total.numerator, total.denominator, 0
    if j >> cap:
        acc = mass
    for lev in range(cap - ((j & -j).bit_length() - 1) if j else 0):
        w = left_share(lev, j >> (cap - lev))
        wn, wd = w.numerator, w.denominator
        left = mass * wn
        acc *= wd
        den *= wd
        if (j >> (cap - 1 - lev)) & 1:
            acc += left
            mass = mass * wd - left
        else:
            mass = left
    g = math.gcd(acc, den)
    return acc // g, den // g


# --- formatting -------------------------------------------------------------------


def ratio_rows_csv(rows) -> str:
    """`qs_ratio_scan` rows as CSV with columns tau, max_ratio_num,
    max_ratio_den, witness."""
    out = ["tau,max_ratio_num,max_ratio_den,witness"]
    for row in rows:
        wit = " ".join(str(v) for v in row.witness)
        out.append(f"{row.tau},{row.max_ratio.numerator},{row.max_ratio.denominator},{wit}")
    return "\n".join(out) + "\n"


# --- the ratio-decay fit per ball, the float filter, the tail sums as Fractions

from dmlab.certify import CutoutBound  # noqa: E402
from dmlab.errors import ExponentWindowEmpty, GapTooSmall  # noqa: E402
from dmlab.geom import largest_gap, remaining_set  # noqa: E402
from dmlab.seq import Summability, classify_ellp, tail_sum_upper  # noqa: E402


def concentric_maxima_oracle(m, depth: int) -> tuple[dict, int]:
    """(top, pairs) of `fit_ratio_decay`'s concentric stage, one
    `BallOracle.ball` per ball: top[l] the largest certified bound on
    mu(B(x, R / 2^l)) / mu(B(x, R)) as a Fraction, over interior centers x =
    i / 2^j and radii R = 2^-j, j = 1..depth-1, and pairs the count of pairs
    whose big ball has certified mass."""
    oracle = BallOracle(m, depth)
    top: dict[int, Fraction] = {}
    pairs = 0
    for j in range(1, depth):
        big_r = Fraction(1, 1 << j)
        for i in range(1, 1 << j):
            x = i * big_r
            big = oracle.ball(x, big_r).lower
            if not big:
                continue
            pairs += depth - j + 1
            for l in range(0, depth - j + 1):
                ratio = oracle.ball(x, big_r / (1 << l)).upper / big
                if ratio > top.get(l, 0):
                    top[l] = ratio
    return top, pairs


def first_max_oracle(nums: list[int], dens: list[int]) -> int | None:
    """The first index of the largest nums[i] / dens[i] over dens[i] != 0,
    by exact comparison of every entry."""
    best = None
    for i, (n, d) in enumerate(zip(nums, dens)):
        if d and (best is None or n * dens[best] > nums[best] * d):
            best = i
    return best


def power_tail_upper_oracle(delta, n_from: int, bits: int = DEFAULT_BITS, head: int = 64) -> Fraction:
    """`power_tail_upper` as a `Fraction` sum of pow_bounds_oracle's upper ends."""
    delta = Fraction(delta)
    if delta <= 1:
        raise DivergentSeries("polynomial tail needs delta > 1")
    if n_from < 1:
        raise PreconditionViolated("tail start must be >= 1")
    cut = n_from + head
    total = Fraction(0)
    for m in range(n_from, cut):
        total += pow_bounds_oracle(Fraction(m), -delta, bits).hi
    return total + pow_bounds_oracle(Fraction(cut - 1), 1 - delta, bits).hi / (delta - 1)


def power_tail_lower_oracle(delta, n_from: int, bits: int = DEFAULT_BITS, head: int = 64) -> Fraction:
    delta = Fraction(delta)
    if n_from < 1:
        raise PreconditionViolated("tail start must be >= 1")
    total = Fraction(0)
    for m in range(n_from, n_from + head):
        total += pow_bounds_oracle(Fraction(m), -delta, bits).lo
    return total


def cutout_lower_bound_oracle(config, report, r, n_balls: int, p) -> CutoutBound:
    """`cutout_lower_bound` with its diameter sum and tail head as
    `Fraction` sums of pow_bounds_oracle's ends."""
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
        nb = pow_bounds_oracle(Fraction(n_balls), -r, b)
        return True if gap_diam >= nb.hi else False if gap_diam < nb.lo else None

    if not ladder_oracle(attempt):
        raise GapTooSmall(f"largest surviving gap {gap_diam} < {n_balls}^(-{r})")
    main_term = lam * pow_bounds_oracle(Fraction(n_balls), -(r * s)).lo
    cp_up = Fraction(0)
    for ball in config.balls:
        cp_up += pow_bounds_oracle(ball.diameter, p).hi
    cp_up += tail_sum_upper(config.diam_family, p, len(config.balls))
    delta = t / p
    tail_up = power_tail_upper_oracle(delta, n_balls)
    penalty = pow_bounds_oracle(cp_up, delta).hi * big_lam * tail_up
    value = main_term - penalty
    return CutoutBound(
        value=value, conclusion=Conclusion.POSITIVE if value > 0 else Conclusion.INCONCLUSIVE,
        main_term=main_term, penalty=penalty, lam=lam, s=s, big_lam=big_lam, t=t, p=p, r=r,
        n_balls=n_balls, diam_power_sum_upper=cp_up, tail_upper=tail_up, gap=gap,
        gap_diameter=gap_diam,
    )


def largest_within_oracle(bound, cap: Fraction, hi_k: int) -> int:
    """Largest k in 1..hi_k whose bound(k), an integer pair, is at most cap,
    by bisection over k (the bound grows with k); 0 when bound(1) is not."""
    def within(k: int) -> bool:
        num, den = bound(k)
        return num * cap.denominator <= cap.numerator * den

    if not within(1):
        return 0
    lo_k = 1
    while lo_k < hi_k:
        mid = (lo_k + hi_k + 1) // 2
        if within(mid):
            lo_k = mid
        else:
            hi_k = mid - 1
    return lo_k


def _digits10(n: int) -> int:
    # number of decimal digits of n >= 1
    return len(str(n))


def decimal_str_oracle(x: Fraction) -> str:
    """`decimal_str` on Fraction comparisons: 12 significant digits,
    round-half-even, positional inside [1e-4, 1e+16), e-notation outside."""
    x = Fraction(x)
    if x == 0:
        return "0"
    sig = 12
    sign = "-" if x < 0 else ""
    n, d = abs(x).numerator, abs(x).denominator
    # e = floor(log10(n/d)), first estimate from digit counts then correct
    e = _digits10(n) - _digits10(d)
    if 10 ** max(e, 0) * d > n * 10 ** max(-e, 0):
        e -= 1
    # now 10^e <= n/d < 10^(e+1)
    shift = sig - 1 - e
    num = n * 10 ** max(shift, 0)
    den = d * 10 ** max(-shift, 0)
    q, r = divmod(num, den)
    # round half to even
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    if q == 10 ** sig:  # rounding bumped into the next decade
        q //= 10
        e += 1
    digits = str(q)
    if -4 <= e < 16:
        if e >= sig - 1:
            out = digits + "0" * (e - sig + 1)
        elif e >= 0:
            out = digits[: e + 1] + "." + digits[e + 1 :]
        else:
            out = "0." + "0" * (-e - 1) + digits
        out = out.rstrip("0").rstrip(".") if "." in out else out
        return sign + out
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    mantissa = mantissa.rstrip("0").rstrip(".") if "." in mantissa else mantissa
    return f"{sign}{mantissa}e{e:+d}"
