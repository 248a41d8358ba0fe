"""Measures defined by binary mass splitting.

A TreeMeasure assigns mass by walking a binary tree: at each node a weight in
(0,1) decides how much of the node's mass goes to the left child. The tree is
either the dyadic subdivision of [0,1] or a Cantor-type construction tree (in
which case removed middles carry no mass). All masses are Fractions; interval
queries return certified two-sided brackets whose width is controlled by the
query depth.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import gt, mul, rshift, sub
from typing import Union

from .errors import MisalignedTrees, PreconditionViolated
from .geom import ConstructionTree, CutOutConfig, RationalInterval, check_depth, check_nodes, closed, remaining_set
from .ratio import Value, parse_rational


class MassBracket(Value):
    """Certified enclosure 0 <= lower <= mu(E) <= upper."""

    __slots__ = _fields = ("lower", "upper")

    def __init__(self, lower: Fraction, upper: Fraction) -> None:
        if type(lower) is not Fraction or type(upper) is not Fraction:
            lower, upper = Fraction(lower), Fraction(upper)
        if not 0 <= lower <= upper:
            raise PreconditionViolated(f"bad mass bracket [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __add__(self, other: "MassBracket") -> "MassBracket":
        return MassBracket(self.lower + other.lower, self.upper + other.upper)

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper


EXACT_ZERO = MassBracket(Fraction(0), Fraction(0))


class BinomialWeights(Value):
    """Same left-share p at every node."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: Fraction) -> None:
        object.__setattr__(self, "p", Fraction(p))
        if not 0 < self.p < 1:
            raise PreconditionViolated(f"binomial weight must be in (0,1), got {self.p}")

    def left_share(self, level: int, index: int) -> Fraction:
        return self.p

    @property
    def depth_limit(self) -> int | None:
        return None


class TableWeights(Value):
    """Explicit left-share table, one tuple per level; levels[k][i] is the
    left share of node i at level k. Below the table the split is even."""

    __slots__ = _fields = ("levels",)

    def __init__(self, levels: tuple[tuple[Fraction, ...], ...]) -> None:
        frozen = []
        for k, row in enumerate(levels):
            if len(row) != (1 << k):
                raise PreconditionViolated(f"level {k} needs {1 << k} weights")
            vals = tuple(w if type(w) is Fraction else Fraction(w) for w in row)
            for w in vals:  # 0 < w < 1 on its integers, as RationalInterval checks its ends
                n, d = w.as_integer_ratio()
                if not 0 < n < d:
                    raise PreconditionViolated(f"weight {w} outside (0,1)")
            frozen.append(vals)
        object.__setattr__(self, "levels", tuple(frozen))

    def left_share(self, level: int, index: int) -> Fraction:
        if level < len(self.levels):
            return self.levels[level][index]
        return Fraction(1, 2)

    @property
    def depth_limit(self) -> int | None:
        return len(self.levels)


WeightRule = Union[BinomialWeights, TableWeights]


class TreeMeasure(Value):
    """base None = dyadic subdivision of [0,1]; otherwise the measure lives on
    the construction tree's nodes and every removed middle has mass zero.
    `base_mass_bracket` is the provenance of a restricted measure."""

    __slots__ = _fields = ("weights", "base", "total_mass", "base_mass_bracket")

    def __init__(self, weights: WeightRule, base: ConstructionTree | None = None,
                 total_mass: Fraction = Fraction(1), base_mass_bracket: MassBracket | None = None) -> None:
        total_mass = Fraction(total_mass)
        if total_mass < 0:
            raise PreconditionViolated("total mass must be >= 0")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "total_mass", total_mass)
        object.__setattr__(self, "base_mass_bracket", base_mass_bracket)

    @property
    def split_depth(self) -> int:
        """Deepest level at which node masses are defined; below a weight
        table the split is unknown and brackets stay put."""
        if self.base is not None:
            return self.base.depth
        limit = self.weights.depth_limit
        return 60 if limit is None else limit


def node_mass(m: TreeMeasure, level: int, index: int) -> Fraction:
    mass = m.total_mass
    for bit_pos in range(level - 1, -1, -1):
        prefix_level = level - 1 - bit_pos
        prefix = index >> (bit_pos + 1)
        w = m.weights.left_share(prefix_level, prefix)
        mass *= w if ((index >> bit_pos) & 1) == 0 else (1 - w)
    return mass


def effective_depth(m: TreeMeasure, depth: int) -> int:
    if depth < 0:
        raise PreconditionViolated("depth must be >= 0")
    return min(depth, m.split_depth)


class LeafPrefixes(dict):
    """P(j), the mass of leaves 0..j-1 at the level cap = effective_depth(m,
    depth), keyed by j: a (numerator, denominator) pair, walked when first
    asked for and kept reduced. One common denominator would carry the share
    denominators of all 2^cap - 1 nodes of a construction tree, P(j) only
    those on leaf j's path.

    Query ends are integers over `unit`, the lcm of twice the leaves' common
    denominator `den` and `ends`, one the caller's ends are integers over;
    a construction tree's leaf edges are kept over `unit` too (`lows`,
    `highs`, sorted), so a query end is bisected against them as it is."""

    def __init__(self, m: TreeMeasure, depth: int, ends: int = 1):
        super().__init__()
        self.m, self.cap = m, effective_depth(m, depth)
        den = 1 << self.cap if m.base is None else m.base.edges[self.cap][0]
        self.den, self.unit = den, lcm(2 * den, ends)
        self.step = step = self.unit // den
        if m.base is not None:
            _, lows, highs = m.base.edges[self.cap]
            self.lows, self.highs = [lo * step for lo in lows], [hi * step for hi in highs]
        total = m.total_mass
        self[1 << self.cap] = total.numerator, total.denominator
        # walk states by node 2^level + index: (node mass, mass left of the
        # node, den), the masses integer numerators over den
        self.states = {1: (total.numerator, 0, total.denominator)}

    def __missing__(self, j: int) -> tuple[int, int]:
        """P(j) for 0 <= j < 2^cap: the mass left of the node where leaf j's
        path last turns right (below it the path only turns left), at level
        stop. The walk resumes from the deepest ancestor of that node already
        walked; each step down multiplies the running denominator by the
        share's and, on a right turn, adds the left child's mass."""
        cap, left_share, states = self.cap, self.m.weights.left_share, self.states
        stop = cap - ((j & -j).bit_length() - 1) if j else 0
        node = ((1 << cap) | j) >> (cap - stop)
        lev = stop
        while node >> (stop - lev) not in states:
            lev -= 1
        mass, acc, den = states[node >> (stop - lev)]
        for lev in range(lev, stop):
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
            states[node >> (stop - lev - 1)] = mass, acc, den
        g = gcd(acc, den)
        p = self[j] = acc // g, den // g
        return p

    def mass(self, f: int, e: int) -> tuple[int, int]:
        """P(e) - P(f): the mass of leaves f..e-1."""
        (ne, de), (nf, df) = self[e], self[f]
        if de == df:
            return ne - nf, de
        return ne * df - nf * de, de * df

    def bracket(self, lo: Fraction, hi: Fraction) -> tuple[tuple[int, int], tuple[int, int]]:
        """`bracket_units` of mu([lo, hi]) for Fractions lo <= hi: an end
        between two multiples of 1 / den stands in as an integer over unit
        strictly between them, where no leaf edge lies."""
        a, da = lo.numerator * self.den, lo.denominator
        b, db = hi.numerator * self.den, hi.denominator
        step = self.step
        return self.bracket_units(
            a // da * step + (a % da > 0), b // db * step + (b % db > 0)
        )

    def bracket_units(self, lo: int, hi: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(lower, upper) of mu([lo / unit, hi / unit]) for integers lo <= hi
        (ends past [0, 1] clip), each a (numerator, denominator) pair: the
        mass of the leaves inside the interval, and of those whose interior
        meets it. Both are runs of leaves: the floors and ceilings of the ends
        in leaf widths on the dyadic base, found by bisecting a tree's edges,
        as each level is sorted and disjoint (`build_cantor`); one difference
        serves both when they coincide."""
        if self.m.base is None:  # leaf j spans [j step, (j + 1) step]; the ends clip to [0, unit]
            s, unit = self.step, self.unit
            lo, hi = min(max(lo, 0), unit), min(max(hi, 0), unit)
            f, e, g, h = lo // s, -(-hi // s), -(-lo // s), hi // s
        else:
            lows, highs = self.lows, self.highs
            f, e, g, h = bisect_right(highs, lo), bisect_left(lows, hi), bisect_left(lows, lo), bisect_right(highs, hi)
        upper = self.mass(f, e)
        if g == f and h == e:
            return upper, upper
        if h <= g:  # no leaf lies inside
            return (0, 1), upper
        return self.mass(g, h), upper

    def rows(self, los: list[int], his: list[int]) -> tuple:
        """(low, up, mass) of every [los[i], his[i]] on a construction tree:
        float rows of the lower and upper masses, differences of `floats`
        within 2 of the exact ones and 0 just where those are (every leaf has
        mass), low is up where all runs of leaves agree (`bracket_units`);
        mass(idx, upper) gives the exact masses of intervals idx."""
        lows, highs, fl = repeat(self.lows), repeat(self.highs), self.floats
        f, e = list(map(bisect_right, highs, los)), list(map(bisect_left, lows, his))
        g = list(map(bisect_left, lows, los))
        h = list(map(max, map(bisect_right, highs, his), g))

        def diffs(starts: list[int], ends: list[int]) -> list[float]:
            row = list(map(sub, map(fl.__getitem__, ends), map(fl.__getitem__, starts)))
            return row if all(row) else list(map(max, row, map((0.0, 1.0).__getitem__, map(gt, ends, starts))))

        def mass(idx: list[int], upper: bool) -> list:
            starts, ends = (f, e) if upper else (g, h)
            return list(zip(*map(self.mass, map(starts.__getitem__, idx), map(ends.__getitem__, idx))))

        up = diffs(f, e)
        return up if f == g and e == h else diffs(g, h), up, mass

    @cached_property
    def floats(self) -> list[float]:
        """P(j) for j = 0..2^cap, each correctly rounded in units of 2^-53 of
        a power of two above the total mass, so at most 2^53."""
        tn, td = self[1 << self.cap]
        s = 53 - tn.bit_length() + td.bit_length() - 1
        prefixes = map(self.__getitem__, range((1 << self.cap) + 1))
        return [(n << s) / d if s >= 0 else n / (d << -s) for n, d in prefixes]


def cdf_floats(cdf: list[int]) -> tuple[list[float], int]:
    """(floats, err) of cdf numerators for `first_max`, each exact after a
    right shift until the last fits 53 bits, so a difference of two is
    within err = 1 of the shifted true one; err = 0 where none is needed."""
    shift = cdf[-1].bit_length() - 53
    return (list(map(float, map(rshift, cdf, repeat(shift)))), 1) if shift > 0 else (list(map(float, cdf)), 0)


def _pair_sum(pairs) -> tuple[int, int]:
    """Sum of (numerator, denominator) pairs as one such pair, not reduced:
    over the larger denominator where one divides the other (always, for
    powers of two), else over their product."""
    num, den = 0, 1
    for n, d in pairs:
        if den % d == 0:
            num += n * (den // d)
        elif d % den == 0:
            num, den = num * (d // den) + n, d
        else:
            num, den = num * d + n * den, den * d
    return num, den


def interval_mass(
    m: TreeMeasure,
    iv: RationalInterval | tuple[Fraction, Fraction],
    depth: int,
) -> MassBracket:
    """Bracket mu(iv) at the query level cap = effective_depth(m, depth):
    lower is the mass of the leaves inside iv, upper the mass of the leaves
    whose interior meets iv. Each is a difference of two leaf-prefix masses
    P(j) (`LeafPrefixes.bracket`).

    Single points carry no mass, so the query is evaluated on its closed hull;
    open or half-open intervals get the same bracket as their closure. iv
    may also be a bare (lo, hi) pair of Fractions, lo <= hi; the measure
    lives on [0, 1], so only the part inside it counts.
    """
    lo, hi = (iv.lo, iv.hi) if isinstance(iv, RationalInterval) else iv
    if lo >= hi:
        if lo > hi:
            raise PreconditionViolated(f"interval [{lo}, {hi}] is reversed")
        return EXACT_ZERO
    lower, upper = LeafPrefixes(m, depth).bracket(lo, hi)
    return MassBracket(Fraction(*lower), Fraction(*upper))


def cdf(m: TreeMeasure, x: Fraction, depth: int) -> MassBracket:
    x = Fraction(x)
    if x <= 0:
        return EXACT_ZERO
    if x >= 1:
        return MassBracket(m.total_mass, m.total_mass)
    return interval_mass(m, closed(0, x), depth)


def cutout_mass(
    m: TreeMeasure, config: CutOutConfig, n_balls: int, depth: int
) -> MassBracket:
    """Bracket the mass surviving after the first n_balls are removed, every
    piece through one `LeafPrefixes` table."""
    check_depth(depth)
    table = LeafPrefixes(m, depth)
    lowers, uppers = [], []
    for piece in remaining_set(config, n_balls):
        if piece.lo < piece.hi:
            lower, upper = table.bracket(piece.lo, piece.hi)
            lowers.append(lower)
            uppers.append(upper)
    return MassBracket(Fraction(*_pair_sum(lowers)), Fraction(*_pair_sum(uppers)))


def dyadic_cdf_numerators(m: TreeMeasure, depth: int) -> tuple[list[int], int]:
    """(F, den) with F[i] / den = mu([0, i/2^depth]) exactly, for dyadic-base
    measures: the cdf grid on one common denominator, so a ratio of two grid
    masses is a ratio of two integers. Each level scales den by the lcm b of its
    share denominators: mass M, left share a / b, splits into M * a and M * (b - a)."""
    if m.base is not None:
        raise PreconditionViolated("exact cdf grid needs the dyadic base")
    if depth < 0:
        raise PreconditionViolated("depth must be >= 0")
    if depth > m.split_depth:
        raise PreconditionViolated(
            f"grid depth {depth} exceeds the measure's split depth {m.split_depth}"
        )
    check_nodes(1 << depth)
    den, masses, w = m.total_mass.denominator, [m.total_mass.numerator], m.weights
    for level in range(depth):
        if isinstance(w, BinomialWeights):
            b, a = w.p.denominator, w.p.numerator
            left, right = repeat(a), repeat(b - a)
        else:  # depth <= split_depth: every level is in the table
            b = lcm(*(share.denominator for share in w.levels[level]))
            left = [share.numerator * (b // share.denominator) for share in w.levels[level]]
            right = [b - a for a in left]
        nxt = masses * 2
        nxt[::2], nxt[1::2] = map(mul, masses, left), map(mul, masses, right)
        masses = nxt
        den *= b
    return list(accumulate(masses, initial=0)), den


def dyadic_cdf_grid(m: TreeMeasure, depth: int) -> list[Fraction]:
    """F[i] = mu([0, i/2^depth]) exactly, for dyadic-base measures."""
    nums, den = dyadic_cdf_numerators(m, depth)
    return [Fraction(n, den) for n in nums]


def restrict(
    m: TreeMeasure, tree: ConstructionTree, eval_depth: int | None = None
) -> TreeMeasure:
    """Renormalized trace of m on a construction tree.

    Each target node's left share is the midpoint ratio of the children's mass
    brackets, evaluated at eval_depth (default: tree depth + 6). Nodes whose
    upper mass vanishes mean the tree lives where m has no mass.

    Every node is bracketed once from the tree's integer edges, through one
    `LeafPrefixes` table whose prefixes the levels share and whose unit the
    leaves' denominator divides, so a share (L_l + U_l) / (L_l + U_l + L_r +
    U_r) and the leaf total are built from integers.
    """
    if eval_depth is None:
        eval_depth = tree.depth + 6
    table = LeafPrefixes(m, eval_depth, tree.edges[tree.depth][0])

    def brackets(level: int) -> tuple:
        den, lows, highs = tree.edges[level]
        step = repeat(table.unit // den)  # a child keeps its parent's outer ends
        return tuple(zip(*map(table.bracket_units, map(mul, lows, step), map(mul, highs, step))))

    lower, upper = brackets(0)
    if upper[0][0] == 0:  # the root's upper mass
        raise MisalignedTrees("the measure puts no mass on the tree's root")
    rows: list[tuple[Fraction, ...]] = []
    for level in range(tree.depth):
        lower, upper = brackets(level + 1)
        sums = list(map(_pair_sum, zip(lower, upper)))  # L + U
        row = []
        for index in range(1 << level):
            (ln, ld), (rn, rd) = sums[2 * index], sums[2 * index + 1]
            if ln == 0 or rn == 0:
                raise MisalignedTrees(
                    f"node ({level}, {index}) splits with a vanishing side"
                )
            row.append(Fraction(ln * rd, ln * rd + rn * ld))
        rows.append(tuple(row))
    # lower and upper now hold the brackets of the leaves
    leaf_total = MassBracket(Fraction(*_pair_sum(lower)), Fraction(*_pair_sum(upper)))
    weights = TableWeights(tuple(rows))
    # total mass = the surviving-set mass at the build depth (midpoint of the
    # certified bracket; the bracket itself rides along for consumers)
    return TreeMeasure(weights=weights, base=tree, total_mass=leaf_total.midpoint, base_mass_bracket=leaf_total)


# --- JSON round trip ----------------------------------------------------------

def measure_to_spec(m: TreeMeasure) -> dict:
    if m.base is not None:
        raise PreconditionViolated("only dyadic-base measures serialize")
    out: dict = {"total_mass": str(m.total_mass)}
    if isinstance(m.weights, BinomialWeights):
        out["kind"] = "binomial"
        out["p"] = str(m.weights.p)
    else:
        out["kind"] = "table"
        out["weights"] = [[str(w) for w in row] for row in m.weights.levels]
    return out


def measure_from_spec(data: dict) -> TreeMeasure:
    if not isinstance(data, dict):
        raise PreconditionViolated("a measure spec must be a JSON object")
    kind = data.get("kind")
    total = parse_rational(str(data.get("total_mass", "1")))
    if kind == "binomial":
        if "p" not in data:
            raise PreconditionViolated("a binomial measure spec needs \"p\"")
        return TreeMeasure(BinomialWeights(parse_rational(str(data["p"]))), total_mass=total)
    if kind == "table":
        rows = data.get("weights")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise PreconditionViolated(
                "a table measure spec needs \"weights\": a list of lists"
            )
        levels = tuple(tuple(parse_rational(str(w)) for w in row) for row in rows)
        return TreeMeasure(TableWeights(levels), total_mass=total)
    raise PreconditionViolated(f"unknown measure kind {kind!r}")
