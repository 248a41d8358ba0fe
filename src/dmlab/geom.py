"""Exact geometry on the unit interval.

Everything here is a finite union of intervals with rational endpoints:
Cantor-type construction trees (split each piece in two around an open middle
gap), cut-out configurations (remove a sequence of closed balls), dyadic
porous stages, and gap-with-witness structures whose conditions certify that
the residual set keeps mass under controlled-doubling measures.

Endpoint bookkeeping is explicit: removed middles are open, removed balls are
closed, so complements carry per-side openness flags instead of an epsilon.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter
from typing import Iterator, NamedTuple

from .errors import (
    DepthBudgetExceeded,
    EmptyRemainder,
    FailsThickness,
    InvalidFamily,
    NodeBudgetExceeded,
    PreconditionViolated,
)
from .ratio import Value
from .seq import Geometric, SequenceFamily, term

DEFAULT_CAPS = {"depth": 32, "nodes": 1 << 20}

_SCOPED_CAPS: ContextVar[dict] = ContextVar("caps", default={})


@contextmanager
def caps(max_depth: int | None = None, max_nodes: int | None = None) -> Iterator[None]:
    """Within the block, every depth and node check uses these caps (None
    keeps the environment override or the default)."""
    token = _SCOPED_CAPS.set({"depth": max_depth, "nodes": max_nodes})
    try:
        yield
    finally:
        _SCOPED_CAPS.reset(token)


def resolve_cap(kind: str) -> int:
    """The "depth" or "nodes" cap: a `caps` scope beats DMLAB_MAX_DEPTH /
    DMLAB_MAX_NODES beats the default."""
    cap = _SCOPED_CAPS.get().get(kind)
    if cap is not None:
        return cap
    name = f"DMLAB_MAX_{kind.upper()}"
    env = os.environ.get(name)
    if env is None:
        return DEFAULT_CAPS[kind]
    try:
        return int(env)
    except ValueError as exc:
        raise PreconditionViolated(f"bad {name} {env!r}") from exc


def check_depth(depth: int) -> None:
    cap = resolve_cap("depth")
    if depth < 0:
        raise PreconditionViolated("depth must be >= 0")
    if depth > cap:
        raise DepthBudgetExceeded(f"depth {depth} exceeds cap {cap}")


def check_nodes(count: int) -> None:
    """Refuse to materialize `count` entries beyond the node cap; call it
    before the allocation."""
    cap = resolve_cap("nodes")
    if count > cap:
        raise NodeBudgetExceeded(f"{count} nodes exceed the node cap {cap}")


class RationalInterval(Value):
    """Subinterval of [0,1] with exact endpoints and per-side openness."""

    __slots__ = _fields = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo: Fraction, hi: Fraction, lo_open: bool = False, hi_open: bool = False) -> None:
        # a Fraction is kept as given; the checks cross-multiply its integers, since
        # comparing two Fractions dispatches through the numbers.Rational ABC
        lo = lo if type(lo) is Fraction else Fraction(lo)
        hi = hi if type(hi) is Fraction else Fraction(hi)
        (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
        if not (0 <= ln and ln * hd <= hn * ld and hn <= hd):
            fault = "is reversed" if ln * hd > hn * ld else "must sit inside [0, 1]"
            raise PreconditionViolated(f"interval [{lo}, {hi}] {fault}")
        if (lo_open or hi_open) and ln * hd == hn * ld:
            raise PreconditionViolated("degenerate interval cannot be open")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_open", lo_open)
        object.__setattr__(self, "hi_open", hi_open)

    @property
    def diameter(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_point(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True


def closed(lo, hi) -> RationalInterval:
    return RationalInterval(lo, hi)


def open_interval(lo, hi) -> RationalInterval:
    return RationalInterval(lo, hi, True, True)


def intervals_intersect(a: RationalInterval, b: RationalInterval) -> bool:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return False
    if lo < hi:
        return True
    return a.contains_point(lo) and b.contains_point(lo)


def interval_contains(outer: RationalInterval, inner: RationalInterval) -> bool:
    """inner is a subset of outer, as point sets."""
    if inner.lo < outer.lo or inner.hi > outer.hi:
        return False
    if inner.lo == outer.lo and outer.lo_open and not inner.lo_open:
        return False
    if inner.hi == outer.hi and outer.hi_open and not inner.hi_open:
        return False
    return True


def _merged(pieces) -> list[list]:
    """The union of the pieces as maximal components [lo, hi, lo_open,
    hi_open], in order: two pieces merge when the meeting point belongs to at
    least one of them."""
    out: list[list] = []
    for lo, hi, lo_open, hi_open in sorted(((p.lo, p.hi, p.lo_open, p.hi_open) for p in pieces), key=itemgetter(0, 2)):
        cur = out[-1] if out else None
        if cur is None or lo > cur[1] or lo == cur[1] and lo_open and cur[3]:
            out.append([lo, hi, lo_open, hi_open])
        elif hi > cur[1]:
            cur[1], cur[3] = hi, hi_open
        elif hi == cur[1]:
            cur[3] = cur[3] and hi_open
    return out


def merge_components(pieces: list[RationalInterval]) -> list[RationalInterval]:
    """Union as maximal components (two pieces merge when the meeting point
    belongs to at least one of them)."""
    return [RationalInterval(*span) for span in _merged(pieces)]


def union_length(pieces: list[RationalInterval]) -> Fraction:
    return sum((hi - lo for lo, hi, _, _ in _merged(pieces)), Fraction(0))


def subtract_intervals(piece: RationalInterval, cuts: list[RationalInterval]) -> list[RationalInterval]:
    """piece minus the union of cuts, honoring openness on both sides: a
    sweep over the cuts' components, on end tuples (lo, hi, lo_open,
    hi_open) until the pieces it returns."""
    plo, phi, plo_open, phi_open = piece.lo, piece.hi, piece.lo_open, piece.hi_open
    out: list[tuple] = []
    cur, cur_in = plo, not plo_open
    for lo, hi, lo_open, hi_open in _merged(cuts):
        if hi < plo or hi == plo and (hi_open or plo_open):  # left of the piece
            continue
        if lo > phi or lo == phi and (lo_open or phi_open):  # right of it
            break
        s, s_kept = (lo, lo_open) if lo >= plo else (plo, False)  # s_kept: the point s survives the cut
        if s > cur:
            # the cut keeps its open left endpoint inside the piece
            out.append((cur, s, not cur_in, not s_kept or s == phi and phi_open))
        elif s == cur and cur_in and s_kept:
            out.append((cur, cur, False, False))
        if hi >= phi:
            cur, cur_in = phi, hi_open and hi == phi and not phi_open
            break
        cur, cur_in = hi, hi_open
    if cur < phi:
        out.append((cur, phi, not cur_in, phi_open))
    elif cur == phi and cur_in and not phi_open:
        out.append((cur, cur, False, False))
    return [RationalInterval(*span) for span in out]


def max_overlap(pieces: list[RationalInterval]) -> tuple[int, Fraction | None]:
    """Largest number of pieces sharing a point, with a witness point."""
    if not pieces:
        return 0, None
    points = sorted({p.lo for p in pieces} | {p.hi for p in pieces})
    best, witness = 0, None
    for x in sorted(points + [(a + b) / 2 for a, b in zip(points, points[1:])]):
        cover = sum(1 for p in pieces if p.contains_point(x))
        if cover > best:
            best, witness = cover, x
    return best, witness


# --- Cantor-type construction trees -----------------------------------------

class ConstructionTree(Value):
    """Nested splitting of [0,1]: level-k pieces split in two around an open
    middle gap occupying fraction beta_(k+1) of the parent.

    `edges[k]` is level k as (den, lows, highs), k = 0..depth: the node ends
    as integer numerators over one reduced common denominator, in node order.
    Both tuples ascend because each level is sorted and disjoint. `nodes` and
    `gaps` are read off them as intervals when first asked for, and cached
    in the tree's `__dict__`."""

    _fields = ("beta", "depth", "edges", "perfectness_constant")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, beta: SequenceFamily, depth: int, edges: tuple,
                 perfectness_constant: Fraction | None = None) -> None:
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "perfectness_constant", perfectness_constant)

    @cached_property
    def nodes(self) -> tuple[tuple[RationalInterval, ...], ...]:  # levels 0..depth
        return tuple(tuple(closed(Fraction(lo, den), Fraction(hi, den)) for lo, hi in zip(lows, highs))
                     for den, lows, highs in self.edges)

    @cached_property
    def gaps(self) -> tuple[tuple[RationalInterval, ...], ...]:  # gaps[k]: middles of level-k nodes
        return tuple(tuple(open_interval(Fraction(a, den), Fraction(b, den))
                           for a, b in zip(highs[::2], lows[1::2]))
                     for den, lows, highs in self.edges[1:])

    def level_length(self, level: int) -> Fraction:
        den, lows, highs = self.edges[level]
        return Fraction(sum(highs) - sum(lows), den)


def build_cantor(beta: SequenceFamily, depth: int) -> ConstructionTree:
    """Construct the tree to the given depth; splitting into level k uses the
    k-th gap fraction, so the level-k length sum is prod_{j<=k} (1 - beta_j).

    Each level's nodes are emitted left to right, sorted and pairwise
    disjoint (children of a node sit on either side of its open middle gap):
    the leaf bisections of `measure.LeafPrefixes` rely on it, and so
    `interval_mass`, `cutout_mass`, `restrict` and the doubling scan's ball
    oracle do. Over den * 2 * denominator(beta_k), a child's inner end lies
    (denominator - numerator) * (hi - lo) in from its parent's outer end;
    each level is then reduced by the gcd of its denominator and ends."""
    check_depth(depth)
    check_nodes(1 << depth)
    den, lows, highs = 1, (0,), (1,)
    edges = [(den, lows, highs)]
    worst: Fraction | None = None
    for k in range(1, depth + 1):
        b = term(beta, k)
        if not 0 < b < 1:
            raise InvalidFamily(f"gap fraction at level {k} must be in (0,1), got {b}")
        worst = b if worst is None or b > worst else worst
        scale, cut = 2 * b.denominator, b.denominator - b.numerator
        kid_lows, kid_highs = [], []
        for lo, hi in zip(lows, highs):
            inner = cut * (hi - lo)
            lo, hi = lo * scale, hi * scale
            kid_lows += (lo, hi - inner)
            kid_highs += (lo + inner, hi)
        g = gcd(den * scale, *kid_lows, *kid_highs)
        den, lows, highs = den * scale // g, tuple(v // g for v in kid_lows), tuple(v // g for v in kid_highs)
        edges.append((den, lows, highs))
    perfectness = None if worst is None else (1 + worst) / (1 - worst)
    return ConstructionTree(beta=beta, depth=depth, edges=tuple(edges), perfectness_constant=perfectness)


def realized_beta_max(tree: ConstructionTree) -> Fraction | None:
    if tree.depth == 0:
        return None
    return max(term(tree.beta, k) for k in range(1, tree.depth + 1))


# --- Cut-out configurations --------------------------------------------------

class CutOutConfig(Value):
    """Closed balls to remove from [0,1], with a declared family bounding
    the ball diameters."""

    __slots__ = _fields = ("balls", "diam_family")

    def __init__(self, balls: tuple[RationalInterval, ...], diam_family: SequenceFamily | None = None) -> None:
        balls = tuple(balls)
        for b in balls:
            if b.lo_open or b.hi_open:
                raise PreconditionViolated("cut-out balls must be closed")
        object.__setattr__(self, "balls", balls)
        object.__setattr__(self, "diam_family", diam_family)

    def validate_diameters(self) -> None:
        if self.diam_family is None:
            raise PreconditionViolated("no diameter family declared")
        for i, b in enumerate(self.balls, start=1):
            bound = term(self.diam_family, i)
            if b.diameter > bound:
                raise PreconditionViolated(f"ball {i} has diameter {b.diameter} > declared bound {bound}")


def nested_cutout(count: int) -> CutOutConfig:
    """The nested balls [0, 2^-i], i = 1..count, with the declared diameter
    family Geometric(1/2, 1/2)."""
    zero = Fraction(0)
    balls = [closed(zero, Fraction(1, 1 << i)) for i in range(1, count + 1)]
    return CutOutConfig(balls, diam_family=Geometric(Fraction(1, 2), Fraction(1, 2)))


def remaining_set(config: CutOutConfig, n_balls: int) -> list[RationalInterval]:
    """Exact components of ([0,1] minus the first n_balls closed balls)."""
    if n_balls < 0 or n_balls > len(config.balls):
        raise PreconditionViolated(f"n_balls must be in [0, {len(config.balls)}]")
    return subtract_intervals(closed(0, 1), config.balls[:n_balls])


def largest_gap(pieces: list[RationalInterval], n_balls: int) -> tuple[RationalInterval, Fraction]:
    """Maximal-diameter component (leftmost on ties) of `pieces`, the set left by the first n_balls balls."""
    if not pieces:
        raise EmptyRemainder(f"nothing survives the first {n_balls} balls")
    gap = max(pieces, key=lambda p: p.hi - p.lo)  # max keeps the first of equals
    return gap, gap.diameter


def inflate(config: CutOutConfig, n_balls: int, zeta: Fraction) -> list[RationalInterval]:
    """Enlarge each of the first n_balls by zeta on both sides, clipped to
    [0,1]; deliberately does not merge overlapping results."""
    zeta = Fraction(zeta)
    if zeta <= 0:
        raise PreconditionViolated("inflation amount must be > 0")
    out = []
    for b in config.balls[:n_balls]:
        out.append(closed(max(Fraction(0), b.lo - zeta), min(Fraction(1), b.hi + zeta)))
    return out


# --- Gap structures with witness balls ---------------------------------------

class ThickPair(NamedTuple):
    piece: RationalInterval  # I
    gap: RationalInterval  # J, the open part removed inside I
    witness_center: Fraction
    witness_radius: Fraction


class ThickStructure(NamedTuple):
    """Levelwise (piece, gap) pairs with witness balls.

    Conditions checked by verify_thick:
      i    every piece lies in [0,1] and each gap inside its piece
      ii   at each level no point lies in more than overlap_bound pieces
      iii  c * diam(gap) <= alpha_n * diam(piece)
      iv   the witness ball (radius >= c * diam(piece)) sits inside its piece
           and misses every earlier-level gap
      v    union of pieces minus all gaps stays inside the declared target
    """

    levels: tuple[tuple[ThickPair, ...], ...]
    overlap_bound: int
    witness_constant: Fraction
    alpha: SequenceFamily
    target: tuple[RationalInterval, ...] | None = None


class ThickViolation(NamedTuple):
    condition: str  # one of "i".."v"
    level: int  # 1-based structure level
    index: int
    detail: str


class ThickVerdict(NamedTuple):
    valid: bool
    violations: tuple[ThickViolation, ...] = ()


def verify_thick(ts: ThickStructure) -> ThickVerdict:
    """Check conditions i..v exactly; violations are returned, not thrown."""
    bad: list[ThickViolation] = []
    c = Fraction(ts.witness_constant)
    if not 0 < c <= 1:
        bad.append(ThickViolation("iv", 0, 0, f"witness constant {c} outside (0,1]"))
    for n, pairs in enumerate(ts.levels, start=1):
        a_n = term(ts.alpha, n)
        for j, pair in enumerate(pairs):
            if not interval_contains(pair.piece, pair.gap):
                bad.append(ThickViolation("i", n, j, "gap escapes its piece"))
            if c * pair.gap.diameter > a_n * pair.piece.diameter:
                bad.append(ThickViolation("iii", n, j, f"c*diam(gap)={c * pair.gap.diameter} exceeds "
                                                       f"alpha_n*diam(piece)={a_n * pair.piece.diameter}"))
            radius = Fraction(pair.witness_radius)
            if radius < c * pair.piece.diameter or radius <= 0:
                bad.append(ThickViolation("iv", n, j, "witness radius below c * diam(piece)"))
                continue
            lo = pair.witness_center - radius
            hi = pair.witness_center + radius
            if lo < pair.piece.lo or hi > pair.piece.hi:
                bad.append(ThickViolation("iv", n, j, "witness ball escapes the piece"))
                continue
            ball = closed(lo, hi)
            hit = next(((k + 1, g) for k in range(n - 1) for g, earlier in enumerate(ts.levels[k])
                        if intervals_intersect(ball, earlier.gap)), None)
            if hit:
                bad.append(ThickViolation("iv", n, j, f"witness ball meets the level-{hit[0]} gap {hit[1]}"))
        count, witness = max_overlap([pair.piece for pair in pairs])
        if count > ts.overlap_bound:
            bad.append(ThickViolation("ii", n, -1, f"{count} pieces share the point {witness}"))
    if ts.target is not None and ts.levels:
        shell = merge_components([pair.piece for pairs in ts.levels for pair in pairs])
        gaps = [pair.gap for pairs in ts.levels for pair in pairs]
        residual = [rest for piece in shell for rest in subtract_intervals(piece, gaps)]
        target = merge_components(list(ts.target))
        for piece in residual:
            if not any(interval_contains(t, piece) for t in target):
                bad.append(ThickViolation("v", 0, -1, f"residual piece [{piece.lo}, {piece.hi}] leaves the target"))
                break
    return ThickVerdict(valid=not bad, violations=tuple(bad))


MIN_WITNESS_CONSTANT = Fraction(1, 1 << 16)


def thick_from_cantor(tree: ConstructionTree) -> ThickStructure:
    """Read the construction tree as a gap structure: level n pairs each
    level-(n-1) node with its removed middle, and puts the witness ball at the
    midpoint of the node's left child, radius c * diam(node) for
    c = min(1, (1 - beta_max)/4)."""
    if tree.depth == 0:
        # degenerate: no splits yet, so no gap/piece pairs; vacuously valid
        return ThickStructure(levels=(), overlap_bound=1, witness_constant=Fraction(1, 4), alpha=tree.beta,
                              target=tree.nodes[0])
    beta_max = realized_beta_max(tree)
    c = min(Fraction(1), (1 - beta_max) / 4)
    if c < MIN_WITNESS_CONSTANT:
        raise FailsThickness(f"witness constant {c} below the floor {MIN_WITNESS_CONSTANT}")
    # node j of level n - 1, its gap, and the midpoint of its left child, node 2j of level n
    levels = tuple(tuple(ThickPair(piece, tree.gaps[n - 1][j], tree.nodes[n][2 * j].midpoint, c * piece.diameter)
                         for j, piece in enumerate(tree.nodes[n - 1])) for n in range(1, tree.depth + 1))
    return ThickStructure(levels=levels, overlap_bound=1, witness_constant=c, alpha=tree.beta,
                          target=tree.nodes[tree.depth])
