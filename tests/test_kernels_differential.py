"""The fast kernels against the Fraction loops they replaced.

`scan_core`, `per_scale_max_ratios`, `fit_ratio_decay`, `fit_mass_window`,
`qs_ratio_scan`, `restrict` and `verify_small_ball_bound` must give the same
values, witnesses, notes and errors as the oracles in helpers.py, on the
exact dyadic grid and on the bracket path, and `doubling_scan` the report
built from them; `interval_mass` and `cutout_mass` must give the same
brackets as the recursive node walk. `log2_bounds`, `exp2_bounds`,
`pow_bounds` and `pow_end` must give the same ends and refusals as the
Fraction enclosures they replaced, and `iroot` the same roots as Newton's
iteration. `seq.terms` and `seq.term` must give the values of each family's
Fraction formula, and `_power_ends`, `_exact_rational_pow` and `_log2_end`
on integer pairs, unreduced ones included, the values of their Fraction
forms. `certify_fat_thick` and `product_bracket` must give the same
certificates, refusals and `tag_product` reports as the Fraction loops they
replaced, and `ProductBracket`'s readings at working precision the answers of
Fraction comparisons with the exact products, near and on their ends. The scan's row pass,
with its float filter `first_max`, is checked against per-ball Fraction
ratios, float ties included. The ratio-decay fit's concentric rows must give
the maxima of its per-ball stage, the level-wise cdf the cdf of rational
splitting, `randbelow` the draws of `randrange`, and `power_tail_upper`,
`power_tail_lower` and `cutout_lower_bound` the values of their
`Fraction`-sum loops, heads across powers of two and perfect k-th powers
included. `remaining_set`, `largest_gap`, `merge_components` and
`union_length` must give the components of a sweep line on closed spans.
The fits' exponent search must find the plain
bisection's exponent whatever its float guess, and `decimal_str` on
integers the strings of its `Fraction` form.
"""

import functools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmlab import enclosure
from dmlab.certify import (
    ProductBracket,
    certify_fat_thick,
    cutout_lower_bound,
    power_tail_lower,
    power_tail_upper,
    product_bracket,
)
from dmlab.doubling import (
    SmallBallCase,
    SmallBallResult,
    T_MAX,
    _MassOracle,
    _concentric_maxima,
    _guess_steps,
    _largest_within,
    doubling_scan,
    fit_mass_window,
    fit_ratio_decay,
    per_scale_max_ratios,
    scan_core,
    verify_small_ball_bound,
)
from dmlab.enclosure import (
    Bounds,
    _exact_rational_pow,
    _exp2_end,
    _log2_end,
    _power_ends,
    exp2_64ths,
    exp2_bounds,
    iroot,
    log2_bounds,
    pow_bounds,
    pow_end,
)
from dmlab.errors import InvalidFamily
from dmlab.geom import (
    CutOutConfig,
    RationalInterval,
    build_cantor,
    closed,
    largest_gap,
    merge_components,
    nested_cutout,
    remaining_set,
    thick_from_cantor,
    union_length,
)
from dmlab.measure import (
    EXACT_ZERO,
    BinomialWeights,
    LeafPrefixes,
    TableWeights,
    TreeMeasure,
    cutout_mass,
    dyadic_cdf_numerators,
    interval_mass,
    restrict,
)
from dmlab.ratio import decimal_str, first_max, randbelow
from dmlab.qs import DEFAULT_TAUS, qs_ratio_scan
from dmlab.reports import tag_product
from dmlab.seq import Constant, ExplicitFinite, Geometric, LogFloor, Power, Scaled, term, terms

from helpers import (
    BallOracle,
    bracket_oracle,
    build_cantor_oracle,
    cdf_grid_oracle,
    certify_fat_thick_oracle,
    closed_union_oracle,
    concentric_maxima_oracle,
    cutout_lower_bound_oracle,
    decimal_str_oracle,
    exact_rational_pow_oracle,
    exp2_bounds_oracle,
    iroot_newton_oracle,
    product_bracket_oracle,
    product_readings_oracle,
    log2_bounds_oracle,
    pow_bounds_oracle,
    doubling_scan_oracle,
    fit_mass_window_oracle,
    first_max_oracle,
    fit_ratio_decay_oracle,
    interval_mass_recursive_oracle,
    largest_within_oracle,
    leaf_prefix_oracle,
    per_scale_oracle,
    power_tail_lower_oracle,
    power_tail_upper_oracle,
    qs_ratio_scan_oracle,
    remaining_set_oracle,
    restrict_oracle,
    scan_core_oracle,
    small_ball_refusal_oracle,
    tag_product_oracle,
    term_oracle,
    union_length_oracle,
    verify_small_ball_exact_oracle,
    verify_small_ball_oracle,
)


def _share(max_den: int, min_den: int = 2):
    return st.integers(min_den, max_den).flatmap(
        lambda d: st.integers(1, d - 1).map(lambda n: Fraction(n, d))
    )


# one-digit and three-to-four-digit denominators
shares = st.one_of(_share(9), _share(9999, min_den=100))
totals = st.one_of(st.just(Fraction(1)), _share(30).map(lambda f: 1 / f))


@st.composite
def binomials(draw):
    return TreeMeasure(BinomialWeights(draw(shares)), total_mass=draw(totals))


@st.composite
def tables(draw, levels):
    # a few drawn shares spread over the table by a drawn seed, so that deep
    # tables stay cheap to generate
    n = draw(levels)
    pool = draw(st.lists(shares, min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    rows = tuple(tuple(rng.choice(pool) for _ in range(1 << k)) for k in range(n))
    return TreeMeasure(TableWeights(rows), total_mass=draw(totals))


@st.composite
def grid_cases(draw, min_depth=1, max_depth=8):
    """A measure with a cdf grid at depth + 1: binomial, or a deep table."""
    depth = draw(st.integers(min_depth, max_depth))
    m = draw(st.one_of(binomials(), tables(st.integers(depth + 1, depth + 2))))
    return m, depth


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the same refusal, with the same message
        return type(exc).__name__, str(exc)


def _scan(m, depth):
    def run():
        res = scan_core(m, depth)
        w = res.witness
        return (res.c_upper, res.c_lower, (w.x, w.r, w.ratio_lower), res.exact, list(res.notes))

    return _outcome(run)


def _check_scan(m, depth):
    oracle = BallOracle(m, depth)
    assert _scan(m, depth) == _outcome(lambda: scan_core_oracle(oracle))
    if not m.total_mass:  # the per-scale maxima refuse the zero measure as the scan does
        assert _outcome(lambda: per_scale_max_ratios(m, depth)) == _scan(m, depth)
        return
    expected = per_scale_oracle(oracle)
    assert per_scale_max_ratios(m, depth) == expected
    assert list(scan_core(m, depth).per_scale) == expected


@st.composite
def equal_share_tables(draw, levels):
    """A table of one share at every node (1/2 among them): ratios of
    different balls tie exactly."""
    n = draw(levels)
    w = draw(st.one_of(st.just(Fraction(1, 2)), shares))
    return TreeMeasure(TableWeights(tuple((w,) * (1 << k) for k in range(n))), total_mass=draw(totals))


# shares within 1/1000 of 0 or 1: at depth 6 and more, balls of nearly
# equal mass give ratios whose floats tie although they differ
extreme_shares = st.integers(1000, 9999).flatmap(
    lambda d: st.sampled_from([Fraction(1, d), Fraction(d - 1, d)]))
extreme_binomial_cases = st.tuples(extreme_shares.map(lambda p: TreeMeasure(BinomialWeights(p))),
                                   st.integers(6, 9))
# equal-share tables deeper than the scan: exact ties on the grid
deep_equal_share_cases = st.integers(1, 7).flatmap(
    lambda d: st.tuples(equal_share_tables(st.integers(d + 1, 8)), st.just(d)))


@settings(max_examples=25, deadline=None)
@given(st.one_of(grid_cases(), extreme_binomial_cases, deep_equal_share_cases))
@example((TreeMeasure(BinomialWeights(Fraction(1, 9999))), 8))
@example((TreeMeasure(BinomialWeights(Fraction(9998, 9999))), 8))
@example((TreeMeasure(BinomialWeights(Fraction(1, 10**9))), 4))
def test_grid_scan_matches_oracle(case):
    """On the exact grid, float ties included, whether the ratios differ
    (extreme shares, down to masses whose shifted floats are 0 beside huge
    ones) or tie exactly (equal shares)."""
    _check_scan(*case)


@st.composite
def gap_families(draw):
    """Constant, geometric and power gap fractions, all below 15/16, so the
    ratio fit's perfectness guard lets every tree through."""
    a = Fraction(draw(st.integers(1, 14)), 16)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Constant(a)
    if kind == 1:
        return Geometric(a, Fraction(draw(st.integers(1, 3)), 4))
    return Power(a, draw(st.integers(1, 2)), draw(st.integers(0, 2)))


@st.composite
def cantor_measures(draw, max_depth=5):
    """A binomial or table measure restricted to a Cantor tree: gaps carry
    no mass, so some balls have none."""
    tree = build_cantor(draw(gap_families()), draw(st.integers(0, max_depth)))
    return restrict(draw(st.one_of(binomials(), tables(st.integers(1, 8)))), tree)


def _shallow(make_table):
    # tables shallower than the scan: depth + 1 > levels
    return st.integers(1, 5).flatmap(lambda n: st.tuples(make_table(st.just(n)), st.integers(n, 6)))


# trees deeper and shallower than scans of depth up to 6
cantor_cases = st.tuples(cantor_measures(max_depth=6), st.integers(1, 6))
shallow_table_cases = _shallow(tables)


# a leaf of mass 10^-18 of the total: past 53 bits its lower masses read 0 as floats
TINY_LEAF_TABLE = TreeMeasure(TableWeights(((Fraction(1, 10**9),), (Fraction(1, 10**9), Fraction(1, 2)))))


@settings(max_examples=20, deadline=None)
@given(st.one_of(shallow_table_cases, _shallow(equal_share_tables)))
@example((TINY_LEAF_TABLE, 4))
def test_shallow_table_scan_matches_oracle(case):
    _check_scan(*case)


@settings(max_examples=25, deadline=None)
@given(cantor_cases)
@example((restrict(TreeMeasure(BinomialWeights(Fraction(1, 10**9))), build_cantor(Constant(Fraction(1, 4)), 4)), 4))
def test_cantor_scan_matches_oracle(case):
    # both skip rules run where small balls fall in gaps
    _check_scan(*case)


def test_zero_measure_per_scale_matches_oracle():
    m = TreeMeasure(BinomialWeights(Fraction(1, 3)), total_mass=Fraction(0))
    _check_scan(m, 4)


# binomials (Lebesgue and extreme shares among them), equal-share tables and
# Cantor-tree measures, whose balls in gaps and symmetric trees give exact ties
row_pass_cases = st.one_of(
    st.tuples(st.one_of(binomials(), st.just(TreeMeasure(BinomialWeights(Fraction(1, 2))))),
              st.integers(1, 8)),
    extreme_binomial_cases,
    st.tuples(equal_share_tables(st.integers(1, 8)), st.integers(1, 8)),
    cantor_cases,
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(row_pass_cases, shallow_table_cases))
@example((TreeMeasure(BinomialWeights(Fraction(1, 2))), 8))
@example((TreeMeasure(BinomialWeights(Fraction(1, 10**9))), 4))
@example((restrict(TreeMeasure(BinomialWeights(Fraction(1, 10**9))), build_cantor(Constant(Fraction(1, 4)), 4)), 4))
@example((TINY_LEAF_TABLE, 4))
def test_concentric_rows_match_per_ball_stage(case):
    """The ratio-decay fit's concentric stage in rows gives the per-l first
    maxima and the pair count of the per-ball stage."""
    m, depth = case
    top, pairs = _concentric_maxima(_MassOracle(m, depth), depth)
    want_top, want_pairs = concentric_maxima_oracle(m, depth)
    assert pairs == want_pairs
    assert {l: Fraction(*v) for l, v in top.items()} == want_top


@settings(max_examples=60, deadline=None)
@given(st.one_of(binomials(), st.just(TreeMeasure(BinomialWeights(Fraction(1, 2)))), tables(st.integers(1, 9)),
                 equal_share_tables(st.integers(1, 8))),
       st.integers(0, 9))
def test_cdf_levels_match_per_node_loop(m, depth):
    """A binomial level as one pair of list products and a table level from
    its stored shares give the cdf of rational splitting, one left_share per
    node."""
    depth = min(depth, m.split_depth)
    nums, den = dyadic_cdf_numerators(m, depth)
    assert [Fraction(n, den) for n in nums] == cdf_grid_oracle(m, depth)


def _float_rows(nums, dens, drop=(), err=None, nudge=()):
    """`first_max`'s rows for exact rows nums / dens: the integers as floats
    (err 0; exact is not called) where all fit 53 bits and err is not asked
    for, else the values shifted right until they fit 52 bits, floored
    (within 1), moved by nudge[i] (in [-1, 1]) times err - 1, clipped to [0,
    2^53] and, for a positive value that came out 0, set to 1, so within
    err; an index in drop gets num -inf, and a zero denominator stays 0,
    which drops it too."""
    shift = max(max(nums + dens).bit_length() - 52, 0) if err or max(nums + dens) >> 53 else None
    if shift is None:
        num, den, err = list(map(float, nums)), list(map(float, dens)), 0
    else:
        err = err or 1
        moved = lambda v, i: min(max(float(v >> shift) + (nudge[i] if i < len(nudge) else 0) * (err - 1), 0.0),
                                 2.0**53) or float(v > 0)
        num, den = [moved(n, i) for i, n in enumerate(nums)], [moved(d, i + 1) for i, d in enumerate(dens)]
    num = [-float("inf") if i in drop else n for i, n in enumerate(num)]

    def exact(idx):
        assert err and idx == sorted(idx) and not set(idx) & set(drop)
        return [nums[i] for i in idx], [dens[i] for i in idx]

    return num, den, err, exact


def _first_max_checked(nums, dens, drop=(), err=None, nudge=()):
    """first_max on the float rows of nums / dens, against the exact loop
    with the dropped entries' denominators set to 0."""
    got = first_max(*_float_rows(nums, dens, drop, err, nudge))
    want = first_max_oracle(nums, [0 if i in drop else d for i, d in enumerate(dens)])
    assert got == (None if want is None else (want, nums[want], dens[want]))
    assert got is None or type(got[1]) is type(got[2]) is int
    return got and got[0]


def test_first_max_decides_float_ties_exactly():
    """Entries whose floats tie are compared exactly: the later, larger one
    wins, and of two equal ones the first; a dropped entry never wins, and
    a zero denominator drops its entry, and a ratio past the float range
    leaves the exact comparison to decide."""
    big = 10 ** 40
    assert _first_max_checked([big, big + 1, big + 1], [1, 1, 1]) == 1
    assert _first_max_checked([1, 5, 5], [1, 1, 1], drop={0}) == 1
    assert _first_max_checked([1, 2], [1, 1], drop={0, 1}) is None
    assert _first_max_checked([1, 2, 1], [0, 0, 3]) == 2
    huge = 1 << 2000
    assert _first_max_checked([huge, huge + 1, 3], [1, 1, 1]) == 1
    assert _first_max_checked([3, huge, huge + 1], [1, 1, 1]) == 2


@st.composite
def max_rows(draw):
    """Exact rows for `first_max`: small integers with many exact ties (1/2
    = 2/4, and a Lebesgue row of one ratio but at its ends); ratios near 1
    with terms from 2^25 to 2^28 and past 2^53, where (n + 2) / (n + 1) and
    (n + 1) / n differ by a few ulps or less after the shift; terms on both
    sides of 2^25, the bound of the tied-row shortcut; tiny denominators
    beside huge masses; and tree-like rows of one ratio at many scales. Each
    comes with entries to drop, a slack and nudges within it."""
    small = st.integers(0, 6)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        entries = st.tuples(small, st.integers(1, 6))
    elif kind == 1:
        n = draw(st.one_of(st.integers(1 << 25, 1 << 28), st.integers(1 << 53, 1 << 120)))
        entries = st.one_of(st.sampled_from([(n + 1, n), (n + 2, n + 1), (n + 3, n + 2), (n, n)]),
                            st.tuples(small, st.integers(1, 6)))
    elif kind == 2:
        near = st.integers((1 << 25) - 3, (1 << 25) + 3)
        entries = st.one_of(st.tuples(near, near), st.tuples(small, st.integers(1, 6)))
    elif kind == 3:  # masses of 1 unit or less after the shift beside huge ones
        huge = st.integers(1 << 60, 1 << 64)
        entries = st.one_of(st.tuples(huge, st.integers(1, 1 << 8)),
                            st.tuples(st.integers(0, 1 << 8), st.integers(1, 3)), st.tuples(huge, huge))
    elif kind == 4:  # one ratio a / b at scales k, as self-similar balls have
        a, b = draw(st.integers(1, 50)), draw(st.integers(1, 50))
        entries = st.one_of(st.integers(1, 1 << 70).map(lambda k: (a * k, b * k)), st.tuples(small, st.integers(1, 6)))
    else:  # Lebesgue: interior balls tie, the ends do not
        d = draw(st.integers(1, 20))
        entries = st.sampled_from([(2 << d, 1 << d), (1 << d, 1 << d), (3 << d, 2 << d)])
    pairs = draw(st.lists(entries, min_size=1, max_size=12))
    nums, dens = [n for n, _ in pairs], [d for _, d in pairs]
    drop = set(draw(st.lists(st.integers(0, len(pairs) - 1), max_size=len(pairs))))
    err = draw(st.sampled_from([None, 1, 2, 4]))
    nudge = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), max_size=2 * len(pairs) + 1))
    return nums, dens, drop, err, nudge


@settings(max_examples=600, deadline=None)
@given(max_rows())
@example(([(1 << 27) + 2, (1 << 27) + 1], [(1 << 27) + 1, 1 << 27], set(), None, []))
@example(([1 << 28, (1 << 28) + 1], [(1 << 28) + 1, (1 << 28) + 2], set(), None, []))
@example(([(1 << 25) - 1, (1 << 25) - 2, 2], [(1 << 25) - 2, (1 << 25) - 3, 2], set(), None, []))
@example(([0, 0, 1, 2, 3], [0, 5, 2, 4, 6], {0}, None, []))
@example(([(1 << 80) + 1, 1 << 80], [1 << 80, (1 << 80) - 1], set(), 1, [1.0, -1.0, 1.0, -1.0]))
@example(([1 << 64, 3, 1 << 64], [1 << 64, 1, 2], set(), 2, [-1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0]))
@example(([0, 0, 0], [5, 7, 9], {1}, 4, []))
def test_first_max_matches_exact_loop(row):
    """The float filter, with its shortcut on tied rows of terms below 2^25
    and its slack for floats within err of the exact values, picks the first
    exact maximum over the entries kept, or None."""
    _first_max_checked(*row)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.one_of(st.integers(1, 70), st.integers(1, 1 << 20)), min_size=1,
                                       max_size=40))
@example(0, [1, 2, 3, 4, 5, 64, 65, 1 << 20, (1 << 20) + 1])
def test_randbelow_draws_as_randrange(seed, bounds):
    """Every randrange(a, a + n) the library draws is a + randbelow(n) on
    the same stream, which stays in step: the holdout's randrange(1, depth),
    randrange(0, 2^j) and randrange(0, depth - j + 1), the small-ball
    sampling's randrange(0, grid), randrange(ia + 1, grid + 1),
    randrange(ia, ib + 1) and randrange(1, 5), and the qs triples'
    randrange(size + 1)."""
    ref, rng = random.Random(seed), random.Random(seed)
    for i, n in enumerate(bounds):
        a = i % 3
        assert ref.randrange(a, a + n) == a + randbelow(rng.getrandbits, n)
    assert ref.getrandbits(64) == rng.getrandbits(64)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(grid_cases(min_depth=2), shallow_table_cases.filter(lambda case: case[1] >= 2),
              cantor_cases.filter(lambda case: case[1] >= 2)),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(4)]),
    st.sampled_from([64, 128, 256]),
    st.integers(0, 3),
)
# Lebesgue measure meets the cap exactly (t = 1 with Lambda = 1)
@example((TreeMeasure(BinomialWeights(Fraction(1, 2))), 5), Fraction(1), 128, 0)
def test_fits_match_oracle(case, lambda_cap, bits, seed):
    """Both fits on the exact grid, on tables scanned below their last
    level and on construction trees, alone and inside doubling_scan, which
    runs them over its scan's oracle."""
    m, depth = case
    expected = doubling_scan_oracle(m, depth, lambda_cap, seed, bits)
    assert doubling_scan(m, depth, lambda_cap=lambda_cap, seed=seed, bits=bits) == expected
    c_upper = expected.c_upper
    for kind, fit, want in (
        ("ratio", lambda: fit_ratio_decay(m, depth, lambda_cap=lambda_cap, seed=seed, bits=bits),
         expected.ratio_decay),
        ("window", lambda: fit_mass_window(m, depth, c_upper=c_upper, lambda_cap=lambda_cap, bits=bits),
         expected.mass_window),
    ):
        got = _outcome(fit)
        if want is None:  # the oracle refused; the fit must refuse alike
            assert got[0] == "PreconditionViolated"
            assert f"{kind} fit unavailable: {got[1]}" in expected.notes
        else:
            assert got == want


@settings(max_examples=12, deadline=None)
@given(grid_cases(min_depth=1, max_depth=6), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
@example((TreeMeasure(BinomialWeights(Fraction(1, 3))), 5), Fraction(3, 2))
def test_window_fit_below_the_scanned_constant_matches_oracle(case, c_upper):
    """A c_upper below the measure's doubling constant moves lam's minimum
    off diameter 1, where diam^s is exact, to a deep level, where it is not."""
    m, depth = case
    got = _outcome(lambda: tuple(fit_mass_window(m, depth, c_upper=c_upper)))
    assert got == _outcome(lambda: fit_mass_window_oracle(m, depth, c_upper))


@settings(max_examples=20, deadline=None)
@given(st.one_of(cantor_cases, shallow_table_cases).filter(lambda case: case[1] >= 2), st.integers(0, 3))
def test_bracket_ratio_fit_matches_oracle(case, seed):
    m, depth = case
    got = _outcome(lambda: tuple(fit_ratio_decay(m, depth, seed=seed)))
    assert got == _outcome(lambda: fit_ratio_decay_oracle(BallOracle(m, depth), seed=seed))


@settings(max_examples=20, deadline=None)
@given(grid_cases(), st.sampled_from([0, 50]), st.integers(0, 9))
@example((TreeMeasure(BinomialWeights(Fraction(1, 10**9))), 4), 0, 0)
# tie-heavy measures deep enough for rows at k > 1 with both steps even, which
# repeat a row one level up and could only tie it: Lebesgue and a binomial
@example((TreeMeasure(BinomialWeights(Fraction(1, 2))), 6), 0, 0)
@example((TreeMeasure(BinomialWeights(Fraction(1, 3))), 5), 0, 0)
def test_qs_scan_matches_oracle(case, random_triples, seed):
    m, depth = case
    rows = qs_ratio_scan(m, depth, random_triples=random_triples, seed=seed)
    expected = qs_ratio_scan_oracle(m, depth, DEFAULT_TAUS, random_triples, seed)
    assert [(r.tau, r.max_ratio, r.witness) for r in rows] == expected


@st.composite
def points(draw, m):
    """0 and 1, grid points (dyadic or the tree's node ends) and off-grid
    points, odd denominators among them."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from([Fraction(0), Fraction(1)]))
    if kind == 1:
        if m.base is not None:
            nodes = m.base.nodes[draw(st.integers(0, m.base.depth))]
            node = draw(st.sampled_from(nodes))
            return draw(st.sampled_from([node.lo, node.hi]))
        k = draw(st.integers(0, 16))
        return Fraction(draw(st.integers(0, 1 << k)), 1 << k)
    q = draw(st.integers(0, 60).map(lambda h: 2 * h + 1) if kind == 2 else st.integers(1, 10**4))
    return Fraction(draw(st.integers(0, q)), q)


@st.composite
def mass_queries(draw):
    depth = draw(st.integers(0, 14))
    m = draw(st.one_of(
        binomials(),
        tables(st.integers(1, 10)),  # deeper and shallower than depth
        cantor_measures(),
    ))
    a = draw(points(m))
    b = a if draw(st.booleans()) else draw(points(m))
    a, b = min(a, b), max(a, b)
    lo_open, hi_open = (False, False) if a == b else (draw(st.booleans()), draw(st.booleans()))
    return m, RationalInterval(a, b, lo_open, hi_open), depth


@settings(max_examples=300, deadline=None)
@given(mass_queries())
def test_interval_mass_matches_recursion(query):
    m, iv, depth = query
    expected = interval_mass_recursive_oracle(m, iv, depth)
    expected = (expected.lower, expected.upper)
    got = interval_mass(m, iv, depth)
    assert (got.lower, got.upper) == expected
    # bare endpoints give the same bracket
    got = interval_mass(m, (iv.lo, iv.hi), depth)
    assert (got.lower, got.upper) == expected


@settings(max_examples=40, deadline=None)
@given(mass_queries().flatmap(lambda q: st.tuples(st.just(q), st.lists(points(q[0]), max_size=6))))
def test_cutout_mass_matches_recursion(query_and_points):
    """The pieces left after removing balls, bracketed through one table."""
    (m, _, depth), ends = query_and_points
    balls = [closed(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])]
    config = CutOutConfig(balls)
    expected = EXACT_ZERO
    for piece in remaining_set(config, len(balls)):
        expected = expected + interval_mass_recursive_oracle(m, piece, depth)
    got = cutout_mass(m, config, len(balls), depth)
    assert (got.lower, got.upper) == (expected.lower, expected.upper)


@st.composite
def cutout_balls(draw):
    """Closed balls in [0, 1] with ends on a grid of 1/4, 1/16 or 1/48, so
    touching balls, duplicate ends and ends at 0 and 1 are common, with some
    nested balls [0, 2^-i] and repeated balls, in any order."""
    den = draw(st.sampled_from([4, 16, 48]))
    ends = st.integers(0, den).map(lambda k: Fraction(k, den))
    spans = [tuple(sorted(pair)) for pair in draw(st.lists(st.tuples(ends, ends), max_size=8))]
    spans += [(Fraction(0), Fraction(1, 1 << i)) for i in range(1, draw(st.integers(0, 6)) + 1)]
    if spans:
        spans += draw(st.lists(st.sampled_from(spans), max_size=2))
    return draw(st.permutations(spans)), draw(st.integers(0, len(spans)))


@settings(max_examples=300, deadline=None)
@given(cutout_balls())
@example(([(Fraction(0), Fraction(1))], 1))
@example(([(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(0))], 3))
def test_remaining_set_matches_sweep_line(case):
    """`remaining_set`, `largest_gap`, `merge_components` and `union_length`
    on the first n balls against a sweep line on closed spans."""
    spans, n = case
    config = CutOutConfig([closed(lo, hi) for lo, hi in spans])
    want = remaining_set_oracle(spans[:n])
    got = remaining_set(config, n)
    assert [(p.lo, p.hi, p.lo_open, p.hi_open) for p in got] == want
    merged = merge_components(list(config.balls[:n]))
    assert [(c.lo, c.hi, c.lo_open, c.hi_open) for c in merged] == [
        (lo, hi, False, False) for lo, hi in closed_union_oracle(spans[:n])]
    assert union_length(list(config.balls[:n])) == union_length_oracle(spans[:n])
    assert union_length(got) == 1 - union_length_oracle(spans[:n])
    widest = None
    for piece in want:  # the first of the widest
        if widest is None or piece[1] - piece[0] > widest[1] - widest[0]:
            widest = piece
    if widest is None:
        assert _outcome(lambda: largest_gap(got, n)) == ("EmptyRemainder", f"nothing survives the first {n} balls")
    else:
        gap, diameter = largest_gap(got, n)
        assert (gap.lo, gap.hi, gap.lo_open, gap.hi_open) == widest and diameter == widest[1] - widest[0]


@st.composite
def restrict_cases(draw):
    """A base measure (binomial, or a table deeper or shallower than the
    evaluation depth), a Cantor tree and an evaluation depth (None: the
    default tree depth + 6). Some bases are themselves restricted to a tree
    of the same gap family, deeper or shallower than the new tree, or to a
    tree of another family, whose gaps may swallow a node of the new tree."""
    family = draw(gap_families())
    tree = build_cantor(family, draw(st.integers(0, 5)))
    base = draw(st.one_of(binomials(), tables(st.integers(1, 12))))
    kind = draw(st.integers(0, 3))
    if kind == 1:
        base = restrict(base, build_cantor(family, draw(st.integers(0, 6))))
    elif kind == 2:
        base = restrict(base, build_cantor(draw(gap_families()), draw(st.integers(1, 4))))
    eval_depth = draw(st.one_of(st.none(), st.integers(0, 14)))
    return base, tree, eval_depth


@settings(max_examples=60, deadline=None)
@given(restrict_cases())
# equal-length children of Lebesgue measure: every bracket exact
@example((TreeMeasure(BinomialWeights(Fraction(1, 2))), build_cantor(Constant(Fraction(1, 2)), 3), None))
# a massless base
@example((TreeMeasure(BinomialWeights(Fraction(1, 3)), total_mass=Fraction(0)),
          build_cantor(Constant(Fraction(1, 2)), 2), 8))
def test_restrict_matches_oracle(case):
    base, tree, eval_depth = case
    assert _outcome(lambda: restrict(base, tree, eval_depth)) == _outcome(
        lambda: restrict_oracle(base, tree, eval_depth)
    )


def test_restrict_outcomes_include_both_refusals():
    empty = TreeMeasure(BinomialWeights(Fraction(1, 3)), total_mass=Fraction(0))
    tree = build_cantor(Constant(Fraction(1, 2)), 2)
    assert _outcome(lambda: restrict(empty, tree)) == (
        "MisalignedTrees", "the measure puts no mass on the tree's root")
    # a base whose gaps swallow a node of the new tree
    holed = restrict(TreeMeasure(BinomialWeights(Fraction(1, 3))), build_cantor(Constant(Fraction(7, 8)), 3))
    fine = build_cantor(Constant(Fraction(1, 16)), 3)
    got = _outcome(lambda: restrict(holed, fine))
    assert got == _outcome(lambda: restrict_oracle(holed, fine))
    assert got[0] == "MisalignedTrees" and "splits with a vanishing side" in got[1]


@st.composite
def tree_families(draw):
    """Constant, geometric, power and explicit gap fractions with odd and
    even denominators, gaps up to 16/17; a power family's first gap may be
    1 and an explicit one may end before the depth, both refused."""
    kind = draw(st.integers(0, 3))
    a = draw(_share(17))
    if kind == 0:
        return Constant(a)
    if kind == 1:
        return Geometric(a, draw(_share(5)))
    if kind == 2:
        return Power(draw(st.one_of(st.just(Fraction(1)), st.just(a))), draw(st.integers(1, 3)),
                     draw(st.integers(0, 2)))
    return ExplicitFinite(tuple(draw(st.lists(_share(12), min_size=1, max_size=9))))


@settings(max_examples=80, deadline=None)
@given(tree_families(), st.integers(0, 8))
@example(Constant(Fraction(1, 3)), 0)
@example(ExplicitFinite((Fraction(1, 2), Fraction(2, 3))), 3)
def test_build_cantor_matches_fraction_oracle(beta, depth):
    """The integer edges give the nodes, gaps, edges, lengths, perfectness
    constant and gap structure of the Fraction construction."""
    want = _outcome(lambda: build_cantor_oracle(beta, depth))
    if isinstance(want, tuple):  # the oracle refused; the build must refuse alike
        assert _outcome(lambda: build_cantor(beta, depth)) == want
        return
    tree = build_cantor(beta, depth)
    assert tree.nodes == want.nodes and tree.gaps == want.gaps
    assert all(type(n.lo) is Fraction for level in tree.nodes for n in level)
    for level in range(depth + 1):
        assert tree.edges[level] == want.level_edges(level)
        assert tree.level_length(level) == want.level_length(level)
    assert tree.perfectness_constant == want.perfectness_constant
    assert _outcome(lambda: thick_from_cantor(tree)) == _outcome(lambda: thick_from_cantor(want))


@settings(max_examples=60, deadline=None)
@given(st.one_of(binomials(), tables(st.integers(1, 14)), cantor_measures(max_depth=8)),
       st.integers(0, 14), st.randoms(use_true_random=False))
def test_leaf_prefixes_match_plain_walk(m, depth, rnd):
    """Walks resumed from memoised ancestors give the prefixes of one walk
    from the root, whatever order the leaves are asked for in."""
    table = LeafPrefixes(m, depth)
    n = 1 << table.cap
    js = list(range(n + 1)) if n <= 256 else [0, n] + rnd.sample(range(1, n), 254)
    rnd.shuffle(js)
    for j in js + js[::-1]:
        assert table[j] == leaf_prefix_oracle(m, table.cap, j)


@settings(max_examples=40, deadline=None)
@given(st.one_of(binomials(), tables(st.integers(1, 10)), cantor_measures(max_depth=8)), st.integers(0, 10))
def test_leaf_prefix_floats_round_their_values(m, depth):
    """`first_max`'s premise on a table's floats: P(j) in units of 2^-53 of a
    power of two above the total, each within 1/2 of its exact value and at
    most 2^53."""
    table = LeafPrefixes(m, depth)
    floats = table.floats
    tn, td = table[1 << table.cap]
    unit = Fraction(2) ** (53 - (tn.bit_length() - td.bit_length() + 1))  # 2^53 over 2^e > total
    assert Fraction(tn, td) * unit <= 1 << 53
    assert len(floats) == (1 << table.cap) + 1
    for j, x in enumerate(floats):
        assert abs(Fraction(x) - Fraction(*leaf_prefix_oracle(m, table.cap, j)) * unit) <= Fraction(1, 2)


@settings(max_examples=30, deadline=None)
@given(tables(st.integers(1, 5)), st.integers(0, 7))
def test_cdf_row_brackets_match_leaf_prefixes(m, depth):
    """On the dyadic base the scan oracle's cdf-row brackets, at shift 0 and
    below a shallow table's last level, equal `bracket_units` for every
    integer pair lo <= hi over its unit."""
    oracle = _MassOracle(m, depth)
    cap = min(depth + 1, m.split_depth)
    assert oracle.shift == depth + 1 - cap
    table = LeafPrefixes(m, cap, oracle.unit)
    scale, den = table.unit // oracle.unit, oracle.cdf_den
    for lo in range(oracle.unit + 1):
        for hi in range(lo, oracle.unit + 1):
            got = oracle.bracket(lo, hi)
            want = table.bracket_units(lo * scale, hi * scale)
            for (gn, gd), (wn, wd) in zip(got, want):
                assert gn * wd == wn * gd * den


@st.composite
def small_ball_cases(draw):
    """A measure (binomial, shallow or deep table, or on a Cantor tree), an
    exponent given as s or as a constant c (a power of two or not), and a
    few explicit cases before the sampled ones."""
    m = draw(st.one_of(binomials(), tables(st.integers(1, 12)), cantor_measures()))
    if draw(st.booleans()):
        c, s = draw(st.sampled_from([Fraction(2), Fraction(4), Fraction(8), Fraction(3),
                                     Fraction(5, 2), Fraction(7)])), None
    else:
        c, s = None, draw(st.sampled_from([Fraction(1, 8), Fraction(1), Fraction(3, 2), Fraction(2)]))
    depth = draw(st.integers(1, 8))
    cases = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted(draw(st.lists(points(m), min_size=2, max_size=2, unique=True)))
        x = draw(st.sampled_from([a, b, (a + b) / 2]))
        r = (b - a) / draw(st.sampled_from([2, 3, 16, 1000]))
        cases.append(SmallBallCase(a, b, x, r))
    return m, c, s, depth, cases


@settings(max_examples=60, deadline=None)
@given(small_ball_cases(), st.integers(1, 25), st.integers(0, 9), st.sampled_from([1, 2, 4, 128]))
@example((TreeMeasure(BinomialWeights(Fraction(1, 2))), Fraction(2), None, 8, []), 25, 4, 128)
@example((TreeMeasure(BinomialWeights(Fraction(1, 3))), None, Fraction(1, 8), 8, []), 25, 4, 128)
@example((TreeMeasure(BinomialWeights(Fraction(1, 3))), Fraction(3), None, 6, []), 25, 0, 1)
# a case the oracle cannot settle at 256 bits (mu(B) = mu(A) / 4 = f exactly),
# and a counterexample that settles only after escalating
@example((TreeMeasure(BinomialWeights(Fraction(1, 2))), None, Fraction(1, 2), 8, []), 25, 1, 2)
@example((TreeMeasure(TableWeights(((Fraction(1, 3),), (Fraction(1, 5), Fraction(2, 7))))),
          None, Fraction(1, 8), 4, []), 25, 3, 1)
# a given case whose ends' denominators 3, 5, 7 and 9 the sampled cases' unit lacks
@example((TreeMeasure(BinomialWeights(Fraction(1, 3))), Fraction(3), None, 4,
          [SmallBallCase(Fraction(1, 3), Fraction(5, 7), Fraction(2, 5), Fraction(1, 9))]), 5, 0, 4)
def test_small_ball_check_matches_oracle(case, count, seed, bits):
    """Holds and counterexamples (with their margin) match the oracle
    wherever the oracle decides. A case no precision can settle is refused
    at once, where the oracle refuses it after escalating to max_bits, with
    the case's mu(A) and mu(B) brackets in the message; a mass ratio equal
    to a rational factor (rho/2)^s, which the oracle cannot settle, now
    holds, and an exact re-check confirms every such verdict. Starting at 1
    to 4 bits, the factor's enclosure is wide enough that cases escalate
    before they settle."""
    m, c, s, depth, cases = case
    kwargs = dict(c=c, s=s, count=count, depth=depth, seed=seed, cases=cases, bits=bits, max_bits=256)
    got = _outcome(lambda: verify_small_ball_bound(m, **kwargs))
    want = _outcome(lambda: verify_small_ball_oracle(m, **kwargs))
    if got == want:
        return
    assert want[0] == "EnclosureInconclusive"
    if not isinstance(got, SmallBallResult):  # a refusal
        kwargs.pop("bits")
        assert got == ("EnclosureInconclusive", small_ball_refusal_oracle(m, **kwargs))
        return
    assert s is not None
    holds, checked, counterexample, margin_ok = verify_small_ball_exact_oracle(
        m, s, count=count, depth=depth, seed=seed, cases=cases)
    assert (got.holds, got.checked, got.counterexample) == (holds, checked, counterexample)
    assert holds or margin_ok(got.margin)


def test_small_ball_check_refuses_a_set_outside_the_unit_interval():
    m = TreeMeasure(BinomialWeights(Fraction(1, 3)))
    case = SmallBallCase(Fraction(1, 2), Fraction(3, 2), Fraction(1), Fraction(1, 4))
    got = _outcome(lambda: verify_small_ball_bound(m, c=Fraction(2), cases=[case], count=1))
    assert got == _outcome(lambda: verify_small_ball_oracle(m, c=Fraction(2), cases=[case], count=1))
    assert got == ("PreconditionViolated", "interval [1/2, 3/2] must sit inside [0, 1]")


@settings(max_examples=15, deadline=None)
@given(cantor_cases, st.integers(0, 3))
def test_cantor_window_fit_matches_oracle(case, seed):
    """The tree branch of the window fit, alone and inside doubling_scan,
    reads its node masses from the scan's ball oracle."""
    m, depth = case
    c_upper = scan_core(m, depth).c_upper
    got = _outcome(lambda: tuple(fit_mass_window(m, depth, c_upper=c_upper)))
    assert got == _outcome(lambda: fit_mass_window_oracle(m, depth, c_upper))
    report = doubling_scan(m, depth, seed=seed)
    if report.mass_window is not None:
        assert tuple(report.mass_window) == got


# --- the enclosure primitives against their Fraction loops ----------------------

# 1 to 3 bits leave wide enclosures and many ends rounded up to the next power
precisions = st.one_of(st.integers(1, 3), st.sampled_from([8, 64, 128, 512]))
positives = st.one_of(
    st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)),
    st.builds(Fraction, st.integers(1, 1 << 200), st.integers(1, 1 << 200)),
    st.integers(-80, 80).map(lambda k: Fraction(2) ** k),
)
rational_exponents = st.one_of(
    st.builds(Fraction, st.integers(-400, 400), st.integers(1, 1000)),
    st.integers(-12, 12).map(Fraction),
)
exponent_bounds = st.lists(rational_exponents, min_size=2, max_size=2).map(lambda e: Bounds(*sorted(e)))
# (n/d)^q with a q-th root exponent p/q: the exact-root shortcut
exact_roots = st.builds(
    lambda n, d, q, p: (Fraction(n, d) ** q, Fraction(p, q)),
    st.integers(1, 40), st.integers(1, 40), st.integers(2, 5), st.integers(-9, 9),
)
# floor(y) = +-2^22 is the last exponent exp2 takes, +-(2^22 + 1) the first it refuses
EDGE = 1 << 22


def _ends(b, upper):
    return b if isinstance(b, tuple) else (b.hi if upper else b.lo)


def _near_tie(j: int, bits: int, up: bool) -> Fraction:
    """2^(2^-j) by j floored square roots at scale 2^(bits + 64), which leave
    it below by less than 2 units, or (up) 3 units more: log2 is 2^-j minus
    or plus less than 2^-(bits+61), a run of ones past bit j, where a ceiled
    squaring may reach 2, or a one at bit j and a run of zeros, where a
    floored one may fall below 2.  The run passes bit bits + 28, so the
    series leaves that bit in doubt and the squaring loop runs."""
    scale = bits + 64
    y = 2 << scale
    for _ in range(j):
        y = isqrt(y << scale)
    return Fraction(y + 3 * up, 1 << scale)


# runs at bit 1 and at the deepest bit, at 1, 128 and 4096 bits
NEAR_TIES = [(_near_tie(j, bits, up), bits) for bits in (1, 128, 4096) for j in sorted({1, bits}) for up in (False, True)]


def _near_tie_examples(test):
    for x, bits in NEAR_TIES:
        test = example(x, bits)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(positives, precisions)
@example(Fraction(1, 1024), 1)
@example(Fraction(355, 113), 3)
# sqrt(2) cut to 160 bits, the working scale at 128 bits: its square falls
# below 2 when floored and reaches 2 only when every squaring is ceiled
@example(Fraction(isqrt(2 << 320), 1 << 160), 128)
@_near_tie_examples
def test_log2_bounds_matches_oracle(x, bits):
    assert _outcome(lambda: log2_bounds(x, bits)) == _outcome(lambda: log2_bounds_oracle(x, bits))


def test_log2_squaring_loop_runs_only_where_the_series_leaves_a_bit_in_doubt(monkeypatch):
    """Both squaring passes run on every near tie above and on none of 10^4
    random mantissas at 128 bits, whose ends the series gives alone."""
    calls = []
    loop = enclosure._log2_frac_bits

    def counted(n, d, bits, round_up):
        calls.append(round_up)
        return loop(n, d, bits, round_up)

    monkeypatch.setattr(enclosure, "_log2_frac_bits", counted)
    rng = random.Random(0)
    for _ in range(10**4):
        d = rng.getrandbits(64) | 1 << 63
        log2_bounds(Fraction(d + rng.randrange(1, d), d))
    assert calls == []
    for x, bits in NEAR_TIES + [(Fraction(isqrt(2 << 320), 1 << 160), 128)]:
        log2_bounds(x, bits)
        assert calls == [False, True], (x, bits)
        calls.clear()


@settings(max_examples=150, deadline=None)
@given(st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)), precisions)
# the fraction part 999/1000 rounds up to 2^bits at 3 bits: the upper end is 2^0
@example(Fraction(-1, 1000), 3)
@example(Fraction(EDGE) + Fraction(1, 3), 2)
@example(Fraction(EDGE + 1) + Fraction(1, 3), 2)
@example(Fraction(-EDGE) - Fraction(2, 3), 128)
@example(Fraction(-EDGE - 1) + Fraction(1, 3), 128)
@example(Fraction(-EDGE - 1) - Fraction(1, 3), 128)
@example(Fraction(EDGE + 1), 1)
def test_exp2_bounds_matches_oracle(y, bits):
    got = _outcome(lambda: exp2_bounds(y, bits))
    assert got == _outcome(lambda: exp2_bounds_oracle(y, bits))
    if abs(y.numerator // y.denominator) > EDGE:
        assert got == ("PreconditionViolated", "exponent magnitude out of supported range")


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(positives, rational_exponents), exact_roots), precisions)
@example((Fraction(8), Fraction(1, 3)), 128)
@example((Fraction(1, 2), Fraction(-7, 5)), 2)
@example((Fraction(27, 8), Fraction(-2, 3)), 1)
@example((Fraction(999, 1000), Fraction(3, 1000)), 3)
# e log2 3 lies in e * [3/2, 2] at 1 bit: the lower end is in range, the upper
# is not, and both ends refuse as pow_bounds does
@example((Fraction(3), Fraction(4 * EDGE + 1, 7)), 1)
@example((Fraction(1, 3), Fraction(4 * EDGE + 1, 7)), 1)
def test_pow_bounds_and_ends_match_oracle(case, bits):
    x, e = case
    want = _outcome(lambda: pow_bounds_oracle(x, e, bits))
    assert _outcome(lambda: pow_bounds(x, e, bits)) == want
    for upper in (False, True):
        assert _outcome(lambda: pow_end(x, e, upper, bits)) == _ends(want, upper)


@settings(max_examples=100, deadline=None)
@given(positives, exponent_bounds, precisions)
@example(Fraction(3), Bounds(Fraction(-1, 3), Fraction(1, 7)), 2)
@example(Fraction(4), Bounds(Fraction(1, 2), Fraction(1, 2)), 1)
def test_pow_bounds_with_an_enclosed_exponent_matches_oracle(x, e, bits):
    assert _outcome(lambda: pow_bounds(x, e, bits)) == _outcome(lambda: pow_bounds_oracle(x, e, bits))


# --- the certified products --------------------------------------------------

F = Fraction
# non-dyadic q, a numerator sharing a factor with n + offset (3/(4(n+2)) is
# the square 1/4 at n = 1 only once reduced), exact roots at t = 1/2 (4^-n,
# 4/9), finite prefixes and scaled families
fat_families = st.one_of(
    st.builds(Geometric, st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1, 3), F(4, 9)]),
              st.sampled_from([F(1, 2), F(1, 4), F(2, 3), F(3, 5), F(9, 16)])),
    st.tuples(st.sampled_from([F(3, 4), F(1, 2), F(1), F(9, 4), F(6)]), st.integers(1, 4), st.integers(0, 3))
    .filter(lambda p: p[0] <= (1 + p[2]) ** p[1]).map(lambda p: Power(*p)),
    st.builds(LogFloor, st.sampled_from([F(1, 4), F(1, 9), F(1, 3), F(1, 16)])),
    st.builds(Constant, st.sampled_from([F(1, 4), F(4, 9), F(1, 2)])),
    st.lists(st.sampled_from([F(1, 4), F(4, 9), F(1, 2), F(1, 3), F(9, 16), F(2, 3), F(7, 8)]),
             min_size=1, max_size=6).map(ExplicitFinite),
)


@st.composite
def families(draw):
    f = draw(fat_families)
    if draw(st.booleans()):
        try:  # Scaled refuses a c that lifts a term to 1 or more
            f = Scaled(draw(st.sampled_from([F(1, 2), F(2, 3), F(4, 9), F(9, 8)])), f)
        except InvalidFamily:
            pass
    return f


exponents = st.sampled_from([F(1), F(2), F(3), F(1, 2), F(3, 4), F(3, 2), F(2, 3), F(5, 2), F(5, 3)])
# odd denominators among them
factor_scales = st.sampled_from([F(1, 3), F(1, 2), F(5, 7), F(7, 4), F(2), F(3), F(9, 7)])


def _values(b, tag):
    """A product bracket by its exact ends and its report tag, not by how it
    holds them."""
    ends = bracket_oracle(b) if isinstance(b, ProductBracket) else b
    return (b.n_terms, ends.lower_value, ends.upper_value, b.tail_lower, b.tail_upper, tag(b))


def _certificate(fn, tag):
    def run():
        cert = fn()
        return (cert.n0, _values(cert.bound, tag), cert.conclusion, cert.notes)

    return _outcome(run)


@settings(max_examples=60, deadline=None)
@given(families(), exponents, factor_scales, st.sampled_from([64, 256]), st.sampled_from([2, 64, 128]))
@example(Geometric(F(1, 4), F(1, 2)), F(1, 2), F(7, 4), 256, 128)
@example(Geometric(F(1, 4), F(1, 4)), F(1, 2), F(2), 64, 128)  # every root exact
@example(Power(F(3, 4), 1, 2), F(3, 2), F(2), 64, 128)  # exact only once reduced
@example(Geometric(F(1, 3), F(2, 3)), F(1, 2), F(5, 4), 64, 128)
@example(Power(F(3, 4), 6, 1), F(1), F(2), 64, 128)
@example(ExplicitFinite((F(4, 9), F(1, 4), F(7, 8))), F(1, 2), F(9, 7), 64, 2)
# scale * alpha_6^(1/2) passes 1 by less than 2^-200: the bits escalate
@example(Geometric(F(1, 2), F(1, 2)), F(1, 2), F(isqrt(1 << 405) + 1, 1 << 200), 64, 128)
# 128 factors from one power-entry call that shares log2 3 and two residues a side
@example(Geometric(F(3, 4), F(1, 2)), F(1, 2), F(1), 256, 128)
# stage 5 lies below 1 by less than 2^-200: the call's ends cannot settle it, its own ladder does
@example(Geometric(F(1, 2), F(1, 2)), F(1, 2), F(isqrt(1 << 405), 1 << 200), 64, 128)
# n0 = 100, where 2000 * alpha_99^(1/2) = 1: the search probes 128 before it bisects
@example(Power(F(1, 4), 3, 1), F(1, 2), F(2000), 64, 128)
def test_certify_fat_thick_matches_oracle(alpha, t, scale, max_terms, bits):
    got = _certificate(lambda: certify_fat_thick(alpha, t, scale, max_terms=max_terms, bits=bits),
                       tag_product)
    assert got == _certificate(
        lambda: certify_fat_thick_oracle(alpha, t, scale, max_terms=max_terms, bits=bits),
        tag_product_oracle)


@settings(max_examples=60, deadline=None)
@given(families(), st.integers(0, 300), st.sampled_from([0, 1, 64]))
@example(Power(F(1), 2, 1), 1000, 64)
@example(Power(F(1), 1, 0), 5, 64)  # the first term is 1
@example(Power(F(6), 2, 2), 3, 64)  # a/(n+2)^2 shares 2 and 3 with a
def test_product_bracket_matches_oracle(x, n_partial, lookahead):
    assert _outcome(lambda: _values(product_bracket(x, n_partial, lookahead=lookahead), tag_product)) == _outcome(
        lambda: _values(product_bracket_oracle(x, n_partial, lookahead=lookahead), tag_product_oracle))


def _probes(a: Fraction, w: Fraction, offset: Fraction) -> list[Fraction]:
    """Bounds at the exact lower end a, the upper end a + w and the width w,
    and `offset` to either side of each."""
    return [v + s for v in (a, a + w, w) for s in (0, -offset, offset)] + [F(0), F(1)]


@settings(max_examples=60, deadline=None)
@given(families(), exponents, factor_scales, st.integers(150, 400))
# the lower end is 2/5, on the 60-place grid: only the exact rung settles its tag
@example(ExplicitFinite((F(1, 5), F(1, 2))), F(1), F(1), 300)
# probes 2^-300 off the ends: the first rung (240 bits) cannot tell, the second, still fixed point at
# t = 20, can; at t = 1/2 the second rung is the exact one
@example(Geometric(F(1, 4), F(1, 2)), F(20), F(1, 2), 300)
@example(Geometric(F(1, 4), F(1, 2)), F(1, 2), F(7, 4), 300)
@example(Scaled(F(1, 2), LogFloor(F(1, 9))), F(3), F(2), 250)
def test_product_readings_match_exact_oracle(alpha, t, scale, k):
    """`tag_product`, `encloses`, `lower_at_least` and `width_at_most` of a
    fat certificate's bracket, read at working precision, against Fraction
    comparisons with the oracle's exact ends, at bounds 2^-k off them."""
    got = _outcome(lambda: certify_fat_thick(alpha, t, scale, max_terms=256).bound)
    want = _outcome(lambda: certify_fat_thick_oracle(alpha, t, scale, max_terms=256).bound)
    if isinstance(got, tuple) or isinstance(want, tuple):  # the same refusal
        assert got == want
        return
    probes = _probes(want.lower_value, want.width, F(1, 1 << k))
    assert [(got.encloses(v), got.lower_at_least(v), got.width_at_most(v)) for v in probes] == \
        product_readings_oracle(want, probes)
    assert tag_product(got) == tag_product_oracle(want)
    assert got.positive() == (want.lower_value > 0)


# any index up to 300, and the logfloor block edges: block k runs from 2^k - 1
# to 2^(k+1) - 2
term_indices = st.one_of(
    st.integers(1, 300),
    st.integers(1, 10).flatmap(lambda k: st.sampled_from([(1 << k) - 2, (1 << k) - 1, 1 << k])).filter(bool),
)


@settings(max_examples=200, deadline=None)
@given(families(), term_indices, term_indices)
@example(LogFloor(F(1, 3)), 1, 64)
@example(LogFloor(F(1, 4)), 7, 15)  # block 3 whole
@example(Scaled(F(1, 2), LogFloor(F(1, 9))), 6, 8)  # the last of block 2, the first of block 3
@example(LogFloor(F(1, 9)), 15, 15)  # empty
@example(Constant(F(1, 4)), 9, 3)  # empty
@example(ExplicitFinite((F(1, 2), F(1, 3))), 1, 5)  # past the end
@example(ExplicitFinite((F(1, 4),)), 3, 3)  # empty, past the end
def test_terms_match_term_by_value(f, start, stop):
    """`terms` over start .. stop - 1 against the Fraction formulas one index
    at a time, refusals included, and `term` against the same formulas."""
    want = _outcome(lambda: [term_oracle(f, n) for n in range(start, stop)])
    assert _outcome(lambda: [F(*x) for x in terms(f, start, stop)]) == want
    assert _outcome(lambda: [term(f, n) for n in range(start, stop)]) == want


@st.composite
def power_base_lists(draw):
    """Bases x > 0 as integer pairs that may keep a common factor: dyadic
    2^±i, multiples and quarters of one odd ratio o / o' shared by the list
    (so that the entry reuses a log2 end), other ratios, and squares or
    cubes, whose reduced form has an exact root."""
    odd = F(draw(st.integers(0, 40)) * 2 + 1, draw(st.integers(0, 10)) * 2 + 1)
    x = st.one_of(
        st.integers(-40, 40).map(lambda i: F(2) ** i),
        st.sampled_from([F(1), F(2), F(1, 4), F(8)]).map(lambda k: k * odd),
        st.builds(F, st.integers(1, 1000), st.integers(1, 1000)),
        st.builds(lambda n, d, k: F(n**k, d**k), st.integers(1, 40), st.integers(1, 40), st.sampled_from([2, 3])),
    )
    g = st.one_of(st.just(1), st.integers(2, 50), st.just(1 << 40))
    return [(v.numerator * k, v.denominator * k) for v, k in draw(st.lists(st.tuples(x, g), min_size=1, max_size=8))]


# both signs, denominators 1 to 64
entry_exponents = st.builds(F, st.integers(-200, 200), st.integers(1, 64))


@settings(max_examples=200, deadline=None)
@given(power_base_lists(), entry_exponents, st.sampled_from([(False,), (True,), (False, True)]),
       st.sampled_from([1, 2, 64, 128]))
@example([(20, 45)], F(1, 2), (False, True), 128)  # 4/9: the root 2/3 shows once reduced
@example([(8, 18), (7, 7)], F(3, 2), (True,), 64)
@example([(3, 1), (6, 1), (12, 16), (6, 2), (1, 1 << 40), (3 << 40, 1 << 40)], F(-5, 64), (False,), 128)
@example([(1, 1 << 20), (1 << 33, 1), (6, 3)], F(7, 3), (False, True), 2)
# dyadic bases sharing one residue at 1 bit: each upper end rounds up to the next power of two,
# at negative, zero and positive integer parts
@example([(1, 2), (1, 16), (4, 1), (2, 1 << 5), (1, 1 << 40)], F(1, 3), (False, True), 1)
@example([(1, 2), (1, 4), (4, 1), (16, 1), (3, 6), (1, 8)], F(-2, 3), (True,), 1)
@example([(3 << i, 1) for i in range(4)] + [(3, 1 << i) for i in range(1, 5)], F(1, 2), (False, True), 128)
@example([(3 << 40, 1), (3, 1 << 40), (3, 1)], F(-5, 7), (False, True), 1)
def test_pair_power_kernels_match_fraction_oracles(xs, t, sides, bits):
    """`_power_ends` on a list of unreduced pairs against the Fraction
    `pow_bounds`, side by side and end by end; `_exact_rational_pow`
    against its Fraction form at t and -t, on the reduced pair and, at an
    integer exponent, on the unreduced one; and `_log2_end` on the unreduced
    pair against the Fraction `log2_bounds`."""
    want = []
    for x in xs:
        b = pow_bounds_oracle(F(*x), t, bits)
        want += [b.hi if upper else b.lo for upper in sides]
    assert [F(*p) for p in _power_ends(xs, t, sides, bits)] == want
    for x in xs:
        xf = F(*x)
        for e in (t, -t):
            want_root = exact_rational_pow_oracle(xf, e)
            for pair in (xf.as_integer_ratio(), x) if e.denominator == 1 else (xf.as_integer_ratio(),):
                root = _exact_rational_pow(*pair, *e.as_integer_ratio())
                assert (None if root is None else F(*root)) == want_root
        ends = log2_bounds_oracle(xf, bits)
        assert F(_log2_end(*x, bits, False), 1 << bits) == ends.lo
        assert F(_log2_end(*x, bits, True), 1 << bits) == ends.hi


_BAD_BASE = ("PreconditionViolated", "pow_bounds needs a positive base")
_BAD_BITS = ("PreconditionViolated", "precision must be >= 0 bits, got -1")
_OUT_OF_RANGE = ("PreconditionViolated", "exponent magnitude out of supported range")
# e log2 3 lies in e * [3/2, 2] at 1 bit: 3^e's lower end is in range and its upper is
# not, and (1/3)^e the other way round
_WIDE = F(4 * EDGE + 1, 7)


@pytest.mark.parametrize(
    "bases, e, sides, bits, want",
    [
        ([(5, 7), (0, 1)], F(1, 2), (False, True), 128, _BAD_BASE),
        ([(-1, 2)], F(1, 2), (True,), 128, _BAD_BASE),
        ([(4, 1)], F(1, 2), (True,), -1, _BAD_BITS),  # the exact root 2
        ([(3, 1)], F(1, 2), (False,), -1, _BAD_BITS),
        ([(3, 1)], _WIDE, (False,), 1, _OUT_OF_RANGE),
        ([(1, 3)], _WIDE, (True,), 1, _OUT_OF_RANGE),
    ],
    ids=["zero_base", "negative_base", "bits_exact_root", "bits_enclosure",
         "range_upper_of_3", "range_lower_of_third"],
)
def test_power_entry_refusals(bases, e, sides, bits, want):
    """A base <= 0 and a negative precision are refused on the exact-root
    path and the enclosure path alike, and an end whose other end leaves the
    exponent range is refused as `pow_bounds` refuses the pair."""
    assert _outcome(lambda: _power_ends(bases, e, sides, bits)) == want


def test_power_entry_dyadic_root_before_the_range_check():
    """A dyadic base's exact root is returned before any range check, as any
    exact root is: 2^(-(2^22 + 1)) lies past the exponent range."""
    assert _power_ends([(1, 1 << (2**23 + 2))], F(1, 2), (True,), 128) == [(1, 1 << (2**22 + 1))]


def test_power_entry_refuses_an_exact_power_past_its_bit_budget():
    """An exact power is refused from the bit lengths before it is built:
    (1/4)^(2^22) = 2^(-2^23) fits the 2^23-bit budget and (1/4)^(2^22 + 1/2)
    does not, and (9/25)^(u/2) = (3/5)^u needs about 3u bits."""
    assert _power_ends([(1, 4)], F(1 << 22), (True,), 128) == [(1, 1 << (1 << 23))]
    for base, e, size in (((1, 4), F((1 << 23) + 1, 2), (1 << 23) + 1), ((9, 25), F(2796203, 2), 8388609)):
        assert _outcome(lambda: _power_ends([base], e, (False, True), 128)) == (
            "PreconditionViolated", f"an exact power needs about {size} bits, over the 8388608-bit budget")


def test_power_entry_keeps_exp2_end_pairs():
    """A shared exp2 end shifted by 2^k is the very pair `_exp2_end` gives for
    the whole exponent, an upper end rounded up to a power of two too: dyadic
    bases 2^j at e = 1/3 and 1 bit, each twice, so the second reads the dict."""
    for j in (-40, -7, -4, -1, 2, 5, 41):
        base = (1 << j, 1) if j >= 0 else (1, 1 << -j)
        for upper in (False, True):
            want = enclosure._exp2_end(j << 1, 3 << 1, 1, upper)
            assert _power_ends([base, base], F(1, 3), (upper,), 1) == [want, want]


def test_power_entry_shares_ends_across_bases(monkeypatch):
    """128 bases 3 2^-i at t = 1/2 share the odd part 3 and, at each side,
    two residues of the exp2 exponent: one pair of log2 ends and at most four
    exp2 products for all 256 ends."""
    calls = {"log2": 0, "exp2": 0}

    def counted(name, kernel):
        def run(*args):
            calls[name] += 1
            return kernel(*args)

        return run

    monkeypatch.setattr(enclosure, "_log2_ends", counted("log2", enclosure._log2_ends))
    monkeypatch.setattr(enclosure, "_exp2_end", counted("exp2", enclosure._exp2_end))
    bases = [(3, 1 << i) for i in range(128)]
    ends = _power_ends(bases, F(1, 2), (False, True), 128)
    assert calls["log2"] == 1 and 0 < calls["exp2"] <= 4
    want = []
    for x in bases:
        b = pow_bounds_oracle(F(*x), F(1, 2), 128)
        want += [b.lo, b.hi]
    assert [F(*p) for p in ends] == want


def test_power_entry_range_cases_are_one_sided():
    """In the range cases above, the oracle refuses the pair too, while the
    end asked for, alone, is in range."""
    num, den = _WIDE.as_integer_ratio()
    for x, upper in ((F(3), False), (F(1, 3), True)):
        assert _outcome(lambda: pow_bounds_oracle(x, _WIDE, 1)) == _OUT_OF_RANGE
        _exp2_end(num * _log2_end(*x.as_integer_ratio(), 1, upper), den << 1, 1, upper)


# integer and fractional delta, exact roots among the fractional terms
# (4^(-3/2) = 1/8) beside dyadic ends
tail_deltas = st.one_of(st.integers(2, 5).map(Fraction),
                        st.builds(Fraction, st.integers(5, 40), st.integers(2, 9)).filter(lambda d: d > 1))


@settings(max_examples=40, deadline=None)
@given(tail_deltas, st.integers(1, 3000), st.sampled_from([64, 128]))
@example(Fraction(3, 2), 4, 128)
@example(Fraction(2), 1, 128)
def test_power_tails_match_fraction_sums(delta, n_from, bits):
    assert power_tail_upper(delta, n_from, bits) == power_tail_upper_oracle(delta, n_from, bits)
    assert power_tail_lower(delta, n_from, bits) == power_tail_lower_oracle(delta, n_from, bits)


@st.composite
def crossing_heads(draw):
    """delta = u / k in lowest terms, k = 2..64, and a start whose 64-term
    head holds a power of two or a perfect k-th power: the head's log2 ends
    are read off odd parts, and a k-th power's term is an exact root."""
    k = draw(st.integers(2, 64))
    u = draw(st.integers(k + 1, 8 * k).filter(lambda u: gcd(u, k) == 1))
    mark = draw(st.one_of(st.integers(0, 40).map(lambda j: 1 << j),
                          st.integers(2, 5).map(lambda r: r**k).filter(lambda v: v < 1 << 80)))
    return Fraction(u, k), max(1, mark - draw(st.integers(0, 63)))


@settings(max_examples=40, deadline=None)
@given(crossing_heads(), st.sampled_from([64, 128]))
@example((Fraction(65, 64), (1 << 64) - 10), 128)
@example((Fraction(5, 2), 1000), 128)
@example((Fraction(7, 3), 1), 64)
@example((Fraction(1, 3), 5), 64)  # no upper tail, and a head of growing terms
@example((Fraction(-5, 2), 30), 128)
def test_power_tail_heads_across_powers_match_fraction_sums(case, bits):
    delta, n_from = case
    assert _outcome(lambda: power_tail_upper(delta, n_from, bits)) == _outcome(
        lambda: power_tail_upper_oracle(delta, n_from, bits))
    assert power_tail_lower(delta, n_from, bits) == power_tail_lower_oracle(delta, n_from, bits)


@functools.cache
def _cutout_scan(p: Fraction, depth: int):
    return doubling_scan(TreeMeasure(BinomialWeights(p)), depth)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F(1, 2), F(31, 64), F(1, 3)]), st.integers(4, 6), st.integers(8, 64), st.integers(1, 64),
       st.sampled_from([F(1, 4), F(1, 3), F(1, 2)]), st.sampled_from([F(1, 8), F(1, 4), F(1, 2), F(1)]))
@example(F(1, 2), 6, 64, 18, F(1, 4), F(1))
@example(F(31, 64), 5, 8, 8, F(1, 3), F(1, 4))
def test_cutout_lower_bound_matches_fraction_sums(mu_p, depth, count, n_balls, p, r):
    """Nested balls [0, 2^-i], i = 1..count, removed from binomial measures:
    t / p is an integer (t = 1) or not, and the listed diameters' powers are
    exact (2^-4i at p = 1/4) or dyadic ends."""
    config, report, n_balls = nested_cutout(count), _cutout_scan(mu_p, depth), min(n_balls, count)
    assert _outcome(lambda: cutout_lower_bound(config, report, r, n_balls, p)) == _outcome(
        lambda: cutout_lower_bound_oracle(config, report, r, n_balls, p))


@st.composite
def factor_runs(draw):
    """Runs (ln, ld, hn, hd, count) of factors in [0, 1] as pairs that keep
    a common factor; the upper end is the lower one for an exact factor."""
    runs = []
    for _ in range(draw(st.integers(0, 4))):
        d, k = draw(st.integers(1, 10**6)), draw(st.one_of(st.just(1), st.integers(2, 1 << 80)))
        n = draw(st.integers(0, d))
        upper = (n, d) if draw(st.booleans()) else (draw(st.integers(n, d)) * k, d * k)
        runs.append((n * k, d * k, *upper, draw(st.integers(1, 40))))
    return tuple(runs)


unit_fractions = st.one_of(st.sampled_from([F(0), F(1)]), st.fractions(0, 1, max_denominator=10**9))


@settings(max_examples=300, deadline=None)
@given(factor_runs(), unit_fractions, unit_fractions, st.fractions(-1, 2, max_denominator=10**12),
       st.integers(150, 1200))
@example(((3, 9, 2, 4, 1),), F(0), F(1), F(1, 3), 300)
@example(((0, 5, 0, 5, 2),), F(1, 2), F(1, 2), F(0), 300)
# 3^-600: both ends sit far below the first rung's resolution
@example(((1, 3, 1, 3, 600),), F(1), F(1), F(0), 300)
def test_bracket_readings_match_fractions(runs, t1, t2, free, k):
    """ProductBracket's readings, grid and positivity on any factor runs
    against the Fraction comparisons of the oracle type over the same
    factors."""
    got = ProductBracket(runs, *sorted((t1, t2)))
    want = bracket_oracle(got)
    probes = _probes(want.lower_value, want.width, F(1, 1 << k)) + [free]
    assert [(got.encloses(v), got.lower_at_least(v), got.width_at_most(v)) for v in probes] == \
        product_readings_oracle(want, probes)
    assert got.positive() == (want.lower_value > 0)
    assert tag_product(got) == tag_product_oracle(want)


@st.composite
def exp2_fractions(draw):
    """(num, den, bits): fraction parts with few or many set bits at bits, or
    off the dyadic grid so that the upper end rounds up."""
    bits = draw(st.sampled_from([1, 2, 64, 128, 256]))
    k = draw(st.integers(-300, 300))
    kind = draw(st.sampled_from(["few", "many", "odd"]))
    if kind == "few":
        f = sum(1 << draw(st.integers(0, bits - 1)) for _ in range(draw(st.integers(1, 3))))
        return (k << bits) + min(f, (1 << bits) - 1), 1 << bits, bits
    if kind == "many":
        return (k << bits) + draw(st.integers(0, (1 << bits) - 1)), 1 << bits, bits
    den = draw(st.sampled_from([3, 7, 1000, 3 << bits]))
    return k * den + draw(st.integers(1, den - 1)), den, bits


@settings(max_examples=200, deadline=None)
@given(exp2_fractions())
@example((-1, 2, 128))
@example(((1 << 128) - 1, 1 << 128, 128))
@example((-1, 1000, 3))
def test_exp2_end_matches_oracle(case):
    num, den, bits = case
    want = exp2_bounds_oracle(Fraction(num, den), bits)
    assert Fraction(*_exp2_end(num, den, bits, False)) == want.lo
    assert Fraction(*_exp2_end(num, den, bits, True)) == want.hi


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, 400).map(lambda e: 1 << e), st.integers(0, 1 << 300)), st.integers(1, 9))
@example(1 << 360, 9)
@example(1 << 361, 9)
@example(2, 2)
def test_iroot_matches_newton(n, k):
    assert iroot(n, k) == iroot_newton_oracle(n, k)


@st.composite
def exponent_searches(draw):
    """(top, cap, bits, offset): a `top` map of the ratio-decay fit (l to a
    ratio bound, an integer pair), a cap >= 1, a precision and an offset of
    the search's guess from the float guess, or None for a guess drawn at
    random, in or far outside 0..T_MAX."""
    top = draw(st.dictionaries(st.integers(0, 12), st.tuples(st.integers(1, 1 << 40), st.integers(1, 1 << 40)),
                               min_size=1, max_size=6))
    cap = draw(st.fractions(1, 64))
    return top, cap, draw(st.sampled_from([1, 2, 64, 128])), draw(st.sampled_from([0, 0, -1, 1, None]))


@settings(max_examples=300, deadline=None)
@given(exponent_searches(), st.integers(-1000, 1000))
# answers k = 0 (refused), k = 1 and k = T_MAX
@example(({1: (2, 1)}, Fraction(1), 64, 0), 0)
@example(({64: (1, 3)}, Fraction(1), 64, 0), 0)
@example(({1: (1, 32)}, Fraction(1), 64, 0), 0)
# Lebesgue's ratios meet the cap exactly at t = 1, and an l = 0 term above it refuses every k
@example(({0: (1, 1), 1: (1, 2), 5: (1, 32)}, Fraction(1), 64, 0), 0)
@example(({0: (3, 2), 2: (1, 8)}, Fraction(1), 64, 0), 0)
# guesses wrong by one either way, below 1 and past T_MAX
@example(({1: (1, 2), 3: (1, 8)}, Fraction(1), 64, -1), 0)
@example(({1: (1, 2), 3: (1, 8)}, Fraction(1), 64, 1), 0)
@example(({1: (1, 2)}, Fraction(1), 64, None), -5)
@example(({1: (1, 2)}, Fraction(1), 64, None), T_MAX + 7)
def test_exponent_search_matches_bisection(case, drawn):
    """`_largest_within` finds the bisection's k from any guess, with the
    bound at k; from the float guess of `_guess_steps`, when that guess is
    right, it evaluates the bound at most twice."""
    top, cap, bits, offset = case

    def lam_at(t_steps):
        worst_n, worst_d = 0, 1
        for l, (num, den) in top.items():
            _, g, g_den = exp2_64ths(l * t_steps, bits)
            if num * g * worst_d > worst_n * den * g_den:
                worst_n, worst_d = num * g, den * g_den
        return worst_n, worst_d

    calls = []

    def counted(k):
        calls.append(k)
        return lam_at(k)

    want = largest_within_oracle(lam_at, cap, T_MAX)
    guess = _guess_steps(cap, ((num, den, l) for l, (num, den) in top.items()))
    if offset is not None:
        guess = max(0, min(guess, T_MAX)) + offset
    else:
        guess = drawn
    k, bound = _largest_within(counted, cap, guess)
    assert (k, bound) == (want, lam_at(want) if want else None)
    if guess == want:
        assert len(calls) <= 2


@st.composite
def decimal_edges(draw):
    """Rationals whose 12-digit rounding ties or carries into the next
    decade, such as 9.9999999999995, near the 1e-4 and 1e16 notation edges
    and elsewhere, with either sign."""
    e = draw(st.one_of(st.sampled_from([-5, -4, -3, 14, 15, 16, 17]), st.integers(-30, 30)))
    m = draw(st.one_of(st.integers(10**12 - 50, 10**12 + 50).map(lambda q: 10 * q - 5),
                       st.integers(10**13 - 50, 10**13 - 1), st.integers(10**12, 10**13)))
    x = Fraction(m, 10**12) * Fraction(10) ** e
    return -x if draw(st.booleans()) else x


@settings(max_examples=300, deadline=None)
@given(st.one_of(decimal_edges(), st.fractions(), st.integers(-10**20, 10**20).map(Fraction)))
@example(Fraction(0))
@example(Fraction(-7))
@example(Fraction(99999999999995, 10**13))
@example(Fraction(-99999999999995, 10**18))
@example(Fraction(10**16) - Fraction(1, 3))
@example(Fraction(1, 10**4) - Fraction(1, 10**20))
def test_decimal_str_matches_fraction_form(x):
    assert decimal_str(x) == decimal_str_oracle(x)
