"""The fast kernels against the Fraction loops they replaced.

`scan_core`, `per_scale_max_ratios`, `fit_ratio_decay`, `fit_mass_window`
and `qs_ratio_scan` must give the same values, witnesses, notes and errors as
the oracles in helpers.py, on the exact dyadic grid and on the bracket path;
`interval_mass` must give the same brackets as the recursive node walk.
"""

import random
from fractions import Fraction
from functools import lru_cache, partial

from hypothesis import given, settings
from hypothesis import strategies as st

from dmlab.doubling import fit_mass_window, fit_ratio_decay, per_scale_max_ratios, scan_core
from dmlab.geom import RationalInterval, build_cantor
from dmlab.measure import (
    BinomialWeights,
    TableWeights,
    TreeMeasure,
    effective_depth,
    interval_mass,
    leaf_prefix_mass,
    restrict,
)
from dmlab.qs import DEFAULT_TAUS, QSMap, qs_ratio_scan
from dmlab.seq import Constant

from helpers import (
    fit_mass_window_oracle,
    fit_ratio_decay_oracle,
    interval_mass_recursive_oracle,
    per_scale_oracle,
    qs_ratio_scan_oracle,
    scan_core_oracle,
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
        return (res.c_upper, res.c_lower, (w.x, w.r, w.ratio_lower), res.exact, res.notes)

    return _outcome(run)


def _check_scan(m, depth):
    assert _scan(m, depth) == _outcome(lambda: scan_core_oracle(m, depth))
    expected = per_scale_oracle(m, depth)
    assert per_scale_max_ratios(m, depth) == expected
    if m.total_mass:
        assert scan_core(m, depth).per_scale == expected


@settings(max_examples=25, deadline=None)
@given(grid_cases())
def test_grid_scan_matches_oracle(case):
    _check_scan(*case)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(tables(st.just(n)), st.integers(n, 4))))
def test_shallow_table_scan_matches_oracle(case):
    _check_scan(*case)


@settings(max_examples=6, deadline=None)
@given(st.integers(2, 6), st.integers(2, 3), st.integers(1, 3), shares)
def test_cantor_scan_matches_oracle(gap_16ths, tree_depth, depth, p):
    # gaps carry no mass, so some small balls have none: both skip rules run
    tree = build_cantor(Constant(Fraction(gap_16ths, 16)), tree_depth)
    m = restrict(TreeMeasure(BinomialWeights(p)), tree)
    _check_scan(m, depth)


def test_zero_measure_per_scale_matches_oracle():
    m = TreeMeasure(BinomialWeights(Fraction(1, 3)), total_mass=Fraction(0))
    _check_scan(m, 4)


@settings(max_examples=12, deadline=None)
@given(grid_cases(min_depth=2), st.integers(0, 3))
def test_fits_match_oracle(case, seed):
    m, depth = case
    c_upper = scan_core(m, depth).c_upper
    got = _outcome(lambda: tuple(vars(fit_ratio_decay(m, depth, seed=seed)).values()))
    assert got == _outcome(lambda: fit_ratio_decay_oracle(m, depth, seed=seed))
    got = _outcome(lambda: tuple(vars(fit_mass_window(m, depth, c_upper=c_upper)).values()))
    assert got == _outcome(lambda: fit_mass_window_oracle(m, depth, c_upper))


@settings(max_examples=20, deadline=None)
@given(grid_cases(), st.sampled_from([0, 50]), st.integers(0, 9))
def test_qs_scan_matches_oracle(case, random_triples, seed):
    m, depth = case
    rows = qs_ratio_scan(QSMap(m), depth, random_triples=random_triples, seed=seed)
    expected = qs_ratio_scan_oracle(m, depth, DEFAULT_TAUS, random_triples, seed)
    assert [(r.tau, r.max_ratio, r.witness) for r in rows] == expected


@st.composite
def cantor_measures(draw):
    tree = build_cantor(Constant(Fraction(draw(st.integers(1, 14)), 16)), draw(st.integers(0, 5)))
    return restrict(draw(binomials()), tree)


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
    # bare endpoints and a memo of the leaf-prefix masses give the same bracket
    memo = lru_cache(maxsize=None)(partial(leaf_prefix_mass, m, effective_depth(m, depth)))
    got = interval_mass(m, (iv.lo, iv.hi), depth, memo)
    assert (got.lower, got.upper) == expected
