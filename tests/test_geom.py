"""Interval geometry against a sweep-line oracle and point-membership checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlab.errors import (
    DepthBudgetExceeded,
    EmptyRemainder,
    NodeBudgetExceeded,
    PreconditionViolated,
)
from dmlab.geom import (
    CutOutConfig,
    RationalInterval,
    build_cantor,
    caps,
    closed,
    inflate,
    interval_contains,
    intervals_intersect,
    largest_gap,
    merge_components,
    open_interval,
    remaining_set,
    resolve_cap,
    subtract_intervals,
    thick_from_cantor,
    union_length,
    verify_thick,
)
from dmlab.doubling import doubling_scan, fit_mass_window, scan_core
from dmlab.measure import BinomialWeights, TreeMeasure, cutout_mass, dyadic_cdf_grid
from dmlab.seq import Constant, Geometric, term

from helpers import direct_product, union_length_oracle


def rand_frac(rng: random.Random, den: int = 64) -> Fraction:
    return Fraction(rng.randrange(0, den + 1), den)


def member(iv: RationalInterval, x: Fraction) -> bool:
    if x < iv.lo or x > iv.hi:
        return False
    if x == iv.lo and iv.lo_open:
        return False
    if x == iv.hi and iv.hi_open:
        return False
    return True


def any_member(pieces, x: Fraction) -> bool:
    return any(member(p, x) for p in pieces)


class TestIntervalBasics:
    def test_flags_and_diameter(self):
        iv = open_interval(Fraction(1, 3), Fraction(2, 3))
        assert iv.lo_open and iv.hi_open
        assert iv.diameter == Fraction(1, 3)

    def test_degenerate_rejected(self):
        with pytest.raises(PreconditionViolated):
            closed(Fraction(1, 2), Fraction(1, 3))

    def test_intersect_and_contain(self):
        a = closed(0, Fraction(1, 2))
        b = closed(Fraction(1, 2), 1)
        assert intervals_intersect(a, b)  # shared endpoint, both closed
        assert interval_contains(closed(0, 1), a)
        assert not interval_contains(a, closed(0, 1))


class TestMergeAgainstSweep:
    def test_random_unions(self):
        rng = random.Random(11)
        for _ in range(200):
            spans = []
            for _ in range(rng.randrange(1, 8)):
                a, b = sorted((rand_frac(rng), rand_frac(rng)))
                if a < b:
                    spans.append((a, b))
            if not spans:
                continue
            merged = merge_components([closed(a, b) for a, b in spans])
            assert union_length(merged) == union_length_oracle(spans)
            # merged components are disjoint and ordered
            for left, right in zip(merged, merged[1:]):
                assert left.hi < right.lo or (
                    left.hi == right.lo and (left.hi_open or right.lo_open)
                )


class TestSubtraction:
    def test_point_membership_random(self):
        rng = random.Random(23)
        for _ in range(150):
            base = closed(0, 1)
            cuts = []
            for _ in range(rng.randrange(1, 5)):
                a, b = sorted((rand_frac(rng), rand_frac(rng)))
                if a < b:
                    cuts.append(closed(a, b))
            result = subtract_intervals(base, cuts)
            for _ in range(12):
                x = rand_frac(rng, 128)
                expected = member(base, x) and not any(member(c, x) for c in cuts)
                assert any_member(result, x) == expected, (x, cuts)

    def test_open_edges_on_survivors(self):
        # removing a closed middle leaves half-open survivors
        left, right = subtract_intervals(closed(0, 1), [closed(Fraction(1, 3), Fraction(2, 3))])
        assert left.hi == Fraction(1, 3) and left.hi_open
        assert right.lo == Fraction(2, 3) and right.lo_open

    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(1, 64)).map(
                lambda ab: (Fraction(min(ab[0], ab[1] - 1), 64), Fraction(max(ab[0] + 1, ab[1]), 64))
            ),
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_length_never_grows(self, spans):
        cuts = [closed(a, b) for a, b in spans]
        result = subtract_intervals(closed(0, 1), cuts)
        total = union_length(merge_components(result)) if result else Fraction(0)
        assert total >= 1 - sum((b - a for a, b in spans), Fraction(0))
        assert total <= 1


class TestCantorConstruction:
    def test_level_lengths_telescope(self):
        beta = Geometric(Fraction(1, 4), Fraction(1, 2))
        tree = build_cantor(beta, 5)
        for k in range(1, 6):
            expected = direct_product([term(beta, j) for j in range(1, k + 1)])
            assert tree.level_length(k) == expected

    def test_node_nesting(self):
        tree = build_cantor(Constant(Fraction(1, 3)), 4)
        for level in range(1, 5):
            for idx, node in enumerate(tree.nodes[level]):
                parent = tree.nodes[level - 1][idx // 2]
                assert interval_contains(parent, node)

    def test_depth_budget(self):
        with caps(max_depth=4), pytest.raises(Exception) as err:
            build_cantor(Constant(Fraction(1, 3)), 6)
        assert "depth" in str(err.value).lower()

    def test_levels_sorted_and_disjoint(self):
        tree = build_cantor(Geometric(Fraction(1, 4), Fraction(1, 2)), 5)
        for level in range(6):
            den, lows, highs = tree.edges[level]
            nodes = tree.nodes[level]
            assert [Fraction(v, den) for v in lows] == [n.lo for n in nodes]
            assert [Fraction(v, den) for v in highs] == [n.hi for n in nodes]
            assert all(lo < hi for lo, hi in zip(lows, highs))
            assert all(hi < lo for hi, lo in zip(highs, lows[1:]))


class TestNodeBudget:
    def test_scope_sets_the_cap(self, monkeypatch):
        monkeypatch.setenv("DMLAB_MAX_NODES", "64")
        assert resolve_cap("nodes") == 64
        with caps(max_nodes=8):
            assert resolve_cap("nodes") == 8
            with pytest.raises(NodeBudgetExceeded):
                build_cantor(Constant(Fraction(1, 3)), 4)
        with caps(max_nodes=None):
            assert resolve_cap("nodes") == 64
        assert resolve_cap("nodes") == 64

    def test_scope_reaches_grid_scan_and_fit(self):
        m = TreeMeasure(BinomialWeights(Fraction(1, 3)))
        with caps(max_nodes=15):
            with pytest.raises(NodeBudgetExceeded):
                dyadic_cdf_grid(m, 4)
            with pytest.raises(NodeBudgetExceeded):
                scan_core(m, 3)
            with pytest.raises(NodeBudgetExceeded):
                fit_mass_window(m, 4, c_upper=Fraction(3))
        assert len(dyadic_cdf_grid(m, 4)) == 17

    def test_scope_carries_the_depth_cap(self, monkeypatch):
        monkeypatch.setenv("DMLAB_MAX_DEPTH", "6")
        monkeypatch.delenv("DMLAB_MAX_NODES", raising=False)
        assert resolve_cap("depth") == 6
        m = TreeMeasure(BinomialWeights(Fraction(1, 3)))
        with caps(max_depth=3):
            assert resolve_cap("depth") == 3
            with caps(max_depth=5):
                assert resolve_cap("depth") == 5
            assert resolve_cap("nodes") == 1 << 20
            with pytest.raises(DepthBudgetExceeded):
                build_cantor(Constant(Fraction(1, 3)), 4)
            with pytest.raises(DepthBudgetExceeded):
                doubling_scan(m, 4, fit=False)
            with pytest.raises(DepthBudgetExceeded):
                cutout_mass(m, CutOutConfig([closed(0, Fraction(1, 2))]), 1, 4)
        assert len(build_cantor(Constant(Fraction(1, 3)), 4).nodes) == 5


class TestCutOut:
    def test_nested_balls_remaining(self):
        balls = [closed(0, Fraction(1, 1 << i)) for i in range(1, 11)]
        config = CutOutConfig(balls, diam_family=Geometric(Fraction(1, 2), Fraction(1, 2)))
        config.validate_diameters()
        pieces = remaining_set(config, 3)
        # nested balls: only the largest matters
        assert union_length(pieces) == Fraction(1, 2)
        gap, diameter = largest_gap(pieces, 3)
        assert diameter == Fraction(1, 2)
        assert gap.lo == Fraction(1, 2) and gap.hi == 1

    def test_largest_gap_leftmost_tie(self):
        config = CutOutConfig([closed(Fraction(2, 5), Fraction(3, 5))])
        gap, diameter = largest_gap(remaining_set(config, 1), 1)
        assert diameter == Fraction(2, 5)
        assert gap.lo == 0  # leftmost of the two equal gaps

    def test_empty_remainder(self):
        config = CutOutConfig([closed(0, 1)])
        with pytest.raises(EmptyRemainder):
            largest_gap(remaining_set(config, 1), 1)

    def test_diameter_declaration_enforced(self):
        config = CutOutConfig(
            [closed(0, Fraction(3, 4))],
            diam_family=Geometric(Fraction(1, 2), Fraction(1, 2)),
        )
        with pytest.raises(PreconditionViolated):
            config.validate_diameters()


class TestInflate:
    def test_inflation_clips_to_unit(self):
        config = CutOutConfig([closed(0, Fraction(1, 2)), closed(Fraction(3, 4), 1)])
        out = inflate(config, 2, Fraction(1, 8))
        assert out[0].lo == 0 and out[0].hi == Fraction(5, 8)
        assert out[1].lo == Fraction(5, 8) and out[1].hi == 1

    def test_inflation_needs_positive_radius(self):
        config = CutOutConfig([closed(0, Fraction(1, 2))])
        with pytest.raises(PreconditionViolated):
            inflate(config, 1, Fraction(0))


class TestThickStructures:
    def test_from_cantor_and_verify(self):
        tree = build_cantor(Geometric(Fraction(1, 2), Fraction(1, 2)), 4)
        thick = thick_from_cantor(tree)
        verdict = verify_thick(thick)
        assert verdict.valid, verdict.violations
