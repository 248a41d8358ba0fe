"""Tree-measure evaluation against exact leaf enumeration."""

import random
from fractions import Fraction

import pytest

from dmlab.errors import MisalignedTrees, PreconditionViolated
from dmlab.geom import build_cantor, closed, open_interval, CutOutConfig
from dmlab.measure import (
    BinomialWeights,
    MassBracket,
    TableWeights,
    TreeMeasure,
    cdf,
    cutout_mass,
    dyadic_cdf_grid,
    interval_mass,
    measure_from_spec,
    measure_to_spec,
    node_mass,
    restrict,
)
from dmlab.seq import Geometric

from helpers import interval_mass_oracle, leaf_masses


def rand_frac(rng, den=256):
    return Fraction(rng.randrange(0, den + 1), den)


class TestNodeMass:
    def test_binomial_node_products(self, binom13):
        # node (level 3, index 5) has digits 1,0,1
        expected = Fraction(2, 3) * Fraction(1, 3) * Fraction(2, 3)
        assert node_mass(binom13, 3, 5) == expected

    def test_leaf_enumeration_total(self, binom13):
        leaves = leaf_masses(Fraction(1, 3), 8)
        assert sum(leaves) == 1
        for idx in (0, 17, 255):
            assert node_mass(binom13, 8, idx) == leaves[idx]


class TestIntervalMass:
    def test_aligned_intervals_exact(self, binom13):
        depth = 6
        unit = Fraction(1, 1 << depth)
        rng = random.Random(5)
        for _ in range(40):
            i = rng.randrange(0, 1 << depth)
            j = rng.randrange(i + 1, (1 << depth) + 1)
            iv = closed(i * unit, j * unit)
            got = interval_mass(binom13, iv, depth)
            inner, outer = interval_mass_oracle(Fraction(1, 3), depth, iv.lo, iv.hi)
            assert got.lower == got.upper == inner == outer

    def test_unaligned_brackets_contain_oracle(self, binom13):
        depth = 8
        rng = random.Random(7)
        for _ in range(40):
            a, b = sorted((rand_frac(rng), rand_frac(rng)))
            if a == b:
                continue
            got = interval_mass(binom13, closed(a, b), depth)
            inner, outer = interval_mass_oracle(Fraction(1, 3), depth, a, b)
            assert got.lower == inner
            assert got.upper == outer
            assert got.lower <= got.upper

    def test_single_point_and_open_closures(self, binom13):
        point = interval_mass(binom13, closed(Fraction(1, 3), Fraction(1, 3)), 10)
        assert point.lower == point.upper == 0
        a = interval_mass(binom13, open_interval(Fraction(1, 4), Fraction(3, 4)), 8)
        b = interval_mass(binom13, closed(Fraction(1, 4), Fraction(3, 4)), 8)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_bare_endpoints(self, binom13):
        third, half = Fraction(1, 3), Fraction(1, 2)
        got = interval_mass(binom13, (third, half), 9)
        want = interval_mass(binom13, closed(third, half), 9)
        assert (got.lower, got.upper) == (want.lower, want.upper)
        # the measure lives on [0, 1]: ends outside it clip
        got = interval_mass(binom13, (Fraction(-1), half), 9)
        want = interval_mass(binom13, closed(0, half), 9)
        assert (got.lower, got.upper) == (want.lower, want.upper)
        with pytest.raises(PreconditionViolated):
            interval_mass(binom13, (half, third), 9)

    def test_deeper_evaluation_tightens(self, binom13):
        iv = closed(Fraction(1, 7), Fraction(3, 7))
        shallow = interval_mass(binom13, iv, 4)
        deep = interval_mass(binom13, iv, 12)
        assert shallow.lower <= deep.lower <= deep.upper <= shallow.upper
        assert deep.upper - deep.lower < shallow.upper - shallow.lower


class TestCdf:
    def test_grid_matches_cdf(self, binom13):
        depth = 7
        grid = dyadic_cdf_grid(binom13, depth)
        for i in (0, 1, 37, 64, 127, 128):
            x = Fraction(i, 1 << depth)
            if i > (1 << depth):
                continue
            b = cdf(binom13, x, depth)
            assert b.lower == b.upper == grid[i]

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    def test_grid_steps_are_node_masses(self, p):
        m = TreeMeasure(BinomialWeights(p))
        depth = 8
        grid = dyadic_cdf_grid(m, depth)
        assert grid[0] == 0 and grid[-1] == m.total_mass
        for index in range(1 << depth):
            assert grid[index + 1] - grid[index] == node_mass(m, depth, index)

    def test_endpoints(self, binom13):
        assert cdf(binom13, Fraction(0), 5).upper == 0
        assert cdf(binom13, Fraction(1), 5).lower == 1

    def test_known_values(self, binom13):
        assert cdf(binom13, Fraction(1, 2), 10).lower == Fraction(1, 3)
        assert cdf(binom13, Fraction(3, 4), 10).lower == Fraction(5, 9)


class TestBallAndCutout:
    def test_ball_clips(self, lebesgue):
        b = interval_mass(lebesgue, closed(0, Fraction(1, 4)), 8)
        assert b.lower == b.upper == Fraction(1, 4)

    def test_cutout_nested_balls(self, lebesgue):
        balls = [closed(0, Fraction(1, 1 << i)) for i in range(1, 9)]
        config = CutOutConfig(balls)
        got = cutout_mass(lebesgue, config, 4, 10)
        assert got.lower == got.upper == Fraction(1, 2)

    def test_cutout_binomial(self, binom13):
        config = CutOutConfig([closed(0, Fraction(1, 2))])
        got = cutout_mass(binom13, config, 1, 10)
        assert got.lower == got.upper == Fraction(2, 3)


class TestSymmetry:
    def test_mirror_masses_swap(self):
        p = Fraction(1, 3)
        left = TreeMeasure(BinomialWeights(p))
        right = TreeMeasure(BinomialWeights(1 - p))
        rng = random.Random(3)
        for _ in range(25):
            a, b = sorted((rand_frac(rng), rand_frac(rng)))
            if a == b:
                continue
            direct = interval_mass(left, closed(a, b), 9)
            mirrored = interval_mass(right, closed(1 - b, 1 - a), 9)
            assert direct.lower == mirrored.lower
            assert direct.upper == mirrored.upper


class TestRestrict:
    def test_restrict_to_cantor_tree(self, lebesgue):
        tree = build_cantor(Geometric(Fraction(1, 2), Fraction(1, 2)), 4)
        # all node endpoints are dyadic with denominator <= 2^14, so the
        # leaf brackets collapse and the trace is exact
        restricted = restrict(lebesgue, tree, 14)
        assert restricted.total_mass == tree.level_length(4)
        assert restricted.base_mass_bracket.is_exact
        # equal-length children split Lebesgue mass evenly
        assert restricted.weights.left_share(0, 0) == Fraction(1, 2)

    def test_trees_and_restrictions_hash_and_compare_by_value(self, binom13):
        beta = Geometric(Fraction(1, 4), Fraction(1, 3))
        a, b = build_cantor(beta, 4), build_cantor(beta, 4)
        assert a.nodes and a.gaps  # cached on one of the two only
        assert a == b and hash(a) == hash(b)
        assert a != build_cantor(beta, 3)
        ra, rb = restrict(binom13, a), restrict(binom13, b)
        assert ra == rb and hash(ra) == hash(rb)
        assert ra != restrict(binom13, a, 12)
        assert len({a, b}) == 1 and len({ra, rb}) == 1

    def test_restrict_rejects_massless_root(self):
        empty = TreeMeasure(BinomialWeights(Fraction(1, 2)), total_mass=Fraction(0))
        tree = build_cantor(Geometric(Fraction(1, 2), Fraction(1, 2)), 2)
        with pytest.raises(MisalignedTrees):
            restrict(empty, tree, 8)


class TestSpecs:
    def test_round_trip_binomial(self, binom13):
        spec = measure_to_spec(binom13)
        again = measure_from_spec(spec)
        assert again.weights.left_share(3, 5) == Fraction(1, 3)

    def test_round_trip_table(self):
        rows = ((Fraction(1, 4),), (Fraction(1, 2), Fraction(2, 3)))
        m = TreeMeasure(TableWeights(rows))
        again = measure_from_spec(measure_to_spec(m))
        assert again.weights.left_share(1, 1) == Fraction(2, 3)

    def test_table_depth_limit(self):
        m = TreeMeasure(TableWeights(((Fraction(1, 2),),)))
        assert m.split_depth == 1
        with pytest.raises(PreconditionViolated):
            dyadic_cdf_grid(m, 5)


class TestBracketAlgebra:
    def test_add_and_compare(self):
        a = MassBracket(Fraction(1, 4), Fraction(1, 3))
        b = MassBracket(Fraction(1, 8), Fraction(1, 8))
        total = a + b
        assert total.lower == Fraction(3, 8)
        assert total.upper == Fraction(1, 3) + Fraction(1, 8)
        assert b.is_exact and not a.is_exact

    def test_invalid_bracket(self):
        with pytest.raises(PreconditionViolated):
            MassBracket(Fraction(1, 2), Fraction(1, 3))
