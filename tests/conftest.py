import os
from fractions import Fraction

import pytest
from hypothesis import settings

from dmlab.measure import BinomialWeights, TreeMeasure

# HYPOTHESIS_PROFILE=ci: the same examples on every run, so a red CI run
# reproduces locally with the same variable set
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def lebesgue() -> TreeMeasure:
    return TreeMeasure(BinomialWeights(Fraction(1, 2)))


@pytest.fixture
def binom13() -> TreeMeasure:
    return TreeMeasure(BinomialWeights(Fraction(1, 3)))
