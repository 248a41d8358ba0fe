"""Exact-arithmetic lab for doubling measures on the unit interval.

Builds Cantor-type and cut-out sets, evaluates tree-measure masses with
certified brackets, and produces quantitative fatness/thinness certificates
checked against independent brute-force routes.
"""

from .certify import (
    Conclusion,
    CutoutBound,
    FatnessCertificate,
    LimitVerdict,
    PackingVerdict,
    ProductBracket,
    ThinnessCertificate,
    certify_fat_thick,
    certify_thin_porous,
    cutout_lower_bound,
    inflated_remainder_check,
    interval_packing_verdict,
    logfloor_schedule_mass,
    logfloor_vanishing_stage,
    product_bracket,
    solve_inflation_exponent,
    tail_domination_start,
)
from .doubling import (
    DoublingReport,
    MassWindowFit,
    RatioDecayFit,
    doubling_scan,
    verify_small_ball_bound,
)
from .enclosure import DEFAULT_BITS, Bounds, exp_neg_upper, log2_bounds, pow_bounds, refine
from .errors import DmlabError
from .geom import (
    ConstructionTree,
    CutOutConfig,
    RationalInterval,
    ThickStructure,
    build_cantor,
    closed,
    inflate,
    largest_gap,
    merge_components,
    open_interval,
    remaining_set,
    subtract_intervals,
    thick_from_cantor,
    verify_thick,
)
from .measure import (
    BinomialWeights,
    MassBracket,
    TableWeights,
    TreeMeasure,
    cdf,
    cutout_mass,
    dyadic_cdf_grid,
    interval_mass,
    restrict,
)
from .qs import (
    pullback_constant,
    qs_ratio_scan,
)
from .seq import (
    Constant,
    ExplicitFinite,
    Geometric,
    LogFloor,
    Power,
    Scaled,
    Summability,
    classify_ell0,
    classify_ellp,
    logfloor_exponent,
    tail_sum_upper,
    term,
)

__version__ = "0.1.0"
