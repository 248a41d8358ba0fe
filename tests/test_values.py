"""The value-type contract of every record and validated value in dmlab.

Result records are `typing.NamedTuple`s; validated values are slotted
subclasses of `ratio.Value`. Both keep the names, fields, keyword
construction, equality, hashing, immutability, reprs and refusals that the
types had as frozen dataclasses: the reprs and refusal messages below were
recorded from the dataclass forms.
"""

import itertools
import pickle
from fractions import Fraction as F

import pytest

from dmlab.certify import (
    Conclusion,
    CutoutBound,
    FatnessCertificate,
    InflationCheck,
    LimitVerdict,
    ProductBracket,
    ScheduleMassReport,
    ThinnessCertificate,
)
from dmlab.doubling import (
    DoublingReport,
    MassWindowFit,
    RatioDecayFit,
    ScanWitness,
    SmallBallCase,
    SmallBallResult,
)
from dmlab.enclosure import Bounds
from dmlab.errors import InvalidFamily, PreconditionViolated
from dmlab.geom import (
    CutOutConfig,
    RationalInterval,
    ThickPair,
    ThickStructure,
    ThickVerdict,
    ThickViolation,
    build_cantor,
    closed,
    open_interval,
)
from dmlab.measure import BinomialWeights, MassBracket, TableWeights, TreeMeasure, measure_from_spec
from dmlab.qs import RatioScanRow
from dmlab.ratio import Value
from dmlab.seq import (
    Constant,
    Ell0Class,
    Ell0Kind,
    ExplicitFinite,
    Geometric,
    LogFloor,
    Power,
    Scaled,
    Summability,
)

HALF, QUARTER = F(1, 2), F(1, 4)


def geo():
    return Geometric(QUARTER, HALF)


def bracket():
    return ProductBracket(((3, 8, 1, 2, 5),), HALF, F(3, 4))


def witness():
    return ScanWitness(x=HALF, r=QUARTER, ratio_lower=F(3))


# name -> (a maker of one instance, the repr of that instance)
VALUES = {
    "Bounds": (lambda: Bounds(F(1, 3), HALF), "Bounds(lo=Fraction(1, 3), hi=Fraction(1, 2))"),
    "MassBracket": (lambda: MassBracket(F(1, 3), HALF),
                    "MassBracket(lower=Fraction(1, 3), upper=Fraction(1, 2))"),
    "BinomialWeights": (lambda: BinomialWeights(F(1, 3)), "BinomialWeights(p=Fraction(1, 3))"),
    "TableWeights": (lambda: TableWeights(((HALF,), (F(1, 3), F(2, 3)))),
                     "TableWeights(levels=((Fraction(1, 2),), (Fraction(1, 3), Fraction(2, 3))))"),
    "TreeMeasure": (lambda: TreeMeasure(BinomialWeights(F(1, 3)), total_mass=F(2)),
                    "TreeMeasure(weights=BinomialWeights(p=Fraction(1, 3)), base=None, "
                    "total_mass=Fraction(2, 1), base_mass_bracket=None)"),
    "RationalInterval": (lambda: RationalInterval(QUARTER, HALF, lo_open=True),
                         "RationalInterval(lo=Fraction(1, 4), hi=Fraction(1, 2), lo_open=True, hi_open=False)"),
    "CutOutConfig": (lambda: CutOutConfig((closed(0, QUARTER),), diam_family=geo()),
                     "CutOutConfig(balls=(RationalInterval(lo=Fraction(0, 1), hi=Fraction(1, 4), lo_open=False, "
                     "hi_open=False),), diam_family=Geometric(a=Fraction(1, 4), q=Fraction(1, 2)))"),
    "ConstructionTree": (lambda: build_cantor(geo(), 1),
                         "ConstructionTree(beta=Geometric(a=Fraction(1, 4), q=Fraction(1, 2)), depth=1, "
                         "edges=((1, (0,), (1,)), (8, (0, 5), (3, 8))), perfectness_constant=Fraction(5, 3))"),
    "ProductBracket": (bracket, "ProductBracket(factors=((3, 8, 1, 2, 5),), tail_lower=Fraction(1, 2), "
                                "tail_upper=Fraction(3, 4))"),
    "Geometric": (geo, "Geometric(a=Fraction(1, 4), q=Fraction(1, 2))"),
    "Power": (lambda: Power(HALF, 2, offset=1), "Power(a=Fraction(1, 2), gamma=2, offset=1)"),
    "LogFloor": (lambda: LogFloor(HALF), "LogFloor(base=Fraction(1, 2))"),
    "Constant": (lambda: Constant(HALF), "Constant(value=Fraction(1, 2))"),
    "ExplicitFinite": (lambda: ExplicitFinite((HALF, QUARTER)),
                       "ExplicitFinite(terms=(Fraction(1, 2), Fraction(1, 4)))"),
    "Scaled": (lambda: Scaled(HALF, Constant(HALF)),
               "Scaled(c=Fraction(1, 2), inner=Constant(value=Fraction(1, 2)))"),
}

RECORDS = {
    "FatnessCertificate": (
        lambda: FatnessCertificate(geo(), F(1), HALF, 2, bracket(), Conclusion.POSITIVE),
        "FatnessCertificate(alpha=Geometric(a=Fraction(1, 4), q=Fraction(1, 2)), t=Fraction(1, 1), "
        "factor_scale=Fraction(1, 2), n0=2, bound=ProductBracket(factors=((3, 8, 1, 2, 5),), "
        "tail_lower=Fraction(1, 2), tail_upper=Fraction(3, 4)), conclusion=<Conclusion.POSITIVE: 'positive'>, "
        "notes=())"),
    "ThinnessCertificate": (
        lambda: ThinnessCertificate(Constant(HALF), F(1), F(1), Summability.DIVERGES, (HALF, QUARTER), F(1, 10), 3),
        "ThinnessCertificate(alpha=Constant(value=Fraction(1, 2)), s=Fraction(1, 1), c=Fraction(1, 1), "
        "divergence_witness=<Summability.DIVERGES: 'diverges'>, decay_curve=(Fraction(1, 2), Fraction(1, 4)), "
        "epsilon=Fraction(1, 10), n_star=3, skipped_stages=())"),
    "CutoutBound": (
        lambda: CutoutBound(F(1, 9), Conclusion.POSITIVE, F(1, 8), F(1, 72), F(1), F(1), F(2), F(1), HALF, F(2),
                            4, F(1, 3), F(1, 5), closed(HALF, 1), HALF),
        "CutoutBound(value=Fraction(1, 9), conclusion=<Conclusion.POSITIVE: 'positive'>, main_term=Fraction(1, 8), "
        "penalty=Fraction(1, 72), lam=Fraction(1, 1), s=Fraction(1, 1), big_lam=Fraction(2, 1), t=Fraction(1, 1), "
        "p=Fraction(1, 2), r=Fraction(2, 1), n_balls=4, diam_power_sum_upper=Fraction(1, 3), "
        "tail_upper=Fraction(1, 5), gap=RationalInterval(lo=Fraction(1, 2), hi=Fraction(1, 1), lo_open=False, "
        "hi_open=False), gap_diameter=Fraction(1, 2))"),
    "InflationCheck": (
        lambda: InflationCheck(QUARTER, HALF, F(1, 20), True),
        "InflationCheck(zeta_upper=Fraction(1, 4), remaining_lower=Fraction(1, 2), "
        "slack_required=Fraction(1, 20), passed=True)"),
    "ScheduleMassReport": (
        lambda: ScheduleMassReport(HALF, 2, (1, 2), bracket(), None, None, LimitVerdict.POSITIVE_LIMIT,
                                   (HALF, QUARTER)),
        "ScheduleMassReport(p=Fraction(1, 2), stages=2, exponents=(1, 2), closed_form=ProductBracket("
        "factors=((3, 8, 1, 2, 5),), tail_lower=Fraction(1, 2), tail_upper=Fraction(3, 4)), "
        "brute_force=None, match_exact=None, verdict=<LimitVerdict.POSITIVE_LIMIT: 'positive_limit'>, "
        "stage_partials=(Fraction(1, 2), Fraction(1, 4)))"),
    "ScanWitness": (witness, "ScanWitness(x=Fraction(1, 2), r=Fraction(1, 4), ratio_lower=Fraction(3, 1))"),
    "RatioDecayFit": (
        lambda: RatioDecayFit(F(2), F(1, 3), 10, 4, 1),
        "RatioDecayFit(big_lam=Fraction(2, 1), t=Fraction(1, 3), pairs_checked=10, holdout_size=4, rounds=1)"),
    "MassWindowFit": (
        lambda: MassWindowFit(HALF, F(1), F(2), F(3), 6),
        "MassWindowFit(lam=Fraction(1, 2), s=Fraction(1, 1), big_lam=Fraction(2, 1), t=Fraction(3, 1), samples=6)"),
    "DoublingReport": (
        lambda: DoublingReport(F(3), F(2), witness(), F(1), F(2), 4, True, notes=("n",)),
        "DoublingReport(c_upper=Fraction(3, 1), c_lower=Fraction(2, 1), witness=ScanWitness(x=Fraction(1, 2), "
        "r=Fraction(1, 4), ratio_lower=Fraction(3, 1)), s_lower=Fraction(1, 1), s_upper=Fraction(2, 1), depth=4, "
        "exact=True, ratio_decay=None, mass_window=None, notes=('n',), per_scale=())"),
    "SmallBallCase": (
        lambda: SmallBallCase(HALF, F(3, 2), QUARTER, F(1, 8)),
        "SmallBallCase(a_lo=Fraction(1, 2), a_hi=Fraction(3, 2), x=Fraction(1, 4), r=Fraction(1, 8))"),
    "SmallBallResult": (
        lambda: SmallBallResult(True, 3, margin=F(1, 7)),
        "SmallBallResult(holds=True, checked=3, counterexample=None, margin=Fraction(1, 7))"),
    "ThickPair": (
        lambda: ThickPair(closed(0, HALF), closed(QUARTER, F(3, 8)), F(1, 8), F(1, 16)),
        "ThickPair(piece=RationalInterval(lo=Fraction(0, 1), hi=Fraction(1, 2), lo_open=False, hi_open=False), "
        "gap=RationalInterval(lo=Fraction(1, 4), hi=Fraction(3, 8), lo_open=False, hi_open=False), "
        "witness_center=Fraction(1, 8), witness_radius=Fraction(1, 16))"),
    "ThickStructure": (
        lambda: ThickStructure((), 1, HALF, Constant(HALF)),
        "ThickStructure(levels=(), overlap_bound=1, witness_constant=Fraction(1, 2), "
        "alpha=Constant(value=Fraction(1, 2)), target=None)"),
    "ThickViolation": (lambda: ThickViolation("iv", 1, 0, "witness"),
                       "ThickViolation(condition='iv', level=1, index=0, detail='witness')"),
    "ThickVerdict": (lambda: ThickVerdict(False, (ThickViolation("i", 1, 0, "gap"),)),
                     "ThickVerdict(valid=False, violations=(ThickViolation(condition='i', level=1, index=0, "
                     "detail='gap'),))"),
    "RatioScanRow": (lambda: RatioScanRow(HALF, F(2), (0, QUARTER, HALF)),
                     "RatioScanRow(tau=Fraction(1, 2), max_ratio=Fraction(2, 1), "
                     "witness=(0, Fraction(1, 4), Fraction(1, 2)))"),
    "Ell0Class": (lambda: Ell0Class(Ell0Kind.NOT_IN_ELL0, witness=F(1)),
                  "Ell0Class(kind=<Ell0Kind.NOT_IN_ELL0: 'not_in_ell0'>, witness=Fraction(1, 1))"),
}

ALL = {**VALUES, **RECORDS}


@pytest.mark.parametrize("name", ALL)
def test_equal_values_compare_and_hash_equal(name):
    make, _ = ALL[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("name", ALL)
def test_repr_is_the_dataclass_repr(name):
    make, text = ALL[name]
    assert type(make()).__name__ == name
    assert repr(make()) == text


@pytest.mark.parametrize("name", ALL)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = ALL[name][0]()
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):  # nor a new attribute set
        value.stray = 1


@pytest.mark.parametrize("name", VALUES)
def test_validated_values_pickle_and_rebuild_from_their_fields(name):
    value = VALUES[name][0]()
    assert isinstance(value, Value)
    assert pickle.loads(pickle.dumps(value)) == value
    assert type(value)(**{f: getattr(value, f) for f in value._fields}) == value


def test_two_types_never_compare_equal():
    families = [Constant(HALF), LogFloor(HALF), Geometric(HALF, HALF), Power(HALF, 1),
                ExplicitFinite((HALF,)), Scaled(1, Constant(HALF))]
    for a, b in itertools.combinations(families, 2):
        assert a != b and not a == b
    assert MassBracket(F(1, 3), HALF) != Bounds(F(1, 3), HALF)
    assert Constant(HALF) != (HALF,) and Bounds(0, 1) != (0, 1)


def test_a_tree_cache_is_not_part_of_its_value():
    a, b = build_cantor(geo(), 3), build_cantor(geo(), 3)
    assert a.nodes and "nodes" in vars(a) and "nodes" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_a_bracket_s_rungs_are_not_part_of_its_value():
    a, b = bracket(), bracket()
    assert a.lower_at_least(F(1, 1000)) and a._rungs and not b._rungs
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Bounds(HALF, F(1, 3)), PreconditionViolated, "empty bounds [1/2, 1/3]"),
    (lambda: MassBracket(HALF, F(1, 3)), PreconditionViolated, "bad mass bracket [1/2, 1/3]"),
    (lambda: MassBracket(-1, 0), PreconditionViolated, "bad mass bracket [-1, 0]"),
    (lambda: BinomialWeights(1), PreconditionViolated, "binomial weight must be in (0,1), got 1"),
    (lambda: TableWeights(((HALF, HALF),)), PreconditionViolated, "level 0 needs 1 weights"),
    (lambda: TableWeights(((F(0),),)), PreconditionViolated, "weight 0 outside (0,1)"),
    (lambda: TreeMeasure(BinomialWeights(HALF), total_mass=-1), PreconditionViolated, "total mass must be >= 0"),
    (lambda: RationalInterval(HALF, QUARTER), PreconditionViolated, "interval [1/2, 1/4] is reversed"),
    (lambda: RationalInterval(HALF, F(3, 2)), PreconditionViolated, "interval [1/2, 3/2] must sit inside [0, 1]"),
    (lambda: RationalInterval(HALF, HALF, hi_open=True), PreconditionViolated, "degenerate interval cannot be open"),
    (lambda: CutOutConfig((RationalInterval(0, HALF, lo_open=True),)), PreconditionViolated,
     "cut-out balls must be closed"),
    (lambda: ProductBracket((), HALF, QUARTER), PreconditionViolated, "tail bounds out of order: [1/2, 1/4]"),
    (lambda: ProductBracket(((1, 2, 1, 3, 1),), F(0), F(1)), PreconditionViolated,
     "factor runs need ends 0 <= lower <= upper <= 1 and a count >= 1"),
    (lambda: ProductBracket(((3, 2, 3, 2, 1),), F(0), F(1)), PreconditionViolated,
     "factor runs need ends 0 <= lower <= upper <= 1 and a count >= 1"),
    (lambda: ProductBracket(((1, 2, 1, 2, 0),), F(0), F(1)), PreconditionViolated,
     "factor runs need ends 0 <= lower <= upper <= 1 and a count >= 1"),
    (lambda: Geometric(HALF, 1), InvalidFamily, "geometric ratio must satisfy 0 < q < 1"),
    (lambda: Geometric(2, HALF), InvalidFamily, "geometric scale must satisfy 0 < a < 1"),
    (lambda: Geometric("x", HALF), InvalidFamily, "not a rational: 'x'"),
    (lambda: Power(HALF, 0), InvalidFamily, "power exponent must be an integer >= 1"),
    (lambda: Power(HALF, 1.5), InvalidFamily, "power exponent must be an integer >= 1"),
    (lambda: Power(HALF, 1, offset=-1), InvalidFamily, "power offset must be an integer >= 0"),
    (lambda: Power(F(3), 1), InvalidFamily, "power family needs 0 < a/(1+offset)^gamma <= 1"),
    (lambda: LogFloor(1), InvalidFamily, "logfloor base must satisfy 0 < base < 1"),
    (lambda: Constant(0), InvalidFamily, "constant value must satisfy 0 < value < 1"),
    (lambda: Constant(None), InvalidFamily, "not a rational: None"),
    (lambda: ExplicitFinite(()), InvalidFamily, "explicit family needs at least one term"),
    (lambda: ExplicitFinite((HALF, F(1))), InvalidFamily, "explicit terms must lie in (0, 1)"),
    (lambda: Scaled(0, Constant(HALF)), InvalidFamily, "scale must be positive"),
    (lambda: Scaled(F(3), Constant(HALF)), InvalidFamily, "scaled terms must stay below 1"),
])
def test_refusals_keep_their_type_and_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def _table(*weights):
    return {"kind": "table", "weights": [list(weights)]}


@pytest.mark.parametrize("make, fields", [
    (lambda: RationalInterval(0, 1), (F(0), F(1), False, False)),
    (lambda: RationalInterval("1/3", "1/2", True), (F(1, 3), HALF, True, False)),
    (lambda: RationalInterval(QUARTER, "3/4", False, True), (QUARTER, F(3, 4), False, True)),
    (lambda: RationalInterval(HALF, HALF), (HALF, HALF, False, False)),
    (lambda: closed(0, "1/2"), (F(0), HALF, False, False)),
    (lambda: closed(QUARTER, 1), (QUARTER, F(1), False, False)),
    (lambda: open_interval("0", HALF), (F(0), HALF, True, True)),
])
def test_intervals_take_ints_strs_and_fractions(make, fields):
    iv = make()
    assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == fields
    assert all(type(end) is F for end in (iv.lo, iv.hi))


def test_measure_specs_take_ints_strs_and_fractions():
    m = measure_from_spec({"kind": "table", "weights": [["1/3"], [QUARTER, "2/3"]], "total_mass": 2})
    assert m.weights.levels == ((F(1, 3),), (QUARTER, F(2, 3))) and m.total_mass == 2
    assert all(type(w) is F for row in m.weights.levels for w in row)
    assert measure_from_spec({"kind": "binomial", "p": HALF, "total_mass": "3/2"}) == TreeMeasure(
        BinomialWeights(HALF), total_mass=F(3, 2))


# the messages these refusals gave before the checks moved onto integers
@pytest.mark.parametrize("make, message", [
    (lambda: RationalInterval("1/2", "1/4"), "interval [1/2, 1/4] is reversed"),
    (lambda: closed(1, 0), "interval [1, 0] is reversed"),
    (lambda: RationalInterval(2, 1), "interval [2, 1] is reversed"),
    (lambda: closed(F(-1, 2), HALF), "interval [-1/2, 1/2] must sit inside [0, 1]"),
    (lambda: closed(HALF, "3/2"), "interval [1/2, 3/2] must sit inside [0, 1]"),
    (lambda: RationalInterval(F(3, 2), 2), "interval [3/2, 2] must sit inside [0, 1]"),
    (lambda: RationalInterval(-1, -1), "interval [-1, -1] must sit inside [0, 1]"),
    (lambda: RationalInterval(QUARTER, QUARTER, True), "degenerate interval cannot be open"),
    (lambda: open_interval("1/3", F(1, 3)), "degenerate interval cannot be open"),
    (lambda: RationalInterval(0, 0, False, True), "degenerate interval cannot be open"),
    (lambda: TableWeights(((F(1),),)), "weight 1 outside (0,1)"),
    (lambda: TableWeights(((HALF,), (F(-1, 2), HALF))), "weight -1/2 outside (0,1)"),
    (lambda: TableWeights(((HALF,), (HALF, "3/2"))), "weight 3/2 outside (0,1)"),
    (lambda: TableWeights(((0,),)), "weight 0 outside (0,1)"),
    (lambda: measure_from_spec(_table(0)), "weight 0 outside (0,1)"),
    (lambda: measure_from_spec(_table("1")), "weight 1 outside (0,1)"),
    (lambda: measure_from_spec(_table("-1/2")), "weight -1/2 outside (0,1)"),
    (lambda: measure_from_spec(_table(F(3, 2))), "weight 3/2 outside (0,1)"),
    (lambda: measure_from_spec({"kind": "binomial", "p": 0}), "binomial weight must be in (0,1), got 0"),
    (lambda: measure_from_spec({"kind": "binomial", "p": "1"}), "binomial weight must be in (0,1), got 1"),
    (lambda: measure_from_spec({"kind": "binomial", "p": "-1/2"}), "binomial weight must be in (0,1), got -1/2"),
    (lambda: measure_from_spec({"kind": "binomial", "p": F(3, 2)}), "binomial weight must be in (0,1), got 3/2"),
])
def test_interval_and_weight_refusals_keep_their_messages(make, message):
    with pytest.raises(PreconditionViolated) as info:
        make()
    assert type(info.value) is PreconditionViolated and str(info.value) == message
