"""Named end-to-end experiments with statement-level pass/fail checks.

Each runner builds its objects from exact inputs, runs the relevant
certificates, and returns a deterministic report dict: inputs, results,
a list of named boolean checks, and an overall status.  Anything the
machinery cannot decide is reported as inconclusive, never as failure.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Any, Callable

from . import certify, doubling, geom, measure, reports, seq
from .errors import DmlabError, PreconditionViolated
from .ratio import parse_integer, parse_rational

SCHEMA = "dmlab-report/1"

# The run-time flags an experiment honours: "seed" for a random draw,
# "max_depth" / "max_nodes" for a depth or node check on its path; an
# experiment not listed honours none.
HONOURED_FLAGS = {
    "middle_cantor": ("max_depth", "max_nodes"),
    "cutout_fat": ("seed", "max_depth", "max_nodes"),
}


# --- options ---------------------------------------------------------------
#
# An option table maps each option a command reads to (converter, default).
# The CLI verbs and the experiments read theirs with `read_options`; the CLI
# also builds its flags and its --config and override key checks from them.

REQUIRED = object()  # the default of an option that must be given


def read_options(spec: dict, given: dict) -> dict:
    """Each option of `spec`, in table order: its given value, else its
    default, through its converter.  A None default stays None; a REQUIRED
    option that is not given is an error."""
    options = {}
    for name, (convert, default) in spec.items():
        if name in given:
            options[name] = convert(given[name])
        elif default is REQUIRED:
            raise DmlabError(f"missing required option --{name}")
        else:
            options[name] = None if default is None else convert(default)
    return options


def check_keys(verb: str, what: str, given: dict, spec: dict) -> None:
    """Refuse a key the verb's option table does not hold."""
    unknown = [key for key in given if key not in spec]
    if unknown:
        raise DmlabError(
            f"{verb} reads no {what} {', '.join(map(repr, unknown))}; "
            f"it reads: {', '.join(spec) or 'none'}"
        )


def parse_family(value) -> seq.SequenceFamily:
    """A family spec, as a JSON object or as its text."""
    return seq.family_from_spec(json.loads(value) if isinstance(value, str) else value)


def parse_measure(value) -> measure.TreeMeasure:
    """A measure spec, as a JSON object or as its text."""
    return measure.measure_from_spec(json.loads(value) if isinstance(value, str) else value)


def _finish(report: dict, checks: list[tuple[str, bool]], inconclusive: bool = False) -> dict:
    report["checks"] = [{"name": n, "passed": ok} for n, ok in checks]
    if inconclusive:
        report["status"] = "inconclusive"
    elif all(ok for _, ok in checks):
        report["status"] = "pass"
    else:
        report["status"] = "fail"
    return report


# --- runners ---------------------------------------------------------------


def run_interval_packing(options: dict) -> dict:
    """Packings that spend the whole length budget: thin exactly when the
    pieces have disjoint interiors, fat as soon as anything overlaps."""
    half = Fraction(1, 2)
    lengths = seq.ExplicitFinite((half, half))
    disjoint = [geom.closed(0, half), geom.closed(half, 1)]
    overlapping = [geom.closed(0, half), geom.closed(Fraction(1, 4), Fraction(3, 4))]

    v_disjoint = certify.interval_packing_verdict(disjoint, lengths, total=Fraction(1))
    v_overlap = certify.interval_packing_verdict(overlapping, lengths, total=Fraction(1))
    v_empty = certify.interval_packing_verdict([], lengths, total=Fraction(1))

    report = {
        "inputs": {
            "lengths": seq.family_to_spec(lengths),
            "total": reports.tag_exact(1),
            "disjoint_intervals": [[reports.rat_str(iv.lo), reports.rat_str(iv.hi)] for iv in disjoint],
            "overlapping_intervals": [[reports.rat_str(iv.lo), reports.rat_str(iv.hi)] for iv in overlapping],
        },
        "results": {
            "disjoint_verdict": v_disjoint.name,
            "overlapping_verdict": v_overlap.name,
            "empty_prefix_verdict": v_empty.name,
        },
    }
    checks = [
        ("disjoint interiors give a thin packing", v_disjoint is certify.PackingVerdict.THIN),
        ("interior overlap gives a fat packing", v_overlap is certify.PackingVerdict.FAT),
        ("an empty packing wastes the whole budget and is fat", v_empty is certify.PackingVerdict.FAT),
    ]
    return _finish(report, checks)


def run_middle_cantor(options: dict) -> dict:
    """Middle-interval construction with gap fractions 1/(n+1)^2: the gap
    family sits in ell^(3/5) but not ell^(2/5), the surviving length is
    exactly the telescoping product with limit 1/2, and fatness is left
    open because no finite scan can refute it."""
    beta, n_partial, cross_depth = options["beta"], options["n_partial"], options["cross_depth"]

    in_35 = seq.classify_ellp(beta, Fraction(3, 5))
    in_25 = seq.classify_ellp(beta, Fraction(2, 5))
    mass = certify.product_bracket(beta, n_partial)

    tree = geom.build_cantor(beta, cross_depth)
    # one running product serves the construction check and the plot's 12 stages
    partials = list(accumulate((1 - seq.term(beta, n) for n in range(1, max(cross_depth, 12) + 1)), mul))
    construction_matches = all(tree.level_length(k) == partials[k - 1] for k in range(1, cross_depth + 1))
    stage_partials = list(enumerate(partials[:12], 1))

    half = Fraction(1, 2)
    report = {
        "inputs": {
            "beta": seq.family_to_spec(beta),
            "n_partial": n_partial,
            "cross_depth": cross_depth,
        },
        "results": {
            "ellp_three_fifths": in_35.name,
            "ellp_two_fifths": in_25.name,
            "lebesgue_mass": reports.tag_product(mass),
            "fatness": {
                "status": "open",
                "flag": "desk-scale cannot refute",
                "note": "no finite scan distinguishes fat from not-fat here",
            },
        },
        "plot": [reports.plot_series("partial_product", stage_partials)],
    }
    checks = [
        ("gap family lies in ell^(3/5)", in_35 is seq.Summability.CONVERGES),
        ("gap family escapes ell^(2/5)", in_25 is seq.Summability.DIVERGES),
        ("surviving length encloses 1/2", mass.encloses(half)),
        ("bracket width below 1/1000", mass.width_at_most(Fraction(1, 1000))),
        ("finite construction matches the partial products exactly", construction_matches),
    ]
    return _finish(report, checks)


def run_logfloor_removal(options: dict) -> dict:
    """Removal schedule driven by floor(log2(stage+1)): under the left-weight
    p tree measure the survivor keeps positive mass for p = 1/3 and loses all
    mass for p = 2/3, with the brute-force tree count agreeing exactly with
    the closed form at every checked stage."""
    p, stages = options["p"], options["stages"]
    deep_stage, threshold = options["deep_stage"], options["threshold"]

    schedule = certify.logfloor_schedule_mass(p, stages)
    results: dict[str, Any] = {
        "stage_mass": reports.tag_product(schedule.closed_form),
        "verdict": schedule.verdict.name,
        "removal_depths": list(schedule.exponents),
    }
    checks: list[tuple[str, bool]] = []
    if schedule.brute_force is not None:
        results["brute_force_mass"] = reports.tag_exact(schedule.brute_force)
        checks.append(
            ("independent tree count equals the closed form exactly", bool(schedule.match_exact))
        )

    # read off the factors 1 - p^m_j, each in (0, 1): plotted values below 10^-60 can tie
    monotone = all(0 < p**m < 1 for m in schedule.exponents)
    checks.append(("partial products strictly decrease", monotone))

    if schedule.verdict is certify.LimitVerdict.POSITIVE_LIMIT:
        deep = certify.product_bracket(seq.LogFloor(p), deep_stage)
        results["limit_lower_bound"] = reports.tag_product(deep)
        checks.append(
            ("limit mass certified at least 1/10", deep.lower_at_least(Fraction(1, 10)))
        )
    else:
        stage, value = certify.logfloor_vanishing_stage(p, threshold)
        results["vanishing_stage"] = stage
        results["vanishing_partial"] = reports.tag_exact(value)
        checks.append(
            (f"partial product falls below {threshold} at a finite stage", value < threshold)
        )

    report = {
        "inputs": {
            "p": reports.tag_exact(p),
            "stages": stages,
            "deep_stage": deep_stage,
            "threshold": reports.tag_exact(threshold),
        },
        "results": results,
        "plot": [reports.plot_series("partial_product", list(enumerate(schedule.stage_partials, 1)))],
    }
    return _finish(report, checks)


def run_porous_thin(options: dict) -> dict:
    """Uniform relative holes force thinness: each stage multiplies the mass
    upper bound by (1 - c * alpha_n^s) and divergence drives it to zero."""
    alpha, s, c, epsilon = options["alpha"], options["s"], options["c"], options["epsilon"]

    cert = certify.certify_thin_porous(alpha, s, c, epsilon)
    curve_points = [(n, v) for n, v in enumerate(cert.decay_curve, start=1)]

    report = {
        "inputs": {
            "alpha": seq.family_to_spec(alpha),
            "s": reports.tag_exact(s),
            "c": reports.tag_exact(c),
            "epsilon": reports.tag_exact(epsilon),
        },
        "results": {
            "divergence_witness": cert.divergence_witness.name,
            "n_star": cert.n_star,
            "final_mass_upper": reports.tag_exact(cert.decay_curve[-1]),
            "skipped_stages": list(cert.skipped_stages),
        },
        "plot": [reports.plot_series("stage_mass_upper", curve_points)],
    }
    checks = [
        ("hole sizes diverge in the s-th power", cert.divergence_witness is seq.Summability.DIVERGES),
        ("mass upper bound falls below epsilon", cert.decay_curve[-1] < epsilon),
        (
            "decay curve never increases",
            all(a >= b for a, b in zip(cert.decay_curve, cert.decay_curve[1:])),
        ),
    ]
    return _finish(report, checks)


def run_thick_fat(options: dict) -> dict:
    """Geometric gap ratios keep a thick construction fat: the per-stage
    decay factors multiply to a certified positive limit."""
    alpha, t, factor_scale = options["alpha"], options["t"], options["factor_scale"]

    cert = certify.certify_fat_thick(alpha, t, factor_scale)

    report = {
        "inputs": {
            "alpha": seq.family_to_spec(alpha),
            "t": reports.tag_exact(t),
            "factor_scale": reports.tag_exact(factor_scale),
        },
        "results": {
            "conclusion": cert.conclusion.name,
            "first_contracting_stage": cert.n0,
            "mass_lower_bound": reports.tag_product(cert.bound),
            "notes": list(cert.notes),
        },
    }
    positive = cert.conclusion is certify.Conclusion.POSITIVE
    checks = [
        ("limit product certified positive", positive),
        ("certified bracket is nondegenerate", cert.bound.positive()),
    ]
    return _finish(report, checks, inconclusive=not positive)


def run_cutout_fat(options: dict) -> dict:
    """Nested dyadic balls removed from the unit interval under Lebesgue
    measure: the window-validated mass fit plus the declared diameter family
    certify that enough balls still leave positive mass, and inflating the
    removed balls slightly does not destroy the remainder."""
    m, scan_depth, n_balls = options["measure"], options["scan_depth"], options["n_balls"]
    probe_n, r, p, eval_depth = options["probe_n"], options["r"], options["p"], options["eval_depth"]

    scan = doubling.doubling_scan(m, scan_depth, seed=options["seed"])
    tag = reports.tag_window(scan.window)
    config = geom.nested_cutout(options["n_total"])

    bound = certify.cutout_lower_bound(config, scan, r, n_balls, p)
    probe = certify.cutout_lower_bound(config, scan, r, probe_n, p)
    direct = measure.cutout_mass(m, config, n_balls, eval_depth)

    q_exp = certify.solve_inflation_exponent(
        scan.mass_window.big_lam, scan.mass_window.t, Fraction(1), Fraction(1, 2)
    )
    inflation = certify.inflated_remainder_check(
        m, config, n_balls, q_exp, Fraction(1, 2), eval_depth
    )

    report = {
        "inputs": {
            "measure": measure.measure_to_spec(m),
            "scan_depth": scan_depth,
            "n_total_balls": options["n_total"],
            "n_balls": n_balls,
            "probe_n": probe_n,
            "r": reports.tag_exact(r),
            "p": reports.tag_exact(p),
            "diam_family": seq.family_to_spec(config.diam_family),
        },
        "results": {
            "doubling": reports.doubling_report_payload(scan),
            "certified_bound": {
                "value": tag(bound.value),
                "conclusion": bound.conclusion.name,
                "main_term": tag(bound.main_term),
                "penalty": tag(bound.penalty),
                "gap": [reports.rat_str(bound.gap.lo), reports.rat_str(bound.gap.hi)],
                "gap_diameter": reports.tag_exact(bound.gap_diameter),
            },
            "small_n_probe": {
                "n_balls": probe_n,
                "value": tag(probe.value),
                "conclusion": probe.conclusion.name,
            },
            "direct_mass": reports.tag_bracket(direct.lower, direct.upper),
            "inflation": {
                "exponent": reports.tag_exact(q_exp),
                "zeta_upper": reports.tag_exact(inflation.zeta_upper),
                "remaining_lower": reports.tag_exact(inflation.remaining_lower),
                "passed": inflation.passed,
            },
        },
        "plot": [reports.plot_series("doubling_ratio_by_scale", list(scan.per_scale))],
    }
    positive = bound.conclusion is certify.Conclusion.POSITIVE
    checks = [
        ("mass window fit is available", scan.mass_window is not None),
        ("certified lower bound is positive", positive),
        ("direct mass evaluation dominates the certified bound", direct.lower >= bound.value),
        ("small-ball-count probe stays honestly inconclusive",
         probe.conclusion is certify.Conclusion.INCONCLUSIVE),
        ("inflated removal keeps the required mass", inflation.passed),
    ]
    return _finish(report, checks, inconclusive=not positive)


# Each experiment's runner and option table.  A default is written as the
# value a user would give, so it takes the same path through the converter.
EXPERIMENTS: dict[str, tuple[Callable[[dict], dict], dict]] = {
    "interval_packing": (run_interval_packing, {}),
    "middle_cantor": (run_middle_cantor, {
        "beta": (parse_family, {"kind": "power", "a": "1", "gamma": 2, "offset": 1}),
        "n_partial": (parse_integer, 10_000), "cross_depth": (parse_integer, 8)}),
    "logfloor_removal": (run_logfloor_removal, {
        "p": (parse_rational, "1/3"), "stages": (parse_integer, 12),
        "deep_stage": (parse_integer, 4096), "threshold": (parse_rational, "1/1000000")}),
    "porous_thin": (run_porous_thin, {
        "alpha": (parse_family, {"kind": "constant", "value": "1/2"}),
        "s": (parse_rational, "1"), "c": (parse_rational, "1"),
        "epsilon": (parse_rational, "1/1000")}),
    "thick_fat": (run_thick_fat, {
        "alpha": (parse_family, {"kind": "geometric", "a": "1/2", "q": "1/2"}),
        "t": (parse_rational, "1"), "factor_scale": (parse_rational, "1")}),
    "cutout_fat": (run_cutout_fat, {
        "measure": (parse_measure, {"kind": "binomial", "p": "1/2"}),
        "scan_depth": (parse_integer, 6), "n_total": (parse_integer, 64),
        "n_balls": (parse_integer, 18), "probe_n": (parse_integer, 4),
        "r": (parse_rational, "1"), "p": (parse_rational, "1/4"),
        "eval_depth": (parse_integer, 20), "seed": (parse_integer, 0)}),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run_experiment(name: str, overrides: dict | None = None) -> dict:
    """Run the named experiment with its options read from `overrides`."""
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENT_NAMES)
        raise PreconditionViolated(f"unknown experiment {name!r}; known: {known}")
    runner, spec = EXPERIMENTS[name]
    overrides = {} if overrides is None else overrides
    check_keys(f"example {name}", "override", overrides, spec)
    return {**runner(read_options(spec, overrides)), "schema": SCHEMA, "experiment": name}
