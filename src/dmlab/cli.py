"""Command-line front end.

One binary, subcommand style.  Every command prints a deterministic JSON
report to stdout (or --out); timing goes to stderr so reports stay
byte-identical across runs.  Exit codes: 0 when the statement-level check
passed, 2 when the machinery was inconclusive, 1 on any error (including
usage errors).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import certify, doubling, experiments, geom, measure, qs, reports, seq
from .errors import DmlabError, PreconditionViolated
from .ratio import parse_rational

PASS, ERROR, INCONCLUSIVE = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    # a usage error is an error like any other: exit 1 (2 is reserved for
    # inconclusive results) with one JSON line on stderr
    def error(self, message):
        _print_error(f"{self.prog}: {message}", "UsageError")
        self.exit(ERROR)


def _print_error(message: str, kind: str) -> None:
    print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)


def _load_config(args) -> dict:
    """The --config file's option defaults; a key the verb does not read is
    refused, as `example` refuses an unknown --set key."""
    if not args.config:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DmlabError("config file must hold a JSON object")
    if args.topic == "example":
        verb, known = f"example {args.name}", experiments.OVERRIDE_KEYS[args.name]
    else:
        verb, known = f"{args.topic} {args.verb}", args.options
    unknown = [key for key in data if key not in known]
    if unknown:
        raise DmlabError(
            f"{verb} reads no --config key {', '.join(map(repr, unknown))}; "
            f"it reads: {', '.join(known) or 'none'}"
        )
    return data


def _setting(args, config: dict, key: str, default=None):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _require(args, config: dict, key: str):
    value = _setting(args, config, key)
    if value is None:
        raise DmlabError(f"missing required option --{key}")
    return value


def _family_arg(value) -> seq.SequenceFamily:
    if isinstance(value, str):
        value = json.loads(value)
    return seq.family_from_spec(value)


def _measure_arg(value) -> measure.TreeMeasure:
    if isinstance(value, str):
        value = json.loads(value)
    return measure.measure_from_spec(value)


def _rat(value) -> Fraction:
    return parse_rational(str(value))


def _depth_arg(args, config: dict, key: str, default: int) -> int:
    depth = int(_setting(args, config, key, default))
    geom.check_depth(depth)
    return depth


# --- seq ---------------------------------------------------------------------


def _cmd_seq_classify(args, config):
    family = _family_arg(_require(args, config, "family"))
    p = _rat(_setting(args, config, "p", "1"))
    verdict = seq.classify_ellp(family, p)
    report = {
        "command": "seq classify",
        "family": seq.family_to_spec(family),
        "p": reports.rat_str(p),
        "classification": verdict.name,
    }
    return report, "pass"


def _cmd_seq_tail(args, config):
    family = _family_arg(_require(args, config, "family"))
    p = _rat(_setting(args, config, "p", "1"))
    n_from = int(_setting(args, config, "from", 1))
    upper = seq.tail_sum_upper(family, p, n_from)
    report = {
        "command": "seq tail",
        "family": seq.family_to_spec(family),
        "p": reports.rat_str(p),
        "from": n_from,
        "tail_sum_upper": reports.tag_exact(upper),
        "note": "certified upper bound on sum of term^p beyond the index",
    }
    return report, "pass"


# --- cantor --------------------------------------------------------------------


def _cmd_cantor_build(args, config):
    beta = _family_arg(_require(args, config, "beta"))
    depth = _depth_arg(args, config, "depth", 8)
    tree = geom.build_cantor(beta, depth)
    lengths = [(k, tree.level_length(k)) for k in range(depth + 1)]
    report = {
        "command": "cantor build",
        "beta": seq.family_to_spec(beta),
        "depth": depth,
        "level_lengths": {str(k): reports.tag_exact(v) for k, v in lengths},
        "leaf_count": len(tree.edges[depth][1]),
        "plot": [reports.plot_series("level_length", lengths)],
    }
    if tree.perfectness_constant is not None:
        report["perfectness_constant"] = reports.tag_exact(tree.perfectness_constant)
    return report, "pass"


def _balls_from(args, config) -> list[geom.RationalInterval]:
    nested = _setting(args, config, "nested")
    raw = _setting(args, config, "balls")
    if nested is not None and raw is not None:
        raise PreconditionViolated("give --balls or --nested, not both")
    if nested is not None:
        return list(geom.nested_cutout(int(nested)).balls)
    if raw is None:
        raise DmlabError("provide --balls JSON or --nested COUNT")
    if isinstance(raw, str):
        raw = json.loads(raw)
    if not isinstance(raw, list) or not all(
        isinstance(ball, list) and len(ball) == 2 for ball in raw
    ):
        raise PreconditionViolated("--balls must be a JSON list of [lo, hi] pairs")
    return [geom.closed(_rat(lo), _rat(hi)) for lo, hi in raw]


def _cmd_cantor_cutout(args, config):
    balls = _balls_from(args, config)
    n_balls = int(_setting(args, config, "n-balls", len(balls)))
    fam = _setting(args, config, "diam-family")
    diam_family = _family_arg(fam) if fam is not None else None
    cfg = geom.CutOutConfig(balls, diam_family=diam_family)
    if diam_family is not None:
        cfg.validate_diameters()
    pieces = geom.remaining_set(cfg, n_balls)
    gap, diameter = geom.largest_gap(cfg, n_balls)
    report = {
        "command": "cantor cutout",
        "n_balls": n_balls,
        "component_count": len(pieces),
        "components": [
            [reports.rat_str(p.lo), reports.rat_str(p.hi)] for p in pieces
        ],
        "remaining_length": reports.tag_exact(geom.union_length(pieces)),
        "largest_gap": {
            "interval": [reports.rat_str(gap.lo), reports.rat_str(gap.hi)],
            "diameter": reports.tag_exact(diameter),
        },
    }
    return report, "pass"


# --- measure ---------------------------------------------------------------------


def _cmd_measure_mass(args, config):
    m = _measure_arg(_require(args, config, "measure"))
    lo = _rat(_require(args, config, "lo"))
    hi = _rat(_require(args, config, "hi"))
    depth = _depth_arg(args, config, "depth", 16)
    bracket = measure.interval_mass(m, geom.closed(lo, hi), depth)
    report = {
        "command": "measure mass",
        "measure": measure.measure_to_spec(m),
        "interval": [reports.rat_str(lo), reports.rat_str(hi)],
        "depth": depth,
        "mass": reports.tag_bracket(bracket.lower, bracket.upper),
    }
    return report, "pass"


def _cmd_measure_grid(args, config):
    m = _measure_arg(_require(args, config, "measure"))
    depth = _depth_arg(args, config, "depth", 8)
    grid = measure.dyadic_cdf_grid(m, depth)
    points = [(Fraction(i, 1 << depth), v) for i, v in enumerate(grid)]
    report = {
        "command": "measure grid",
        "measure": measure.measure_to_spec(m),
        "depth": depth,
        "total_mass": reports.tag_exact(m.total_mass),
        "plot": [reports.plot_series("cdf", points)],
    }
    return report, "pass"


# --- doubling ---------------------------------------------------------------------


def _cmd_doubling_scan(args, config):
    m = _measure_arg(_require(args, config, "measure"))
    depth = _depth_arg(args, config, "depth", 6)
    fit = not bool(_setting(args, config, "no-fit", False))
    rep = doubling.doubling_scan(m, depth, fit=fit, seed=args.seed or 0)
    report = {
        "command": "doubling scan",
        "measure": measure.measure_to_spec(m),
        **reports.doubling_report_payload(rep),
        "plot": [reports.plot_series("doubling_ratio_by_scale", list(rep.per_scale))],
    }
    return report, "pass"


# --- certify ---------------------------------------------------------------------


def _cmd_certify_fat(args, config):
    alpha = _family_arg(_require(args, config, "alpha"))
    t = _rat(_setting(args, config, "t", "1"))
    scale = _rat(_setting(args, config, "factor-scale", "1"))
    cert = certify.certify_fat_thick(alpha, t, scale)
    positive = cert.conclusion is certify.Conclusion.POSITIVE
    report = {
        "command": "certify fat",
        "alpha": seq.family_to_spec(alpha),
        "t": reports.rat_str(t),
        "factor_scale": reports.rat_str(scale),
        "conclusion": cert.conclusion.name,
        "first_contracting_stage": cert.n0,
        "mass_lower_bound": reports.tag_product(cert.bound),
        "notes": list(cert.notes),
    }
    return report, "pass" if positive else "inconclusive"


def _cmd_certify_thin(args, config):
    alpha = _family_arg(_require(args, config, "alpha"))
    s = _rat(_setting(args, config, "s", "1"))
    c = _rat(_setting(args, config, "c", "1"))
    epsilon = _rat(_setting(args, config, "epsilon", "1/1000"))
    cert = certify.certify_thin_porous(alpha, s, c, epsilon)
    report = {
        "command": "certify thin",
        "alpha": seq.family_to_spec(alpha),
        "s": reports.rat_str(s),
        "c": reports.rat_str(c),
        "epsilon": reports.rat_str(epsilon),
        "divergence_witness": cert.divergence_witness.name,
        "n_star": cert.n_star,
        "skipped_stages": list(cert.skipped_stages),
        "plot": [
            reports.plot_series(
                "stage_mass_upper",
                list(enumerate(cert.decay_curve, start=1)),
            )
        ],
    }
    return report, "pass"


def _cmd_certify_cutout(args, config):
    m = _measure_arg(_setting(args, config, "measure", '{"kind":"binomial","p":"1/2"}'))
    scan_depth = _depth_arg(args, config, "scan-depth", 6)
    n_total = int(_setting(args, config, "n-total", 64))
    n_balls = int(_setting(args, config, "n-balls", 18))
    r = _rat(_setting(args, config, "r", "1"))
    p = _rat(_setting(args, config, "p", "1/4"))
    scan = doubling.doubling_scan(m, scan_depth, seed=args.seed or 0)
    cfg = geom.nested_cutout(n_total)
    bound = certify.cutout_lower_bound(cfg, scan, r, n_balls, p)
    positive = bound.conclusion is certify.Conclusion.POSITIVE
    window = (scan.window_lo, scan.window_hi)
    report = {
        "command": "certify cutout",
        "measure": measure.measure_to_spec(m),
        "n_balls": n_balls,
        "r": reports.rat_str(r),
        "p": reports.rat_str(p),
        "conclusion": bound.conclusion.name,
        "value": reports.tag_window(bound.value, window),
        "main_term": reports.tag_window(bound.main_term, window),
        "penalty": reports.tag_window(bound.penalty, window),
        "gap": [reports.rat_str(bound.gap.lo), reports.rat_str(bound.gap.hi)],
        "doubling": reports.doubling_report_payload(scan),
    }
    return report, "pass" if positive else "inconclusive"


def _cmd_certify_logfloor(args, config):
    p = _rat(_setting(args, config, "p", "1/3"))
    stages = int(_setting(args, config, "stages", 12))
    schedule = certify.logfloor_schedule_mass(p, stages)
    report = {
        "command": "certify logfloor",
        "p": reports.rat_str(p),
        "stages": stages,
        "verdict": schedule.verdict.name,
        "stage_mass": reports.tag_product(schedule.closed_form),
        "plot": [
            reports.plot_series(
                "partial_product",
                list(enumerate(schedule.stage_partials, start=1)),
            )
        ],
    }
    status = "pass"
    if schedule.brute_force is not None:
        report["brute_force_mass"] = reports.tag_exact(schedule.brute_force)
        report["match_exact"] = bool(schedule.match_exact)
        if not schedule.match_exact:
            status = "fail"
    return report, status


# --- qs ---------------------------------------------------------------------


def _cmd_qs_scan(args, config):
    m = _measure_arg(_require(args, config, "measure"))
    depth = _depth_arg(args, config, "depth", 8)
    random_triples = int(_setting(args, config, "random-triples", 0))
    qsmap = qs.QSMap(m, eval_depth=depth)
    rows = qs.qs_ratio_scan(
        qsmap, depth, random_triples=random_triples, seed=args.seed or 0
    )
    report = {
        "command": "qs scan",
        "measure": measure.measure_to_spec(m),
        "depth": depth,
        "rows": [
            {
                "tau": reports.rat_str(row.tau),
                "max_ratio": reports.tag_exact(row.max_ratio),
                "witness": [reports.rat_str(w) for w in row.witness],
            }
            for row in rows
        ],
        "plot": [
            reports.plot_series(
                "qs_ratio_envelope", [(row.tau, row.max_ratio) for row in rows]
            )
        ],
        "note": "empirical distortion envelope; a lower bound for any gauge",
    }
    return report, "pass"


def _cmd_qs_pullback(args, config):
    c = _rat(_require(args, config, "C"))
    eta2 = _rat(_require(args, config, "eta2"))
    bounds = qs.pullback_constant(c, eta2)
    report = {
        "command": "qs pullback",
        "C": reports.rat_str(c),
        "eta2": reports.rat_str(eta2),
        "pullback_constant": reports.tag_bracket(bounds.lo, bounds.hi),
    }
    return report, "pass"


# --- example ---------------------------------------------------------------------


def _set_value(text: str):
    """A --set value that reads as a JSON object or array is decoded; any
    other value stays the string it was given as."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if isinstance(value, (dict, list)) else text


def _cmd_example(args, config):
    honoured = experiments.HONOURED_FLAGS.get(args.name, ())
    for flag in _RUN_FLAGS:
        if getattr(args, flag) is not None and flag not in honoured:
            raise DmlabError(f"example {args.name} takes no --{flag.replace('_', '-')}")
    given = {}
    if args.override:
        given = json.loads(args.override)
        if not isinstance(given, dict):
            raise DmlabError("--override must be a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise DmlabError(f"--set needs KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        given[key.strip()] = _set_value(value.strip())
    known = experiments.OVERRIDE_KEYS[args.name]
    unknown = [key for key in given if key not in known]
    if unknown:
        raise DmlabError(
            f"example {args.name} reads no override {', '.join(map(repr, unknown))}; "
            f"it reads: {', '.join(known) or 'none'}"
        )
    overrides = dict(config)
    if args.seed is not None:
        overrides["seed"] = args.seed
    overrides.update(given)
    report = experiments.run_experiment(args.name, overrides)
    return report, report["status"]


# --- wiring ---------------------------------------------------------------------


# Flags a verb's table row may list besides its own options: every verb that
# lists one honours it, argparse refuses it on every other verb.  `example`
# lists the run flags and refuses those its experiment does not honour.
_COMMON = {
    "out": {"help": "write the JSON report to this file"},
    "plot": {"help": "write plot-data CSV to this file"},
    "config": {"help": "JSON file with option defaults"},
    "seed": {"type": int, "help": "seed for randomized scans (default 0)"},
    "max-depth": {"type": int, "help": "hard depth cap; beats DMLAB_MAX_DEPTH"},
    "max-nodes": {"type": int, "help": "hard node cap; beats DMLAB_MAX_NODES"},
}
_RUN_FLAGS = ("seed", "max_depth", "max_nodes")
_IO = ("out", "config")
_PLOT = _IO + ("plot",)  # for verbs whose report has plot series
_CAPS = ("max-depth", "max-nodes")
_RUN = _CAPS + ("seed",)

_TOPICS = {
    "seq": "sequence families",
    "cantor": "middle-gap and cut-out geometry",
    "measure": "tree measures on [0,1]",
    "doubling": "doubling-ratio scans and fits",
    "certify": "fatness/thinness certificates",
    "qs": "increasing-map view and ratio scans",
}

# (topic, verb, help, handler, options, common flags).  A verb of None makes
# the topic the verb.  An option is a bare name, taken as --name, or a
# (name or flag, add_argument keywords) pair.
VERBS = (
    ("seq", "classify", "summability class of term^p", _cmd_seq_classify, ("family", "p"), _IO),
    ("seq", "tail", "certified tail sum upper bound", _cmd_seq_tail, ("family", "p", "from"), _IO),
    ("cantor", "build", "middle-gap construction tree", _cmd_cantor_build, ("beta", "depth"), _PLOT + _CAPS),
    ("cantor", "cutout", "components left after removing balls", _cmd_cantor_cutout,
     ("balls", "nested", "n-balls", "diam-family"), _IO),
    ("measure", "mass", "bracket the mass of an interval", _cmd_measure_mass,
     ("measure", "lo", "hi", "depth"), _IO + ("max-depth",)),
    ("measure", "grid", "exact cdf on a dyadic grid", _cmd_measure_grid, ("measure", "depth"), _PLOT + _CAPS),
    ("doubling", "scan", "certified ratio scan with window fits", _cmd_doubling_scan,
     ("measure", "depth", ("--no-fit", {"action": "store_true", "default": None})), _PLOT + _RUN),
    ("certify", "fat", "positive limit product for thick sets", _cmd_certify_fat,
     ("alpha", "t", "factor-scale"), _IO),
    ("certify", "thin", "decay certificate for porous sets", _cmd_certify_thin,
     ("alpha", "s", "c", "epsilon"), _PLOT),
    ("certify", "cutout", "survival bound after removing balls", _cmd_certify_cutout,
     ("measure", "scan-depth", "n-total", "n-balls", "r", "p"), _IO + _RUN),
    ("certify", "logfloor", "log-floor removal schedule mass", _cmd_certify_logfloor,
     ("p", "stages"), _PLOT),
    ("qs", "scan", "empirical distortion envelope", _cmd_qs_scan,
     ("measure", "depth", "random-triples"), _PLOT + _RUN),
    ("qs", "pullback", "doubling constant through a gauge value", _cmd_qs_pullback, ("C", "eta2"), _IO),
    ("example", None, "named end-to-end experiments", _cmd_example, (
        ("name", {"choices": experiments.EXPERIMENT_NAMES}),
        ("--override", {"help": "JSON object of experiment overrides"}),
        ("--set", {"action": "append",
                   "help": "KEY=VALUE override; a JSON object or array value is decoded"}),
    ), _PLOT + _RUN),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every row of VERBS, built once per process: argparse
    keeps no per-call state on it, so every `main` call reuses it."""
    parser = _Parser(prog="dmlab", description=__doc__)
    topics = parser.add_subparsers(dest="topic", required=True)
    verbs = {}
    for topic, verb, help_text, handler, options, common in VERBS:
        if verb is None:
            p = topics.add_parser(topic, help=help_text)
        else:
            if topic not in verbs:
                topic_p = topics.add_parser(topic, help=_TOPICS[topic])
                verbs[topic] = topic_p.add_subparsers(dest="verb", required=True)
            p = verbs[topic].add_parser(verb, help=help_text)
        for name in common:
            p.add_argument(f"--{name}", **_COMMON[name])
        names = []
        for option in options:
            name, kwargs = (f"--{option}", {}) if isinstance(option, str) else option
            p.add_argument(name, **kwargs)
            names.append(name.removeprefix("--"))
        # the option names are the keys a --config file may set
        p.set_defaults(handler=handler, options=tuple(names), plot=None,
                       **dict.fromkeys(_RUN_FLAGS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        config = _load_config(args)
        with geom.caps(args.max_depth, args.max_nodes):
            report, status = args.handler(args, config)
        if args.plot and not report.get("plot"):
            raise DmlabError("this report has no plot series for --plot to write")
        report.setdefault("schema", experiments.SCHEMA)
        text = reports.dump_report(report)
        # files first, so a file that cannot be written leaves stdout empty
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.plot:
            with open(args.plot, "w", encoding="utf-8") as fh:
                fh.write(reports.emit_plotdata(report))
    except (DmlabError, OSError, ValueError) as exc:
        _print_error(str(exc), type(exc).__name__)
        return ERROR

    if not args.out:
        sys.stdout.write(text)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    if status == "pass":
        return PASS
    if status == "inconclusive":
        return INCONCLUSIVE
    return ERROR


if __name__ == "__main__":
    sys.exit(main())
