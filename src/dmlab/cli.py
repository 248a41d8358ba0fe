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

from . import certify, doubling, experiments, geom, measure, qs, reports, seq
from .errors import DmlabError, PreconditionViolated
from .experiments import REQUIRED, check_keys, parse_family, parse_measure, read_options
from .ratio import parse_integer, parse_rational

PASS, ERROR, INCONCLUSIVE = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    # a usage error is an error like any other: exit 1 (2 is reserved for
    # inconclusive results) with one JSON line on stderr
    def error(self, message):
        _print_error(f"{self.prog}: {message}", "UsageError")
        self.exit(ERROR)


def _print_error(message: str, kind: str) -> None:
    print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)


def _load_config(path: str | None, verb: str, spec: dict) -> dict:
    """The --config file's option values; a key not in the table is refused."""
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DmlabError("config file must hold a JSON object")
    check_keys(verb, "--config key", data, spec)
    return data


def _switch(value) -> bool:
    """An on/off option: the bare flag, or a JSON boolean in --config."""
    if not isinstance(value, bool):
        raise PreconditionViolated(f"malformed switch {value!r}; give true or false")
    return value


def _depth(value) -> int:
    depth = parse_integer(value)
    geom.check_depth(depth)
    return depth


def _balls(value) -> list[geom.RationalInterval]:
    if isinstance(value, str):
        value = json.loads(value)
    if not isinstance(value, list) or not all(
        isinstance(ball, list) and len(ball) == 2 for ball in value
    ):
        raise PreconditionViolated("--balls must be a JSON list of [lo, hi] pairs")
    return [geom.closed(parse_rational(lo), parse_rational(hi)) for lo, hi in value]


# --- seq ---------------------------------------------------------------------


def _cmd_seq_classify(options, seed):
    family, p = options["family"], options["p"]
    return {
        "family": seq.family_to_spec(family),
        "p": reports.rat_str(p),
        "classification": seq.classify_ellp(family, p).name,
    }, "pass"


def _cmd_seq_tail(options, seed):
    family, p, n_from = options["family"], options["p"], options["from"]
    return {
        "family": seq.family_to_spec(family),
        "p": reports.rat_str(p),
        "from": n_from,
        "tail_sum_upper": reports.tag_printable(seq.tail_sum_upper(family, p, n_from)),
        "note": "certified upper bound on sum of term^p beyond the index",
    }, "pass"


# --- cantor --------------------------------------------------------------------


def _cmd_cantor_build(options, seed):
    beta, depth = options["beta"], options["depth"]
    tree = geom.build_cantor(beta, depth)
    lengths = [(k, tree.level_length(k)) for k in range(depth + 1)]
    report = {
        "beta": seq.family_to_spec(beta),
        "depth": depth,
        "level_lengths": {str(k): reports.tag_exact(v) for k, v in lengths},
        "leaf_count": len(tree.edges[depth][1]),
        "plot": [reports.plot_series("level_length", lengths)],
    }
    if tree.perfectness_constant is not None:
        report["perfectness_constant"] = reports.tag_exact(tree.perfectness_constant)
    return report, "pass"


def _cmd_cantor_cutout(options, seed):
    nested, balls = options["nested"], options["balls"]
    if nested is not None and balls is not None:
        raise PreconditionViolated("give --balls or --nested, not both")
    if nested is not None:
        balls = list(geom.nested_cutout(nested).balls)
    elif balls is None:
        raise DmlabError("provide --balls JSON or --nested COUNT")
    n_balls = len(balls) if options["n-balls"] is None else options["n-balls"]
    cfg = geom.CutOutConfig(balls, diam_family=options["diam-family"])
    if cfg.diam_family is not None:
        cfg.validate_diameters()
    pieces = geom.remaining_set(cfg, n_balls)
    gap, diameter = geom.largest_gap(pieces, n_balls)
    return {
        "n_balls": n_balls,
        "component_count": len(pieces),
        "components": [[reports.rat_str(p.lo), reports.rat_str(p.hi)] for p in pieces],
        "remaining_length": reports.tag_exact(geom.union_length(pieces)),
        "largest_gap": {
            "interval": [reports.rat_str(gap.lo), reports.rat_str(gap.hi)],
            "diameter": reports.tag_exact(diameter),
        },
    }, "pass"


# --- measure ---------------------------------------------------------------------


def _cmd_measure_mass(options, seed):
    m, lo, hi, depth = options["measure"], options["lo"], options["hi"], options["depth"]
    bracket = measure.interval_mass(m, geom.closed(lo, hi), depth)
    return {
        "measure": measure.measure_to_spec(m),
        "interval": [reports.rat_str(lo), reports.rat_str(hi)],
        "depth": depth,
        "mass": reports.tag_bracket(bracket.lower, bracket.upper),
    }, "pass"


def _cmd_measure_grid(options, seed):
    m, depth = options["measure"], options["depth"]
    nums, den = measure.dyadic_cdf_numerators(m, depth)
    return {
        "measure": measure.measure_to_spec(m),
        "depth": depth,
        "total_mass": reports.tag_exact(m.total_mass),
        "plot": [reports.plot_series("cdf", [((i, 1 << depth), (n, den)) for i, n in enumerate(nums)])],
    }, "pass"


# --- doubling ---------------------------------------------------------------------


def _cmd_doubling_scan(options, seed):
    m = options["measure"]
    rep = doubling.doubling_scan(m, options["depth"], fit=not options["no-fit"], seed=seed)
    return {
        "measure": measure.measure_to_spec(m),
        **reports.doubling_report_payload(rep),
        "plot": [reports.plot_series("doubling_ratio_by_scale", list(rep.per_scale))],
    }, "pass"


# --- certify ---------------------------------------------------------------------


def _cmd_certify_fat(options, seed):
    alpha, t, scale = options["alpha"], options["t"], options["factor-scale"]
    cert = certify.certify_fat_thick(alpha, t, scale)
    return {
        "alpha": seq.family_to_spec(alpha),
        "t": reports.rat_str(t),
        "factor_scale": reports.rat_str(scale),
        "conclusion": cert.conclusion.name,
        "first_contracting_stage": cert.n0,
        "mass_lower_bound": reports.tag_product(cert.bound),
        "notes": list(cert.notes),
    }, ("pass" if cert.conclusion is certify.Conclusion.POSITIVE else "inconclusive")


def _cmd_certify_thin(options, seed):
    alpha, s, c, epsilon = options["alpha"], options["s"], options["c"], options["epsilon"]
    cert = certify.certify_thin_porous(alpha, s, c, epsilon)
    return {
        "alpha": seq.family_to_spec(alpha),
        "s": reports.rat_str(s),
        "c": reports.rat_str(c),
        "epsilon": reports.rat_str(epsilon),
        "divergence_witness": cert.divergence_witness.name,
        "n_star": cert.n_star,
        "skipped_stages": list(cert.skipped_stages),
        "plot": [reports.plot_series("stage_mass_upper", list(enumerate(cert.decay_curve, start=1)))],
    }, "pass"


def _cmd_certify_cutout(options, seed):
    m, n_balls, r, p = options["measure"], options["n-balls"], options["r"], options["p"]
    scan = doubling.doubling_scan(m, options["scan-depth"], seed=seed)
    cfg = geom.nested_cutout(options["n-total"])
    bound, tag = certify.cutout_lower_bound(cfg, scan, r, n_balls, p), reports.tag_window(scan.window)
    return {
        "measure": measure.measure_to_spec(m),
        "n_balls": n_balls,
        "r": reports.rat_str(r),
        "p": reports.rat_str(p),
        "conclusion": bound.conclusion.name,
        "value": tag(bound.value),
        "main_term": tag(bound.main_term),
        "penalty": tag(bound.penalty),
        "gap": [reports.rat_str(bound.gap.lo), reports.rat_str(bound.gap.hi)],
        "doubling": reports.doubling_report_payload(scan),
    }, ("pass" if bound.conclusion is certify.Conclusion.POSITIVE else "inconclusive")


def _cmd_certify_logfloor(options, seed):
    p, stages = options["p"], options["stages"]
    schedule = certify.logfloor_schedule_mass(p, stages)
    report = {
        "p": reports.rat_str(p),
        "stages": stages,
        "verdict": schedule.verdict.name,
        "stage_mass": reports.tag_product(schedule.closed_form),
        "plot": [reports.plot_series("partial_product", list(enumerate(schedule.stage_partials, 1)))],
    }
    status = "pass"
    if schedule.brute_force is not None:
        report["brute_force_mass"] = reports.tag_exact(schedule.brute_force)
        report["match_exact"] = bool(schedule.match_exact)
        if not schedule.match_exact:
            status = "fail"
    return report, status


# --- qs ---------------------------------------------------------------------


def _cmd_qs_scan(options, seed):
    m, depth = options["measure"], options["depth"]
    rows = qs.qs_ratio_scan(m, depth, random_triples=options["random-triples"], seed=seed)
    return {
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
        "plot": [reports.plot_series("qs_ratio_envelope", [(row.tau, row.max_ratio) for row in rows])],
        "note": "empirical distortion envelope; a lower bound for any gauge",
    }, "pass"


def _cmd_qs_pullback(options, seed):
    c, eta2 = options["C"], options["eta2"]
    bounds = qs.pullback_constant(c, eta2)
    return {
        "C": reports.rat_str(c),
        "eta2": reports.rat_str(eta2),
        "pullback_constant": reports.tag_bracket(bounds.lo, bounds.hi),
    }, "pass"


# --- example ---------------------------------------------------------------------


def _example_overrides(args) -> dict:
    """An experiment's overrides: --config, then --seed, then --override and
    --set; a key must be in the experiment's option table."""
    verb, spec = f"example {args.name}", experiments.EXPERIMENTS[args.name][1]
    overrides = _load_config(args.config, verb, spec)
    honoured = experiments.HONOURED_FLAGS.get(args.name, ())
    for flag in _RUN_FLAGS:
        if getattr(args, flag) is not None and flag not in honoured:
            raise DmlabError(f"{verb} takes no --{flag.replace('_', '-')}")
    given = {}
    if args.override:
        given = json.loads(args.override)
        if not isinstance(given, dict):
            raise DmlabError("--override must be a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise DmlabError(f"--set needs KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        given[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = args.seed
    overrides.update(given)
    return overrides


def _verb_options(args) -> dict:
    """The verb's options: a flag beats --config, which beats the default."""
    given = _load_config(args.config, f"{args.topic} {args.verb}", args.spec)
    for name in args.spec:
        flag = getattr(args, name.replace("-", "_"))
        if flag is not None:
            given[name] = flag
    return read_options(args.spec, given)


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
_SWITCH = {"action": "store_true", "default": None}  # argparse keywords of a _switch option

_TOPICS = {
    "seq": "sequence families",
    "cantor": "middle-gap and cut-out geometry",
    "measure": "tree measures on [0,1]",
    "doubling": "doubling-ratio scans and fits",
    "certify": "fatness/thinness certificates",
    "qs": "increasing-map view and ratio scans",
}

# (topic, verb, help, handler, option table, common flags).  Each option is
# offered as --NAME and may be set by a --config key NAME; a handler takes
# the options read from the table and the seed.
VERBS = (
    ("seq", "classify", "summability class of term^p", _cmd_seq_classify,
     {"family": (parse_family, REQUIRED), "p": (parse_rational, "1")}, _IO),
    ("seq", "tail", "certified tail sum upper bound", _cmd_seq_tail,
     {"family": (parse_family, REQUIRED), "p": (parse_rational, "1"),
      "from": (parse_integer, 1)}, _IO),
    ("cantor", "build", "middle-gap construction tree", _cmd_cantor_build,
     {"beta": (parse_family, REQUIRED), "depth": (_depth, 8)}, _PLOT + _CAPS),
    ("cantor", "cutout", "components left after removing balls", _cmd_cantor_cutout,
     {"nested": (parse_integer, None), "balls": (_balls, None), "n-balls": (parse_integer, None),
      "diam-family": (parse_family, None)}, _IO),
    ("measure", "mass", "bracket the mass of an interval", _cmd_measure_mass,
     {"measure": (parse_measure, REQUIRED), "lo": (parse_rational, REQUIRED),
      "hi": (parse_rational, REQUIRED), "depth": (_depth, 16)}, _IO + ("max-depth",)),
    ("measure", "grid", "exact cdf on a dyadic grid", _cmd_measure_grid,
     {"measure": (parse_measure, REQUIRED), "depth": (_depth, 8)}, _PLOT + _CAPS),
    ("doubling", "scan", "certified ratio scan with window fits", _cmd_doubling_scan,
     {"measure": (parse_measure, REQUIRED), "depth": (_depth, 6),
      "no-fit": (_switch, False)}, _PLOT + _RUN),
    ("certify", "fat", "positive limit product for thick sets", _cmd_certify_fat,
     {"alpha": (parse_family, REQUIRED), "t": (parse_rational, "1"),
      "factor-scale": (parse_rational, "1")}, _IO),
    ("certify", "thin", "decay certificate for porous sets", _cmd_certify_thin,
     {"alpha": (parse_family, REQUIRED), "s": (parse_rational, "1"), "c": (parse_rational, "1"),
      "epsilon": (parse_rational, "1/1000")}, _PLOT),
    ("certify", "cutout", "survival bound after removing balls", _cmd_certify_cutout,
     {"measure": (parse_measure, {"kind": "binomial", "p": "1/2"}), "scan-depth": (_depth, 6),
      "n-total": (parse_integer, 64), "n-balls": (parse_integer, 18), "r": (parse_rational, "1"),
      "p": (parse_rational, "1/4")}, _IO + _RUN),
    ("certify", "logfloor", "log-floor removal schedule mass", _cmd_certify_logfloor,
     {"p": (parse_rational, "1/3"), "stages": (parse_integer, 12)}, _PLOT),
    ("qs", "scan", "empirical distortion envelope", _cmd_qs_scan,
     {"measure": (parse_measure, REQUIRED), "depth": (_depth, 8),
      "random-triples": (parse_integer, 0)}, _PLOT + _RUN),
    ("qs", "pullback", "doubling constant through a gauge value", _cmd_qs_pullback,
     {"C": (parse_rational, REQUIRED), "eta2": (parse_rational, REQUIRED)}, _IO),
    # an experiment's options come from its own table in experiments.EXPERIMENTS
    ("example", None, "named end-to-end experiments", None, {}, _PLOT + _RUN),
)
_EXAMPLE_ARGUMENTS = (
    ("name", {"choices": experiments.EXPERIMENT_NAMES}),
    ("--override", {"help": "JSON object of experiment overrides"}),
    ("--set", {"action": "append",
               "help": "KEY=VALUE override, read as text like a verb's flag"}),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every row of VERBS, built once per process: argparse
    keeps no per-call state on it, so every `main` call reuses it.  `verbs`
    maps each row's argv head, (topic, verb) or ("example",), to its parser."""
    parser = _Parser(prog="dmlab", description=__doc__)
    parser.verbs = {}
    topics = parser.add_subparsers(dest="topic", required=True)
    topic_verbs = {}
    for topic, verb, help_text, handler, spec, common in VERBS:
        if verb is None:
            p = parser.verbs[(topic,)] = topics.add_parser(topic, help=help_text)
            for name, kwargs in _EXAMPLE_ARGUMENTS:
                p.add_argument(name, **kwargs)
        else:
            if topic not in topic_verbs:
                topic_p = topics.add_parser(topic, help=_TOPICS[topic])
                topic_verbs[topic] = topic_p.add_subparsers(dest="verb", required=True)
            p = parser.verbs[(topic, verb)] = topic_verbs[topic].add_parser(verb, help=help_text)
        for name in common:
            p.add_argument(f"--{name}", **_COMMON[name])
        for name, (convert, _) in spec.items():
            p.add_argument(f"--{name}", **(_SWITCH if convert is _switch else {}))
        p.set_defaults(topic=topic, verb=verb, handler=handler, spec=spec, plot=None, **dict.fromkeys(_RUN_FLAGS))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, but a known `topic verb` or `example`
    goes straight to the parser the full parse would reach, so help, usage
    errors and exit codes stay the full parse's; leftovers go to the top
    parser's `error`, as there.  Python versions differ in how a parser hands
    "--" to a subparser, so an argv holding it takes the full parse."""
    parser = build_parser()
    n = 1 if argv[:1] == ["example"] else 2
    sub = parser.verbs.get(tuple(argv[:n]))
    if sub is None or "--" in argv:
        return parser.parse_args(argv)
    args, rest = sub.parse_known_args(argv[n:])
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    started = time.monotonic()
    try:
        with geom.caps(args.max_depth, args.max_nodes):
            if args.topic == "example":
                report = experiments.run_experiment(args.name, _example_overrides(args))
                status = report["status"]
            else:
                report, status = args.handler(_verb_options(args), args.seed or 0)
                report.update(command=f"{args.topic} {args.verb}", schema=experiments.SCHEMA)
        if args.plot and not report.get("plot"):
            raise DmlabError("this report has no plot series for --plot to write")
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
    return {"pass": PASS, "inconclusive": INCONCLUSIVE}.get(status, ERROR)


if __name__ == "__main__":
    sys.exit(main())
