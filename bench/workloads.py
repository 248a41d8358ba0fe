"""Seeded operations for the three benchmark workloads.

A workload is a list of operations ("ops") per cycle.  Each cycle draws fresh
inputs from (workload, seed, cycle), so a run never repeats an input and a
cache keyed on inputs cannot turn later cycles into lookups.  The mix of op
kinds and input sizes is the same in every cycle; the seed only picks values
inside fixed classes (small or large denominators, integer or fractional
exponents), so that two seeds do comparable work.

Each op carries three callables:

* ``run``   the timed call into dmlab (``cli.main`` or a library function),
            looked up through the module attribute at call time so that the
            tracer's wrappers see it;
* ``check`` an untimed check of the answer by an independent route
            (see checks.py), raising ``CheckFailed``;
* ``canon`` the certified output as text, for the answer digest.

Why the three workloads (the full rationale is in README.md):

* dyadic_scan   CLI scans of measures whose ball masses come from the exact
                dyadic cdf grid; the window fits dominate the deep scans.
* tree_brackets library calls whose masses come from recursive
                ``interval_mass`` brackets (Cantor-tree measures, tables
                scanned below their last level, non-dyadic endpoints).
* certify_cli   CLI certificates over sequence families; no measure is built,
                so ``certify``, ``seq``, ``reports`` and ``cli`` do the work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Any, Callable

import dmlab.cli
import dmlab.doubling
import dmlab.geom
import dmlab.measure
import dmlab.reports
from dmlab import measure, seq

from checks import (
    check_brackets,
    check_doubling_payload,
    check_witness,
    leaf_bracket,
    partial_product,
    product_upper,
    require,
    summable,
    tagged_hi,
    tagged_lo,
    tail_lower,
    union_pieces,
)

WORKLOADS = ("dyadic_scan", "tree_brackets", "certify_cli")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    canon: Callable[[Any], str]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dmlab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(label: str, argv: list[str], expect: int, check_report=None) -> Op:
    """An op through ``cli.main`` that must exit with `expect`; on exit 0 or
    2 its report is parsed, its brackets walked and `check_report` run."""

    def check(res: CliResult) -> None:
        require(res.code == expect, f"exit {res.code}, expected {expect}: {res.err.strip()[:200]}")
        report = json.loads(res.out)
        check_brackets(report)
        if check_report is not None:
            check_report(report)

    return Op(label, lambda: run_cli(argv), check, lambda res: f"{res.code}\n{res.out}")


def _j(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _rat(x: Fraction) -> str:
    return str(Fraction(x))


# --- input classes ------------------------------------------------------------

# p with one-digit denominators; p with two- and three-digit prime denominators.
# 1/7 and 2/7 are left out: their scans cost a quarter less than the others',
# which would widen the run-to-run spread of the latency percentiles.
SMALL_P = [Fraction(a, b) for b in (5, 7) for a in range(1, b)
           if Fraction(a, b) not in (Fraction(1, 7), Fraction(2, 7))]
LARGE_DEN = (89, 97, 101, 103, 107, 109, 113, 127)
# binomial weights near 1/2 whose cut-out certificate stays inconclusive
NEAR_HALF_P = [
    Fraction(n, d)
    for n, d in ((31, 64), (33, 64), (61, 128), (67, 128), (29, 60), (31, 60),
                 (45, 91), (46, 91), (7, 15), (8, 15), (13, 27), (14, 27),
                 (3, 7), (4, 7), (9, 19), (10, 19))
]
# ball counts at which the Lebesgue cut-out certificate is positive
POSITIVE_BALLS = (18, 20, 24, 30)


def small_p(rng: random.Random) -> Fraction:
    return rng.choice(SMALL_P)


def large_p(rng: random.Random) -> Fraction:
    b = rng.choice(LARGE_DEN)
    return Fraction(rng.randrange(b // 5, 4 * b // 5 + 1), b)


def table_weights(rng: random.Random, levels: int) -> list[list[str]]:
    """Left shares k/16 with k odd in 5..11 (so every share has denominator
    16 and every table costs about the same), for `levels` levels."""
    return [[_rat(Fraction(rng.choice((5, 7, 9, 11)), 16)) for _ in range(1 << k)] for k in range(levels)]


def binomial_spec(p: Fraction) -> dict:
    return {"kind": "binomial", "p": _rat(p)}


def table_spec(rng: random.Random, levels: int) -> dict:
    return {"kind": "table", "weights": table_weights(rng, levels)}


# --- dyadic_scan ------------------------------------------------------------------


def _scan_check(spec: dict):
    m = measure.measure_from_spec(spec)
    return lambda report: check_doubling_payload(m, report)


def _qs_check(spec: dict, depth: int):
    m = measure.measure_from_spec(spec)

    def check(report: dict) -> None:
        rows = report["rows"]
        require(bool(rows), "qs scan returned no rows")
        ratios = [Fraction(r["max_ratio"]["value"]) for r in rows]
        taus = [Fraction(r["tau"]) for r in rows]
        require(taus == sorted(taus), "qs rows not sorted by tau")
        require(all(a <= b for a, b in zip(ratios, ratios[1:])), "qs rows not monotone in tau")
        x, y, z = (Fraction(v) for v in rows[-1]["witness"])
        # |F(x) - F(y)| / |F(x) - F(z)| from node masses on the depth grid
        num = leaf_bracket(m, min(x, y), max(x, y), depth)[0]
        den = leaf_bracket(m, min(x, z), max(x, z), depth)[0]
        require(den > 0 and num / den == ratios[-1], "qs witness ratio does not match node masses")

    return check


def _cutout_check(spec: dict):
    m = measure.measure_from_spec(spec)

    def check(report: dict) -> None:
        check_doubling_payload(m, report["doubling"])
        value = Fraction(report["value"]["value"])
        require((value > 0) == (report["conclusion"] == "POSITIVE"), "cut-out sign and conclusion disagree")

    return check


def _cutout_fat_check(report: dict) -> None:
    require(report["status"] == "pass", f"cutout_fat status {report['status']}")
    require(all(c["passed"] for c in report["checks"]), "cutout_fat has a failed embedded check")
    m = measure.measure_from_spec(report["inputs"]["measure"])
    check_doubling_payload(m, report["results"]["doubling"])


def dyadic_scan_ops(rng: random.Random, size: str) -> list[Op]:
    ops: list[Op] = []
    if size == "full":
        # Depths are fixed per slot so that every cycle has the same cost
        # profile: a cluster of depth-4 scans around the median and a cluster
        # of depth-6 scans around the 90th percentile, where the fits dominate.
        small_depths = (3, 3, 3, 4, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7)
        large_depths = (3, 3, 4, 4, 4, 5)
        table_depths = (3, 3, 3, 4, 4, 5)
        qs_depths = (5, 5, 6, 7)
        cut_depths = (4, 5)
        fat_depth = 5
    else:
        small_depths, large_depths, table_depths = (2, 3), (2, 3), (2,)
        qs_depths, cut_depths, fat_depth = (3,), (2,), 3
    for i, depth in enumerate(small_depths + large_depths):
        p = small_p(rng) if i < len(small_depths) else large_p(rng)
        spec = binomial_spec(p)
        ops.append(cli_op(f"doubling scan binomial p={p} d={depth}",
                          ["doubling", "scan", "--measure", _j(spec), "--depth", str(depth)],
                          0, _scan_check(spec)))
    for depth in table_depths:
        spec = table_spec(rng, depth + 1)
        ops.append(cli_op(f"doubling scan table levels={depth + 1} d={depth}",
                          ["doubling", "scan", "--measure", _j(spec), "--depth", str(depth)],
                          0, _scan_check(spec)))
    for i, depth in enumerate(qs_depths):
        spec = (binomial_spec(small_p(rng)), binomial_spec(large_p(rng)), table_spec(rng, depth))[i % 3]
        ops.append(cli_op(f"qs scan {spec['kind']} d={depth}",
                          ["qs", "scan", "--measure", _j(spec), "--depth", str(depth)],
                          0, _qs_check(spec, depth)))
    for i, depth in enumerate(cut_depths):
        if i % 2 == 0:
            spec, balls, expect = binomial_spec(Fraction(1, 2)), rng.choice(POSITIVE_BALLS), 0
        else:
            spec, balls, expect = binomial_spec(rng.choice(NEAR_HALF_P)), 18, 2
        ops.append(cli_op(f"certify cutout p={spec['p']} n={balls} d={depth}",
                          ["certify", "cutout", "--measure", _j(spec), "--scan-depth", str(depth),
                           "--n-balls", str(balls)],
                          expect, _cutout_check(spec)))
    balls = rng.choice(POSITIVE_BALLS)
    ops.append(cli_op(f"example cutout_fat d={fat_depth} n={balls}",
                      ["example", "cutout_fat", "--set", f"scan_depth={fat_depth}", "--set", f"n_balls={balls}"],
                      0, _cutout_fat_check))
    return ops


# --- tree_brackets ----------------------------------------------------------------


def _scan_payload(rep) -> dict:
    return dmlab.reports.doubling_report_payload(rep)


def _tree_scan_op(rng: random.Random, slot: int, depth: int) -> Op:
    kind = slot % 3
    if kind == 0:
        beta = seq.Constant(Fraction(rng.randrange(2, 7), 8))
    elif kind == 1:
        beta = seq.Geometric(Fraction(rng.randrange(1, 4), 4), Fraction(rng.randrange(1, 4), 4))
    else:
        beta = seq.Power(Fraction(rng.randrange(1, 4), 4), 2, 1)
    p = small_p(rng) if slot % 2 else large_p(rng)
    base = measure.TreeMeasure(measure.BinomialWeights(p))

    def run():
        tree = dmlab.geom.build_cantor(beta, depth)
        m = dmlab.measure.restrict(base, tree)
        return m, dmlab.doubling.doubling_scan(m, depth, fit=False)

    def check(res) -> None:
        m, rep = res
        require(rep.c_lower <= rep.c_upper, "c_lower > c_upper")
        require(rep.witness.ratio_lower == rep.c_lower, "witness ratio != c_lower")
        check_witness(m, depth, rep.witness.x, rep.witness.r, rep.witness.ratio_lower)

    return Op(f"restricted scan beta={seq.family_to_spec(beta)} p={p} d={depth}", run, check,
              lambda res: _j([str(res[0].total_mass), _scan_payload(res[1])]))


def _shallow_table_op(rng: random.Random, levels: int, depth: int) -> Op:
    m = measure.measure_from_spec(table_spec(rng, levels))

    def check(rep) -> None:
        require(rep.c_lower <= rep.c_upper, "c_lower > c_upper")
        check_witness(m, depth, rep.witness.x, rep.witness.r, rep.witness.ratio_lower)

    return Op(f"table levels={levels} scanned d={depth}",
              lambda: dmlab.doubling.doubling_scan(m, depth), check,
              lambda rep: _j(_scan_payload(rep)))


def _small_ball_op(rng: random.Random, slot: int, count: int, depth: int) -> Op:
    p = small_p(rng) if slot % 2 else large_p(rng)
    m = measure.TreeMeasure(measure.BinomialWeights(p))
    c = Fraction(rng.choice((4, 8, 16)))
    s = c.numerator.bit_length() - 1  # c = 2^s, so the bound is exact
    grid = 1 << depth
    cases = []
    for _ in range(count):
        ia = rng.randrange(0, grid)
        ib = rng.randrange(ia + 1, grid + 1)
        a, b = Fraction(ia, grid), Fraction(ib, grid)
        x = Fraction(rng.randrange(ia, ib + 1), grid)
        cases.append(dmlab.doubling.SmallBallCase(a, b, x, (b - a) / (1 << rng.randrange(1, 5))))
    level = depth + 4  # every endpoint lies on this grid, so masses are exact

    def exact(lo, hi):
        lower, upper = leaf_bracket(m, max(Fraction(0), lo), min(Fraction(1), hi), level)
        require(lower == upper, "small-ball mass not exact on its grid")
        return lower

    def bound_holds(case) -> bool:
        rho = case.r / (case.a_hi - case.a_lo)
        return exact(case.x - case.r, case.x + case.r) >= rho ** s / c * exact(case.a_lo, case.a_hi)

    def check(res) -> None:
        if res.holds:
            require(res.checked == count, f"checked {res.checked} of {count}")
            for case in cases[:3]:
                require(bound_holds(case), f"bound fails at {case}")
        else:
            require(not bound_holds(res.counterexample), "reported counterexample satisfies the bound")

    def canon(res) -> str:
        ce = res.counterexample
        ce_text = None if ce is None else [_rat(ce.a_lo), _rat(ce.a_hi), _rat(ce.x), _rat(ce.r)]
        return _j([res.holds, res.checked, ce_text, None if res.margin is None else _rat(res.margin)])

    return Op(f"small-ball bound p={p} c={c} n={count} d={depth}",
              lambda: dmlab.doubling.verify_small_ball_bound(m, c=c, count=count, depth=depth, cases=cases),
              check, canon)


def _odd_point(rng: random.Random, q: int) -> Fraction:
    return Fraction(rng.randrange(1, q), q)


def _mass_measure(rng: random.Random, slot: int):
    if slot % 3 == 0:
        return measure.measure_from_spec(table_spec(rng, 6))
    return measure.TreeMeasure(measure.BinomialWeights(small_p(rng) if slot % 3 == 1 else large_p(rng)))


def _interval_mass_op(rng: random.Random, slot: int, count: int, depth: int) -> Op:
    m = _mass_measure(rng, slot)
    ivs = []
    for _ in range(count):
        q = rng.choice((3, 5, 7, 9, 11, 13, 15, 21, 25, 27, 33, 99))
        a, b = sorted((_odd_point(rng, q), _odd_point(rng, q + 2)))
        ivs.append((a, b))
    level = min(depth, m.split_depth)

    def run():
        return [dmlab.measure.interval_mass(m, dmlab.geom.closed(a, b), depth) for a, b in ivs]

    def check(res) -> None:
        for (a, b), br in zip(ivs, res):
            require((br.lower, br.upper) == leaf_bracket(m, a, b, level),
                    f"interval_mass [{a}, {b}] differs from the leaf walk")

    return Op(f"interval_mass x{count} d={depth}", run, check,
              lambda res: _j([[_rat(b.lower), _rat(b.upper)] for b in res]))


def _cutout_mass_op(rng: random.Random, slot: int, count: int, depth: int) -> Op:
    m = _mass_measure(rng, slot)
    balls = []
    for _ in range(count):
        q = rng.choice((7, 9, 11, 13, 21, 27))
        c = _odd_point(rng, q)
        r = Fraction(1, rng.randrange(9, 40))
        balls.append((max(Fraction(0), c - r), min(Fraction(1), c + r)))
    config = dmlab.geom.CutOutConfig([dmlab.geom.closed(a, b) for a, b in balls])
    level = min(depth, m.split_depth)

    def check(br) -> None:
        lower = upper = Fraction(0)
        for a, b in union_pieces(balls):
            lo, hi = leaf_bracket(m, a, b, level)
            lower, upper = lower + lo, upper + hi
        require((br.lower, br.upper) == (lower, upper), "cutout_mass differs from the leaf walk")

    return Op(f"cutout_mass balls={count} d={depth}",
              lambda: dmlab.measure.cutout_mass(m, config, count, depth), check,
              lambda br: _j([_rat(br.lower), _rat(br.upper)]))


def tree_brackets_ops(rng: random.Random, size: str) -> list[Op]:
    if size == "full":
        # as in dyadic_scan, fixed sizes per slot: small-ball checks around
        # the median, table scans below their last level around the 90th
        # percentile
        tree_depths, tables = (4, 4, 4, 5, 5, 6), ((2, 4), (3, 6), (3, 6), (3, 6), (3, 6))
        balls = ((30, 8),) * 6
        masses = ((24, 12), (24, 13), (24, 14), (24, 15), (24, 16))
        cutouts = ((8, 12), (9, 12), (10, 13), (12, 14))
    else:
        tree_depths, tables = (3,), ((2, 3),)
        balls, masses, cutouts = ((5, 4),), ((4, 8),), ((3, 8),)
    # the slot index, not the seed, picks each op's input class
    ops = [_tree_scan_op(rng, i, d) for i, d in enumerate(tree_depths)]
    ops += [_shallow_table_op(rng, levels, d) for levels, d in tables]
    ops += [_small_ball_op(rng, i, n, d) for i, (n, d) in enumerate(balls)]
    ops += [_interval_mass_op(rng, i, n, d) for i, (n, d) in enumerate(masses)]
    ops += [_cutout_mass_op(rng, i, n, d) for i, (n, d) in enumerate(cutouts)]
    return ops


# --- certify_cli ---------------------------------------------------------------------


def _family(rng: random.Random, kind: str) -> seq.SequenceFamily:
    if kind == "geometric":
        return seq.Geometric(Fraction(rng.randrange(1, 4), 4), Fraction(rng.randrange(1, 5), 6))
    if kind == "power":
        return seq.Power(Fraction(rng.randrange(1, 4), 4), rng.randrange(4, 7), rng.randrange(1, 3))
    if kind == "logfloor":
        return seq.LogFloor(Fraction(1, rng.randrange(3, 9)))
    if kind == "constant":
        return seq.Constant(Fraction(rng.randrange(1, 4), 4))
    raise ValueError(kind)


def _fat_op(rng: random.Random, kind: str, t: Fraction) -> Op:
    if t.denominator > 1:
        # the refine path; ratio 1/2 keeps every such op at about one cost
        alpha = seq.Geometric(Fraction(rng.randrange(1, 3), 4), Fraction(1, 2))
    elif kind == "power":
        alpha = seq.Power(Fraction(rng.randrange(1, 4), 4), 6, rng.randrange(1, 3))
    else:
        alpha = _family(rng, kind)
    scale = Fraction(rng.randrange(2, 9), 4)
    while scale * seq.term(alpha, 1) >= 1 and scale > Fraction(1, 4):
        scale -= Fraction(1, 4)
    return _fat_cli_op(f"certify fat {kind} t={t}", alpha, t, scale)


def _escalating_fat_op(rng: random.Random) -> Op:
    """alpha_n = 2^-n, t = 1/2 and a scale just above 2^(m/2), m odd: stage m's
    scale * alpha_m^t exceeds 1 by less than 2^-200, finer than the 160-bit
    working precision of the default 128 bits, so `refine` must escalate to
    find that stage m + 1 is the first contracting one."""
    m = rng.choice((3, 5, 7, 9))
    scale = Fraction(isqrt(1 << (m + 400)) + 1, 1 << 200)
    half = Fraction(1, 2)
    return _fat_cli_op(f"certify fat escalating m={m}", seq.Geometric(half, half), half, scale)


def _fat_cli_op(label: str, alpha, t: Fraction, scale: Fraction) -> Op:
    def check(report: dict) -> None:
        require(report["conclusion"] == "POSITIVE", f"conclusion {report['conclusion']}")
        tag = report["mass_lower_bound"]
        n0 = report["first_contracting_stage"]
        lo = tagged_lo(tag)
        require(lo > 0, "positive certificate with a zero lower bound")
        upper = product_upper(alpha, n0, min(8, tag["n_terms"]), t, scale)
        require(upper is None or lo <= upper, "lower bound exceeds a directly multiplied partial product")

    return cli_op(label, ["certify", "fat", "--alpha", _j(seq.family_to_spec(alpha)), "--t", _rat(t),
                          "--factor-scale", _rat(scale)], 0, check)


def _thin_op(rng: random.Random, kind: str, s: Fraction) -> Op:
    if kind == "power":
        alpha = seq.Power(Fraction(rng.randrange(1, 3), 4), 1, rng.randrange(1, 3))
    elif kind == "logfloor":
        # base 1/2 would need ~eps^(-1/c) stages; keep the run short
        alpha = seq.LogFloor(Fraction(rng.randrange(5, 8), 8))
    else:
        alpha = _family(rng, kind)
    c = Fraction(rng.randrange(2, 5), 4)
    # power-law holes decay slowly: a smaller epsilon multiplies the stages
    epsilon = Fraction(1, 10 if kind == "power" else rng.choice((10, 100, 1000)))

    def check(report: dict) -> None:
        curve = [Fraction(p["y"]) for p in report["plot"][0]["points"]]
        require(curve[-1] < epsilon, "decay curve ends above epsilon")
        require(all(a >= b for a, b in zip(curve, curve[1:])), "decay curve increases")
        if s.denominator == 1:
            u = Fraction(1)
            for n, y in enumerate(curve[:6], start=1):
                drop = 1 - c * seq.term(alpha, n) ** s.numerator
                u = u * drop if drop > 0 else u
                require(y == u, f"stage {n} mass {y} != direct product {u}")

    return cli_op(f"certify thin {kind} s={s}",
                  ["certify", "thin", "--alpha", _j(seq.family_to_spec(alpha)), "--s", _rat(s),
                   "--c", _rat(c), "--epsilon", _rat(epsilon)], 0, check)


def _logfloor_exponents(stages: int) -> list[int]:
    return [(j + 1).bit_length() - 1 for j in range(1, stages + 1)]


def _logfloor_op(rng: random.Random, stages: int) -> Op:
    p = small_p(rng) if rng.randrange(2) else large_p(rng)

    def check(report: dict) -> None:
        direct = partial_product(1 - p ** k for k in _logfloor_exponents(stages))
        require(Fraction(report["brute_force_mass"]["value"]) == direct, "brute force != direct product")
        require(report["match_exact"] is True, "closed form and brute force disagree")
        require(tagged_lo(report["stage_mass"]) <= direct, "stage mass lower bound above the partial product")

    return cli_op(f"certify logfloor p={p} stages={stages}",
                  ["certify", "logfloor", "--p", _rat(p), "--stages", str(stages)], 0, check)


def _classify_op(rng: random.Random, kind: str) -> Op:
    fam = _family(rng, kind)
    p = Fraction(rng.randrange(1, 9), rng.randrange(2, 5))

    def check(report: dict) -> None:
        want = "CONVERGES" if summable(fam, p) else "DIVERGES"
        require(report["classification"] == want, f"classified {report['classification']}, expected {want}")

    return cli_op(f"seq classify {kind} p={p}",
                  ["seq", "classify", "--family", _j(seq.family_to_spec(fam)), "--p", _rat(p)], 0, check)


def _tail_op(rng: random.Random, kind: str, p: Fraction) -> Op:
    fam = _family(rng, kind)
    n_from = rng.randrange(0, 40)

    def check(report: dict) -> None:
        upper = Fraction(report["tail_sum_upper"]["value"])
        require(upper >= tail_lower(fam, p, n_from, 16), "tail bound below a direct partial tail sum")

    return cli_op(f"seq tail {kind} p={p}",
                  ["seq", "tail", "--family", _j(seq.family_to_spec(fam)), "--p", _rat(p),
                   "--from", str(n_from)], 0, check)


def _cantor_build_op(rng: random.Random, depth: int) -> Op:
    beta = _family(rng, rng.choice(("geometric", "power", "constant")))

    def check(report: dict) -> None:
        require(report["leaf_count"] == 1 << depth, "wrong leaf count")
        length = Fraction(1)
        for k in range(1, depth + 1):
            length *= 1 - seq.term(beta, k)
            got = Fraction(report["level_lengths"][str(k)]["value"])
            require(got == length, f"level {k} length {got} != {length}")

    return cli_op(f"cantor build d={depth}",
                  ["cantor", "build", "--beta", _j(seq.family_to_spec(beta)), "--depth", str(depth)], 0, check)


def _cantor_cutout_op(rng: random.Random) -> Op:
    if rng.randrange(2):
        n = rng.randrange(4, 40)
        argv, balls = ["cantor", "cutout", "--nested", str(n)], [(Fraction(0), Fraction(1, 1 << i)) for i in range(1, n + 1)]
    else:
        balls = []
        for _ in range(rng.randrange(2, 7)):
            q = rng.choice((7, 9, 11, 13))
            a = _odd_point(rng, q)
            balls.append((a, min(Fraction(1), a + Fraction(1, rng.randrange(10, 30)))))
        argv = ["cantor", "cutout", "--balls", _j([[_rat(a), _rat(b)] for a, b in balls])]

    def check(report: dict) -> None:
        pieces = union_pieces(balls)
        want = sum((b - a for a, b in pieces), Fraction(0))
        require(Fraction(report["remaining_length"]["value"]) == want, "remaining length != direct sweep")
        require(report["component_count"] == len(pieces), "component count != direct sweep")

    return cli_op(f"cantor cutout balls={len(balls)}", argv, 0, check)


def _pullback_op(rng: random.Random, power_of_two: bool) -> Op:
    c = Fraction(rng.randrange(2, 12), rng.randrange(1, 3))
    k = rng.randrange(0, 4)
    # eta2 = 2^k exactly, or strictly between 2^k and 2^(k+1)
    eta2 = Fraction(1 << k) if power_of_two else Fraction((1 << k) * rng.randrange(5, 8), 4)

    def check(report: dict) -> None:
        tag = report["pullback_constant"]
        if power_of_two:
            require(tagged_lo(tag) == tagged_hi(tag) == c ** (2 * k + 1), "pullback not exact at a power of two")
        else:
            require(c ** (2 * k + 1) <= tagged_lo(tag) and tagged_hi(tag) <= c ** (2 * k + 3),
                    "pullback outside [C^(2k+1), C^(2k+3)] for 2^k < eta2 < 2^(k+1)")

    return cli_op(f"qs pullback eta2={eta2}",
                  ["qs", "pullback", "--C", _rat(c), "--eta2", _rat(eta2)], 0, check)


def _example_op(name: str, overrides: dict, extra=None) -> Op:
    def check(report: dict) -> None:
        require(report["status"] == "pass", f"{name} status {report['status']}")
        require(all(c["passed"] for c in report["checks"]), f"{name} has a failed embedded check")
        if extra is not None:
            extra(report)

    return cli_op(f"example {name} {_j(overrides)}",
                  ["example", name, "--override", _j(overrides)], 0, check)


def _examples(rng: random.Random) -> list[Op]:
    n_partial = rng.randrange(500, 1500)
    beta = seq.Power(Fraction(1), 2, 1)

    def middle(report: dict) -> None:
        direct = partial_product(1 - seq.term(beta, n) for n in range(1, 9))
        require(tagged_lo(report["results"]["lebesgue_mass"]) <= direct, "Lebesgue mass above a partial product")

    return [
        _example_op("interval_packing", {}),
        _example_op("middle_cantor", {"n_partial": n_partial, "cross_depth": rng.randrange(4, 7)}, middle),
        _example_op("logfloor_removal", {"p": _rat(Fraction(1, rng.randrange(3, 6))), "stages": rng.randrange(6, 16),
                                         "deep_stage": rng.randrange(512, 1536)}),
        _example_op("porous_thin", {"alpha": seq.family_to_spec(_family(rng, "constant")),
                                    "epsilon": _rat(Fraction(1, rng.choice((100, 1000))))}),
        _example_op("thick_fat", {"alpha": seq.family_to_spec(_family(rng, "geometric")),
                                  "t": str(rng.randrange(1, 3)), "factor_scale": "1/2"}),
    ]


def certify_cli_ops(rng: random.Random, size: str) -> list[Op]:
    half, three_q = Fraction(1, 2), Fraction(3, 4)
    # the fractional-exponent certificates sit around the 90th percentile
    ops = [
        _fat_op(rng, "geometric", Fraction(1)),
        _fat_op(rng, "geometric", Fraction(2)),
        _fat_op(rng, "geometric", half),
        _fat_op(rng, "geometric", half),
        _fat_op(rng, "geometric", three_q),
        _fat_op(rng, "geometric", three_q),
        _escalating_fat_op(rng),
        _fat_op(rng, "power", Fraction(1)),
        _thin_op(rng, "constant", Fraction(1)),
        _thin_op(rng, "constant", Fraction(3, 2)),
        _thin_op(rng, "logfloor", Fraction(1)),
        _thin_op(rng, "power", half),
        _logfloor_op(rng, rng.randrange(8, 25)),
        _classify_op(rng, "geometric"),
        _classify_op(rng, "power"),
        _classify_op(rng, "logfloor"),
        _classify_op(rng, "constant"),
        _tail_op(rng, "geometric", Fraction(rng.randrange(1, 4))),
        _tail_op(rng, "geometric", Fraction(rng.randrange(1, 8), 4)),
        _tail_op(rng, "power", Fraction(1)),
        _tail_op(rng, "power", three_q),
        _cantor_build_op(rng, 7 if size == "full" else 4),
        _cantor_cutout_op(rng),
        _cantor_cutout_op(rng),
        _pullback_op(rng, True),
        _pullback_op(rng, False),
    ]
    ops += _examples(rng)
    if size == "smoke":
        ops = ops[::3]
    return ops


_BUILDERS = {
    "dyadic_scan": dyadic_scan_ops,
    "tree_brackets": tree_brackets_ops,
    "certify_cli": certify_cli_ops,
}


def build_cycle(workload: str, seed: int, cycle: int, size: str = "full") -> list[Op]:
    """The ops of one cycle, in a seeded order."""
    rng = random.Random(f"dmlab-bench/{workload}/{seed}/{cycle}/{size}")
    ops = _BUILDERS[workload](rng, size)
    rng.shuffle(ops)
    return ops

