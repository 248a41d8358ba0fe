"""Command-line behaviour: exit codes, report files, determinism, depth and
node caps, the error contract."""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlab import cli, geom
from dmlab.cli import main
from dmlab.experiments import (
    EXPERIMENT_NAMES,
    EXPERIMENTS,
    REQUIRED,
    parse_family,
    parse_measure,
)
from dmlab.ratio import parse_integer, parse_rational

GEOM = '{"kind": "geometric", "a": "1/2", "q": "1/2"}'
BINOM = '{"kind": "binomial", "p": "1/2"}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_passing_statement_returns_zero(self, capsys):
        code, out, err = run(
            capsys, "certify", "fat", "--alpha", GEOM, "--t", "1", "--factor-scale", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["conclusion"] == "POSITIVE"
        assert "elapsed" in err and "elapsed" not in out

    def test_inconclusive_returns_two(self, capsys):
        code, out, _ = run(
            capsys, "certify", "cutout", "--n-balls", "4", "--scan-depth", "4"
        )
        assert code == 2
        assert json.loads(out)["conclusion"] == "INCONCLUSIVE"

    def test_domain_error_returns_one(self, capsys):
        code, out, err = run(
            capsys,
            "certify", "fat",
            "--alpha", '{"kind": "constant", "value": "1/2"}',
            "--t", "1", "--factor-scale", "1",
        )
        assert code == 1
        assert out == ""
        assert json.loads(err.splitlines()[0])["kind"] == "NotInEllT"

    def test_missing_option_returns_one(self, capsys):
        code, out, err = run(capsys, "certify", "fat", "--t", "1")
        assert code == 1
        assert out == ""
        assert "--alpha" in json.loads(err.splitlines()[0])["error"]

    def test_unknown_subcommand_returns_one(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1


class TestOutputs:
    def test_out_and_plot_files(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        plot_file = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "example", "porous_thin",
            "--out", str(out_file), "--plot", str(plot_file),
        )
        assert code == 0
        assert out == ""  # report went to the file instead
        report = json.loads(out_file.read_text())
        assert report["schema"] == "dmlab-report/1"
        lines = plot_file.read_text().splitlines()
        assert lines[0] == "series,x,y_num,y_den,y_decimal"
        assert len(lines) > 1

    @pytest.mark.parametrize("argv", [
        ["seq", "classify", "--family", GEOM],
        ["seq", "tail", "--family", GEOM],
        ["cantor", "cutout", "--balls", '[["0", "1/2"]]'],
        ["measure", "mass", "--measure", BINOM, "--lo", "0", "--hi", "1/2"],
        ["certify", "fat", "--alpha", GEOM, "--t", "1", "--factor-scale", "1"],
        ["certify", "cutout"],
        ["qs", "pullback", "--C", "2", "--eta2", "2"],
    ])
    def test_plot_refused_by_verbs_without_series(self, capsys, tmp_path, argv):
        plot_file = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as info:
            main(argv + ["--plot", str(plot_file)])
        assert info.value.code == 1
        assert capsys.readouterr().out == ""
        assert not plot_file.exists()

    @pytest.mark.parametrize("name", ["interval_packing", "thick_fat"])
    def test_plot_refused_by_examples_without_series(self, capsys, tmp_path, name):
        plot_file = tmp_path / "curve.csv"
        code, out, err = run(capsys, "example", name, "--plot", str(plot_file))
        assert code == 1
        assert out == ""
        assert "--plot" in json.loads(err)["error"]
        assert not plot_file.exists()

    def test_cantor_cutout_builds_the_remaining_set_once(self, capsys, monkeypatch):
        """One `cantor cutout` call subtracts its balls from [0, 1] once: its
        components and its largest gap come from the same remaining set."""
        built = []
        subtract = geom.subtract_intervals

        def counted(piece, cuts):
            built.append(len(cuts))
            return subtract(piece, cuts)

        monkeypatch.setattr(geom, "subtract_intervals", counted)
        code, out, _ = run(capsys, "cantor", "cutout", "--nested", "6", "--n-balls", "4")
        assert code == 0
        assert built == [4]
        assert json.loads(out)["largest_gap"]["interval"] == ["1/2", "1"]

    def test_pullback_is_exact_eight(self, capsys):
        code, out, _ = run(capsys, "qs", "pullback", "--C", "2", "--eta2", "2")
        assert code == 0
        value = json.loads(out)["pullback_constant"]
        assert value == {"kind": "exact", "value": "8", "decimal": "8"}

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"C": "2", "eta2": "2"}))
        code, out, _ = run(capsys, "qs", "pullback", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["pullback_constant"]["value"] == "8"

    def test_config_file_supplies_example_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "2/3"}))
        code, out, _ = run(capsys, "example", "logfloor_removal", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["results"]["verdict"] == "ZERO_LIMIT"

    @pytest.mark.parametrize("argv, keys, key", [
        # a common flag, which no handler reads from the file
        (["qs", "pullback"], {"C": "2", "eta2": "2", "seed": 3}, "'seed'"),
        (["doubling", "scan", "--measure", BINOM], {"depht": 3}, "'depht'"),
        (["example", "cutout_fat"], {"scan_dept": 3}, "'scan_dept'"),
        (["example", "interval_packing"], {"config": "x"}, "'config'"),
    ])
    def test_unknown_config_key_refused(self, capsys, tmp_path, argv, keys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(keys))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert key in json.loads(err)["error"]

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_unwritable_file_is_one_json_line(self, capsys, tmp_path, flag):
        argv = ["measure", "grid", "--measure", BINOM, "--depth", "2"]
        code, out, err = run(capsys, *argv, flag, str(tmp_path / "missing" / "f"))
        assert code == 1
        assert out == ""
        assert json.loads(err)["kind"] == "FileNotFoundError"


class TestDeterminism:
    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_example_runs_byte_identical(self, capsys, name):
        code1, out1, _ = run(capsys, "example", name)
        code2, out2, _ = run(capsys, "example", name)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_override_changes_report(self, capsys):
        _, base, _ = run(capsys, "example", "logfloor_removal")
        code, heavy, _ = run(capsys, "example", "logfloor_removal", "--set", "p=2/3")
        assert code == 0
        assert heavy != base
        assert json.loads(heavy)["results"]["verdict"] == "ZERO_LIMIT"


class TestDepthCaps:
    def test_env_cap_blocks_deep_scan(self, capsys, monkeypatch):
        monkeypatch.setenv("DMLAB_MAX_DEPTH", "5")
        code, _, err = run(capsys, "doubling", "scan", "--measure", BINOM, "--depth", "8", "--no-fit")
        assert code == 1
        assert json.loads(err.splitlines()[0])["kind"] == "DepthBudgetExceeded"

    def test_flag_cap_blocks_deep_scan(self, capsys):
        code, _, err = run(
            capsys, "doubling", "scan", "--measure", BINOM, "--depth", "8", "--max-depth", "6", "--no-fit"
        )
        assert code == 1
        assert json.loads(err.splitlines()[0])["kind"] == "DepthBudgetExceeded"

    def test_within_cap_runs(self, capsys):
        code, out, _ = run(
            capsys, "doubling", "scan", "--measure", BINOM, "--depth", "4", "--max-depth", "6", "--no-fit"
        )
        assert code == 0
        assert json.loads(out)["c_upper"]["value"] == "2"


class TestNodeCaps:
    GRID = ["measure", "grid", "--measure", '{"kind":"binomial","p":"1/3"}', "--depth", "12"]

    def test_flag_cap_blocks_grid(self, capsys):
        code, out, err = run(capsys, *self.GRID, "--max-nodes", "1000")
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["kind"] == "NodeBudgetExceeded"
        assert "node cap 1000" in error["error"]

    def test_grid_runs_without_flag(self, capsys):
        code, out, _ = run(capsys, *self.GRID)
        assert code == 0
        assert json.loads(out)["depth"] == 12

    def test_flag_cap_reaches_scan_and_example(self, capsys):
        # the scan's cdf grid at depth 7 holds 128 entries
        code, _, err = run(capsys, "doubling", "scan", "--measure", BINOM, "--depth", "6",
                           "--no-fit", "--max-nodes", "100")
        assert code == 1
        assert "node cap 100" in json.loads(err)["error"]
        code, _, err = run(capsys, "example", "cutout_fat", "--max-nodes", "100")
        assert code == 1
        assert "node cap 100" in json.loads(err)["error"]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DMLAB_MAX_NODES", "10")
        code, _, _ = run(capsys, *self.GRID, "--max-nodes", "5000")
        assert code == 0


class TestExampleSet:
    def test_json_measure_value_reproduces_golden(self, capsys):
        code, out, _ = run(capsys, "example", "cutout_fat",
                           "--set", 'measure={"kind":"binomial","p":"1/2"}')
        assert code == 0
        golden = pathlib.Path(__file__).parent / "golden" / "example_cutout_fat.json"
        assert out == golden.read_text(encoding="utf-8")

    def test_json_scalars_stay_strings(self, capsys):
        code, _, err = run(capsys, "example", "logfloor_removal", "--set", "p=true")
        assert code == 1
        assert json.loads(err)["error"] == "malformed rational 'true'"

    @pytest.mark.parametrize("argv, key", [
        (["example", "interval_packing", "--set", "foo=1"], "'foo'"),
        (["example", "cutout_fat", "--override", '{"scan_dept": 3}'], "'scan_dept'"),
        (["example", "logfloor_removal", "--set", "p=2/3", "--set", "seed=1"], "'seed'"),
    ])
    def test_unknown_override_key_refused(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert key in json.loads(err)["error"]


# every option table: a verb's argv head, or `example NAME`, to its table
SPECS = {
    **{(t, v): spec for t, v, _, _, spec, _ in cli.VERBS if v is not None},
    **{("example", name): spec for name, (_, spec) in EXPERIMENTS.items()},
}
OPTIONS = [(head, name, convert) for head, spec in SPECS.items()
           for name, (convert, _) in spec.items()]
OPTION_IDS = ["-".join([*head, name]) for head, name, _ in OPTIONS]
# a value each converter takes, for the required options beside the one tested
VALID = {parse_family: json.loads(GEOM), parse_measure: json.loads(BINOM), parse_rational: "1/2"}


class TestErrorContract:
    """Bad input ends in exit 1 with exactly one JSON line on stderr."""

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["measure", "mass", "--measure", "[1]", "--lo", "0", "--hi", "1"], "PreconditionViolated"),
            (["measure", "mass", "--measure", '{"kind":"binomial"}', "--lo", "0", "--hi", "1"],
             "PreconditionViolated"),
            (["measure", "grid", "--measure", '{"kind":"table","weights":3}'], "PreconditionViolated"),
            (["cantor", "cutout", "--balls", '[["1/2"]]'], "PreconditionViolated"),
            (["cantor", "cutout", "--balls", "5"], "PreconditionViolated"),
            # 2^30 grid entries: refused by the node cap before any allocation
            (["measure", "grid", "--measure", BINOM, "--depth", "30"], "NodeBudgetExceeded"),
            # integer exponents whose exact products pass the bit budget
            (["certify", "fat", "--alpha", '{"kind":"geometric","a":"1/4","q":"1/2"}',
              "--factor-scale", "1/2", "--t", "100000"], "PreconditionViolated"),
            (["certify", "thin", "--alpha", '{"kind":"constant","value":"1/4"}', "--s", "100000",
              "--c", "1", "--epsilon", "1/10"], "PreconditionViolated"),
            # family specs whose terms are not a list, or whose integers are not integers
            (["seq", "classify", "--family", '{"kind":"explicit","terms":5}'], "InvalidFamily"),
            (["seq", "classify", "--family", '{"kind":"power","a":"1","gamma":null}'],
             "PreconditionViolated"),
            (["seq", "classify", "--family", '{"kind":"power","a":"1/2","gamma":2.5}'],
             "PreconditionViolated"),
            # a negative count of random triples
            (["qs", "scan", "--measure", '{"kind":"binomial","p":"1/3"}', "--depth", "3",
              "--random-triples", "-4"], "PreconditionViolated"),
        ],
    )
    def test_one_json_line(self, capsys, argv, kind):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == kind

    def test_exact_power_past_the_bit_budget_is_refused_before_it_is_built(self, capsys):
        """q^(p from) for q = 1/4, p = 1/2 is 2^-from exactly; at from = 10^12
        that is a 10^12-bit denominator, refused from the bit lengths at once."""
        start = time.process_time()
        code, out, err = run(capsys, "seq", "tail", "--family", '{"kind":"geometric","a":"1/2","q":"1/4"}',
                             "--p", "1/2", "--from", "1000000000000")
        assert time.process_time() - start < 1
        assert (code, out) == (1, "")
        message = "an exact power needs about 1000000000000 bits, over the 8388608-bit budget"
        assert json.loads(err) == {"error": message, "kind": "PreconditionViolated"}

    @pytest.mark.parametrize("argv, message", [
        (["measure", "mass", "--measure", BINOM, "--lo", "1/2", "--hi", "1/3"], "interval [1/2, 1/3] is reversed"),
        (["cantor", "cutout", "--balls", "[[1,0]]"], "interval [1, 0] is reversed"),
        (["measure", "mass", "--measure", BINOM, "--lo", "1/2", "--hi", "3/2"],
         "interval [1/2, 3/2] must sit inside [0, 1]"),
    ])
    def test_interval_refusal_names_its_fault(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": message, "kind": "PreconditionViolated"}

    @pytest.mark.parametrize("flags, config", [
        (["--nested", "2", "--balls", '[["1/8", "1/4"]]'], None),
        (["--balls", '[["1/8", "1/4"]]'], {"nested": 2}),
        (["--nested", "2"], {"balls": [["1/8", "1/4"]]}),
        ([], {"nested": 2, "balls": [["1/8", "1/4"]]}),
    ])
    def test_nested_and_balls_together_refused(self, capsys, tmp_path, flags, config):
        """`cantor cutout` takes its balls from --balls or from --nested,
        never drops one of the two, whether flag or --config gives it."""
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = flags + ["--config", str(cfg)]
        code, out, err = run(capsys, "cantor", "cutout", *flags)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "give --balls or --nested, not both",
                                        "kind": "PreconditionViolated"}

    @pytest.mark.parametrize("argv, values", [
        (["doubling", "scan", "--measure", BINOM], {"depth": None}),
        (["doubling", "scan", "--measure", BINOM], {"depth": True}),
        (["doubling", "scan", "--measure", BINOM, "--depth", "2"], {"no-fit": "false"}),
        (["seq", "tail", "--family", GEOM], {"from": [1]}),
        (["certify", "logfloor"], {"stages": 12.7}),
        (["example", "middle_cantor"], {"n_partial": {"a": 1}}),
        (["example", "middle_cantor"], {"cross_depth": 2.5}),
        (["example", "logfloor_removal"], {"stages": 12.7}),
    ])
    def test_malformed_value_refused(self, capsys, tmp_path, argv, values):
        """An integer option takes an int or its decimal string, and `no-fit`
        a JSON boolean: a null, bool, float, list or object is refused, never
        rounded, coerced or left to a traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        calls = [[*argv, "--config", str(cfg)]]
        if argv[0] == "example":
            calls.append([*argv, "--override", json.dumps(values)])
        for argv in calls:
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert set(json.loads(err)) == {"error", "kind"}

    @pytest.mark.parametrize("head, name, convert", OPTIONS, ids=OPTION_IDS)
    def test_every_option_refuses_values_of_the_wrong_type(self, capsys, tmp_path, head, name,
                                                            convert):
        """Each option of each verb and experiment, given a value of every
        JSON type its converter does not take, by --config and (examples) by
        --override: exit 1 with one JSON line, and nothing runs."""
        base = {} if head[0] == "example" else {
            other: VALID[conv] for other, (conv, default) in SPECS[head].items()
            if default is REQUIRED and other != name}
        bad = [None, True, 12.7, "x", "false", [1], {"a": 1}]
        if convert not in (parse_rational, parse_integer, cli._depth):
            bad.append(7)
        if convert is cli._switch:
            bad.remove(True)
        cfg = tmp_path / "cfg.json"
        for value in bad:
            cfg.write_text(json.dumps({**base, name: value}))
            calls = [[*head, "--config", str(cfg)]]
            if head[0] == "example":
                calls.append([*head, "--override", json.dumps({name: value})])
            for argv in calls:
                code, out, err = run(capsys, *argv)
                assert code == 1, (argv, value)
                assert out == ""
                assert set(json.loads(err)) == {"error", "kind"}

    @pytest.mark.parametrize("argv, words", [
        (["seq", "classify", "--family", '{"kind":"constant","value":"1/2"}', "--plot", "x.csv"],
         "unrecognized arguments: --plot x.csv"),
        (["seq", "classify", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["doubling", "scan", "--frobnicate"], "unrecognized arguments: --frobnicate"),
        ([], "required: topic"),
        (["certify"], "dmlab certify: the following arguments are required: verb"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["doubling", "scan", "--seed", "x"], "dmlab doubling scan: argument --seed"),
        (["doubling", "scan", "--depth"], "expected one argument"),
        (["example", "free_lunch"], "invalid choice: 'free_lunch'"),
    ])
    def test_usage_error_is_one_json_line(self, capsys, argv, words):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["kind"] == "UsageError"
        assert words in error["error"]


# --- error-contract fuzz ---------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
unit_texts = st.integers(1, 12).flatmap(lambda d: st.integers(0, d).map(lambda n: f"{n}/{d}"))
rational_texts = st.one_of(
    unit_texts,
    st.integers(-3, 12).map(str),
    st.tuples(st.integers(-3, 12), st.integers(-2, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.text(max_size=5),
)
rational_values = st.one_of(unit_texts, rational_texts, json_values)
# weight tables, mostly with 2^k weights on level k
weight_tables = st.one_of(
    json_values,
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(*[st.lists(st.one_of(unit_texts, rational_values),
                                       min_size=1 << k, max_size=1 << k)
                              for k in range(n)]).map(list)
    ),
)
measure_specs = st.one_of(
    json_values,
    st.fixed_dictionaries({"kind": st.just("binomial"), "p": unit_texts}),
    st.fixed_dictionaries({"kind": st.just("table"), "weights": weight_tables}),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["binomial", "table", "dyadic", ""])},
        optional={"p": rational_values, "weights": weight_tables, "total_mass": rational_values},
    ),
)

# family specs of every kind, with their fields of any JSON type; integers
# stay small, so that no drawn exponent or term count makes a call slow
small_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=6,
)
family_values = st.one_of(unit_texts, small_values)
FAMILY_FIELDS = {"geometric": ("a", "q"), "power": ("a", "gamma", "offset"), "logfloor": ("base",),
                 "constant": ("value",), "explicit": ("terms",), "scaled": ("c", "inner")}
family_specs = st.deferred(lambda: st.one_of(
    small_values,
    # each kind with its fields, any of them of a wrong type or left out
    *(st.fixed_dictionaries({"kind": st.just(kind)}, optional={
        name: family_specs if name == "inner" else
        st.one_of(st.lists(family_values, max_size=4), small_values) if name == "terms" else
        family_values
        for name in names}) for kind, names in FAMILY_FIELDS.items()),
    st.fixed_dictionaries({"kind": st.sampled_from(["", "dyadic"])}),
))


@st.composite
def cli_calls(draw):
    verb = draw(st.sampled_from(["mass", "grid", "scan", "classify", "fat", "build"]))
    if verb in ("classify", "fat", "build"):
        family = json.dumps(draw(family_specs))
        if verb == "classify":
            return ["seq", "classify", "--family", family]
        if verb == "fat":
            return ["certify", "fat", "--alpha", family]
        return ["cantor", "build", "--beta", family, "--depth", str(draw(st.integers(0, 6)))]
    spec = json.dumps(draw(measure_specs))
    depth = str(draw(st.integers(0, 12)))
    if verb == "mass":
        lo, hi = draw(rational_texts), draw(rational_texts)
        return ["measure", "mass", f"--measure={spec}", f"--lo={lo}", f"--hi={hi}", "--depth", depth]
    if verb == "grid":
        return ["measure", "grid", f"--measure={spec}", "--depth", depth]
    return ["doubling", "scan", f"--measure={spec}", "--depth", depth, "--no-fit"]


# a path whose directory does not exist: --out, --plot and --config fail on
# it after the verb ran, and the fuzz writes no file
MISSING = os.path.join(tempfile.gettempdir(), "dmlab-no-such-dir", "f")
FILE_FLAGS = ("--out", "--plot", "--config")
# each verb's argv head and the flags it offers
OWN_FLAGS = {
    (t,) if v is None else (t, v): sorted(
        {f"--{name}" for name in [*spec, *common]}
        | ({f for f, _ in cli._EXAMPLE_ARGUMENTS if f.startswith("--")} if v is None else set())
    )
    for t, v, _, _, spec, common in cli.VERBS
}
FLAGS = sorted(set().union(*OWN_FLAGS.values()) | {"--seed", "--frobnicate"})
flag_values = st.sampled_from(["0", "1", "3", "-1", "1/2", "2", "x", "", BINOM, GEOM, "[1]", "{}", "p=2/3"])


@st.composite
def random_argv(draw):
    """Any verb, or none, or an unknown one, with the verb's own flags and
    flags of other verbs: unknown and refused flags, missing and malformed
    values."""
    head = draw(st.sampled_from([*OWN_FLAGS, (), ("frobnicate",), ("seq", "frobnicate")]))
    argv = list(head)
    if head == ("example",) and draw(st.booleans()):
        argv.append(draw(st.sampled_from([*EXPERIMENT_NAMES, "free_lunch"])))
    own = st.sampled_from(OWN_FLAGS.get(head) or FLAGS)
    for flag in draw(st.lists(st.one_of(own, own, st.sampled_from(FLAGS)), max_size=4)):
        argv.append(flag)
        if flag in FILE_FLAGS:
            argv.append(MISSING)
        elif flag != "--no-fit" and draw(st.integers(0, 5)):
            argv.append(draw(flag_values))
    return argv


@settings(max_examples=400, deadline=None)
@given(st.one_of(cli_calls(), random_argv()))
def test_error_contract_fuzz(argv):
    """Any measure spec and depth, any family spec for --family, --alpha or
    --beta, or any argv: exit 0, 1 or 2, and an error
    is exactly one JSON line on stderr (an uncaught exception fails the
    test)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "kind"}
        assert out.getvalue() == ""


def test_tail_past_the_printable_digits_prints_its_outward_rounding(capsys):
    """A tail bound with a term of more than 4300 digits, CPython's default
    printing limit, is reported by its outward rounding to the 60-place
    grid, as a product is; one of 4300 digits stays exact (--from 14125 and
    14126 give denominators of 4300 and 4301 digits). The rule is the
    bound's size: with the process's limit lifted the bytes are the same."""
    family = '{"kind":"geometric","a":"1/2","q":"1/4"}'
    tails = {n_from: run(capsys, "seq", "tail", "--family", family, "--p", "1/2", "--from", n_from)
             for n_from in ("10", "14125", "14126", "100000")}
    assert {code for code, _, _ in tails.values()} == {0}
    kinds = {n_from: json.loads(out)["tail_sum_upper"]["kind"] for n_from, (_, out, _) in tails.items()}
    assert kinds == {"10": "exact", "14125": "exact", "14126": "bracket", "100000": "bracket"}
    assert json.loads(tails["100000"][1])["tail_sum_upper"] == {
        "kind": "bracket", "lo": "0", "lo_decimal": "0", "hi": "1/" + "1" + "0" * 60, "hi_decimal": "1e-60"}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        unlimited = {n_from: run(capsys, "seq", "tail", "--family", family, "--p", "1/2", "--from", n_from)
                     for n_from in tails}
    finally:
        sys.set_int_max_str_digits(limit)
    assert {k: v[:2] for k, v in unlimited.items()} == {k: v[:2] for k, v in tails.items()}


POWER = '{"kind": "power", "a": "1", "gamma": 2, "offset": 1}'
TABLE = '{"kind": "table", "weights": [["1/3"], ["1/4", "2/3"]]}'
# per argv head: the options that run it, and for every option its row declares
# (the run flags among its common ones included) a valid non-default value, None
# for a switch, with the options both runs add where the value needs them to apply
NON_DEFAULT = {
    ("seq", "classify"): (["--family", GEOM], {"family": (POWER, []), "p": ("1/2", [])}),
    ("seq", "tail"): (["--family", GEOM], {"family": (POWER, []), "p": ("2", []), "from": ("3", [])}),
    ("cantor", "build"): (["--beta", GEOM, "--depth", "3"], {
        "beta": ('{"kind": "constant", "value": "1/3"}', []), "depth": ("2", []),
        "max-depth": ("2", []), "max-nodes": ("4", [])}),
    ("cantor", "cutout"): (["--nested", "8"], {"nested": ("4", []), "balls": ('[["1/4", "1/2"]]', []),
                                               "n-balls": ("2", []), "diam-family": (POWER, [])}),
    ("measure", "mass"): (["--measure", BINOM, "--lo", "1/3", "--hi", "2/3", "--depth", "4"], {
        "measure": (TABLE, []), "lo": ("1/5", []), "hi": ("3/5", []), "depth": ("6", []), "max-depth": ("2", [])}),
    ("measure", "grid"): (["--measure", TABLE, "--depth", "2"], {
        "measure": (BINOM, []), "depth": ("1", []), "max-depth": ("1", []), "max-nodes": ("2", [])}),
    ("doubling", "scan"): (["--measure", '{"kind": "binomial", "p": "1/3"}', "--depth", "4"], {
        "measure": (TABLE, []), "depth": ("3", []), "no-fit": (None, []), "max-depth": ("2", []),
        "max-nodes": ("8", []), "seed": ("7", ["--depth", "6"])}),
    ("certify", "fat"): (["--alpha", GEOM], {
        "alpha": ('{"kind": "geometric", "a": "1/4", "q": "1/2"}', []), "t": ("2", []), "factor-scale": ("1/2", [])}),
    ("certify", "thin"): (["--alpha", '{"kind": "constant", "value": "1/2"}'], {
        "alpha": ('{"kind": "constant", "value": "1/4"}', []), "s": ("2", []), "c": ("2", []),
        "epsilon": ("1/100", [])}),
    ("certify", "cutout"): (["--scan-depth", "4"], {
        "measure": ('{"kind": "binomial", "p": "1/3"}', []), "scan-depth": ("5", []), "n-total": ("32", []),
        "n-balls": ("8", []), "r": ("1/2", []), "p": ("1/8", []), "max-depth": ("2", []),
        "max-nodes": ("8", []), "seed": ("7", ["--scan-depth", "5"])}),
    ("certify", "logfloor"): ([], {"p": ("1/4", []), "stages": ("6", [])}),
    ("qs", "scan"): (["--measure", '{"kind": "binomial", "p": "1/10"}', "--depth", "3"], {
        "measure": (TABLE, []), "depth": ("2", []), "random-triples": ("2000", []), "max-depth": ("2", []),
        "max-nodes": ("4", []), "seed": ("1", ["--random-triples", "300"])}),
    ("qs", "pullback"): (["--C", "2", "--eta2", "2"], {"C": ("3", []), "eta2": ("4", [])}),
    ("example",): (["cutout_fat", "--set", "scan_depth=4"], {
        "seed": ("7", ["--set", "scan_depth=5"]), "max-depth": ("2", []), "max-nodes": ("8", [])}),
}


@pytest.mark.parametrize("row", cli.VERBS, ids=lambda row: " ".join(w for w in row[:2] if w))
def test_every_declared_option_changes_the_report_or_is_refused(capsys, row):
    """No declared option is silently dropped: set to a valid value other than
    its default, where it applies, it either changes the report bytes or is
    refused."""
    topic, verb, _, _, spec, common = row
    head = (topic, verb) if verb else (topic,)
    base, values = NON_DEFAULT[head]
    assert set(values) == set(spec) | {name for name in common if name in cli._RUN}
    for name, (value, both) in values.items():
        code, want, _ = run(capsys, *head, *base, *both)
        assert code in (0, 2), f"{head} {base + both} fails: {want}"
        flag = [f"--{name}"] + ([] if value is None else [value])
        code, got, err = run(capsys, *head, *base, *both, *flag)
        assert code == 1 or got != want, f"{' '.join(head)} --{name} {value} neither changes the report nor is refused"
