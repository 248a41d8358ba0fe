"""The CLI parser: built once per process from the verb table, reused by every
`main` call, and each verb offers exactly the flags it honours."""

import contextlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import dmlab
from dmlab import cli
from dmlab.cli import build_parser, main
from dmlab.experiments import EXPERIMENT_NAMES, HONOURED_FLAGS

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
# usage errors with their exact stderr line and exit code; CI runs them
# through the installed console script too
USAGE_ERRORS = json.loads((GOLDEN / "usage_errors.json").read_text(encoding="utf-8"))
BINOM = '{"kind": "binomial", "p": "1/2"}'


def call(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `main` call; a usage error's
    SystemExit becomes its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def error_line(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_golden_cases_in_one_process(self, seed):
        """Every golden case, a usage error, a domain error and example
        --set/--override calls, in a shuffled order through one parser.  The
        p=2/3 logfloor calls (text None) must all print the same bytes."""
        heavy = []
        calls = [(CASES[name]["argv"], CASES[name]["exit"], golden(name)) for name in CASES]
        calls += [
            (["frobnicate"], 1, ""),
            (["certify", "fat", "--alpha", '{"kind": "constant", "value": "1/2"}'], 1, ""),
            (["example", "cutout_fat", "--set", 'measure={"kind":"binomial","p":"1/2"}'], 0,
             golden("example_cutout_fat")),
            (["example", "cutout_fat", "--override", '{"measure": {"kind": "binomial", "p": "1/2"}}'],
             0, golden("example_cutout_fat")),
            (["example", "logfloor_removal", "--set", "p=2/3"], 0, None),
            (["example", "logfloor_removal", "--override", '{"p": "2/3"}'], 0, None),
            (["example", "logfloor_removal", "--set", "p=2/3", "--set", "stages=12"], 0, None),
        ] * 2
        random.Random(seed).shuffle(calls)
        for argv, expect, text in calls:
            code, out, err = call(argv)
            assert code == expect, argv
            if text is None:
                heavy.append(out)
                assert out == heavy[0]
                assert json.loads(out)["results"]["verdict"] == "ZERO_LIMIT"
            else:
                assert out == text, argv
            if expect == 1:
                assert set(error_line(err)) == {"error", "kind"}


def table_flags(topic, verb) -> set[str]:
    """The flags a verb's row offers: --NAME for each option of its table and
    each common flag; `example` adds its own arguments but the positional."""
    for t, v, _, _, spec, common in cli.VERBS:
        if (t, v) == (topic, verb):
            flags = {f"--{name}" for name in [*spec, *common]} | {"--help"}
            if verb is None:
                flags |= {f for f, _ in cli._EXAMPLE_ARGUMENTS if f.startswith("--")}
            return flags
    raise KeyError((topic, verb))


def help_flags(argv) -> set[str]:
    code, out, _ = call([*argv, "--help"])
    assert code == 0
    return set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", out.split("options:", 1)[1]))


VERB_ROWS = [(t, v) for t, v, *_ in cli.VERBS]


class TestHelp:
    def test_top_level_help(self):
        code, out, _ = call(["--help"])
        assert code == 0
        for topic in dict.fromkeys(t for t, _ in VERB_ROWS):
            assert topic in out

    @pytest.mark.parametrize("topic, verb", VERB_ROWS)
    def test_verb_help_lists_its_table_flags(self, topic, verb):
        argv = [topic] if verb is None else [topic, verb]
        assert help_flags(argv) == table_flags(topic, verb)

    def test_verb_help_text(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = call(["certify", "fat", "-h"])
        assert code == 0 and err == ""
        assert out == (
            "usage: dmlab certify fat [-h] [--out OUT] [--config CONFIG] [--alpha ALPHA]\n"
            "                         [--t T] [--factor-scale FACTOR_SCALE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --out OUT             write the JSON report to this file\n"
            "  --config CONFIG       JSON file with option defaults\n"
            "  --alpha ALPHA\n"
            "  --t T\n"
            "  --factor-scale FACTOR_SCALE\n"
        )

    def test_run_flags_only_where_honoured(self):
        assert "--seed" not in help_flags(["certify", "fat"])
        assert "--max-depth" not in help_flags(["seq", "classify"])
        assert "--max-nodes" not in help_flags(["measure", "mass"])
        assert {"--seed", "--max-depth", "--max-nodes"} <= help_flags(["doubling", "scan"])


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_line(name):
    case = USAGE_ERRORS[name]
    code, out, err = call(case["argv"])
    assert (code, out, err) == (case["exit"], "", case["stderr"] + "\n")


def outcome(parse, argv) -> tuple:
    """vars of the namespace `parse` returns for argv, or its exit code, stdout
    and stderr when it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def row_argv(row, rng) -> list[str]:
    """argv giving every flag of a VERBS row a value, in shuffled order."""
    topic, verb, _, _, spec, common = row
    head = [topic, rng.choice(EXPERIMENT_NAMES)] if verb is None else [topic, verb]
    flags = [[f"--{name}"] if spec[name][0] is cli._switch else [f"--{name}", str(i)]
             for i, name in enumerate(spec)]
    flags += [[f"--{name}", str(len(spec) + i)] for i, name in enumerate(common)]
    if verb is None:
        flags += [["--override", "{}"], ["--set", "a=1"], ["--set", "b=2"]]
    rng.shuffle(flags)
    return head + [arg for flag in flags for arg in flag]


class TestPerVerbParse:
    """`cli._parse` parses a known verb with its own subparser; the namespace,
    help, usage errors and exit codes must be the full parser's."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_argv(self, name):
        argv = CASES[name]["argv"]
        assert outcome(cli._parse, argv) == outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize("row", cli.VERBS, ids=lambda row: f"{row[0]}-{row[1]}")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_table_flags(self, row, seed):
        argv = row_argv(row, random.Random(seed))
        full = outcome(build_parser().parse_args, argv)
        assert isinstance(full, dict)
        assert outcome(cli._parse, argv) == full

    @pytest.mark.parametrize("argv", [case["argv"] for case in USAGE_ERRORS.values()] + [
        ["certify", "fat", "-h"], ["certify", "fat", "--h"], ["example", "-h"], ["example"],
        ["certify", "fat", "--", "x"], ["certify", "fat", "--alpha", "x", "--", "--t", "1"],
        ["certify", "fat", "--fact", "1/2"], ["certify", "fat", "--factor-scale=1/2", "--t=2"],
        ["qs", "scan", "--random-triples", "-4"], ["doubling", "scan", "--no-fit", "x"],
        ["example", "middle_cantor", "--set"], ["--bogus", "certify", "fat"], [], ["certify", "nope"],
    ])
    def test_help_and_usage_errors(self, argv):
        assert outcome(cli._parse, argv) == outcome(build_parser().parse_args, argv)


class _ReadKeys(dict):
    """An options dict that records every key a handler reads."""

    def __init__(self, options):
        super().__init__(options)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("topic, verb", [row for row in VERB_ROWS if row[1] is not None])
def test_handler_reads_every_option_of_its_table(topic, verb):
    """A verb's handler reads every option its table offers as a flag and a
    --config key, so none is accepted and then ignored; a golden case of the
    verb supplies the values."""
    argv = next(c["argv"] for c in CASES.values() if c["argv"][:2] == [topic, verb])
    args = build_parser().parse_args(argv)
    options = _ReadKeys(cli._verb_options(args))
    args.handler(options, 0)
    assert options.read == set(args.spec)


class TestSeed:
    CUTOUT = ["certify", "cutout", "--scan-depth", "5"]

    def test_certify_cutout_seed_zero_is_golden(self):
        code, out, _ = call([*self.CUTOUT, "--seed", "0"])
        assert code == 0
        assert out == golden("certify_cutout_d5")

    def test_certify_cutout_seed_changes_doubling(self):
        code, out, _ = call([*self.CUTOUT, "--seed", "7"])
        assert code == 0
        seeded, base = json.loads(out), json.loads(golden("certify_cutout_d5"))
        assert seeded["doubling"] != base["doubling"]

    def test_example_cutout_fat_seed(self):
        assert call(["example", "cutout_fat", "--seed", "0"])[1] == golden("example_cutout_fat")
        code, out, _ = call(["example", "cutout_fat", "--seed", "7"])
        assert code == 0
        seeded, base = json.loads(out), json.loads(golden("example_cutout_fat"))
        assert seeded["results"]["doubling"] != base["results"]["doubling"]

    @pytest.mark.parametrize("name", [n for n in EXPERIMENT_NAMES
                                      if "seed" not in HONOURED_FLAGS.get(n, ())])
    def test_unseeded_example_refuses_seed(self, name):
        code, out, err = call(["example", name, "--seed", "3"])
        assert code == 1
        assert out == ""
        assert "--seed" in error_line(err)["error"]

    @pytest.mark.parametrize("argv", [
        ["seq", "classify", "--family", '{"kind": "geometric", "a": "1/2", "q": "1/2"}'],
        ["cantor", "build", "--beta", '{"kind": "constant", "value": "1/3"}'],
        ["measure", "grid", "--measure", BINOM],
        ["certify", "fat", "--alpha", '{"kind": "geometric", "a": "1/2", "q": "1/2"}'],
        ["certify", "logfloor"],
        ["qs", "pullback", "--C", "2", "--eta2", "2"],
    ])
    def test_verbs_without_a_draw_refuse_seed(self, argv):
        code, out, _ = call([*argv, "--seed", "3"])
        assert code == 1
        assert out == ""


class TestMaxDepth:
    def test_example_depth_cap_reaches_the_library(self):
        code, out, err = call(["example", "middle_cantor", "--max-depth", "1"])
        assert code == 1
        assert out == ""
        error = error_line(err)
        assert error["kind"] == "DepthBudgetExceeded"
        assert "cap 1" in error["error"]

    def test_example_within_cap_is_golden(self):
        code, out, _ = call(["example", "middle_cantor", "--max-depth", "8"])
        assert code == 0
        assert out == golden("example_middle_cantor")

    def test_cutout_fat_scan_depth_is_capped(self):
        code, _, err = call(["example", "cutout_fat", "--max-depth", "5"])
        assert code == 1
        assert error_line(err)["error"] == "depth 6 exceeds cap 5"

    def test_example_without_depth_refuses_cap(self):
        code, _, err = call(["example", "interval_packing", "--max-depth", "4"])
        assert code == 1
        assert "--max-depth" in error_line(err)["error"]

    @pytest.mark.parametrize("argv", [
        ["seq", "tail", "--family", '{"kind": "geometric", "a": "1/2", "q": "1/2"}'],
        ["cantor", "cutout", "--nested", "3"],
        ["certify", "thin", "--alpha", '{"kind": "constant", "value": "1/2"}'],
        ["qs", "pullback", "--C", "2", "--eta2", "2"],
    ])
    def test_verbs_without_depth_refuse_cap(self, argv):
        code, out, _ = call([*argv, "--max-depth", "4"])
        assert code == 1
        assert out == ""

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("DMLAB_MAX_DEPTH", "5")
        argv = ["doubling", "scan", "--measure", BINOM, "--depth", "8", "--no-fit"]
        assert call([*argv, "--max-depth", "10"])[0] == 0
        assert error_line(call(argv)[2])["error"] == "depth 8 exceeds cap 5"


def test_console_script_entry_point():
    """The `dmlab` console script calls its `[project.scripts]` target with no
    arguments, so argv comes from sys.argv and the return value is the exit
    code; this runs the target the way the installed script does."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'\[project\.scripts\]\ndmlab = "([\w.]+):(\w+)"', pyproject).groups()
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(pathlib.Path(dmlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, "example", "interval_packing"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout == golden("example_interval_packing")
    done = subprocess.run([sys.executable, "-c", script, "seq", "tail", "--seed", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
