"""Command-line behaviour: exit codes, report files, determinism, depth caps."""

import json

import pytest

from dmlab.cli import main
from dmlab.experiments import EXPERIMENT_NAMES

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
        ],
    )
    def test_one_json_line(self, capsys, argv, kind):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == kind
