"""Bundled experiments: every scenario passes and reruns byte-identically."""

import pytest

from dmlab import certify, measure
from dmlab.errors import DmlabError, PreconditionViolated
from dmlab.experiments import EXPERIMENT_NAMES, EXPERIMENTS, read_options, run_experiment
from dmlab.reports import dump_report


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_every_experiment_passes(name):
    report = run_experiment(name)
    assert report["schema"] == "dmlab-report/1"
    assert report["experiment"] == name
    assert report["status"] == "pass"
    for check in report["checks"]:
        assert check["passed"], check["name"]


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_rerun_is_byte_identical(name):
    assert dump_report(run_experiment(name)) == dump_report(run_experiment(name))


def test_expected_plot_series():
    series = {
        "middle_cantor": "partial_product",
        "logfloor_removal": "partial_product",
        "porous_thin": "stage_mass_upper",
        "cutout_fat": "doubling_ratio_by_scale",
    }
    for name, expected in series.items():
        report = run_experiment(name)
        assert [s["series"] for s in report["plot"]] == [expected]


def test_logfloor_heavy_override_vanishes():
    report = run_experiment("logfloor_removal", {"p": "2/3"})
    assert report["status"] == "pass"
    assert report["results"]["verdict"] == "ZERO_LIMIT"
    assert report["results"]["vanishing_stage"] == 51


def test_unknown_name_rejected():
    with pytest.raises(PreconditionViolated):
        run_experiment("free_lunch")


def test_unknown_override_key_rejected():
    """The library refuses an override its experiment does not read, with
    the message the CLI gives for it."""
    with pytest.raises(DmlabError) as info:
        run_experiment("logfloor_removal", {"q": 1})
    assert str(info.value) == ("example logfloor_removal reads no override 'q'; "
                               "it reads: p, stages, deep_stage, threshold")


class _ReadKeys(dict):
    """An options dict that records every key a runner reads."""

    def __init__(self, options):
        super().__init__(options)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_override_keys_are_the_keys_read(name):
    """The keys of an experiment's option table, which `dmlab example`
    accepts, are exactly the options its runner reads."""
    runner, spec = EXPERIMENTS[name]
    options = _ReadKeys(read_options(spec, {}))
    runner(options)
    assert options.read == set(spec)


def test_cutout_fat_reads_its_bounds_and_masses_through_the_public_functions(monkeypatch):
    """`example cutout_fat` calls `cutout_lower_bound` for its ball count and
    its probe count, and `cutout_mass` for its direct mass and, inside
    `inflated_remainder_check`, for the inflated remainder: a by-name tracer
    sees each of them."""
    calls = {"cutout_lower_bound": 0, "cutout_mass": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(certify, "cutout_lower_bound", counted("cutout_lower_bound", certify.cutout_lower_bound))
    mass = counted("cutout_mass", measure.cutout_mass)
    for module in (measure, certify):
        monkeypatch.setattr(module, "cutout_mass", mass)
    assert run_experiment("cutout_fat")["status"] == "pass"
    assert calls == {"cutout_lower_bound": 2, "cutout_mass": 2}
