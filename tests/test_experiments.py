"""Bundled experiments: every scenario passes and reruns byte-identically."""

import pytest

from dmlab.errors import PreconditionViolated
from dmlab.experiments import EXPERIMENT_NAMES, OVERRIDE_KEYS, run_experiment
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


class _ReadKeys(dict):
    """An empty override dict that records every key a runner looks up."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_override_keys_are_the_keys_read(name):
    overrides = _ReadKeys()
    run_experiment(name, overrides)
    assert overrides.read == set(OVERRIDE_KEYS[name])
