"""Suite-wide wiring: one PASS/FAIL line per acceptance check, and a
deterministic hypothesis profile that leaves no files in the checkout."""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("lpfacility", derandomize=True, database=None, max_examples=200, deadline=None)
settings.load_profile("lpfacility")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches the constants it mines from source files under its
    # home directory, which would default to ./.hypothesis
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="lpfacility-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {name}: {verdict}")
