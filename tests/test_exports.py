"""The export layer: each public name is declared once, in its module's
`__all__`, and both package export lists are derived from those."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpfacility
import lpfacility.verification

ROOT = Path(__file__).resolve().parents[1]

LIBRARY_MODULES = [
    "lpfacility.core",
    "lpfacility.mechanisms",
    "lpfacility.optimizer",
    "lpfacility.verification.certificates",
    "lpfacility.verification.deviation",
    "lpfacility.verification.ratio",
    "lpfacility.verification.reports",
]

# The 57 names `lpfacility.__all__` listed (besides `__version__`) when both
# package lists were still written by hand, by defining module.
HAND_WRITTEN_EXPORTS = {
    "lpfacility.core": [
        "LocationProfile", "FacilityDistribution", "point_mass", "validate_pnorm", "parse_pnorm",
        "format_pnorm", "agent_cost", "expected_agent_cost", "social_cost", "expected_social_cost",
        "order_statistic", "reflect",
    ],
    "lpfacility.mechanisms": [
        "ArityMismatch", "InvalidWeight", "Median", "OrderStatistic", "Dictator", "Optimal", "LRM",
        "ThreePoint", "Mixture", "Mirror", "Symmetrized", "MechanismSpec", "run", "median_location",
        "lrm_distribution", "three_point_distribution", "parse_mechanism", "format_mechanism",
    ],
    "lpfacility.optimizer": [
        "OptResult", "NoRootFound", "optimal_location", "optimal_cost", "smallest_positive_root",
        "adversarial_root", "adversarial_roots",
    ],
    "lpfacility.verification.certificates": [
        "OptMismatch", "mixture_bound_certificate", "adversarial_deterministic_test",
    ],
    "lpfacility.verification.deviation": [
        "UnsupportedSupport", "violation_threshold", "misreport_candidates", "deviation_cost_curve",
        "best_deviation", "sp_scan", "symmetric_sp_margin",
    ],
    "lpfacility.verification.ratio": ["RatioSearchConfig", "ratio", "worst_ratio_search"],
    "lpfacility.verification.reports": [
        "SearchConfig", "DeviationReport", "RatioReport", "MixtureBoundCertificate", "RatioWitness",
        "SPViolation", "AdversarialVerdict",
    ],
}


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_every_public_class_and_function_is_exported(name):
    module = importlib.import_module(name)
    public = [
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == name
    ]
    assert [attr for attr in public if attr not in module.__all__] == []


def test_hand_written_names_are_kept_and_bound_to_the_same_objects():
    assert sum(map(len, HAND_WRITTEN_EXPORTS.values())) == 57
    for name, names in HAND_WRITTEN_EXPORTS.items():
        module = importlib.import_module(name)
        for attr in names:
            assert attr in lpfacility.__all__, attr
            assert getattr(lpfacility, attr) is getattr(module, attr), attr
    assert lpfacility.__version__ == "0.1.0" and "__version__" in lpfacility.__all__


def exported(names):
    return [attr for name in names for attr in importlib.import_module(name).__all__]


def test_package_lists_are_the_module_lists_without_duplicates():
    assert len(lpfacility.__all__) == len(set(lpfacility.__all__))
    assert lpfacility.__all__ == ["__version__", *exported(LIBRARY_MODULES)]
    assert lpfacility.verification.__all__ == exported(LIBRARY_MODULES[3:])


def test_ratio_is_the_function_not_the_submodule():
    assert lpfacility.verification.ratio is sys.modules["lpfacility.verification.ratio"].ratio
    assert lpfacility.ratio is lpfacility.verification.ratio


def test_star_imports_raise_no_warning():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from lpfacility import *; from lpfacility.verification import *"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
