"""Report values produced by the verification tools, and their text forms.

All floats render as decimal with 17 significant digits ("inf" for
infinity), so identical inputs produce byte-identical JSON and CSV and
every printed value parses back to the exact double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import LocationProfile
from ..mechanisms import MechanismSpec, format_mechanism

__all__ = [
    "SearchConfig",
    "DeviationReport",
    "RatioReport",
    "MixtureBoundCertificate",
    "RatioWitness",
    "SPViolation",
    "AdversarialVerdict",
    "fmt",
    "render_json",
    "render_csv",
]


def fmt(x: float) -> str:
    """17-significant-digit decimal rendering, round-trippable."""
    v = float(x)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON: dict order preserved, floats via fmt.

    Infinities are emitted as the strings "inf"/"-inf" since JSON has no
    literal for them.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = ",\n".join(
            f'{inner}"{key}": {render_json(val, indent + 1)}' for key, val in value.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        items = [render_json(val, indent + 1) for val in value]
        flat = "[" + ", ".join(items) + "]"
        if len(flat) <= 72 and "\n" not in flat:
            return flat
        return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return f'"{fmt(v)}"' if math.isinf(v) else fmt(v)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if value is None:
        return "null"
    raise TypeError(f"cannot render {value!r} as JSON")


def render_csv(header: list[str], rows) -> str:
    """CSV with one header row; floats via fmt, everything else via str."""

    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return fmt(v)
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the misreport candidate set and its refinement."""

    grid_points: int = 2001
    grid_pad: float = 2.0
    scale_bound: float = 4.0
    scale_steps_per_unit: int = 256
    refine_iters: int = 48

    def __post_init__(self):
        _check_fields(self, (("grid_points", 2, True), ("grid_pad", 0, False), ("scale_bound", 0, False),
                             ("scale_steps_per_unit", 1, False), ("refine_iters", 0, True)))


def _check_fields(config, rules) -> None:
    """Raise ValueError naming the first field that breaks its (name, least,
    whole) rule: an integer if whole, else a finite number, and >= least."""
    for name, least, whole in rules:
        v = getattr(config, name)
        kinds = (int, np.integer) if whole else (int, float, np.integer, np.floating)
        if isinstance(v, bool) or not isinstance(v, kinds) or not ((whole or math.isfinite(v)) and v >= least):
            rule = "an integer" if whole else "finite and"
            raise ValueError(f"{type(config).__name__}.{name} must be {rule} >= {least}, got {v!r}")


@dataclass(frozen=True)
class DeviationReport:
    """Best single-agent misreport found, against truthful play.

    gain = truthful_cost - deviated_cost; positive gain means the agent
    benefits from lying. Ties (gain exactly 0) are normal for rules with
    indifference regions and are not violations.
    """

    agent: int
    true_profile: LocationProfile
    best_misreport: float
    truthful_cost: float
    deviated_cost: float
    gain: float

    def as_dict(self) -> dict:
        return {
            "agent": self.agent,
            "true_profile": list(self.true_profile.values.tolist()),
            "best_misreport": self.best_misreport,
            "truthful_cost": self.truthful_cost,
            "deviated_cost": self.deviated_cost,
            "gain": self.gain,
        }


@dataclass(frozen=True)
class RatioReport:
    """Mechanism cost against the optimum on one profile.

    spec is None when the mechanism under test is an opaque oracle rather
    than a catalog member.
    """

    spec: MechanismSpec | None
    profile: LocationProfile
    p: float
    mechanism_cost: float
    opt_cost: float
    ratio: float

    def as_dict(self) -> dict:
        return {
            "spec": None if self.spec is None else format_mechanism(self.spec),
            "profile": list(self.profile.values.tolist()),
            "p": self.p,
            "mechanism_cost": self.mechanism_cost,
            "opt_cost": self.opt_cost,
            "ratio": self.ratio,
        }


@dataclass(frozen=True, eq=False)
class MixtureBoundCertificate:
    """Numerical floor on the approximation ratio of optimum-chasing mixtures.

    For 2k agents at integer exponent p, rank j's root a_j fixes a profile
    (j agents at -a_j, k-j at 0, k-j+1 at 1, j-1 at 1+a_j) whose optimal
    location is zero; opt_residuals records |numeric optimum| per rank.
    p_opt_bound = 1/(1 + sum_j 1/a_j) caps the probability such a mixture
    can put on the optimal location, and ratio_lower_bound converts that cap
    into a ratio floor 2^(1-1/p) - (2^(1-1/p) - 1) * p_opt_bound.
    bound_checks records, for each rank j >= k^(1/(p-1)) + 1, whether
    a_j < 2^(p-1) * (j-1), the growth estimate keeping the sum finite.
    scan_step is the spacing of the grid on which each root's first
    bracketing cell is found, before that cell is bisected down to root_tol.
    """

    p: int
    k: int
    roots: np.ndarray
    inverse_sum: float
    p_opt_bound: float
    ratio_lower_bound: float
    opt_residuals: np.ndarray
    bound_checks: tuple[tuple[int, bool], ...]
    scan_step: float
    root_tol: float
    opt_tol: float

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "inverse_sum": self.inverse_sum,
            "p_opt_bound": self.p_opt_bound,
            "ratio_lower_bound": self.ratio_lower_bound,
            "max_opt_residual": float(self.opt_residuals.max()),
            "bound_checks_ok": all(ok for _, ok in self.bound_checks),
            "scan_step": self.scan_step,
            "root_tol": self.root_tol,
            "opt_tol": self.opt_tol,
            "roots": list(self.roots.tolist()),
        }

    def summary_row(self) -> list:
        return [self.k, self.inverse_sum, self.p_opt_bound, self.ratio_lower_bound]

    def root_rows(self) -> list[list]:
        checked = dict(self.bound_checks)
        rows = []
        for idx, root in enumerate(self.roots.tolist(), start=1):
            rows.append([self.k, idx, root, 1.0 / root, checked.get(idx, "")])
        return rows


@dataclass(frozen=True)
class RatioWitness:
    """A profile on which the tested rule's ratio is already large."""

    profile: LocationProfile
    ratio: float
    report: RatioReport


@dataclass(frozen=True)
class SPViolation:
    """A profitable misreport exhibited against the tested rule."""

    report: DeviationReport


AdversarialVerdict = RatioWitness | SPViolation
