"""Mechanism catalog: rules mapping reported profiles to facility outcomes.

Specs are small immutable values describing a rule. `_outcome_plan` is the
one place that gives a spec its meaning: it turns a rule, a profile and one
agent into atoms (a weight and a location as a function of that agent's
report). `run` evaluates the plan at agent 1's truthful report; the
misreport search evaluates it over candidate reports in numpy and at single
points in pure Python. Randomized rules return their full finite
distribution rather than samples, so downstream cost computations are exact
expectations.

Text round-trip: `parse_mechanism` / `format_mechanism` speak a canonical
grammar used by the command line and by serialized reports:

    median | order:J | dictator:I | opt | opt:P | lrm | threepoint:Q
    | mixture:{dict:[w1,...],order:[w1,...],opt:W} (optionally ,p:P)
    | mirror(SPEC) | symmetrize(SPEC)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .core import (
    FacilityDistribution,
    LocationProfile,
    _check_int,
    _rank_window,
    format_pnorm,
    order_statistic,
    parse_pnorm,
    validate_pnorm,
)
from .optimizer import _optimum, _optimum_rows

__all__ = [
    "ArityMismatch",
    "InvalidWeight",
    "Median",
    "OrderStatistic",
    "Dictator",
    "Optimal",
    "LRM",
    "ThreePoint",
    "Mixture",
    "Mirror",
    "Symmetrized",
    "MechanismSpec",
    "run",
    "median_location",
    "lrm_distribution",
    "three_point_distribution",
    "parse_mechanism",
    "format_mechanism",
]

WEIGHT_TOL = 1e-12


class ArityMismatch(ValueError):
    """Mechanism applied to a profile size it is not defined for."""


class InvalidWeight(ValueError):
    """Probability weights that are negative or do not sum to one."""


def _require_two(n: int, label: str) -> None:
    if n != 2:
        raise ArityMismatch(f"{label} is a two-agent rule, profile has {n}")


@dataclass(frozen=True)
class Median:
    """Lower median: the ceil(n/2)-th smallest report."""


@dataclass(frozen=True)
class OrderStatistic:
    """The rank-th smallest report (rank is 1-based)."""

    rank: int

    def __post_init__(self):
        object.__setattr__(self, "rank", _check_int(self.rank, "rank", 1))


@dataclass(frozen=True)
class Dictator:
    """Agent's own report, by reporting position (1-based)."""

    agent: int

    def __post_init__(self):
        object.__setattr__(self, "agent", _check_int(self.agent, "agent", 1))


@dataclass(frozen=True)
class Optimal:
    """The cost-minimizing location; p=None ties it to the evaluation norm."""

    p: float | None = None

    def __post_init__(self):
        if self.p is not None:
            object.__setattr__(self, "p", validate_pnorm(self.p))


@dataclass(frozen=True)
class LRM:
    """Two agents: mass 1/4 on each report and 1/2 on their midpoint."""


@dataclass(frozen=True)
class ThreePoint:
    """Two agents: mass q_end on each report, 1 - 2*q_end on the midpoint."""

    q_end: float

    def __post_init__(self):
        q = float(self.q_end)
        if not 0.0 <= q <= 0.5:
            raise InvalidWeight(f"q_end must lie in [0, 1/2], got {self.q_end!r}")
        object.__setattr__(self, "q_end", q)


@dataclass(frozen=True)
class Mixture:
    """Lottery over dictators, order statistics, and the optimal location.

    dictator_weights and order_weights are each either empty (all zero) or
    one weight per agent; together with opt_weight they must be nonnegative
    and sum to 1. p=None ties the optimal component to the evaluation norm.
    """

    dictator_weights: tuple[float, ...] = ()
    order_weights: tuple[float, ...] = ()
    opt_weight: float = 0.0
    p: float | None = None

    def __post_init__(self):
        dw = tuple(float(w) for w in self.dictator_weights)
        ow = tuple(float(w) for w in self.order_weights)
        opt = float(self.opt_weight)
        weights = dw + ow + (opt,)
        if any(not math.isfinite(w) or w < 0.0 for w in weights):
            raise InvalidWeight(f"mixture weights must be finite and nonnegative: {weights!r}")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvalidWeight(f"mixture weights sum to {total!r}, not 1")
        object.__setattr__(self, "dictator_weights", dw)
        object.__setattr__(self, "order_weights", ow)
        object.__setattr__(self, "opt_weight", opt)
        if self.p is not None:
            object.__setattr__(self, "p", validate_pnorm(self.p))


@dataclass(frozen=True)
class Mirror:
    """Two agents: the inner rule's outcome reflected about the midpoint."""

    inner: "MechanismSpec"


@dataclass(frozen=True)
class Symmetrized:
    """Two agents: half the inner rule, half its mirror image."""

    inner: "MechanismSpec"


MechanismSpec = Union[
    Median,
    OrderStatistic,
    Dictator,
    Optimal,
    LRM,
    ThreePoint,
    Mixture,
    Mirror,
    Symmetrized,
]


def median_location(profile: LocationProfile) -> float:
    """The lower-median report: the ceil(n/2)-th smallest."""
    return order_statistic(profile, (profile.n + 1) // 2)


def lrm_distribution(profile: LocationProfile) -> FacilityDistribution:
    """Quarter mass on each extreme report, half on their midpoint."""
    return run(LRM(), profile, 1.0)


def three_point_distribution(profile: LocationProfile, q_end: float) -> FacilityDistribution:
    """Mass q_end on each extreme report, 1 - 2*q_end on their midpoint."""
    return run(ThreePoint(q_end), profile, 1.0)


def run(spec: MechanismSpec, reported: LocationProfile, p: float) -> FacilityDistribution:
    """Apply a mechanism to a reported profile.

    The evaluation norm p is forwarded to optimum-based components that do
    not carry their own. Raises ArityMismatch when the spec does not fit the
    profile size (two-agent rules, out-of-range ranks or dictators).
    """
    p = validate_pnorm(p)
    values = reported.values.tolist()
    others, atoms = _outcome_plan(spec, values, p, 1)
    locations = _plan_at(others, atoms, values[0])
    return FacilityDistribution(zip(locations, [atom[0] for atom in atoms]))


def _outcome_plan(spec, values: list, p: float, agent: int, others: list | None = None):
    """The rule's outcome on a profile's reports `values` (floats, in agent
    order) as data, with `agent`'s report r left free; `others`, if given,
    are the other reports as `sorted` orders them, else they are sorted here.

    Returns (others, atoms): the other agents' reports sorted ascending, and
    one (weight, lo, hi, q) tuple per atom. The atom's location is r clipped
    to the window [lo, hi] when q is None (another agent's dictator is the
    window [v, v]), else the L_q optimum of others + [r]. Mixture components
    of zero weight are left out. The L_1 optimum is the median's line (it
    may differ from `optimizer._optimum` in a zero's sign, which costs and
    merged locations, `core._merged_atoms`, drop), so no atom has q = 1. On
    two agents every L_q optimum, q > 1, is their midpoint, so it and the
    midpoint atom of LRM and ThreePoint are written as the L_inf optimum,
    which `optimizer._optimum` computes as the midrange: the correctly
    rounded midpoint, inside the profile's hull.

    Mirror and Symmetrized are a map on these two-agent atoms, with o the
    other report: every window is [-inf, o], [o, inf], [-inf, inf] or
    [o, o], and the reflection r + o - y of each is another of them (min(r,
    o) and max(r, o) swap, as do r and o), while the midrange maps to
    itself. So a mirrored outcome is the exact reflection, and
    Mirror(Mirror(s)) has the plan of s.
    """
    n = len(values)
    if others is None:
        others = sorted(values[: agent - 1] + values[agent:])
    inf = math.inf

    def ranked(rank, w):
        if rank > n:
            raise ArityMismatch(f"order statistic {rank} needs {rank} agents, profile has {n}")
        return (w, *_rank_window(others, rank), None)

    def dictated(i, w):
        if i > n:
            raise ArityMismatch(f"dictator {i} needs {i} agents, profile has {n}")
        v = values[i - 1]
        return (w, -inf, inf, None) if i == agent else (w, v, v, None)

    def optimum(q, w):
        q = p if q is None else q
        return ranked((n + 1) // 2, w) if q == 1.0 else (w, -inf, inf, inf if n == 2 else q)

    if isinstance(spec, Median):
        atoms = [ranked((n + 1) // 2, 1.0)]
    elif isinstance(spec, OrderStatistic):
        atoms = [ranked(spec.rank, 1.0)]
    elif isinstance(spec, Dictator):
        atoms = [dictated(spec.agent, 1.0)]
    elif isinstance(spec, Optimal):
        atoms = [optimum(spec.p, 1.0)]
    elif isinstance(spec, (LRM, ThreePoint)):
        _require_two(n, "lrm" if isinstance(spec, LRM) else "threepoint")
        q, o = (0.25 if isinstance(spec, LRM) else spec.q_end), others[0]
        atoms = [(q, -inf, o, None), (1.0 - 2.0 * q, -inf, inf, inf), (q, o, inf, None)]
    elif isinstance(spec, Mixture):
        for label, weights in (("dictator", spec.dictator_weights), ("order", spec.order_weights)):
            if weights and len(weights) != n:
                raise ArityMismatch(f"{label} weights sized {len(weights)} for {n} agents")
        atoms = [dictated(i, w) for i, w in enumerate(spec.dictator_weights, 1) if w > 0.0]
        atoms += [ranked(j, w) for j, w in enumerate(spec.order_weights, 1) if w > 0.0]
        if spec.opt_weight > 0.0:
            atoms.append(optimum(spec.p, spec.opt_weight))
    elif isinstance(spec, (Mirror, Symmetrized)):
        _require_two(n, "mirror" if isinstance(spec, Mirror) else "symmetrize")
        inner, o = _outcome_plan(spec.inner, values, p, agent, others)[1], others[0]
        atoms = [a if a[3] else (a[0], -inf if a[1] == o else o, inf if a[2] == o else o, None) for a in inner]
        if isinstance(spec, Symmetrized):
            atoms = [(0.5 * a[0], *a[1:]) for a in inner + atoms]
    else:
        raise TypeError(f"unknown mechanism spec {spec!r}")
    return others, atoms


def _plan_at(others: list, atoms: list, r: float, x: float | None = None, solved: dict | None = None):
    """The plan at report r in pure Python: the atom locations, or, given
    x, the expected distance from x to them, summed directly. `solved`, if
    given, maps (q, *row) to the row's solved optimum (q not in {2, inf}),
    and a row found there is not solved again. Rows that differ only in a
    zero's sign share a key. `_optimum` meets them with equal values, and
    its arithmetic reads a zero's sign only into the sign of a zero result
    (Python raises on division by either zero, and `_solve_row`'s copysign
    takes a zero distance's sign for a zero power), so their optima differ
    only in a zero's sign, which |x - y| drops and comparisons ignore."""
    locations = []
    total = 0.0
    for w, lo, hi, q in atoms:
        if q is None:
            y = lo if r < lo else hi if r > hi else r
        elif solved is None or q in _UNSOLVED:
            y = _optimum(sorted([*others, r]), q)
        else:
            row = sorted([*others, r])
            key = (q, *row)
            if key not in solved:
                solved[key] = _optimum(row, q)
            y = solved[key]
        if x is None:
            locations.append(y)
        else:
            total += w * abs(x - y)
    return locations if x is None else total


def _plan_costs(others: list, atoms: list, x: float, reports: np.ndarray) -> np.ndarray:
    """The expected distance from x to the plan's outcome at each report,
    one numpy column per atom; optima come from the batched kernel. The
    sum starts from the first term, since every term is w * |x - y| >= +0
    or NaN, so 0.0 + t = t; windows left unclipped and terms of weight 1
    keep their bits, as max(y, -inf), min(y, inf) and 1.0 * t are y and t."""
    total = None
    for w, lo, hi, q in atoms:
        if q is None:
            y = reports
            if lo > -math.inf:
                y = np.maximum(y, lo)
            if hi < math.inf:
                y = np.minimum(y, hi)
        else:
            y = _optimum_rows([(others, reports)], q)[0]
        term = np.abs(x - y)
        if w != 1.0:
            term *= w
        if total is None:
            total = term
        else:
            total += term
    return total


# The pruned scan solves every _PRUNE_STRIDE-th sorted report first.
_PRUNE_STRIDE = 64
# Atom exponents that need no solve: clipped lines and closed-form optima.
_UNSOLVED = (None, 2.0, math.inf)


def _plan_min(plans: list) -> list:
    """(i, costs[i]) per plan (others, atoms, x, reports), for costs =
    _plan_costs(others, atoms, x, reports) and i = argmin(costs), bit for
    bit; the cost is inf when an entry is not finite, and overflow is not
    warned of, since callers check the costs. The plans must come from one
    rule on one profile, so they share n and the exponent q of any solved
    optimum. Plans of clipped lines and then one optimum that is not a
    closed form (every catalog plan with a solved optimum) solve only the
    reports that can win, all of them in one kernel call per phase;
    `verification.deviation.best_deviation` gives the argument. The other
    plans take the full curve, one by one.
    """
    found = _pruned_min(plans)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, plan in enumerate(plans):
            if found[k] is None:
                costs = _plan_costs(*plan)
                i = int(costs.argmin())
                # costs are >= 0 or NaN, and max propagates NaN
                found[k] = i, (float(costs[i]) if math.isfinite(costs.max()) else math.inf)
    return found


def _pruned_min(plans: list) -> list:
    # per plan, _plan_min priced as rest + w * |x - y|, rest the cost curve of
    # its lines and y its optimum, solved at the coarse rows, then at the rows
    # whose lower bound does not exceed the coarse minimum; None for a plan of
    # another shape or whose cost cap overflows
    found, scans = [None] * len(plans), []
    # a line's cost may overflow; the cap then sends its plan to the full curve
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (others, atoms, x, reports) in enumerate(plans):
            *lines, (w, _, _, q) = atoms
            if q in _UNSOLVED or any(a[3] is not None for a in lines):
                continue
            order = np.argsort(reports, kind="stable")
            r = reports[order]
            # _plan_costs' sum in atom order with the optimum left out: None when
            # no line is, and w * |x - y| + rest is the full sum, as + commutes
            rest = _plan_costs(others, lines, x, r)
            # the optimum lies in `window`, which holds every row's points, so no
            # row costs more than the cap, and below a finite cap none overflows
            window = (min(float(r[0]), others[0]), max(float(r[-1]), others[-1]))
            cap = w * max(abs(x - window[0]), abs(x - window[1])) + (0.0 if rest is None else float(rest.max()))
            if math.isfinite(cap):
                scans.append((k, order, r, rest, w, x, 1e-9 * (1.0 + abs(window[0]) + abs(window[1]))))

    def priced(scan, rows, y):
        # the scan's costs at its sorted reports' rows, y its optima there
        _, _, _, rest, w, x, _ = scan
        costs = w * np.abs(x - y)
        if rest is not None:
            costs += rest[rows]
        return costs

    coarse = [_stride_rows(r.size)[0] for _, _, r, *_ in scans]
    kept, least = [], []
    for scan, rows, y in zip(scans, coarse, _optima_at(plans, scans, coarse)):
        _, _, r, rest, w, x, delta = scan
        _, inner, gap = _stride_rows(r.size)
        # the optimum lies within delta of the bracket its gap's ends give
        bound = w * np.maximum(np.maximum(y[:-1] - delta - x, x - (y[1:] + delta)), 0.0)[gap]
        if rest is not None:
            bound += rest[inner]
        costs = priced(scan, rows, y)
        kept.append(inner[bound * (1.0 - 1e-12) - delta <= costs.min()])
        least.append((rows, costs))
    for scan, keep, (rows, costs), y in zip(scans, kept, least, _optima_at(plans, scans, kept)):
        if keep.size:
            rows, costs = np.concatenate([rows, keep]), np.concatenate([costs, priced(scan, keep, y)])
        c = costs.min()
        found[scan[0]] = int(scan[1][rows[costs == c]].min()), float(c)
    return found


@lru_cache(maxsize=8)
def _stride_rows(size: int):
    # of `size` sorted reports: the coarse rows (every _PRUNE_STRIDE-th and
    # the last), the inner rows between them and the gap each inner row is in
    coarse = np.append(np.arange(0, size - 1, _PRUNE_STRIDE), size - 1)
    inner = np.flatnonzero(np.arange(size - 1) % _PRUNE_STRIDE)
    gap = inner // _PRUNE_STRIDE
    coarse.flags.writeable = inner.flags.writeable = gap.flags.writeable = False
    return coarse, inner, gap


def _optima_at(plans: list, scans: list, rows: list) -> list:
    # per scan, its optimum at its sorted reports' `rows`, all in one kernel
    # call, as the plans share n and q; no call, and None, when no row is asked
    if not any(idx.size for idx in rows):
        return [None] * len(scans)
    blocks = [(plans[k][0], r[idx]) for (k, _, r, *_), idx in zip(scans, rows)]
    return _optimum_rows(blocks, plans[scans[0][0]][1][-1][3])


def format_mechanism(spec: MechanismSpec) -> str:
    """Canonical text form; parse_mechanism(format_mechanism(s)) == s."""
    if isinstance(spec, Median):
        return "median"
    if isinstance(spec, OrderStatistic):
        return f"order:{spec.rank}"
    if isinstance(spec, Dictator):
        return f"dictator:{spec.agent}"
    if isinstance(spec, Optimal):
        return "opt" if spec.p is None else f"opt:{format_pnorm(spec.p)}"
    if isinstance(spec, LRM):
        return "lrm"
    if isinstance(spec, ThreePoint):
        return f"threepoint:{spec.q_end!r}"
    if isinstance(spec, Mixture):
        dict_w = ",".join(repr(w) for w in spec.dictator_weights)
        order_w = ",".join(repr(w) for w in spec.order_weights)
        body = f"dict:[{dict_w}],order:[{order_w}],opt:{spec.opt_weight!r}"
        if spec.p is not None:
            body += f",p:{format_pnorm(spec.p)}"
        return f"mixture:{{{body}}}"
    if isinstance(spec, Mirror):
        return f"mirror({format_mechanism(spec.inner)})"
    if isinstance(spec, Symmetrized):
        return f"symmetrize({format_mechanism(spec.inner)})"
    raise TypeError(f"unknown mechanism spec {spec!r}")


def parse_mechanism(text: str) -> MechanismSpec:
    """Parse the canonical text form of a mechanism spec.

    Raises ValueError (or a subclass) on malformed input.
    """
    if not isinstance(text, str):
        raise ValueError(f"mechanism spec must be a string, got {text!r}")
    s = text.strip()
    if s == "median":
        return Median()
    if s == "lrm":
        return LRM()
    if s == "opt":
        return Optimal()
    for wrapper, cls in (("mirror(", Mirror), ("symmetrize(", Symmetrized)):
        if s.startswith(wrapper):
            if not s.endswith(")"):
                raise ValueError(f"unbalanced parentheses in mechanism spec {text!r}")
            return cls(parse_mechanism(s[len(wrapper) : -1]))
    head, sep, tail = s.partition(":")
    if not sep or not tail:
        raise ValueError(f"unrecognized mechanism spec {text!r}")
    if head == "order":
        return OrderStatistic(_parse_int(tail, text))
    if head == "dictator":
        return Dictator(_parse_int(tail, text))
    if head == "opt":
        return Optimal(parse_pnorm(tail))
    if head == "threepoint":
        return ThreePoint(_parse_float(tail, text))
    if head == "mixture":
        return _parse_mixture(tail, text)
    raise ValueError(f"unrecognized mechanism spec {text!r}")


def _parse_int(token: str, context: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ValueError(f"expected an integer in {context!r}, got {token!r}") from exc


def _parse_float(token: str, context: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ValueError(f"expected a number in {context!r}, got {token!r}") from exc


def _parse_weight_list(token: str, context: str) -> tuple[float, ...]:
    if not (token.startswith("[") and token.endswith("]")):
        raise ValueError(f"expected a [w1,...] list in {context!r}, got {token!r}")
    body = token[1:-1].strip()
    if not body:
        return ()
    return tuple(_parse_float(part.strip(), context) for part in body.split(","))


def _split_top_level(body: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch in "[{(":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_mixture(token: str, context: str) -> Mixture:
    if not (token.startswith("{") and token.endswith("}")):
        raise ValueError(f"expected mixture:{{...}} in {context!r}")
    fields: dict[str, str] = {}
    for part in _split_top_level(token[1:-1]):
        key, sep, value = part.strip().partition(":")
        if not sep:
            raise ValueError(f"malformed mixture field {part!r} in {context!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate mixture field {key!r} in {context!r}")
        fields[key] = value.strip()
    unknown = set(fields) - {"dict", "order", "opt", "p"}
    if unknown:
        raise ValueError(f"unknown mixture fields {sorted(unknown)!r} in {context!r}")
    for required in ("dict", "order", "opt"):
        if required not in fields:
            raise ValueError(f"mixture is missing field {required!r} in {context!r}")
    return Mixture(
        dictator_weights=_parse_weight_list(fields["dict"], context),
        order_weights=_parse_weight_list(fields["order"], context),
        opt_weight=_parse_float(fields["opt"], context),
        p=parse_pnorm(fields["p"]) if "p" in fields else None,
    )
