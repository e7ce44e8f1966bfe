"""Profiles, facility distributions, and L_p social cost on the line.

The model: n agents report locations on the real line, a mechanism picks a
facility location y (or a finite distribution over locations), and an agent
at x pays the distance |x - y|. The planner aggregates the distance vector
with an L_p norm, p in [1, inf], where p = inf means the maximum distance.

Conventions used throughout the package:

* agents are numbered 1..n by reporting position;
* the cost exponent p is a plain float, with math.inf selecting the max
  objective (a large finite number is NOT treated as infinity);
* randomized outcomes are finite distributions, and their social cost is the
  expectation of the norm, never the norm of the expected distances.

Everything in this module is a pure function of immutable values.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ATOM_MASS_TOL",
    "NonFiniteResult",
    "LocationProfile",
    "FacilityDistribution",
    "point_mass",
    "validate_pnorm",
    "parse_pnorm",
    "format_pnorm",
    "agent_cost",
    "expected_agent_cost",
    "social_cost",
    "expected_social_cost",
    "order_statistic",
    "reflect",
]

# Total probability mass must match 1 this tightly at construction.
ATOM_MASS_TOL = 1e-12
# Below the smallest normal double a cost keeps fewer than 53 bits.
_NORMAL_MIN = 2.0**-1022


class NonFiniteResult(ValueError):
    """A cost or a misreport that overflows a double: refused, never
    returned as inf or NaN."""


def validate_pnorm(p: float) -> float:
    """Return the cost exponent as a float, math.inf included.

    Rejects NaN and anything below 1. Infinity must arrive as the IEEE
    infinity (math.inf, np.inf, float("inf")).
    """
    q = float(p)
    if math.isnan(q) or q < 1.0:
        raise ValueError(f"cost exponent must be >= 1 or inf, got {p!r}")
    return q


def parse_pnorm(text: str) -> float:
    """Parse "1", "2.5", or "inf" into a validated cost exponent."""
    try:
        q = float(text)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"unparseable cost exponent {text!r}") from exc
    return validate_pnorm(q)


def format_pnorm(p: float) -> str:
    """Inverse of parse_pnorm: "inf" for the max norm, repr otherwise."""
    q = validate_pnorm(p)
    return "inf" if math.isinf(q) else repr(q)


class LocationProfile:
    """Reported agent locations, in reporting order.

    Keeps the original order (dictatorships and per-agent deviation reports
    need agent identity) alongside an ascending sorted view (rank-based rules
    need order statistics), and the extreme reports `low` and `high` as
    floats. Instances are immutable; the arrays are read-only.
    """

    __slots__ = ("values", "sorted_values", "order", "low", "high")

    def __init__(self, locations):
        values = np.array(locations, dtype=float)
        if values.ndim != 1:
            raise ValueError("profile must be a one-dimensional sequence")
        if values.size < 2:
            raise ValueError(f"profile needs at least two agents, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile locations must be finite")
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        for arr in (values, sorted_values, order):
            arr.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sorted_values", sorted_values)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "low", float(sorted_values[0]))
        object.__setattr__(self, "high", float(sorted_values[-1]))

    def __setattr__(self, name, value):
        raise AttributeError("LocationProfile is immutable")

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def span(self) -> float:
        return self.high - self.low

    def with_report(self, agent: int, report: float) -> "LocationProfile":
        """Copy of the profile with one agent's report replaced (1-based)."""
        _check_agent(agent, self.n)
        vals = self.values.copy()
        vals[agent - 1] = float(report)
        return LocationProfile(vals)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocationProfile):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    def __hash__(self):
        return hash(self.values.tobytes())

    def __repr__(self) -> str:
        return f"LocationProfile({self.values.tolist()!r})"


def _check_tol(name: str, tol: float) -> float:
    # a NaN, infinite or negative tolerance turns a verdict silently wrong
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    return tol


def _check_int(value, label: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{label} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{label} must be >= {least}, got {value}")
    return int(value)


def _check_agent(agent: int, n: int) -> int:
    if not isinstance(agent, (int, np.integer)) or isinstance(agent, bool):
        raise TypeError(f"agent index must be an integer, got {agent!r}")
    if not 1 <= agent <= n:
        raise IndexError(f"agent {agent} out of range for {n} agents")
    return int(agent)


def _merged_atoms(locations: list, probabilities: list, masses_checked: bool = False) -> list:
    """A finite distribution's atoms, validated as FacilityDistribution
    states: the (location, probability) pairs with positive mass, locations
    ascending, equal ones merged and -0.0 made +0.0. A caller that has
    already validated these probabilities passes `masses_checked`, which
    skips their checks (the locations are always checked, and first)."""
    if not locations:
        raise ValueError("distribution needs at least one atom")
    if not all(map(math.isfinite, locations)):
        raise ValueError("atom locations must be finite")
    if not masses_checked:
        if not all(math.isfinite(prob) and prob >= 0.0 for prob in probabilities):
            raise ValueError("atom probabilities must be finite and nonnegative")
        total = float(np.add.reduce(probabilities))
        if abs(total - 1.0) > ATOM_MASS_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
    # each location's mass is summed in input order; a dict merges the
    # few atoms of a rule faster than np.unique
    merged = {}
    for loc, prob in zip(locations, probabilities):
        loc += 0.0
        merged[loc] = merged.get(loc, 0.0) + prob
    return sorted(atom for atom in merged.items() if atom[1] > 0.0)


class FacilityDistribution:
    """Finite probability distribution over facility locations.

    Atoms at exactly equal locations are merged and zero-mass atoms are
    dropped at construction, so two distributions are equal iff their
    location and probability arrays are equal. Locations are stored sorted
    ascending; -0.0 is normalized to +0.0. Probabilities must be nonnegative
    and sum to 1 within ATOM_MASS_TOL.
    """

    __slots__ = ("locations", "probabilities")

    def __init__(self, atoms):
        pairs = list(atoms)
        locations = np.array([pair[0] for pair in pairs], dtype=float)
        probabilities = np.array([pair[1] for pair in pairs], dtype=float)
        kept = _merged_atoms(locations.tolist(), probabilities.tolist())
        locs = np.array([loc for loc, _ in kept])
        probs = np.array([prob for _, prob in kept])
        for arr in (locs, probs):
            arr.flags.writeable = False
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "probabilities", probs)

    def __setattr__(self, name, value):
        raise AttributeError("FacilityDistribution is immutable")

    def atoms(self) -> list[tuple[float, float]]:
        """The (location, probability) pairs, locations ascending."""
        return list(zip(self.locations.tolist(), self.probabilities.tolist()))

    @property
    def is_deterministic(self) -> bool:
        return self.locations.size == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, FacilityDistribution):
            return NotImplemented
        return (
            self.locations.shape == other.locations.shape
            and bool(np.all(self.locations == other.locations))
            and bool(np.all(self.probabilities == other.probabilities))
        )

    def __hash__(self):
        return hash((self.locations.tobytes(), self.probabilities.tobytes()))

    def __repr__(self) -> str:
        body = ", ".join(f"{l!r}: {p!r}" for l, p in self.atoms())
        return f"FacilityDistribution({{{body}}})"


def point_mass(location: float) -> FacilityDistribution:
    """The deterministic outcome: all mass on one location."""
    return FacilityDistribution(((location, 1.0),))


def agent_cost(x: float, y: float) -> float:
    """Distance cost |x - y| of an agent at x for a facility at y."""
    return abs(float(x) - float(y))


def expected_agent_cost(x: float, dist: FacilityDistribution) -> float:
    """Expected distance from x to a facility drawn from dist."""
    return float(np.abs(float(x) - dist.locations) @ dist.probabilities)


def _sum_in_order(values) -> float:
    """The floats summed left to right from 0.0, as builtin `sum` adds them
    up to Python 3.11; from 3.12 on `sum` compensates its rounding, so its
    bits would depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def _lp_norms(distances: np.ndarray, p: float) -> list:
    """L_p norm of each row of a nonnegative (m, n) array, each row
    max-factored for overflow safety; a row's norm does not depend on the
    rest of its batch. A row holding inf, or whose p = 1 sum overflows, has
    norm inf, which callers refuse by name, so numpy's warning is not
    raised."""
    peaks = distances.max(axis=1)
    if math.isinf(p):
        return peaks.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        if p == 1.0:
            return np.add.reduce(distances, axis=1).tolist()
        # factor out the peak so every power stays in [0, 1]; a zero row
        # stays zero, and a row peaking at inf (inf / inf is NaN) is inf
        scaled = distances / np.where(peaks > 0.0, peaks, 1.0)[:, None]
        sums = np.add.reduce(scaled**p, axis=1).tolist()
    return [peak * total ** (1.0 / p) if peak < math.inf else peak for peak, total in zip(peaks.tolist(), sums)]


def social_cost(profile: LocationProfile, y: float, p: float) -> float:
    """L_p norm of the agent distance vector to y (max distance at p=inf)."""
    p = validate_pnorm(p)
    # a distance past the largest double is inf, and so is the norm
    with np.errstate(over="ignore"):
        distances = np.abs(profile.values - float(y))
    return _lp_norms(distances[None, :], p)[0]


def expected_social_cost(
    profile: LocationProfile, dist: FacilityDistribution, p: float
) -> float:
    """Expectation over facility draws of the L_p social cost.

    Each atom's cost is computed in full and then averaged with the atom
    weights (expectation of the norm), left to right. For a one-atom
    distribution this equals social_cost exactly. Where a positive cost's
    weighted term would fall below the smallest normal double and lose
    bits (0.5 * 5e-324 is 0), the costs are first scaled by the power of
    two 2^k that brings the largest into [1, 2), and the sum by 2^-k.
    """
    p = validate_pnorm(p)
    weights = dist.probabilities.tolist()
    costs = [social_cost(profile, y, p) for y in dist.locations.tolist()]
    if not any(c > 0.0 and w * c < _NORMAL_MIN for w, c in zip(weights, costs)):
        return _sum_in_order(w * c for w, c in zip(weights, costs))
    k = 1 - math.frexp(max(costs))[1]
    return math.ldexp(_sum_in_order(w * math.ldexp(c, k) for w, c in zip(weights, costs)), -k)


def order_statistic(profile: LocationProfile, j: int) -> float:
    """The j-th smallest reported location, 1-based; ties keep multiplicity."""
    if not isinstance(j, (int, np.integer)) or isinstance(j, bool):
        raise TypeError(f"order statistic index must be an integer, got {j!r}")
    if not 1 <= j <= profile.n:
        raise IndexError(f"order statistic {j} out of range for {profile.n} agents")
    return float(profile.sorted_values[j - 1])


def _rank_window(others: list, rank: int) -> tuple[float, float]:
    """[lo, hi] with the rank-th smallest of others + [r] equal to r
    clipped to it, for the others sorted ascending (+-inf past the ends)."""
    lo = others[rank - 2] if rank >= 2 else -math.inf
    hi = others[rank - 1] if rank <= len(others) else math.inf
    return lo, hi


def reflect(profile: LocationProfile) -> LocationProfile:
    """The profile reflected about the midpoint of its range.

    Agent order is preserved: agent i moves to low + high - x_i.
    """
    t = profile.low + profile.high
    return LocationProfile(t - profile.values)
