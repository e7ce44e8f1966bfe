"""Command line front end.

Subcommands:

  eval      run a mechanism on one profile and price it against the optimum
  spcheck   hunt for profitable misreports over seeded random profiles
  ratio     search for the empirically worst approximation ratio
  thm3      sweep the mixture lower-bound certificate over k
  frontier  trace the two-agent three-point family: SP margin vs ratio

Exit codes: 0 success, 1 internal error, 2 malformed input (also a spec
that does not fit the profile size, or a rank root past double precision),
3 a strategyproofness violation was found (spcheck only). Identical command
lines produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import LocationProfile, NonFiniteResult, parse_pnorm
from .mechanisms import ArityMismatch, ThreePoint, parse_mechanism, run
from .optimizer import NoRootFound, optimal_location
from .verification.certificates import mixture_bound_certificate
from .verification.deviation import (
    DEFAULT_VIOLATION_TOL,
    best_deviation,
    sp_scan,
    violation_threshold,
    symmetric_sp_margin,
)
from .verification.ratio import RatioSearchConfig, ratio, worst_ratio_search
from .verification.reports import render_csv, render_json

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_VIOLATION = 3

DEFAULT_SEED = 42


class InputError(ValueError):
    """Malformed command line input (exit code 2)."""


def _parse_profile(text: str) -> LocationProfile:
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            tokens = fh.read().replace(",", " ").split()
    else:
        tokens = [tok for tok in text.split(",") if tok.strip()]
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise InputError(f"unparseable profile {text!r}") from exc
    try:
        return LocationProfile(values)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_spec(text: str):
    try:
        return parse_mechanism(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_p(text: str) -> float:
    try:
        return parse_pnorm(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"unparseable k list {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise InputError(f"k list must hold integers >= 1, got {text!r}")
    return ks


def _parse_q_grid(text: str) -> list[float]:
    """Either comma-separated values or start:stop:count (count inclusive)."""
    parts = text.split(":")
    if len(parts) == 3:
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InputError(f"unparseable q grid {text!r}") from exc
        if count < 2:
            raise InputError(f"q grid needs at least 2 points, got {count}")
        # start + (stop-start) * (i/(count-1)) keeps dyadic fractions of the
        # range exact, so a boundary like 1/4 lands on it exactly
        return [start + (stop - start) * (i / (count - 1)) for i in range(count)]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"unparseable q grid {text!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _key_value_csv(pairs: list[tuple[str, object]]) -> str:
    return render_csv(["field", "value"], [[k, v] for k, v in pairs])


def _distribution_dict(dist) -> list[dict]:
    return [
        {"location": loc, "probability": prob}
        for loc, prob in zip(dist.locations.tolist(), dist.probabilities.tolist())
    ]


def _cmd_eval(args) -> int:
    profile = _parse_profile(args.profile)
    spec = _parse_spec(args.spec)
    p = _parse_p(args.p)
    try:
        report = ratio(spec, profile, p)
    except NonFiniteResult as exc:
        raise InputError(str(exc)) from exc
    payload = {
        "spec": args.spec.strip(),
        "profile": profile.values.tolist(),
        "p": p,
        "distribution": _distribution_dict(run(spec, profile, p)),
        "mechanism_cost": report.mechanism_cost,
        "opt_location": optimal_location(profile, p).location,
        "opt_cost": report.opt_cost,
        "ratio": report.ratio,
    }
    if args.format == "csv":
        flat = [(k, v) for k, v in payload.items() if k not in ("distribution", "profile")]
        flat.insert(1, ("profile", ";".join(repr(v) for v in payload["profile"])))
        flat.insert(
            3,
            (
                "distribution",
                ";".join(f"{a['location']!r}:{a['probability']!r}" for a in payload["distribution"]),
            ),
        )
        _emit(_key_value_csv(flat), args.out)
    else:
        _emit(render_json(payload) + "\n", args.out)
    return EXIT_OK


def _cmd_spcheck(args) -> int:
    spec = _parse_spec(args.spec)
    p = _parse_p(args.p)
    if args.n < 2:
        raise InputError(f"--n must be >= 2, got {args.n}")
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    report = sp_scan(spec, p, args.n, args.trials, args.seed)
    threshold = violation_threshold(report.true_profile, args.tol)
    violated = report.gain > threshold
    payload = report.as_dict()
    payload["threshold"] = threshold
    payload["violation"] = violated
    if args.format == "csv":
        pairs = list(payload.items())
        pairs[1] = ("true_profile", ";".join(repr(v) for v in payload["true_profile"]))
        _emit(_key_value_csv(pairs), args.out)
    else:
        _emit(render_json(payload) + "\n", args.out)
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_ratio(args) -> int:
    spec = _parse_spec(args.spec)
    p = _parse_p(args.p)
    if args.n < 2:
        raise InputError(f"--n must be >= 2, got {args.n}")
    cfg = RatioSearchConfig(trials=args.trials, hill_iters=args.hill_iters, seed=args.seed)
    report = worst_ratio_search(spec, p, args.n, cfg)
    payload = report.as_dict()
    if args.format == "csv":
        pairs = list(payload.items())
        pairs[1] = ("profile", ";".join(repr(v) for v in payload["profile"]))
        _emit(_key_value_csv(pairs), args.out)
    else:
        _emit(render_json(payload) + "\n", args.out)
    return EXIT_OK


def _cmd_thm3(args) -> int:
    try:
        p = int(args.p)
    except ValueError as exc:
        raise InputError(f"--p must be an integer for certificates, got {args.p!r}") from exc
    ks = _parse_k_list(args.k)
    try:
        certs = [mixture_bound_certificate(p, k) for k in ks]
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if args.roots:
        rows = [row for cert in certs for row in cert.root_rows()]
        root_csv = render_csv(["k", "j", "a_j", "inv_a_j", "bound_check"], rows)
        with open(args.roots, "w", encoding="utf-8") as fh:
            fh.write(root_csv)
    if args.format == "json":
        _emit(render_json([cert.as_dict() for cert in certs]) + "\n", args.out)
    else:
        body = render_csv(
            ["k", "inverse_sum", "p_opt_bound", "ratio_lower_bound"],
            [cert.summary_row() for cert in certs],
        )
        _emit(body, args.out)
    return EXIT_OK


def _cmd_frontier(args) -> int:
    p = _parse_p(args.p)
    qs = _parse_q_grid(args.q_grid)
    profile = LocationProfile([0.0, 1.0])
    rows = []
    for q in qs:
        if not 0.0 <= q <= 0.5:
            raise InputError(f"q grid values must lie in [0, 1/2], got {q!r}")
        spec = ThreePoint(q)
        margin = symmetric_sp_margin(run(spec, profile, p), 1.0)
        worst_gain = max(
            best_deviation(spec, profile, p, agent).gain for agent in (1, 2)
        )
        sp_ok = worst_gain <= violation_threshold(profile, args.tol)
        value = ratio(spec, profile, p).ratio
        rows.append([q, margin, sp_ok, value])
    if args.format == "json":
        payload = [
            {"q_end": q, "sp_margin": m, "sp_verdict": ok, "ratio": r}
            for q, m, ok, r in rows
        ]
        _emit(render_json(payload) + "\n", args.out)
    else:
        _emit(render_csv(["q_end", "sp_margin", "sp_verdict", "ratio"], rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpfacility",
        description="Strategyproof single-facility location on the line under L_p cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd, fmt_default="json"):
        cmd.add_argument("--format", choices=("json", "csv"), default=fmt_default)
        cmd.add_argument("--out", default=None, help="write output to a file instead of stdout")

    cmd = sub.add_parser("eval", help="run a mechanism on one profile")
    cmd.add_argument("--profile", required=True, help="comma-separated locations or a file path")
    cmd.add_argument("--spec", required=True, help="mechanism spec, e.g. median or threepoint:0.25")
    cmd.add_argument("--p", required=True, help="cost exponent >= 1, or inf")
    common(cmd)
    cmd.set_defaults(handler=_cmd_eval)

    cmd = sub.add_parser("spcheck", help="hunt for profitable misreports")
    cmd.add_argument("--spec", required=True)
    cmd.add_argument("--p", default="2")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--trials", type=int, default=500)
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cmd.add_argument("--tol", type=float, default=DEFAULT_VIOLATION_TOL)
    common(cmd)
    cmd.set_defaults(handler=_cmd_spcheck)

    cmd = sub.add_parser("ratio", help="empirically worst approximation ratio")
    cmd.add_argument("--spec", required=True)
    cmd.add_argument("--p", required=True)
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--trials", type=int, default=200)
    cmd.add_argument("--hill-iters", type=int, default=200)
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(cmd)
    cmd.set_defaults(handler=_cmd_ratio)

    cmd = sub.add_parser("thm3", help="mixture lower-bound certificate sweep")
    cmd.add_argument("--p", required=True, help="integer exponent in [3, 16]")
    cmd.add_argument("--k", required=True, help="comma-separated list of k values")
    cmd.add_argument("--roots", default=None, help="also write the per-rank root table to this path")
    common(cmd, fmt_default="csv")
    cmd.set_defaults(handler=_cmd_thm3)

    cmd = sub.add_parser("frontier", help="three-point family: SP margin vs ratio")
    cmd.add_argument("--p", default="2")
    cmd.add_argument("--q-grid", default="0:0.5:51", help="comma list or start:stop:count")
    cmd.add_argument("--tol", type=float, default=DEFAULT_VIOLATION_TOL)
    common(cmd, fmt_default="csv")
    cmd.set_defaults(handler=_cmd_frontier)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, ArityMismatch, NoRootFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
