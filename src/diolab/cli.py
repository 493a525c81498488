"""Command line front end.

Every experiment runs as a seeded batch job: randomized commands either
take --seed or generate one and print it, outputs embed the full run
configuration, and re-running any output's embedded configuration
reproduces it byte for byte.  Exit codes: 0 ok, 2 usage, 3 budget
exhausted, 4 non-generic input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from . import badk
from .bestapprox import chain_engine, sample_theta
from .core import (
    BudgetExceededError,
    NonGenericLatticeError,
    SearchLimitError,
    ln_frac,
)
from .dynamics import (
    return_map_explicit_1d,
    sample_surface_point_1d,
    surface_first_return_1d,
)
from .estimators import (
    LEVY_2_1,
    bjw_cdf_1d,
    bjw_empirical,
    ks_distance,
    levy_closed_form_1d,
    levy_ergodic,
    surface_mc_2d,
    surface_measure_1d,
)
from .serialize import (
    dec_sqrt_str,
    dec_str,
    frac_str,
    output_dir,
    write_csv,
    write_json,
)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NONGENERIC = 4


class UsageError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs to rerun exactly."""

    command: str
    d: Optional[int] = None
    c: Optional[int] = None
    trials: Optional[int] = None
    depth: Optional[int] = None
    bits: Optional[int] = None
    seed: Optional[int] = None
    budget: int = 10**7
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"command": self.command, "budget": self.budget}
        for name in ("d", "c", "trials", "depth", "bits", "seed"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out.update(self.extras)
        return out

    def tag(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is None:
        seed = random.SystemRandom().getrandbits(32)
        print("seed: %d" % seed)
    return seed


def _parse_theta(spec: str, d: int, c: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row-major flat list "p1/q1,p2/q2,..." into c columns of d entries."""
    try:
        entries = [Fraction(tok) for tok in spec.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad --theta entry: %s" % exc)
    if len(entries) != d * c:
        raise UsageError(
            "--theta needs %d entries for d=%d, c=%d" % (d * c, d, c)
        )
    return tuple(
        tuple(entries[i * c + j] for i in range(d)) for j in range(c)
    )


def cmd_bestapprox(args: argparse.Namespace) -> int:
    _require(args.theta is not None or args.seed is not None, "provide --theta or --seed")
    _require(args.qmax is not None or args.count is not None, "provide --qmax or --count")
    _require(args.d >= 1 and args.c >= 1, "--d and --c must be positive")
    _require(args.count is None or args.count >= 1, "--count must be positive")
    _require(args.qmax is None or args.qmax >= 0, "--qmax must be nonnegative")
    _require(args.bits >= 1, "--bits must be positive")
    seed = args.seed
    if args.theta is not None:
        theta = _parse_theta(args.theta, args.d, args.c)
    else:
        seed = _resolve_seed(seed)
        theta = sample_theta(args.d, args.c, args.bits, random.Random(seed))
    config = RunConfig(
        "bestapprox",
        d=args.d,
        c=args.c,
        bits=args.bits if args.theta is None else None,
        seed=seed,
        budget=args.budget,
        extras={
            k: v
            for k, v in (
                ("theta", args.theta),
                ("qmax", args.qmax),
                ("count", args.count),
            )
            if v is not None
        },
    )
    records = chain_engine(
        theta, depth=args.count, q_max=args.qmax, budget=args.budget
    )
    header = (
        ["n"]
        + ["Q%d" % j for j in range(args.c)]
        + ["P%d" % i for i in range(args.d)]
        + ["q", "r_sq"]
    )
    rows = [
        [str(r.n)]
        + [str(v) for v in r.Q]
        + [str(v) for v in r.P]
        + [dec_sqrt_str(r.q_sq), frac_str(r.r_sq)]
        for r in records
    ]
    path = os.path.join(
        output_dir(args.outdir), "bestapprox_%s.csv" % config.tag()
    )
    write_csv(path, config.to_dict(), header, rows)
    print("wrote %s (%d records)" % (path, len(rows)))
    return EXIT_OK


def cmd_levy(args: argparse.Namespace) -> int:
    _require(args.d >= 1 and args.c >= 1, "--d and --c must be positive")
    _require(args.trials >= 2, "--trials must be at least 2")
    _require(args.depth >= 4, "--depth must be at least 4")
    _require(args.bits >= 1, "--bits must be positive")
    seed = _resolve_seed(args.seed)
    config = RunConfig(
        "levy",
        d=args.d,
        c=args.c,
        trials=args.trials,
        depth=args.depth,
        bits=args.bits,
        seed=seed,
        budget=args.budget,
    )
    est = levy_ergodic(
        args.d, args.c, args.trials, args.depth, args.bits, seed,
        budget=args.budget,
    )
    if (args.d, args.c) == (1, 1):
        target: Optional[float] = levy_closed_form_1d().value
    elif (args.d, args.c) == (2, 1):
        target = LEVY_2_1
    else:
        target = None
    summary = {
        "config": config.to_dict(),
        "L_hat": est.L_hat,
        "L_star_hat": est.L_star_hat,
        "stderr": est.stderr,
        "stderr_star": est.stderr_star,
        "duality_residual": est.duality_residual,
        "duality_stderr": est.duality_stderr,
        "resamples": est.resamples,
        "target": target,
        "abs_error": None if target is None else abs(est.L_hat - target),
        "abs_error_star": (
            None
            if target is None
            else abs(est.L_star_hat - args.c * target / args.d)
        ),
    }
    out = output_dir(args.outdir)
    jpath = os.path.join(out, "levy_%s.json" % config.tag())
    cpath = os.path.join(out, "levy_%s.csv" % config.tag())
    write_json(jpath, summary)
    write_csv(
        cpath,
        config.to_dict(),
        ["trial", "slope_q", "slope_r"],
        [
            [str(i), repr(sq), repr(sr)]
            for i, (sq, sr) in enumerate(est.per_trial)
        ],
    )
    print("wrote %s and %s" % (jpath, cpath))
    print("L_hat = %.9f  L_star_hat = %.9f" % (est.L_hat, est.L_star_hat))
    if target is not None:
        print("target = %.9f  |error| = %.6f" % (target, abs(est.L_hat - target)))
    return EXIT_OK


def cmd_dist(args: argparse.Namespace) -> int:
    _require(args.d >= 1 and args.c >= 1, "--d and --c must be positive")
    _require(args.trials >= 1, "--trials must be positive")
    _require(args.discard >= 0, "--discard must be nonnegative")
    _require(args.depth > args.discard + 1, "--depth must exceed --discard + 1")
    _require(args.bits >= 1, "--bits must be positive")
    seed = _resolve_seed(args.seed)
    config = RunConfig(
        "dist",
        d=args.d,
        c=args.c,
        trials=args.trials,
        depth=args.depth,
        bits=args.bits,
        seed=seed,
        budget=args.budget,
        extras={"discard": args.discard},
    )
    ecdf = bjw_empirical(
        args.d, args.c, args.trials, args.depth, args.bits, seed,
        discard=args.discard, budget=args.budget,
    )
    closed = (args.d, args.c) == (1, 1)
    if closed:
        grid = [Fraction(i, 200) for i in range(88, 212)]
        header = ["t", "ecdf", "oracle"]
        rows = [
            [dec_str(t, 6), repr(ecdf(float(t))), repr(bjw_cdf_1d(float(t)))]
            for t in grid
        ]
    else:
        grid = [Fraction(i, 200) for i in range(0, 261)]
        header = ["t", "ecdf"]
        rows = [[dec_str(t, 6), repr(ecdf(float(t)))] for t in grid]
    summary = {
        "config": config.to_dict(),
        "pool": int(ecdf.samples.size),
        "resamples": ecdf.resamples,
        "support_min": float(ecdf.samples.min()),
        "support_max": float(ecdf.samples.max()),
        "ks_vs_oracle": ks_distance(ecdf, bjw_cdf_1d) if closed else None,
    }
    out = output_dir(args.outdir)
    jpath = os.path.join(out, "dist_%s.json" % config.tag())
    cpath = os.path.join(out, "dist_%s.csv" % config.tag())
    write_json(jpath, summary)
    write_csv(cpath, config.to_dict(), header, rows)
    print("wrote %s and %s" % (jpath, cpath))
    print("pool = %d  support = [%.6f, %.6f]" % (
        summary["pool"], summary["support_min"], summary["support_max"]))
    if closed:
        print("KS vs oracle = %.5f" % summary["ks_vs_oracle"])
    return EXIT_OK


def cmd_surface(args: argparse.Namespace) -> int:
    out = output_dir(args.outdir)
    if args.d == 1:
        config = RunConfig("surface", d=1)
        quad = surface_measure_1d()
        with mpmath.mp.workprec(120):
            exact = mpmath.nstr(2 * mpmath.log(2), 30, strip_zeros=False)
        summary = {
            "config": config.to_dict(),
            "exact": exact,
            "quadrature": quad,
            "abs_diff": abs(quad - float(2 * mpmath.log(2))),
        }
        jpath = os.path.join(out, "surface_%s.json" % config.tag())
        write_json(jpath, summary)
        print("wrote %s" % jpath)
        print("exact 2 ln 2 = %s" % exact)
        print("quadrature   = %.15f" % quad)
        return EXIT_OK
    _require(args.samples >= 1, "--samples must be positive")
    seed = _resolve_seed(args.seed)
    config = RunConfig(
        "surface", d=2, seed=seed, budget=args.budget,
        extras={"samples": args.samples},
    )
    est = surface_mc_2d(args.samples, seed, budget=args.budget)
    summary = {
        "config": config.to_dict(),
        "muS_hat": est.muS_hat,
        "stderr": est.stderr,
        "accept_rate": est.accept_rate,
        "samples": est.samples,
        "accepted": est.accepted,
        "nongeneric": est.nongeneric,
    }
    jpath = os.path.join(out, "surface_%s.json" % config.tag())
    write_json(jpath, summary)
    print("wrote %s" % jpath)
    print("muS_hat = %.6f +- %.6f  (accept rate %.4f)" % (
        est.muS_hat, est.stderr, est.accept_rate))
    return EXIT_OK


def cmd_returnmap(args: argparse.Namespace) -> int:
    _require(args.bits >= 1, "--bits must be positive")
    _require(args.n >= 1, "--n must be positive")
    seed = _resolve_seed(args.seed)
    config = RunConfig(
        "returnmap", d=1, c=1, bits=args.bits, seed=seed, budget=args.budget,
        extras={"n": args.n},
    )
    master = random.Random(seed)
    rows = []
    max_delta = 0.0
    produced = 0
    attempts = 0
    while produced < args.n:
        if attempts >= 2 * args.n + 64:
            raise SearchLimitError("too many non-generic chart points")
        attempts += 1
        sub = random.Random(master.getrandbits(64))
        point = sample_surface_point_1d(sub, args.bits)
        try:
            dyn, ratio_sq = surface_first_return_1d(point, budget=args.budget)
            oracle, oracle_ratio_sq = return_map_explicit_1d(point)
        except NonGenericLatticeError:
            continue
        rel_dx = abs(float((dyn.x - oracle.x) / oracle.x))
        rel_dy = abs(float((dyn.y - oracle.y) / oracle.y))
        mismatch = 0.0 if (dyn.eps == oracle.eps and ratio_sq == oracle_ratio_sq) else 1.0
        max_delta = max(max_delta, rel_dx, rel_dy, mismatch)
        with mpmath.mp.workprec(120):
            tau = mpmath.nstr(ln_frac(ratio_sq, 120) / 4, 30, strip_zeros=False)
        rows.append(
            [
                str(produced),
                frac_str(point.x),
                frac_str(point.y),
                str(point.eps),
                tau,
                frac_str(dyn.x),
                frac_str(dyn.y),
                str(dyn.eps),
                repr(rel_dx),
                repr(rel_dy),
            ]
        )
        produced += 1
    header = [
        "k", "x", "y", "eps", "tau",
        "x_next", "y_next", "eps_next", "rel_dx", "rel_dy",
    ]
    cpath = os.path.join(
        output_dir(args.outdir), "returnmap_%s.csv" % config.tag()
    )
    write_csv(cpath, config.to_dict(), header, rows)
    print("wrote %s (%d points)" % (cpath, len(rows)))
    print("max relative delta vs oracle = %r" % max_delta)
    return EXIT_OK


def cmd_badk(args: argparse.Namespace) -> int:
    _require(args.steps >= 0, "--steps must be nonnegative")
    config = RunConfig(
        "badk", d=2, c=1, budget=args.budget,
        extras={"steps": args.steps, "x_search_bound": args.x_search_bound},
    )
    state = badk.init_state()
    reports = [badk.certify(state, budget=args.budget)]
    for _ in range(args.steps):
        state = badk.step(
            state, args.x_search_bound, budget=args.budget
        )
        reports.append(badk.certify(state, budget=args.budget))
    payload = badk.certificate(state, tuple(reports))
    payload["config"] = config.to_dict()
    stats = badk.prefix_statistics(state)
    payload["prefix_min_q_r_sq_final"] = frac_str(stats.a)
    payload["prefix_min_qnext_r_sq_final"] = frac_str(stats.b)
    jpath = os.path.join(output_dir(args.outdir), "badk_%s.json" % config.tag())
    write_json(jpath, payload)
    print("wrote %s" % jpath)
    for row in payload["steps"]:
        flags = "".join(
            "1" if row["conditions"].get(name, None) else "."
            for name in (
                "best_denominators",
                "growth_and_branching",
                "gap_minima_positive",
                "drift_below_gap_minima",
                "drift_below_drop_minima",
                "shortest_vector_sign",
                "second_minimum_ratio",
            )
        )
        print("n=%2d Q=%-30d conditions=%s" % (row["n"], row["Q"], flags))
    print("min q r^2  = %s" % dec_str(stats.a, 12))
    print("min q'r^2  = %s" % dec_str(stats.b, 12))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diolab",
        description="Exact experiments on best simultaneous approximation",
    )
    parser.add_argument("--outdir", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("bestapprox", help="best approximation records")
    pa.add_argument("--d", type=int, default=1)
    pa.add_argument("--c", type=int, default=1)
    pa.add_argument("--theta", help="row-major fractions p1/q1,p2/q2,...")
    pa.add_argument("--seed", type=int)
    pa.add_argument("--bits", type=int, default=256)
    pa.add_argument("--qmax", type=int)
    pa.add_argument("--count", type=int)
    pa.add_argument("--budget", type=int, default=10**7)
    pa.set_defaults(func=cmd_bestapprox)

    pl = sub.add_parser("levy", help="growth-rate estimates")
    pl.add_argument("--d", type=int, default=1)
    pl.add_argument("--c", type=int, default=1)
    pl.add_argument("--trials", type=int, default=200)
    pl.add_argument("--depth", type=int, default=100)
    pl.add_argument("--bits", type=int, default=256)
    pl.add_argument("--seed", type=int)
    pl.add_argument("--budget", type=int, default=10**7)
    pl.set_defaults(func=cmd_levy)

    pd = sub.add_parser("dist", help="limit distribution of q'r products")
    pd.add_argument("--d", type=int, default=1)
    pd.add_argument("--c", type=int, default=1)
    pd.add_argument("--trials", type=int, default=100)
    pd.add_argument("--depth", type=int, default=80)
    pd.add_argument("--bits", type=int, default=256)
    pd.add_argument("--seed", type=int)
    pd.add_argument("--discard", type=int, default=10)
    pd.add_argument("--budget", type=int, default=10**7)
    pd.set_defaults(func=cmd_dist)

    ps = sub.add_parser("surface", help="transversal mass")
    ps.add_argument("--d", type=int, choices=(1, 2), default=1)
    ps.add_argument("--samples", type=int, default=2000)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--budget", type=int, default=10**7)
    ps.set_defaults(func=cmd_surface)

    pr = sub.add_parser("returnmap", help="return map vs closed form")
    pr.add_argument("--n", type=int, default=100)
    pr.add_argument("--seed", type=int)
    pr.add_argument("--bits", type=int, default=53)
    pr.add_argument("--budget", type=int, default=10**7)
    pr.set_defaults(func=cmd_returnmap)

    pb = sub.add_parser("badk", help="inductive construction certificate")
    pb.add_argument("--steps", type=int, default=10)
    pb.add_argument("--x-search-bound", type=int, default=1 << 16)
    pb.add_argument("--budget", type=int, default=10**7)
    pb.set_defaults(func=cmd_badk)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, SearchLimitError) as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except NonGenericLatticeError as exc:
        print("non-generic input: %s" % exc, file=sys.stderr)
        return EXIT_NONGENERIC


if __name__ == "__main__":
    raise SystemExit(main())
