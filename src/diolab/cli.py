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
from dataclasses import asdict, dataclass, field
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
    _seeded_trials,
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
    """Everything a command needs to rerun exactly: its name and every
    option that shapes its output (an option that is None is left out)."""

    command: str
    options: dict = field(default_factory=dict)

    @classmethod
    def of(cls, args: argparse.Namespace, *names: str, **fixed) -> "RunConfig":
        """The configuration of ``args.command``: the named options of
        ``args`` and the ``fixed`` values."""
        return cls(args.command, dict({n: getattr(args, n) for n in names}, **fixed))

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.options.items() if v is not None}
        out["command"] = self.command
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


def _write(
    args: argparse.Namespace,
    config: RunConfig,
    summary: Optional[dict] = None,
    header: Optional[Sequence[str]] = None,
    rows: Sequence[Sequence[str]] = (),
) -> None:
    """The one writer of every command: ``<command>_<tag>.json`` holds the
    summary with the configuration under "config", ``<command>_<tag>.csv``
    the header and rows under a configuration line; each file is written
    only when its part is given, and reported on stdout."""
    stem = os.path.join(
        output_dir(args.outdir), "%s_%s" % (config.command, config.tag())
    )
    wrote = []
    if summary is not None:
        write_json(stem + ".json", dict(summary, config=config.to_dict()))
        wrote.append(stem + ".json")
    if header is not None:
        write_csv(stem + ".csv", config.to_dict(), header, rows)
        wrote.append("%s.csv (%d rows)" % (stem, len(rows)))
    print("wrote %s" % " and ".join(wrote))


def cmd_bestapprox(args: argparse.Namespace) -> int:
    _require(args.theta is not None or args.seed is not None, "provide --theta or --seed")
    _require(args.qmax is not None or args.count is not None, "provide --qmax or --count")
    _require(args.count is None or args.count >= 1, "--count must be positive")
    _require(args.qmax is None or args.qmax >= 0, "--qmax must be nonnegative")
    if args.theta is not None:
        theta = _parse_theta(args.theta, args.d, args.c)
    else:
        theta = sample_theta(args.d, args.c, args.bits, random.Random(args.seed))
    config = RunConfig.of(
        args, "d", "c", "seed", "budget", "theta", "qmax", "count",
        bits=args.bits if args.theta is None else None,
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
    _write(args, config, header=header, rows=rows)
    return EXIT_OK


def cmd_levy(args: argparse.Namespace) -> int:
    _require(args.trials >= 2, "--trials must be at least 2")
    _require(args.depth >= 4, "--depth must be at least 4")
    seed = _resolve_seed(args.seed)
    config = RunConfig.of(
        args, "d", "c", "trials", "depth", "bits", "budget", seed=seed
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
    # the estimate without what the configuration and the CSV hold
    summary = asdict(est)
    del summary["trials"], summary["depth"], summary["per_trial"]
    summary["target"] = target
    summary["abs_error"] = None if target is None else abs(est.L_hat - target)
    summary["abs_error_star"] = (
        None if target is None else abs(est.L_star_hat - args.c * target / args.d)
    )
    rows = [
        [str(i), repr(sq), repr(sr)] for i, (sq, sr) in enumerate(est.per_trial)
    ]
    _write(args, config, summary, ["trial", "slope_q", "slope_r"], rows)
    print("L_hat = %.9f  L_star_hat = %.9f" % (est.L_hat, est.L_star_hat))
    if target is not None:
        print("target = %.9f  |error| = %.6f" % (target, abs(est.L_hat - target)))
    return EXIT_OK


def cmd_dist(args: argparse.Namespace) -> int:
    _require(args.trials >= 1, "--trials must be positive")
    _require(args.discard >= 0, "--discard must be nonnegative")
    _require(args.depth > args.discard + 1, "--depth must exceed --discard + 1")
    seed = _resolve_seed(args.seed)
    config = RunConfig.of(
        args, "d", "c", "trials", "depth", "bits", "budget", "discard", seed=seed
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
        "pool": int(ecdf.samples.size),
        "resamples": ecdf.resamples,
        "support_min": float(ecdf.samples.min()),
        "support_max": float(ecdf.samples.max()),
        "ks_vs_oracle": ks_distance(ecdf, bjw_cdf_1d) if closed else None,
    }
    _write(args, config, summary, header, rows)
    print("pool = %d  support = [%.6f, %.6f]" % (
        summary["pool"], summary["support_min"], summary["support_max"]))
    if closed:
        print("KS vs oracle = %.5f" % summary["ks_vs_oracle"])
    return EXIT_OK


def cmd_surface(args: argparse.Namespace) -> int:
    if args.d == 1:
        # the quadrature takes no option: its configuration is fixed
        _require(
            args.seed is None and args.samples is None and args.budget == 10**7,
            "--d 1 takes no --seed, no --samples and only the default --budget",
        )
        quad = surface_measure_1d()
        with mpmath.mp.workprec(120):
            exact = mpmath.nstr(2 * mpmath.log(2), 30, strip_zeros=False)
        summary = {
            "exact": exact,
            "quadrature": quad,
            "abs_diff": abs(quad - float(2 * mpmath.log(2))),
        }
        _write(args, RunConfig("surface", {"d": 1, "budget": 10**7}), summary)
        print("exact 2 ln 2 = %s" % exact)
        print("quadrature   = %.15f" % quad)
        return EXIT_OK
    samples = 2000 if args.samples is None else args.samples
    _require(samples >= 1, "--samples must be positive")
    seed = _resolve_seed(args.seed)
    config = RunConfig.of(args, "budget", d=2, samples=samples, seed=seed)
    est = surface_mc_2d(samples, seed, budget=args.budget)
    _write(args, config, asdict(est))
    print("muS_hat = %.6f +- %.6f  (accept rate %.4f)" % (
        est.muS_hat, est.stderr, est.accept_rate))
    return EXIT_OK


def cmd_returnmap(args: argparse.Namespace) -> int:
    _require(args.n >= 1, "--n must be positive")
    seed = _resolve_seed(args.seed)
    config = RunConfig.of(args, "bits", "budget", "n", d=1, c=1, seed=seed)

    def attempt(rng: random.Random):
        # a chart point whose lattice is non-generic is re-drawn
        point = sample_surface_point_1d(rng, args.bits)
        try:
            dyn = surface_first_return_1d(point, budget=args.budget)
            return point, dyn, return_map_explicit_1d(point)
        except NonGenericLatticeError:
            return None

    rows = []
    max_delta = 0.0
    draws = _seeded_trials(seed, args.n, attempt)
    for (point, (dyn, ratio_sq), (oracle, oracle_ratio_sq)), _ in draws:
        rel_dx = abs(float((dyn.x - oracle.x) / oracle.x))
        rel_dy = abs(float((dyn.y - oracle.y) / oracle.y))
        mismatch = 0.0 if (dyn.eps == oracle.eps and ratio_sq == oracle_ratio_sq) else 1.0
        max_delta = max(max_delta, rel_dx, rel_dy, mismatch)
        with mpmath.mp.workprec(120):
            tau = mpmath.nstr(ln_frac(ratio_sq, 120) / 4, 30, strip_zeros=False)
        rows.append(
            [
                str(len(rows)),
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
    header = [
        "k", "x", "y", "eps", "tau",
        "x_next", "y_next", "eps_next", "rel_dx", "rel_dy",
    ]
    _write(args, config, header=header, rows=rows)
    print("max relative delta vs oracle = %r" % max_delta)
    return EXIT_OK


def cmd_badk(args: argparse.Namespace) -> int:
    _require(args.steps >= 0, "--steps must be nonnegative")
    _require(args.x_search_bound >= 1, "--x-search-bound must be positive")
    config = RunConfig.of(args, "budget", "steps", "x_search_bound", d=2, c=1)
    state = badk.init_state()
    reports = [badk.certify(state, budget=args.budget)]
    for _ in range(args.steps):
        state = badk.step(
            state, args.x_search_bound, budget=args.budget
        )
        reports.append(badk.certify(state, budget=args.budget))
    payload = badk.certificate(state, tuple(reports))
    stats = badk.prefix_statistics(state)
    payload["prefix_min_q_r_sq_final"] = frac_str(stats.a)
    payload["prefix_min_qnext_r_sq_final"] = frac_str(stats.b)
    _write(args, config, payload)
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

    def command(func, summary, *, shape=True, seed=True, bits=256):
        """A subcommand with the options it shares with other commands:
        --budget always, --d/--c, --seed and --bits (default ``bits``)
        unless switched off."""
        p = sub.add_parser(func.__name__[len("cmd_"):], help=summary)
        p.set_defaults(func=func)
        p.add_argument("--budget", type=int, default=10**7)
        if shape:
            p.add_argument("--d", type=int, default=1)
            p.add_argument("--c", type=int, default=1)
        if seed:
            p.add_argument("--seed", type=int)
        if bits:
            p.add_argument("--bits", type=int, default=bits)
        return p

    pa = command(cmd_bestapprox, "best approximation records")
    pa.add_argument("--theta", help="row-major fractions p1/q1,p2/q2,...")
    pa.add_argument("--qmax", type=int)
    pa.add_argument("--count", type=int)

    pl = command(cmd_levy, "growth-rate estimates")
    pl.add_argument("--trials", type=int, default=200)
    pl.add_argument("--depth", type=int, default=100)

    pd = command(cmd_dist, "limit distribution of q'r products")
    pd.add_argument("--trials", type=int, default=100)
    pd.add_argument("--depth", type=int, default=80)
    pd.add_argument("--discard", type=int, default=10)

    ps = command(cmd_surface, "transversal mass", shape=False, bits=None)
    ps.add_argument("--d", type=int, choices=(1, 2), default=1)
    ps.add_argument("--samples", type=int, help="default 2000, --d 2 only")

    pr = command(cmd_returnmap, "return map vs closed form", shape=False, bits=53)
    pr.add_argument("--n", type=int, default=100)

    pb = command(
        cmd_badk, "inductive construction certificate",
        shape=False, seed=False, bits=None,
    )
    pb.add_argument("--steps", type=int, default=10)
    pb.add_argument("--x-search-bound", type=int, default=1 << 16)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # the options shared by several commands are checked here, once
        for name in ("d", "c", "bits", "budget"):
            _require(getattr(args, name, 1) >= 1, "--%s must be positive" % name)
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
