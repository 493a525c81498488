"""The four seeded workloads of the diolab benchmark.

Every call into diolab goes through a module attribute
(``bestapprox.chain_engine(...)``), so the tracer's rebinding of those
attributes sees it.  A workload runs in rounds; each round draws its
inputs from the workload's seeded generator, times each op through the
``ops`` callable it is given, checks every output by an independent
route outside the timed region, and returns the exact output bytes that
the run's digest covers.

An op *fails* when its input turns out to be non-generic (a tie the
theory excludes), when a chain terminates before the requested depth, or
when a budget or search limit is exhausted.  A failed op is counted and
the run goes on.  A *wrong* output raises :class:`WrongOutput` and fails
the whole run.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

import diolab.badk as badk
import diolab.bestapprox as bestapprox
import diolab.dynamics as dynamics
import diolab.estimators as estimators
import diolab.serialize as serialize
from diolab.core import (
    BudgetExceededError,
    NonGenericLatticeError,
    SearchLimitError,
    ln_frac,
    minkowski_leq,
)


class WrongOutput(Exception):
    """An output check failed: the run is wrong, not slow."""


class ChainTooShort(Exception):
    """A chain terminated before the requested depth."""


FAILURES = (NonGenericLatticeError, BudgetExceededError, SearchLimitError, ChainTooShort)


def _records_bytes(recs) -> bytes:
    return "".join(
        "%d %s %s %s %s %d\n" % (r.n, r.Q, r.P, r.q_sq, r.r_sq, r.terminal) for r in recs
    ).encode()


def _check_records(theta, recs, depth: int) -> None:
    """Structural checks shared by the chain workloads: consecutive,
    strictly improving records and every product within Minkowski's
    bound, decided exactly."""
    c = len(theta)
    d = len(theta[0])
    if [r.n for r in recs] != list(range(len(recs))):
        raise WrongOutput("records are not consecutive")
    for a, b in zip(recs, recs[1:]):
        if not (b.q_sq > a.q_sq and b.r_sq < a.r_sq):
            raise WrongOutput("record %d does not improve on record %d" % (b.n, a.n))
    if len(recs) < depth or recs[depth - 1].terminal:
        raise ChainTooShort("chain ended after %d records" % len(recs))
    for b_sq in bestapprox.beta_sequence(recs, d, c):
        if not minkowski_leq(b_sq, d, c):
            raise WrongOutput("product escaped the Minkowski bound")


class Workload:
    """One seeded workload.  Subclasses set the class attributes and
    implement :meth:`round`."""

    name = ""
    #: rounds whose output digest is pinned per seed; also the fixed
    #: batch a traced run measures
    pinned_rounds = 1
    #: percentile reported as op_tail_ms; a timed run goes on until at
    #: least ten ops lie beyond it
    tail_pct = 90

    def __init__(self, seed: int, outdir: str) -> None:
        self.seed = seed
        self.outdir = outdir
        self.rng = random.Random(seed)

    def warm_up(self) -> None:
        """One untimed op on an input outside the measured stream."""
        raise NotImplementedError

    def round(self, ops) -> list[bytes]:
        raise NotImplementedError

    def finish(self, ops) -> str:
        """Work after the op loop; returns a line for the report."""
        return ""


class Chain1x1(Workload):
    """512-bit d=c=1 targets walked to depth 215; op = one target.  One
    last op compares the pooled products with the closed-form limit law
    by KS, as the ``dist`` command does."""

    name = "chain-1x1"
    pinned_rounds = 12
    tail_pct = 80
    depth = 215
    bits = 512
    discard = 10
    oracle_grid = [0.5 + i / 40 for i in range(1, 20)]

    def __init__(self, seed: int, outdir: str) -> None:
        super().__init__(seed, outdir)
        self.pool: list[float] = []

    def warm_up(self) -> None:
        theta = bestapprox.sample_theta(1, 1, self.bits, random.Random("warm-up"))
        bestapprox.chain_engine(theta, depth=self.depth)

    def round(self, ops) -> list[bytes]:
        theta = bestapprox.sample_theta(1, 1, self.bits, self.rng)
        try:
            recs = ops(bestapprox.chain_engine, theta, depth=self.depth)
            _check_records(theta, recs, self.depth)
        except FAILURES:
            ops.fail()
            return [b"failed %s\n" % str(theta[0][0]).encode()]
        want = bestapprox.cf_best_denominators(theta[0][0])[: self.depth]
        if [r.Q[0] for r in recs] != want:
            raise WrongOutput("chain denominators differ from the continued fraction")
        betas = bestapprox.beta_sequence(recs, 1, 1)
        for b_sq in betas:
            if not Fraction(1, 4) <= b_sq <= 1:
                raise WrongOutput("d=c=1 product escaped [1/2, 1]")
        self.pool.extend(math.sqrt(float(b)) for b in betas[self.discard :])
        return [_records_bytes(recs)]

    def _pooled_ks(self) -> float:
        return estimators.ks_distance(estimators.EmpiricalCDF(self.pool), estimators.bjw_cdf_1d)

    def finish(self, ops) -> str:
        ks = ops(self._pooled_ks)
        # the quadrature asks for 1e-10 absolute error on the integral,
        # which the CDF divides by ln 2
        tol = 1e-10 / math.log(2)
        worst = 0.0
        for t in self.oracle_grid:
            gap = abs(estimators.bjw_oracle_cdf_1d(t) - estimators.bjw_cdf_1d(t))
            worst = max(worst, gap)
        if worst > tol:
            raise WrongOutput("oracle CDF quadrature and closed form differ by %.3g" % worst)
        return "KS vs closed form %.5f over %d pooled products; oracle grid max gap %.2e" % (
            ks,
            len(self.pool),
            worst,
        )


class Chain3d(Workload):
    """512-bit targets in 2x1/1x2 pairs, walked to depth 60; op = one
    pair.  A pair, not a single target, is the op because the two shapes
    differ in cost by about 1.5x: single-target latencies are bimodal and
    their median would jump between the modes from seed to seed.  The
    records below a small height are re-derived by the exhaustive scan."""

    name = "chain-3d"
    pinned_rounds = 5
    tail_pct = 65
    depth = 60
    bits = 512
    shapes = ((2, 1), (1, 2))
    # height caps for the scan cross-check, sized to a few ms each
    scan_q_max = {(2, 1): 2000, (1, 2): 30}

    def warm_up(self) -> None:
        warm = random.Random("warm-up")
        self._pair([bestapprox.sample_theta(d, c, self.bits, warm) for d, c in self.shapes])

    def _pair(self, thetas):
        return [bestapprox.chain_engine(theta, depth=self.depth) for theta in thetas]

    def round(self, ops) -> list[bytes]:
        thetas = [bestapprox.sample_theta(d, c, self.bits, self.rng) for d, c in self.shapes]
        try:
            pair = ops(self._pair, thetas)
            for theta, recs in zip(thetas, pair):
                _check_records(theta, recs, self.depth)
        except FAILURES:
            ops.fail()
            return [b"failed pair\n"]
        out = []
        for theta, recs in zip(thetas, pair):
            q_max = self.scan_q_max[(len(theta[0]), len(theta))]
            scan = bestapprox.direct_scan(theta, q_max)
            if scan != [r for r in recs if r.q_sq <= q_max * q_max]:
                raise WrongOutput("chain and exhaustive scan disagree below height %d" % q_max)
            out.append(_records_bytes(recs))
        return out


class Transversal(Workload):
    """48-bit d=c=1 chart points, each followed through ten chained first
    returns on flowed lattices; op = one return.  The first return of a
    chain must match the closed-form chart map exactly, and every return
    must satisfy the return-time identity 2 tau = rho(R) + rho*."""

    name = "transversal"
    pinned_rounds = 20
    tail_pct = 99
    returns = 10
    bits = 48
    identity_tol = 1e-9

    def warm_up(self) -> None:
        point = self._point(random.Random("warm-up"))
        dynamics.first_return(dynamics.chart_lattice_1d(point))

    def _point(self, rng: random.Random):
        # the closed-form map is undefined where 1/x is an integer; such a
        # point has no reference to check against and is drawn again
        while True:
            point = dynamics.sample_surface_point_1d(rng, self.bits)
            if (point.x.denominator % point.x.numerator) != 0:
                return point

    def round(self, ops) -> list[bytes]:
        point = self._point(self.rng)
        basis = dynamics.chart_lattice_1d(point)
        frs = []
        for _ in range(self.returns):
            try:
                fr = ops(dynamics.first_return, basis)
            except FAILURES:
                ops.fail()
                break
            frs.append(fr)
            basis = fr.basis_after
        if frs:
            self._check_oracle(point, frs[0])
        out = []
        for k, fr in enumerate(frs):
            if k + 1 < len(frs):
                nxt = frs[k + 1].membership
            else:
                nxt = dynamics.surface_membership_S(fr.basis_after)
            if not nxt.member:
                raise WrongOutput("return %d left the transversal: %s" % (k, nxt.reason))
            rho = float(ln_frac(nxt.tall.height_sq / nxt.wide.height_sq, 60)) / 2
            if abs(2 * fr.tau - (rho + fr.rho_star)) > self.identity_tol:
                raise WrongOutput("return-time identity fails at return %d" % k)
            out.append(
                ("%s %s %s %s\n" % (fr.ratio_sq, fr.vector.y, fr.membership.tall.y, fr.membership.wide.y)).encode()
            )
        return out

    @staticmethod
    def _check_oracle(point, fr) -> None:
        want, want_ratio = dynamics.return_map_explicit_1d(point)
        tall, x2 = fr.membership.tall, fr.vector
        eps = 1 if tall.raw[0] * tall.raw[1] > 0 else -1
        if fr.ratio_sq != want_ratio or eps != want.eps:
            raise WrongOutput("first return differs from the chart map (ratio or eps)")
        if want.x**2 != x2.width_sq / tall.width_sq or want.y**2 != tall.height_sq / x2.height_sq:
            raise WrongOutput("first return differs from the chart map (x or y)")


class Certify(Workload):
    """The seedless badk construction for 12 steps with certify after
    each, then scan-versus-chain cross-checks on seeded 256-bit 1x2
    targets.  An op is the whole certified construction, which ends by
    writing the JSON certificate, or one cross-check.  The construction
    is one op because its steps grow from milliseconds to half a second:
    as separate ops they would interleave with the cross-checks around
    the median."""

    name = "certify"
    pinned_rounds = 1
    tail_pct = 75
    steps = 12
    cross_checks = 12
    bits = 256
    q_max = 200
    conditions = {
        "best_denominators",
        "growth_and_branching",
        "gap_minima_positive",
        "drift_below_gap_minima",
        "drift_below_drop_minima",
        "shortest_vector_sign",
        "second_minimum_ratio",
    }

    def warm_up(self) -> None:
        state = badk.init_state()
        badk.certify(badk.step(state))

    def _construct(self):
        state = badk.init_state()
        reports = [badk.certify(state)]
        for _ in range(self.steps):
            state = badk.step(state)
            reports.append(badk.certify(state))
        path = os.path.join(self.outdir, "certificate-%d.json" % os.getpid())
        serialize.write_json(path, badk.certificate(state, tuple(reports)))
        with open(path, "rb") as fh:
            blob = fh.read()
        os.remove(path)
        return reports, blob

    @staticmethod
    def _cross_check(theta, q_max):
        return (
            bestapprox.chain_engine(theta, q_max=q_max),
            bestapprox.direct_scan(theta, q_max),
        )

    def round(self, ops) -> list[bytes]:
        try:
            reports, blob = ops(self._construct)
        except AssertionError as exc:
            raise WrongOutput("certify rejected the construction: %s" % exc) from exc
        for rep in reports:
            if set(rep.conditions) | set(rep.vacuous) != self.conditions or not all(
                rep.conditions.values()
            ):
                raise WrongOutput("certificate at n=%d is incomplete" % rep.n)
        out = [blob]
        for _ in range(self.cross_checks):
            theta = bestapprox.sample_theta(1, 2, self.bits, self.rng)
            try:
                chain, scan = ops(self._cross_check, theta, self.q_max)
            except FAILURES:
                ops.fail()
                out.append(b"failed\n")
                continue
            if chain != scan:
                raise WrongOutput("chain_engine and direct_scan disagree on a 1x2 target")
            out.append(_records_bytes(chain))
        return out


WORKLOADS = {w.name: w for w in (Chain1x1, Chain3d, Transversal, Certify)}


def make(name: str, seed: int, outdir: str) -> Workload:
    return WORKLOADS[name](seed, outdir)
