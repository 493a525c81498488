"""Statistical estimates of the limit constants of best approximation.

Three routes are implemented and cross-checked: ergodic averages of the
growth of best-approximation denominators (Levy constants and their
duality), the empirical limit distribution of the products q_{n+1}^c r_n^d
against an exact d=c=1 oracle, and a Monte Carlo surface-measure estimate
for the d=2 transversal whose absolute normalization is reported as a
diagnostic only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence, TypeVar

import mpmath
import numpy as np

from .bestapprox import BestApproxRecord, beta_sequence, chain_engine, sample_theta
from .core import (
    NonGenericLatticeError,
    SearchLimitError,
    _cylinder_points,
    ln_frac,
    minkowski_bound_sq_range,
    minkowski_leq,
)
from .dynamics import SurfacePoint2D, chart_lattice_2d

__all__ = [
    "LevyEstimate",
    "levy_ergodic",
    "levy_closed_form_1d",
    "LevyClosedForm1D",
    "LEVY_2_1",
    "surface_density_1d",
    "surface_measure_1d",
    "SurfaceMeasureEstimate",
    "surface_mc_2d",
    "EmpiricalCDF",
    "bjw_empirical",
    "bjw_cdf_1d",
    "bjw_oracle_cdf_1d",
    "ks_distance",
]

_T = TypeVar("_T")

#: numerical value of the d=2, c=1 Levy constant (literature value, 9 digits)
LEVY_2_1 = 1.135256974


# ---------------------------------------------------------------------------
# ergodic route


@dataclass(frozen=True)
class LevyEstimate:
    """Tail-slope estimates of ln q_n and -ln r_n growth.

    per_trial holds one (slope_q, slope_r) pair per accepted theta;
    stderr fields are sample standard deviations divided by sqrt(trials).
    duality_residual averages c*slope_q - d*slope_r, which the duality
    c L = d L* sends to zero.
    """

    L_hat: float
    L_star_hat: float
    trials: int
    depth: int
    stderr: float
    stderr_star: float
    duality_residual: float
    duality_stderr: float
    per_trial: tuple[tuple[float, float], ...]
    resamples: int


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _seeded_trials(
    seed: int, trials: int, attempt: Callable[[random.Random], Optional[_T]]
) -> Iterator[tuple[_T, int]]:
    """The one draw policy of every seeded estimate: a master
    ``Random(seed)`` hands each draw, in order, its own child generator
    seeded by the master's next 64 bits.

    ``attempt(child)`` returns a result, or None for a draw that must be
    re-drawn.  Yields ``trials`` results, each with the number of
    re-draws so far; more than 2 * trials + 64 draws in total raise
    SearchLimitError.
    """
    master = random.Random(seed)
    accepted = resamples = 0
    while accepted < trials:
        if accepted + resamples >= 2 * trials + 64:
            raise SearchLimitError(
                "draw cap reached: %d of %d draws re-drawn"
                % (resamples, accepted + resamples)
            )
        result = attempt(random.Random(master.getrandbits(64)))
        if result is None:
            resamples += 1
            continue
        accepted += 1
        yield result, resamples


def _seeded_chains(
    d: int, c: int, trials: int, depth: int, bits: int, seed: int, budget: int
) -> Iterator[tuple[list[BestApproxRecord], int]]:
    """Chains of ``depth + 1`` records for ``trials`` random theta drawn
    by _seeded_trials.  A theta that is non-generic or whose chain
    terminates before the requested depth (a dyadic resonance) is
    re-drawn."""

    def attempt(rng: random.Random) -> Optional[list[BestApproxRecord]]:
        theta = sample_theta(d, c, bits, rng)
        try:
            recs = chain_engine(theta, depth=depth + 1, budget=budget)
        except NonGenericLatticeError:
            return None
        return None if len(recs) <= depth or recs[depth].terminal else recs

    return _seeded_trials(seed, trials, attempt)


def levy_ergodic(
    d: int,
    c: int,
    trials: int,
    depth: int,
    bits: int,
    seed: int,
    *,
    budget: int = 10**7,
) -> LevyEstimate:
    """Slopes of ln q_n over the second half of a depth-n chain, averaged
    over random theta.

    A theta whose chain terminates before the requested depth (a dyadic
    resonance) is discarded and re-drawn; the count of such re-draws is
    returned.  Slopes use the window [depth/2, depth] to discard the
    transient at small n.
    """
    if depth < 4:
        raise ValueError("depth must be at least 4")
    if trials < 2:
        raise ValueError("need at least two trials")
    h = depth // 2
    span = 2 * (depth - h)
    per: list[tuple[float, float]] = []
    resamples = 0
    for recs, resamples in _seeded_chains(d, c, trials, depth, bits, seed, budget):
        slope_q = float(ln_frac(recs[depth].q_sq / recs[h].q_sq, 53)) / span
        slope_r = float(ln_frac(recs[h].r_sq / recs[depth].r_sq, 53)) / span
        per.append((slope_q, slope_r))
    L_hat, stderr = _mean_stderr([p[0] for p in per])
    L_star_hat, stderr_star = _mean_stderr([p[1] for p in per])
    residual, res_stderr = _mean_stderr([c * p[0] - d * p[1] for p in per])
    return LevyEstimate(
        L_hat,
        L_star_hat,
        trials,
        depth,
        stderr,
        stderr_star,
        residual,
        res_stderr,
        tuple(per),
        resamples,
    )


# ---------------------------------------------------------------------------
# closed forms and the d=1 surface measure


@dataclass(frozen=True)
class LevyClosedForm1D:
    """pi^2/(12 ln 2) together with its zeta(2)/(2 ln 2) form and the
    exponential (Khintchin's constant for best approximations)."""

    value: float
    zeta_ratio: float
    khintchin: float


def levy_closed_form_1d() -> LevyClosedForm1D:
    value = math.pi**2 / (12 * math.log(2))
    zeta_ratio = float(mpmath.zeta(2)) / (2 * math.log(2))
    if abs(value - zeta_ratio) > 1e-14 * value:
        raise AssertionError("zeta(2)/(2 ln 2) disagrees with pi^2/(12 ln 2)")
    return LevyClosedForm1D(value, zeta_ratio, math.exp(value))


def surface_density_1d(x: float, y: float) -> float:
    """Density 1/(1+xy)^2 of the transversal measure in the (x, y, eps)
    chart, per sign sheet."""
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError("chart coordinates lie in the unit square")
    return 1.0 / (1.0 + x * y) ** 2


def surface_measure_1d() -> float:
    """Total transversal mass, integrating surface_density_1d over both
    sign sheets by adaptive quadrature; the exact value is 2 ln 2."""
    from scipy import integrate  # scipy loads only for this check

    val, _ = integrate.dblquad(
        lambda y, x: 2.0 * surface_density_1d(x, y), 0.0, 1.0, 0.0, 1.0,
        epsabs=1e-10, epsrel=1e-10,
    )
    return val


# ---------------------------------------------------------------------------
# d=2 surface-measure Monte Carlo


@dataclass(frozen=True)
class SurfaceMeasureEstimate:
    """Monte Carlo mass of the d=2 transversal chart in the rotation x
    Lebesgue normalization; the absolute scale is diagnostic only.
    ``nongeneric`` is always 0: the exact acceptance test raises no
    NonGenericLatticeError, so no proposal is set aside as non-generic;
    the field stays because the surface JSON output holds it."""

    muS_hat: float
    accept_rate: float
    stderr: float
    samples: int
    accepted: int
    nongeneric: int


# proposal box: n31 in [0,1), (n12,n22) in the unit disk, n13,n23 in [-2,2],
# n33 in (0,4], and a rotation angle contributing the factor 2 pi.
_BOX_VOLUME = 128 * math.pi**2


def _dyadic(rng: random.Random, bits: int = 53) -> Fraction:
    return Fraction(rng.getrandbits(bits), 1 << bits)


def _surface_weight(p: SurfacePoint2D, budget: int) -> float:
    """The density (det N)^(-3) of a proposal ``p`` accepted by
    surface_mc_2d's exact rule, 0.0 for a rejected one."""
    if p.n31 == 0:
        return 0.0
    basis = chart_lattice_2d(p)
    det = basis.det_raw()
    if det <= 0 or minkowski_bound_sq_range(2, 1)[1] * det * det < 1:
        return 0.0
    cols, (unit_w, unit_h), _ = basis.kernel
    points, coords, _ = _cylinder_points(
        cols, None, 2, math.floor(unit_w), math.floor(unit_h), budget
    )
    if sorted(coords(z) for _, _, z in points) != [(0, 1, 0), (1, 0, 0)]:
        return 0.0
    return float(1 / det**3)


def surface_mc_2d(
    samples: int,
    seed: int,
    *,
    budget: int = 10**7,
) -> SurfaceMeasureEstimate:
    """Rejection-sample the d=2, c=1 transversal chart and accumulate the
    density (det N)^(-3) over points whose lattice has exactly the first
    two columns as critical pair, wide (1, 0, 0) and tall (0, 1, 0).

    Proposal coordinates are exact dyadic rationals with 0 <= n31 < 1
    and n12^2 + n22^2 < 1, so the columns (1, 0, n31) and (n12, n22, 1)
    have mixed norm 1 and neither is a corner.  A proposal is accepted
    exactly when n31 != 0, (n12, n22) != 0 (neither short vector is
    degenerate) and the sign-canonical lattice points of the closed unit
    cylinder are (1, 0, 0) and (0, 1, 0) alone: then no vector is
    shorter, so lambda_1 = 1, the critical ball is that cylinder and it
    holds no third pair; conversely, membership with those short vectors
    puts lambda_1 at 1 and makes the cylinder the critical ball.  The
    search decides (n12, n22) != 0 too: otherwise (1, -1, 0), or (1, 1,
    0) when n31 = 0, lies in the cylinder.
    Minkowski's lambda_1^6 <= C_{2,1}^2 det^2 first rejects hi det^2 < 1
    exactly, hi the upper end of minkowski_bound_sq_range(2, 1), which
    also bounds the points the search can meet.  The search is the
    kernel's _cylinder_points on basis.kernel, each squared radius 1
    floored into its block's integer units, so no float decides.  An
    accepted point on the closed proposal-box boundary raises, as it
    would prove the box too small.
    """
    if samples < 1:
        raise ValueError("need at least one sample")

    def attempt(rng: random.Random) -> float:
        """The weight of one proposal, 0.0 if rejected; a rejected
        proposal is not re-drawn."""
        n31 = _dyadic(rng)
        for _ in range(256):
            n12 = 2 * _dyadic(rng) - 1
            n22 = 2 * _dyadic(rng) - 1
            if n12 * n12 + n22 * n22 < 1:
                break
        else:
            raise RuntimeError("unit-disk rejection failed to terminate")
        n13 = 4 * _dyadic(rng) - 2
        n23 = 4 * _dyadic(rng) - 2
        for _ in range(256):
            n33 = 4 * _dyadic(rng)
            if n33 != 0:
                break
        else:
            raise RuntimeError("n33 draw failed to terminate")
        weight = _surface_weight(SurfacePoint2D(n12, n22, n13, n23, n31, n33), budget)
        if weight and (n13 == -2 or n23 == -2):
            raise ValueError(
                "accepted point on the proposal-box boundary; enlarge the box"
            )
        return weight

    weights = np.array([weight for weight, _ in _seeded_trials(seed, samples, attempt)])
    # an accepted point has 0 < det N < 10 in the box: a positive weight
    accepted = int(np.count_nonzero(weights))
    mean = float(np.mean(weights))
    muS_hat = _BOX_VOLUME * mean
    if samples > 1:
        stderr = _BOX_VOLUME * float(np.std(weights, ddof=1)) / math.sqrt(samples)
    else:
        stderr = 0.0
    return SurfaceMeasureEstimate(
        muS_hat, accepted / samples, stderr, samples, accepted, nongeneric=0
    )


# ---------------------------------------------------------------------------
# limit distribution of the products q_{n+1}^c r_n^d

_KS_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class EmpiricalCDF:
    """Right-continuous step function of a pooled sample; ``resamples``
    counts the targets re-drawn while pooling it."""

    samples: np.ndarray
    resamples: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float)
        arr.sort()
        if arr.size == 0:
            raise ValueError("empty sample")
        object.__setattr__(self, "samples", arr)

    def __call__(self, t):
        return np.searchsorted(self.samples, t, side="right") / self.samples.size


def bjw_empirical(
    d: int,
    c: int,
    trials: int,
    depth: int,
    bits: int,
    seed: int,
    *,
    discard: int = 10,
    budget: int = 10**7,
) -> EmpiricalCDF:
    """Pool the products q_{k+1}^c r_k^d over random theta, discarding the
    first indices of each chain as transient.  Re-drawn targets are
    counted as in levy_ergodic and returned with the pool.

    Every pooled value is checked exactly against the Minkowski bound
    before conversion to float; for d=c=1 the double inequality
    1/2 <= q_{k+1} r_k <= 1 is checked exactly as well.
    """
    if depth <= discard + 1:
        raise ValueError("depth must exceed discard + 1")
    pooled: list[float] = []
    resamples = 0
    for recs, resamples in _seeded_chains(d, c, trials, depth, bits, seed, budget):
        for b_sq in beta_sequence(recs, d, c)[discard:]:
            if b_sq <= 0 or not minkowski_leq(b_sq, d, c):
                raise RuntimeError("product escaped the Minkowski bound")
            if d == 1 and c == 1 and not Fraction(1, 4) <= b_sq <= 1:
                raise RuntimeError("product escaped [1/2, 1]")
            pooled.append(math.sqrt(float(b_sq)))
    return EmpiricalCDF(np.asarray(pooled), resamples)


def bjw_cdf_1d(t: float) -> float:
    """Closed form of the d=c=1 limit distribution function,
    1 + (u ln u / (1+u) - ln(1+u)) / ln 2 with u = 1/t - 1."""
    if t <= 0.5:
        return 0.0
    if t >= 1.0:
        return 1.0
    u = 1.0 / t - 1.0
    return 1.0 + (u * math.log(u) / (1.0 + u) - math.log1p(u)) / math.log(2)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre nodes and weights on [0, 1], read-only since
    every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1) / 2, w / 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def bjw_oracle_cdf_1d(t: float) -> float:
    """Mass of {1/(1+xy) <= t} under the normalized transversal density,
    by tensor Gauss-Legendre quadrature.

    With u = 1/t - 1, the region {xy >= u} of the unit square is mapped
    from [0, 1]^2 by x = u^(1-a), y = u/x + (1 - u/x) b, which turns the
    density into the smooth (-ln u)(x - u)/(1 + u + (x - u) b)^2.  The
    node count doubles from 20 until two successive rules agree within
    1e-13 (40 nodes for t <= 0.999, 80 up to t = 1 - 1e-15); more than
    640 nodes raise RuntimeError.
    """
    if t <= 0.5:
        return 0.0
    if t >= 1.0:
        return 1.0
    u = 1.0 / t - 1.0

    def rule(n: int) -> float:
        nodes, weights = _gauss_legendre(n)
        xu = u ** (1.0 - nodes) - u
        f = xu[:, None] / (1.0 + u + xu[:, None] * nodes) ** 2
        return -math.log(u) * float(weights @ f @ weights)

    n = 20
    coarse = rule(n)
    while n < 640:
        n *= 2
        fine = rule(n)
        if abs(fine - coarse) <= 1e-13:
            return fine / math.log(2)
        coarse = fine
    raise RuntimeError("oracle CDF quadrature did not settle at t = %r" % t)


def ks_distance(ecdf: EmpiricalCDF, oracle: Callable[[float], float]) -> float:
    """Two-sided Kolmogorov-Smirnov distance over the sample points.

    The oracle values and the steps i/n are formed in blocks of
    _KS_BLOCK points, so no temporary grows with the sample."""
    xs = ecdf.samples
    n = xs.size
    if n == 0:
        raise ValueError("empty sample")
    dist = -math.inf
    for i in range(0, n, _KS_BLOCK):
        F = np.fromiter((oracle(float(x)) for x in xs[i : i + _KS_BLOCK]), dtype=float)
        steps = np.arange(i + 1, i + F.size + 1) / n
        dist = max(dist, np.max(steps - F), np.max(F - (steps - 1 / n)))
    return float(dist)
