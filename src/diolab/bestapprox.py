"""Best simultaneous approximation sequences.

A target is a d x c rational matrix theta, stored as a tuple of c
columns.  Two independent engines produce the sequence of records
(q_n, r_n): an exhaustive scan over heights and a chain walk that jumps
between consecutive records by enumerating one bounded cylinder per
step.  Both decide every comparison exactly; ties that the theory
excludes for generic targets raise NonGenericLatticeError instead of
being resolved silently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from .core import (
    BudgetExceededError,
    LatticeBasis,
    NonGenericLatticeError,
    _int_columns,
    _matvec_int,
    chain_walker,
    minkowski_leq,
    nearest_int,
)

__all__ = [
    "BestApproxRecord",
    "direct_scan",
    "chain_engine",
    "beta_sequence",
    "minkowski_ok",
    "sample_theta",
    "theta_from_strings",
    "cf_convergents",
    "cf_best_denominators",
]

Theta = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class BestApproxRecord:
    """One best approximation: height vector Q, nearest integer point P,
    and exact squared height/distance."""

    n: int
    Q: tuple[int, ...]
    P: tuple[int, ...]
    q_sq: Fraction
    r_sq: Fraction
    terminal: bool = False

    @property
    def q(self) -> float:
        return math.sqrt(float(self.q_sq))

    @property
    def r(self) -> float:
        return math.sqrt(float(self.r_sq))


def theta_from_strings(columns: Sequence[str]) -> Theta:
    """Columns like "1/2,1/3"; entries are exact Fractions."""
    out = []
    for col in columns:
        out.append(tuple(Fraction(part.strip()) for part in col.split(",")))
    if len({len(col) for col in out}) != 1:
        raise ValueError("ragged theta columns")
    return tuple(out)


def sample_theta(d: int, c: int, bits: int, rng: random.Random) -> Theta:
    """Uniform dyadic target with ``bits`` random bits per entry."""
    return tuple(
        tuple(Fraction(rng.getrandbits(bits), 1 << bits) for _ in range(d))
        for _ in range(c)
    )


# ---------------------------------------------------------------------------
# exhaustive engine


def _shell_heights(c: int, q_max: int) -> list[tuple[int, tuple[int, ...]]]:
    """Sign-canonical nonzero height vectors with norm <= q_max, sorted by
    (squared norm, lexicographic)."""
    if c == 1:
        return [(q * q, (q,)) for q in range(1, q_max + 1)]
    if c == 2:
        out = []
        qm_sq = q_max * q_max
        for q1 in range(0, q_max + 1):
            rem = qm_sq - q1 * q1
            if rem < 0:
                break
            top = isqrt(rem)
            lo = 1 if q1 == 0 else -top
            for q2 in range(lo, top + 1):
                out.append((q1 * q1 + q2 * q2, (q1, q2)))
        out.sort()
        return out
    raise NotImplementedError("direct scan supports c in {1, 2}")


def direct_scan(
    theta: Theta, q_max: int, *, budget: int = 10**9
) -> list[BestApproxRecord]:
    """Best approximations with height norm at most q_max, by exhausting
    every height shell in increasing order.

    Within a shell the minimum distance is found first; a record is
    emitted only when it strictly beats every smaller shell, and a tie
    between two achievers of a shell minimum raises
    NonGenericLatticeError (the sequence is not well defined there).
    """
    c = len(theta)
    d = len(theta[0])
    tnum, den = _int_columns(theta)
    den_sq = den * den

    def dist_sq_scaled(qvec: tuple[int, ...]) -> int:
        s = 0
        for i in range(d):
            u = sum(qvec[j] * tnum[j][i] for j in range(c)) % den
            u = min(u, den - u)
            s += u * u
        return s

    def nearest_point(qvec: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            nearest_int(Fraction(sum(qvec[j] * tnum[j][i] for j in range(c)), den))
            for i in range(d)
        )

    records: list[BestApproxRecord] = []
    best: Optional[int] = None
    ops = 0

    if c == 1:
        t = [tnum[0][i] % den for i in range(d)]
        s = [0] * d
        n = 0
        for q in range(1, q_max + 1):
            ops += d
            if ops > budget:
                raise BudgetExceededError("direct scan exceeded budget")
            w = 0
            for i in range(d):
                s[i] = (s[i] + t[i]) % den
                u = min(s[i], den - s[i])
                w += u * u
            if best is None or w < best:
                best = w
                records.append(
                    BestApproxRecord(
                        n,
                        (q,),
                        nearest_point((q,)),
                        Fraction(q * q),
                        Fraction(w, den_sq),
                        terminal=(w == 0),
                    )
                )
                n += 1
                if w == 0:
                    break
        return records

    shells = _shell_heights(c, q_max)
    n = 0
    i = 0
    while i < len(shells):
        norm_sq = shells[i][0]
        j = i
        shell_best: Optional[int] = None
        achievers: list[tuple[int, ...]] = []
        while j < len(shells) and shells[j][0] == norm_sq:
            ops += d * c
            if ops > budget:
                raise BudgetExceededError("direct scan exceeded budget")
            w = dist_sq_scaled(shells[j][1])
            if shell_best is None or w < shell_best:
                shell_best = w
                achievers = [shells[j][1]]
            elif w == shell_best:
                achievers.append(shells[j][1])
            j += 1
        i = j
        if best is None or shell_best < best:
            if len(achievers) > 1:
                raise NonGenericLatticeError(
                    f"two heights of norm^2 {norm_sq} tie at the shell minimum"
                )
            qvec = achievers[0]
            best = shell_best
            records.append(
                BestApproxRecord(
                    n,
                    qvec,
                    nearest_point(qvec),
                    Fraction(norm_sq),
                    Fraction(shell_best, den_sq),
                    terminal=(shell_best == 0),
                )
            )
            n += 1
            if shell_best == 0:
                break
    return records


# ---------------------------------------------------------------------------
# chain engine


def chain_engine(
    theta: Theta,
    *,
    depth: Optional[int] = None,
    q_max: Optional[int] = None,
    budget: int = 10**7,
) -> list[BestApproxRecord]:
    """Best approximation records by chaining cylinder enumerations.

    Each step is a core.chain_walker step on the target's lattice: the
    successor minimizes (height_sq, width_sq) among vectors narrower
    than r_n, inside the cylinder cut off by the Minkowski inequality,
    with the reduction warm-started from the previous step.  An exact
    tie on that key between two height vectors raises
    NonGenericLatticeError; two nearest points of one height vector
    resolve to the lexicographically smaller.  Like direct_scan, no
    record has height above ``q_max``; ``depth`` must be positive.
    """
    if depth is None and q_max is None:
        raise ValueError("need depth or q_max")
    if depth is not None and depth < 1:
        raise ValueError("depth must be positive")
    if q_max is not None and q_max < 1:
        return []
    c = len(theta)
    d = len(theta[0])
    basis = LatticeBasis.from_theta(theta)
    # integer columns of (den * (P - theta Q), Q), units (den^2, 1)
    acols, (unit_w, _), _ = basis.kernel

    records: list[BestApproxRecord] = []

    def emit(y: tuple[int, ...], wsq_scaled: int, q_sq: int) -> None:
        records.append(
            BestApproxRecord(
                len(records),
                tuple(y[d:]),
                tuple(y[:d]),
                Fraction(q_sq),
                wsq_scaled / unit_w,
                terminal=(wsq_scaled == 0),
            )
        )

    # height 1 record: best of the unit heights
    first: Optional[tuple[int, tuple[int, ...]]] = None
    tie = False
    for j in range(c):
        y = [nearest_int(theta[j][i]) for i in range(d)] + [0] * c
        y[d + j] = 1
        w = sum(t * t for t in _matvec_int(acols, y)[:d])
        if first is None or w < first[0]:
            first = (w, tuple(y))
            tie = False
        elif w == first[0]:
            tie = True
    assert first is not None
    if tie:
        raise NonGenericLatticeError("two unit heights tie at the first record")
    wsq = first[0]
    emit(first[1], wsq, 1)
    if wsq == 0:
        return records

    step = chain_walker(
        basis, cap=None if q_max is None else q_max * q_max, budget=budget
    )
    y = first[1]
    while depth is None or len(records) < depth:
        key, members = step(y)
        if not members:
            break  # only reachable with a q_max cap
        h, w = key
        if any(yv[d:] != members[0][d:] for yv in members):
            raise NonGenericLatticeError(
                "two heights of norm^2 %d tie as the successor" % h
            )
        # one height vector with two nearest points: the lex-min one
        # matches the scan engine's half-down rounding
        y = members[0]
        emit(y, w, h)
        if w == 0:
            break
    return records


# ---------------------------------------------------------------------------
# derived sequences and oracles


def beta_sequence(records: Sequence[BestApproxRecord], d: int, c: int) -> list[Fraction]:
    """Squared products q_{n+1}^c r_n^d for consecutive records."""
    out = []
    for a, b in zip(records, records[1:]):
        if b.n != a.n + 1:
            raise ValueError("records must be consecutive")
        out.append(b.q_sq**c * a.r_sq**d)
    return out


def minkowski_ok(beta_sq: Sequence[Fraction], d: int, c: int) -> bool:
    """Exact check that every product respects the Minkowski constant."""
    return all(minkowski_leq(b, d, c) for b in beta_sq)


def cf_convergents(x: Fraction, limit: int = 10**6) -> list[tuple[int, int]]:
    """Continued fraction convergents (p, q) of x, by Euclid's algorithm."""
    num, den = x.numerator, x.denominator
    ph, pl = 1, 0
    qh, ql = 0, 1
    out = []
    for _ in range(limit):
        if den == 0:
            break
        a = num // den
        num, den = den, num - a * den
        ph, pl = a * ph + pl, ph
        qh, ql = a * qh + ql, qh
        out.append((ph, qh))
    else:
        raise BudgetExceededError("continued fraction did not terminate")
    return out


def cf_best_denominators(x: Fraction) -> list[int]:
    """Strictly increasing best-approximation denominators of x,
    deduplicating the doubled q=1 convergent when it occurs."""
    out: list[int] = []
    for _, q in cf_convergents(x):
        if out and q == out[-1]:
            continue
        out.append(q)
    return out
