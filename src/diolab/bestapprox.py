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

import numpy as np

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


# heights per chunk: the first chunk is checked exactly and sets the
# first bound, and each later chunk doubles up to the cap
_CHUNK_MIN = 64
_CHUNK_MAX = 1 << 15


def _isqrt_array(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(x)) of a nonnegative int64 array, exact
    below 2^52."""
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s -= (s * s > x).astype(np.int64)
    s += ((s + 1) * (s + 1) <= x).astype(np.int64)
    return s


def _runs(tags: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Concatenated integer runs starts[k] .. starts[k] + counts[k] - 1,
    each paired with its tags[k]."""
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    steps = np.arange(int(counts.sum()), dtype=np.int64) - offsets
    return np.repeat(tags, counts), np.repeat(starts, counts) + steps


def _annulus(n0: int, n1: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Sign-canonical heights (q1, q2) with n0 < q1^2 + q2^2 <= n1, in
    shell order: by squared norm, then q1, then q2."""
    q1 = np.arange(isqrt(n1) + 1, dtype=np.int64)
    hi = _isqrt_array(n1 - q1 * q1)
    inner = n0 - q1 * q1
    # |q2| > lo, where lo = -1 if the inner circle misses the column
    lo = np.where(inner >= 0, _isqrt_array(np.maximum(inner, 0)), -1)
    # per column the run q2 < 0 (only for q1 > 0), then the run q2 >= 0
    # (q2 >= 1 on q1 = 0), so the heights come out in (q1, q2) order
    pos = np.maximum(lo + 1, (q1 == 0).astype(np.int64))
    neg = np.maximum(lo + 1, 1)
    neg_count = np.where(q1 > 0, np.maximum(hi - neg + 1, 0), 0)
    h1, h2 = _runs(
        np.repeat(q1, 2),
        np.stack((-hi, pos), axis=1).ravel(),
        np.stack((neg_count, np.maximum(hi - pos + 1, 0)), axis=1).ravel(),
    )
    norms = h1 * h1 + h2 * h2
    # a stable sort by norm; the key n * (norm - n0) + rank is unique
    n = len(norms)
    order = np.argsort((norms - n0) * n + np.arange(n, dtype=np.int64))
    return [h1[order], h2[order]], norms[order]


def _shell_chunks(c: int, q_max: int):
    """Nonzero sign-canonical heights with norm <= q_max in shell order,
    as chunks of whole shells that grow from _CHUNK_MIN to about
    _CHUNK_MAX heights: (height columns, shell keys), the key q for
    c = 1 and the squared norm for c = 2."""
    size = _CHUNK_MIN
    if c == 1:
        lo = 1
        while lo <= q_max:
            q = np.arange(lo, min(lo + size, q_max + 1), dtype=np.int64)
            yield [q], q
            lo += size
            size = min(2 * size, _CHUNK_MAX)
        return
    n0, n_max = 0, q_max * q_max
    while n0 < n_max:
        # an annulus of area pi * (n1 - n0) / 2 holds about that many heights
        n1 = min(n0 + max(2 * size // 3, 1), n_max)
        qcols, norms = _annulus(n0, n1)
        if len(norms):
            yield qcols, norms
        n0 = n1
        size = min(2 * size, _CHUNK_MAX)


def _frac64(tnum: Sequence[Sequence[int]], den: int) -> list[list[int]]:
    """a_ji = floor((theta_ji mod 1) * 2^64) from the integer columns."""
    return [[((t % den) << 64) // den for t in col] for col in tnum]


def _bound64(best: int, den: int) -> int:
    """ceil(sqrt(best * 2^128 / den^2)): the largest distance, in units
    of 2^-64, that a coordinate of a height with dist_sq_scaled <= best
    can have."""
    num, den_sq = best << 128, den * den
    k = isqrt(num // den_sq)
    return k + 1 if k * k * den_sq < num else k


def _survivors(
    qcols: Sequence[np.ndarray], frac64: Sequence[Sequence[int]], den: int, best: int
) -> np.ndarray:
    """Indices of the heights that can have dist_sq_scaled <= best.

    s_i = sum_j q_j a_ji mod 2^64 is exact in uint64 (a negative q_j
    wraps to q_j mod 2^64), and it lies within E = sum_j |q_j| of the
    true q.theta_i * 2^64, since each a_ji is short of theta_ji * 2^64
    by less than 1.  So u_i = min(s_i, -s_i) differs from the distance
    of q.theta_i to Z, in units of 2^-64, by less than E, and every
    height with
    dist_sq_scaled <= best has max_i u_i <= _bound64(best, den) + E
    (E carries a spare +1).
    """
    bound = _bound64(best, den)
    n = len(qcols[0])
    if bound >= 1 << 63:  # no u_i exceeds 2^63
        return np.arange(n)
    qu = [q.astype(np.uint64) for q in qcols]
    zero = np.uint64(0)
    worst = np.zeros(n, dtype=np.uint64)
    for i in range(len(frac64[0])):
        s = qu[0] * np.uint64(frac64[0][i])
        for q, col in zip(qu[1:], frac64[1:]):
            s += q * np.uint64(col[i])
        np.maximum(worst, np.minimum(s, zero - s), out=worst)
    slack = sum(np.abs(q) for q in qcols) + 1
    return np.flatnonzero(worst <= slack.astype(np.uint64) + np.uint64(bound))


def direct_scan(
    theta: Theta, q_max: int, *, budget: int = 10**9
) -> list[BestApproxRecord]:
    """Best approximations with height norm at most q_max, by exhausting
    every height shell in increasing order.

    Within a shell the minimum distance is found first; a record is
    emitted only when it strictly beats every smaller shell, and a tie
    between two achievers of a shell minimum raises
    NonGenericLatticeError (the sequence is not well defined there).
    For c = 1 every shell is one height, so a tie is never a record.

    The heights come in chunks of whole shells that grow from 64 to
    about 2^15 heights (for c = 2 an annulus of norms, sorted by
    (norm^2, q1, q2)).  The first chunk is checked exactly.  In every
    later chunk an integer prefilter drops the heights that cannot
    reach the running minimum best: with a_ji = floor((theta_ji mod 1)
    * 2^64), the uint64 sums s_i = sum_j q_j a_ji mod 2^64 give each
    coordinate's distance to Z in units of 2^-64 within E = sum_j |q_j|
    (+1), so a height survives only if max_i min(s_i, -s_i) - E <=
    ceil(sqrt(best * 2^128 / den^2)) (_survivors).  The survivors get
    the exact integer distance, shell by shell.  The budget counts d*c
    ops per height in shell order and raises where the plain loop over
    every height would, also inside a shell that the scan would have
    ended at.
    """
    c = len(theta)
    d = len(theta[0])
    if c not in (1, 2):
        raise NotImplementedError("direct scan supports c in {1, 2}")
    tnum, den = _int_columns(theta)
    den_sq = den * den
    frac64 = _frac64(tnum, den)

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
    room = max(budget // (d * c), 0)  # heights the budget pays for
    for qcols, keys in _shell_chunks(c, q_max):
        over = len(keys) > room
        if over:
            # keep the shells that end before the first unpaid height
            keep = int(np.searchsorted(keys, keys[room]))
            qcols, keys = [q[:keep] for q in qcols], keys[:keep]
        room -= len(keys)
        idx = np.arange(len(keys)) if best is None else _survivors(qcols, frac64, den, best)
        hs = list(zip(*(q[idx].tolist() for q in qcols)))
        ks = keys[idx].tolist()
        k = 0
        while k < len(hs):
            key = ks[k]
            shell_best: Optional[int] = None
            achievers: list[tuple[int, ...]] = []
            while k < len(hs) and ks[k] == key:
                w = dist_sq_scaled(hs[k])
                if shell_best is None or w < shell_best:
                    shell_best = w
                    achievers = [hs[k]]
                elif w == shell_best:
                    achievers.append(hs[k])
                k += 1
            if best is None or shell_best < best:
                qvec = achievers[0]
                norm_sq = sum(t * t for t in qvec)
                if len(achievers) > 1:
                    raise NonGenericLatticeError(
                        f"two heights of norm^2 {norm_sq} tie at the shell minimum"
                    )
                best = shell_best
                records.append(
                    BestApproxRecord(
                        len(records),
                        qvec,
                        nearest_point(qvec),
                        Fraction(norm_sq),
                        Fraction(shell_best, den_sq),
                        terminal=(shell_best == 0),
                    )
                )
                if shell_best == 0:
                    return records
        if over:
            raise BudgetExceededError("direct scan exceeded budget")
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
