"""Shared oracles for the test suite.

The brute-force cylinder scan is the ground truth the lattice kernel is
measured against: it knows nothing about LLL, bounds, or pruning, it
just walks an integer coefficient box and keeps what lands inside.  The
exact integer scan plays the same part for the d=2, c=1 record
sequence: it uses no lattice, LLL or chain code, and the reference scan
(one exact distance per height, no prefilter) is the oracle for
bestapprox.direct_scan.  The Fraction Gram-Schmidt process is the
oracle the integral LLL data are checked against.
"""

import itertools
import math
import random
from fractions import Fraction
from math import isqrt

import numpy as np

from diolab.bestapprox import BestApproxRecord
from diolab.core import (
    BudgetExceededError,
    Cylinder,
    LatticeBasis,
    NonGenericLatticeError,
    _int_columns,
    canonical_sign,
    nearest_int,
)


def brute_cylinder(basis, cyl, box):
    """Sign-canonical nonzero vectors inside the cylinder, by scanning
    coefficients in [-box, box]^m; sorted like enumerate_in_cylinder."""
    seen = {}
    for y in itertools.product(range(-box, box + 1), repeat=basis.m):
        if not any(y):
            continue
        ys = canonical_sign(y, basis.d)
        if ys in seen:
            continue
        v = basis.vector(ys)
        if cyl.contains_sq(v.width_sq, v.height_sq):
            seen[ys] = v
    return sorted(seen.values(), key=lambda v: (v.height_sq, v.width_sq, v.y))


def fraction_gso(cols):
    """Gram-Schmidt data of integer columns in exact Fractions: mu (unit
    lower triangular) and the squared norms of the orthogonalized
    vectors."""
    m = len(cols)
    gram = [[sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(m)] for i in range(m)]
    mu = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    dvec = [Fraction(0)] * m
    for i in range(m):
        for j in range(i):
            s = Fraction(gram[i][j])
            for k in range(j):
                s -= mu[i][k] * mu[j][k] * dvec[k]
            mu[i][j] = s / dvec[j]
        dvec[i] = gram[i][i] - sum(mu[i][k] ** 2 * dvec[k] for k in range(i))
        assert dvec[i] > 0, "dependent columns"
    return mu, dvec


def exact_scan_2x1(theta, bits, q_max):
    """Best approximations of a dyadic d=2, c=1 target by an int64 scan
    of every height q <= q_max.

    theta = ((a/2^bits, b/2^bits),).  Returns the record heights q and
    the scaled squared Euclidean distances w, with r^2 = w / 4^bits
    exactly; a record is a strict prefix minimum of w, as in
    direct_scan.  The asserts keep every int64 product exact.
    """
    assert len(theta) == 1 and len(theta[0]) == 2
    assert 1 <= bits <= 30 and 1 <= q_max <= 1 << 21
    den = 1 << bits
    nums = [int(t * den) for t in theta[0]]
    assert all(Fraction(a, den) == t for a, t in zip(nums, theta[0]))
    assert all(0 <= a < den for a in nums)
    # q*a < 2^21 * 2^30 and x^2 + y^2 <= 2 * (den/2)^2 stay below 2^63
    assert q_max * den < 1 << 63 and 2 * (den // 2) ** 2 < 1 << 63
    q = np.arange(1, q_max + 1, dtype=np.int64)
    w = np.zeros(q_max, dtype=np.int64)
    for a in nums:
        s = (q * a) & (den - 1)
        u = np.minimum(s, den - s)
        w += u * u
    prior = np.minimum.accumulate(w)
    is_record = np.empty(q_max, dtype=bool)
    is_record[0] = True
    is_record[1:] = w[1:] < prior[:-1]
    idx = np.flatnonzero(is_record)
    return q[idx], w[idx]


def reference_shells(c, q_max):
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


def reference_scan(theta, q_max, *, budget=10**9):
    """Best approximations with height norm at most q_max, by exhausting
    every height shell in increasing order: the plain loop that
    bestapprox.direct_scan ran before its integer prefilter, kept as
    the oracle for it (an exact distance for every height, the budget
    counted height by height).

    Within a shell the minimum distance is found first; a record is
    emitted only when it strictly beats every smaller shell, and a tie
    between two achievers of a shell minimum raises
    NonGenericLatticeError (the sequence is not well defined there).
    """
    c = len(theta)
    d = len(theta[0])
    tnum, den = _int_columns(theta)
    den_sq = den * den

    def dist_sq_scaled(qvec):
        s = 0
        for i in range(d):
            u = sum(qvec[j] * tnum[j][i] for j in range(c)) % den
            u = min(u, den - u)
            s += u * u
        return s

    def nearest_point(qvec):
        return tuple(
            nearest_int(Fraction(sum(qvec[j] * tnum[j][i] for j in range(c)), den))
            for i in range(d)
        )

    records = []
    best = None
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

    shells = reference_shells(c, q_max)
    n = 0
    i = 0
    while i < len(shells):
        norm_sq = shells[i][0]
        j = i
        shell_best = None
        achievers = []
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


def random_unimodular_basis(rng, d, c, ops=5):
    """Identity basis stirred by a few elementary unimodular column
    operations; entries stay small so the brute box stays honest."""
    m = d + c
    cols = [[Fraction(1 if i == j else 0) for i in range(m)] for j in range(m)]
    for _ in range(ops):
        a = rng.randrange(m)
        b = rng.randrange(m)
        if a == b:
            continue
        s = rng.choice((-1, 1))
        for i in range(m):
            cols[a][i] += s * cols[b][i]
    return LatticeBasis(d, c, tuple(tuple(col) for col in cols))


def random_cylinder(rng):
    rp = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
    rm = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
    return Cylinder(rp, rm)


def _inverse(cols):
    """Exact inverse of a column matrix (entries cols[j][i])."""
    m = len(cols)
    a = [[Fraction(cols[j][i]) for j in range(m)] for i in range(m)]
    inv = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for k in range(m):
        piv = next(r for r in range(k, m) if a[r][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        inv[k], inv[piv] = inv[piv], inv[k]
        f = a[k][k]
        a[k] = [t / f for t in a[k]]
        inv[k] = [t / f for t in inv[k]]
        for r in range(m):
            if r != k and a[r][k] != 0:
                g = a[r][k]
                a[r] = [t - g * s for t, s in zip(a[r], a[k])]
                inv[r] = [t - g * s for t, s in zip(inv[r], inv[k])]
    return inv


def ellipsoid_box(cols, bound):
    """The exact coefficient box of {y : |cols . y|^2 <= bound}:
    |y_i|^2 <= bound * sum_k (B^-1)_ik^2, B the column matrix."""
    return [math.isqrt(math.floor(bound * sum(t * t for t in row))) for row in _inverse(cols)]


def brute_ellipsoid(cols, bound):
    """The nonzero integer y with |cols . y|^2 <= bound, in fp_enumerate's
    visiting order (y[m-1] outermost, each coordinate increasing), by a
    scan of the exact box."""
    m = len(cols)
    out = []
    box = ellipsoid_box(cols, bound)
    for rev in itertools.product(*(range(-b, b + 1) for b in reversed(box))):
        y = rev[::-1]
        x = [sum(cols[j][i] * y[j] for j in range(m)) for i in range(m)]
        if any(y) and sum(t * t for t in x) <= bound:
            out.append(y)
    return out


def safe_box(basis, cyl):
    """Coefficient bound guaranteeing the brute scan sees the whole
    cylinder: |y_i| <= row_sum(B^-1) * cylinder radius."""
    inv = _inverse(basis.columns)
    r_max = max(cyl.r_plus_sq, cyl.r_minus_sq)
    # ambient coordinates inside the cylinder are bounded by sqrt(r_max)
    bound = 0
    for row in inv:
        row_sum = sum(abs(t) for t in row)
        need = row_sum * row_sum * r_max * basis.scale_sq
        k = 1
        while k * k < need:
            k += 1
        bound = max(bound, k)
    return bound
