"""Shared oracles for the test suite.

The brute-force cylinder scan is the ground truth the lattice kernel is
measured against: it knows nothing about LLL, bounds, or pruning, it
just walks an integer coefficient box and keeps what lands inside.  The
exact integer scan plays the same part for the d=2, c=1 record
sequence: it uses no lattice, LLL or chain code, and the reference scan
(one exact distance per height, no prefilter) is the oracle for
bestapprox.direct_scan.  The reference gap search (one fresh cylinder
enumeration per gap) is the oracle for badk's warm-started gap searches,
and the flat-table drift scan is the oracle for its column drift floors.
The reference critical ball (enumerate_in_cylinder and Fraction
sq_close) is the oracle for the integer decisions of core._critical_ball.
The reference surface acceptance (a positive determinant and
surface_membership_S with the first two columns as short vectors) is the
oracle for the d=2 sampler's one cylinder search.
The Fraction Gram-Schmidt process is the oracle the integral LLL data
are checked against, and the reference Fincke-Pohst walk (every range
decided on the exact integer remainder) is the oracle for the
fixed-point intervals of core.fp_enumerate.
"""

import itertools
import math
import random
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from diolab.badk import sqrt_affine_leq
from diolab.bestapprox import BestApproxRecord
from diolab.core import (
    FLOW_BITS,
    BudgetExceededError,
    Cylinder,
    LatticeBasis,
    NonGenericLatticeError,
    _int_columns,
    _int_gso,
    _iroot,
    canonical_sign,
    enumerate_in_cylinder,
    frac_from_mpf,
    mpf_from_frac,
    nearest_int,
    sq_close,
)
from diolab.dynamics import (
    chart_lattice_1d,
    chart_lattice_2d,
    first_return,
    sample_surface_point_1d,
    surface_membership_S,
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
        if v.width_sq <= cyl.r_plus_sq and v.height_sq <= cyl.r_minus_sq:
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


def r_sq(theta, q):
    """Squared distance of q*theta to Z^d, in Fractions."""
    total = Fraction(0)
    for t in theta:
        f = (q * t) % 1
        total += min(f, 1 - f) ** 2
    return total


def reference_gap(theta, q_lo, q_hi, budget=10**7):
    """Smallest d(q theta, Z^2)^2 over integers q_lo < q < q_hi, or None
    when the range is empty: the gap search badk ran before each column
    shared one warm-started search, kept as the oracle for it (a fresh
    lattice and enumerate_in_cylinder per gap).  The witness height
    w = max(q_lo + 1, q_hi - q_lo) lies in the range and fixes the
    cylinder's width."""
    if q_hi - q_lo < 2:
        return None
    w = max(q_lo + 1, q_hi - q_lo)
    cyl = Cylinder(r_sq(theta, w), Fraction((q_hi - 1) ** 2))
    vecs = enumerate_in_cylinder(LatticeBasis.from_theta((theta,)), cyl, budget=budget)
    found = [v.width_sq for v in vecs if v.height_sq > q_lo * q_lo]
    assert found, "reference gap search missed its witness height %d" % w
    return min(found)


def reference_drift_beats(drift_sq, table, j_max):
    """The first key (i, j) with j <= j_max, in the table's order, whose
    entry (A, B) fails sqrt(drift_sq) + sqrt(B) <= sqrt(A), or None: the
    scan badk ran on flat dicts of every entry before each table column
    carried a drift floor, kept as the oracle for badk._drift_beats."""
    for key, ab in table.items():
        if key[1] > j_max or ab is None:
            continue
        if not sqrt_affine_leq(drift_sq, ab[1], ab[0]):
            return key
    return None


def kth_root_upper(x, k, guard_bits=0):
    """Rational upper bound on x**(1/k) for a Fraction x >= 0, with
    denominator den(x) * 2^guard_bits."""
    if x < 0:
        raise ValueError("negative argument")
    if k == 1:
        return x
    # x^(1/k) = (num * den^(k-1))^(1/k) / den, with num scaled by 2^(k g)
    num = x.numerator << (k * guard_bits)
    den = x.denominator
    return Fraction(_iroot(num * den ** (k - 1), k) + 1, den << guard_bits)


def reference_critical_ball(basis, tol, budget=10**7):
    """lambda_1^2 and the vectors on the closed critical ball, each with
    its (at_w, at_h) flags, as core._critical_ball returns them: the
    body it had before it decided on kernel integers, kept as the oracle
    for it.  One enumerate_in_cylinder of the Minkowski ball widened by
    1 + 4 tol, every vector built, and each decision a Fraction sq_close
    in physical units."""
    _, (unit_w, unit_h), _ = basis.kernel
    mink_sq = basis.kernel_minkowski_sq / (unit_w**basis.d * unit_h**basis.c)
    slack = 1 + 4 * tol
    r_sq = kth_root_upper(mink_sq, basis.m, guard_bits=4) * slack
    found = enumerate_in_cylinder(basis, Cylinder(r_sq, r_sq), budget=budget)
    if not found:
        raise AssertionError("the Minkowski ball holds no lattice vector")
    lam_sq = min(max(v.width_sq, v.height_sq) for v in found)
    on = [
        v
        for v in found
        if (mixed := max(v.width_sq, v.height_sq)) <= lam_sq * slack
        and sq_close(mixed, lam_sq, tol)
    ]
    return lam_sq, [
        (v, sq_close(v.width_sq, lam_sq, tol), sq_close(v.height_sq, lam_sq, tol))
        for v in on
    ]


def reference_surface_accept(p):
    """Whether surface_mc_2d accepts the chart point ``p`` by its rule
    before it decided on one unit-cylinder search, the float prescreen
    left out: a positive determinant, membership on S, wide short vector
    (1, 0, 0) and tall short vector (0, 1, 0)."""
    basis = chart_lattice_2d(p)
    if basis.det_raw() <= 0:
        return False
    mem = surface_membership_S(basis)
    return mem.member and mem.wide.y == (1, 0, 0) and mem.tall.y == (0, 1, 0)


def return_orbit(seed, n, bits=48):
    """The chart lattice of the seeded ``bits``-bit d=c=1 chart point,
    then the basis after each of its first ``n`` chained first returns
    (each one flowed from the one before)."""
    basis = chart_lattice_1d(sample_surface_point_1d(random.Random(seed), bits))
    yield basis
    for _ in range(n):
        basis = first_return(basis).basis_after
        yield basis


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


def flow_by_columns(basis, t):
    """g_t by rebuilding the columns: every entry of the width (height)
    block times e^{ct} (e^{-dt}), frozen from FLOW_BITS-bit floats as
    dynamics.apply_flow freezes them, in a new basis with no stored flow.
    The reference for apply_flow's stored factors."""
    d, c = basis.d, basis.c
    with mpmath.mp.workprec(FLOW_BITS):
        tt = mpf_from_frac(t, FLOW_BITS) if isinstance(t, Fraction) else mpmath.mpf(t)
        fp = frac_from_mpf(mpmath.exp(c * tt))
        fm = frac_from_mpf(mpmath.exp(-d * tt))
    cols = tuple(
        tuple((fp if i < d else fm) * x for i, x in enumerate(col)) for col in basis.columns
    )
    return LatticeBasis(d, c, cols, basis.scale_sq)


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
    """The nonzero integer y with |cols . y|^2 <= bound, both of +-y, in
    the order fp_enumerate walks its half (y[m-1] outermost, each
    coordinate increasing), by a scan of the exact box."""
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
    cylinder: |y_i| <= row_sum(B^-1) * cylinder radius, B the column
    matrix with each block times its flow factor, so that B^-1 is the
    inverse of the unflowed columns with each column of a block divided
    by the block's factor."""
    fp, fm = basis.flow or (1, 1)
    inv = [
        [t / (fp if k < basis.d else fm) for k, t in enumerate(row)]
        for row in _inverse(basis.columns)
    ]
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


def reference_fp_enumerate(
    cols: Sequence[Sequence[int]],
    bound_sq: Fraction | int,
    visit: Callable[[tuple[int, ...]], None],
    budget: int = 10**7,
    gso: Optional[tuple[list[int], list[list[int]]]] = None,
) -> int:
    """The exact integer walk that fp_enumerate ran before its
    fixed-point intervals, kept verbatim as the oracle for it.

    Visit one y of each pair +-y of nonzero integer combinations with
    |cols . y|^2 <= bound_sq (Euclidean): the y whose last nonzero
    coordinate is positive.  Returns nodes used; raises
    BudgetExceededError when the traversal exceeds ``budget`` nodes.

    Integer Fincke-Pohst on the data (dd, lam) of _int_gso(cols), or on
    ``gso`` when given (lll_columns returns it for its reduced columns),
    the bound scaled once by S = den(bound_sq) prod_i dd[i+1] dd[i]:
    level i weighs t^2 by w_i = S / (dd[i+1] dd[i]), t = y_i dd[i+1] -
    N_i, N_i = -sum_{j>i} lam_ji y_j, and tries in increasing order the
    y_i with |t| <= isqrt(R // w_i), R the integer remaining bound.  The
    walk stays in the half-space: while every coordinate above level i
    is 0 (so N_i = 0), it tries only y_i >= 0, and y_0 >= 1.  The visit
    order is that of the whole ball (y[m-1] outermost, each coordinate
    increasing) restricted to the half, and every y_i tried counts one
    node against ``budget``.
    """
    m = len(cols)
    dd, lam = _int_gso(cols) if gso is None else gso
    num, den = bound_sq.numerator, bound_sq.denominator
    if num < 0:
        return 0
    # w_i = den prod_{k != i} dd[k+1] dd[k], by suffix then prefix
    # products, with no long division
    w = [0] * m
    acc = den
    for i in reversed(range(m)):
        w[i] = acc
        acc *= dd[i + 1] * dd[i]
    prod = 1
    for i in range(m):
        w[i] *= prod
        prod *= dd[i + 1] * dd[i]
    y = [0] * m
    nodes = 0

    def descend(i: int, rem: int, above: bool) -> None:
        # above: some coordinate above level i is nonzero
        nonlocal nodes
        di, wi = dd[i + 1], w[i]
        h = isqrt(rem // wi)
        if above:
            n = -sum(lam[j][i] * y[j] for j in range(i + 1, m))
            lo = (n - h + di - 1) // di
        else:
            n, lo = 0, 0 if i else 1
        hi = (n + h) // di
        if hi < lo:
            return
        nodes += hi - lo + 1
        if nodes > budget:
            raise BudgetExceededError(
                f"enumeration exceeded budget of {budget} nodes"
            )
        if i == 0:
            for yi in range(lo, hi + 1):
                y[0] = yi
                visit(tuple(y))
        else:
            for yi in range(lo, hi + 1):
                y[i] = yi
                t = yi * di - n
                descend(i - 1, rem - t * t * wi, above or yi != 0)
        y[i] = 0

    descend(m - 1, num * prod, False)
    return nodes
