"""Inductive construction of a 2x1 vector whose denominators are badly
approximable at offset one but not at offset zero.

Everything here is exact rational arithmetic: square roots never get
evaluated, all norm comparisons are done on squares via the identity
sqrt(a) + sqrt(b) <= sqrt(u)  iff  u >= a + b and 4ab <= (u - a - b)^2.

State n consists of a rational vector theta_n with lowest common
denominator Q_n.  A step picks a primitive point alpha_n = k_n theta_n +
(a_n, b_n) of the lattice Z^2 + Z theta_n in a prescribed open quadrant,
an integer p_n in the window [10 Q_n L_n^2, 20 Q_n L_n^2] with
L_n = |alpha_n|, and moves to theta_{n+1} = theta_n + eps_n / Q_n where
eps_n = alpha_n / (p_n - k_n/Q_n); then Q_{n+1} = p_n Q_n - k_n.  The
seven inductive conditions are enforced during the step and re-verified
by certify on tables it builds itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .bestapprox import direct_scan
from .core import (
    LatticeBasis,
    SearchLimitError,
    _cylinder_search,
    _gauss_pair,
    chain_walker,
    fp_enumerate,
    nearest_int,
)

__all__ = [
    "BadConstructionState",
    "StepRecord",
    "CertifyReport",
    "PrefixStats",
    "init_state",
    "step",
    "certify",
    "certificate",
    "prefix_statistics",
    "sqrt_affine_leq",
    "SCAN_CAP",
]

Pair = tuple[Fraction, Fraction]

# certify re-derives the denominator list by a direct scan while Q_n is
# at most SCAN_CAP
SCAN_CAP = 10**6

# a kept gap search's width^2 radius over that of its witness height
_RADIUS_FACTOR = 2


def sqrt_affine_leq(a: Fraction, b: Fraction, u: Fraction) -> bool:
    """Exact test of sqrt(a) + sqrt(b) <= sqrt(u) for nonnegative
    rationals, on integers: with a = an/ad, b = bn/bd, u = un/ud and R =
    (u - a - b) ad bd ud, it holds iff R >= 0 and 4 an bn ad bd ud^2 <=
    R^2."""
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    un, ud = u.numerator, u.denominator
    if an < 0 or bn < 0 or un < 0:
        raise ValueError("arguments must be nonnegative")
    rest = (un * ad - an * ud) * bd - bn * ad * ud
    if rest < 0:
        return False
    return 4 * an * bn * ad * bd * ud * ud <= rest * rest


def _r_sq(theta: Pair, q: int) -> Fraction:
    """Squared distance of q*theta to Z^2: sum of min(x, Q - x)^2 / Q^2
    over x = q theta_i Q mod Q, Q the lowest common denominator."""
    den = _lcd(theta)
    total = 0
    for t in theta:
        x = q * t.numerator * (den // t.denominator) % den
        total += min(x, den - x) ** 2
    return Fraction(total, den * den)


def _lcd(theta: Pair) -> int:
    return math.lcm(theta[0].denominator, theta[1].denominator)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def _hnf_basis(u: int, v: int, q: int) -> tuple[int, int, int]:
    """Hermite basis (d1, c), (0, q/d1) of the integer lattice
    Z(u, v) + qZ^2, assuming gcd(u, v, q) = 1."""
    u %= q
    v %= q
    g, s, _ = _xgcd(u, q)
    y0 = q // g
    c = (s * v) % y0 if y0 > 1 else 0
    return g, c, y0


def _lattice_minima(
    theta: Pair, q: int
) -> tuple[Fraction, Fraction, tuple[int, int], tuple[int, int]]:
    """The two successive minima squared of the lattice q (Z theta + Z^2)
    = Z(q theta) + qZ^2, for q the lowest common denominator of theta,
    and the Lagrange-Gauss reduced basis attaining them."""
    d1, c, y0 = _hnf_basis(int(theta[0] * q), int(theta[1] * q), q)
    b1, b2, (n1, _, n2), _ = _gauss_pair((d1, c), (0, y0))
    return Fraction(n1), Fraction(n2), b1, b2


def _solve_k(gamma: tuple[int, int], theta: Pair, q: int) -> int:
    """k in [0, q) with gamma = k q theta mod q, for q the lowest common
    denominator of theta."""
    if q == 1:
        return 0
    u = int(theta[0] * q) % q
    v = int(theta[1] * q) % q
    g2, s2, t2 = _xgcd(u, v)
    if g2 == 0:
        raise ValueError("theta must not be an integer vector")
    rhs = (s2 * gamma[0] + t2 * gamma[1]) % q
    k = (rhs * pow(g2, -1, q)) % q
    if (k * u - gamma[0]) % q or (k * v - gamma[1]) % q:
        raise AssertionError("k recovery failed")
    return k


class _Gap(NamedTuple):
    """One searched gap (q_lo, q_hi) of theta: every height q_lo < q <
    q_hi with d(q theta, Z^2)^2 <= radius, as (that width^2, q), sorted,
    so points[0][0] is the gap minimum on theta."""

    theta: Pair
    radius: Fraction
    points: tuple


def _carried_gap(held: _Gap, theta: Pair, q_hi: int) -> Optional[Fraction]:
    """The minimum of d(q theta, Z^2)^2 over the gap that ``held``
    searched on another theta', or None when the heights it kept cannot
    decide it.

    d(., Z^2) is 1-Lipschitz, so with delta = q_hi |theta - theta'| every
    height q of the gap has |d(q theta) - d(q theta')| <= q |theta -
    theta'| <= delta.  The kept heights are read in the order of their
    width^2 w on theta' and the least d(q theta)^2 so far, best, stops
    the read at the first w with sqrt(best) + delta <= sqrt(w): no later
    kept height is below best.  A height not kept has d(q theta')^2 >
    radius, so if sqrt(best) + delta <= sqrt(radius) it is not below
    best either, and best is the minimum; otherwise None.  Both tests
    are sqrt_affine_leq's, on delta^2."""
    # |theta - theta'|^2 on the integers x / Q of each theta
    den, den_src = _lcd(theta), _lcd(held.theta)
    shift = Fraction(
        q_hi * q_hi * sum(
            (t.numerator * (den // t.denominator) * den_src
             - s.numerator * (den_src // s.denominator) * den) ** 2
            for t, s in zip(theta, held.theta)
        ),
        (den * den_src) ** 2,
    )
    best = None
    for w, q in held.points:
        if best is not None and sqrt_affine_leq(best, shift, w):
            break
        r = _r_sq(theta, q)
        if best is None or r < best:
            best = r
    return best if sqrt_affine_leq(best, shift, held.radius) else None


def _gap_search(
    theta: Pair,
    budget: int,
    carried: Optional[dict] = None,
    keep: Optional[dict] = None,
) -> Callable[[int, int], Optional[Fraction]]:
    """``gap(q_lo, q_hi)``: the smallest d(q theta, Z^2)^2 over integers
    q_lo < q < q_hi (q_lo >= 1), or None when the range is empty.

    A gap held in ``carried`` under (q_lo, q_hi, budget), searched on an
    earlier theta of the lineage, answers without a search when its
    Lipschitz margin holds (_carried_gap); the gap makes no nodes then,
    so it cannot raise BudgetExceededError.  Otherwise the gap is
    searched, and the _Gap it found is stored in ``keep`` under that
    key.

    Every search runs on one lattice of theta, built on the first, each
    as one cylinder search warm-started from the reduced columns the
    previous search left (core._cylinder_search).  Its width is fixed
    by a witness height: w = max(q_lo + 1, q_hi - q_lo) lies in the
    range, so the cylinder of width^2 radius = d(w theta, Z^2)^2 and
    height below q_hi holds w's own vector and every height in the range
    that beats it.  A search whose gap goes to ``keep`` takes twice that
    radius, for the heights a later theta may need (_carried_gap); one
    that keeps nothing searches no wider than it must.  When q_hi > 2 q_lo, w = q_hi - q_lo and the
    triangle inequality bounds that width by d(q_lo theta, Z^2) +
    d(q_hi theta, Z^2).  Only norms are read, so no point's coordinates
    are built.
    """
    lattice = None  # (search, unit_w), built on the first search

    def gap(q_lo: int, q_hi: int) -> Optional[Fraction]:
        nonlocal lattice
        if q_hi - q_lo < 2:
            return None
        key = (q_lo, q_hi, budget)
        held = None if carried is None else carried.get(key)
        if held is not None:
            least = _carried_gap(held, theta, q_hi)
            if least is not None:
                return least
        if lattice is None:
            basis = LatticeBasis.from_theta((theta,))
            lattice = (_cylinder_search(basis, budget), basis.kernel[1][0])
        search, unit_w = lattice
        w = max(q_lo + 1, q_hi - q_lo)
        radius = _r_sq(theta, w) * (1 if keep is None else _RADIUS_FACTOR)
        # the height unit of a theta-lattice is 1: height^2 is q^2
        points, _ = search(math.floor(radius * unit_w), (q_hi - 1) ** 2)
        lo = q_lo * q_lo
        found = sorted((pw, math.isqrt(ph)) for pw, ph, _ in points if ph > lo)
        if not found:
            raise AssertionError("gap search missed its witness height %d" % w)
        held = _Gap(theta, radius, tuple((pw / unit_w, q) for pw, q in found))
        if keep is not None:
            keep[key] = held
        return held.points[0][0]

    return gap


@dataclass(frozen=True)
class StepRecord:
    """Search outcome producing theta_{n+1} from theta_n; d_sq is the
    squared window scale 1/(Q_n L_n)^2."""

    n: int
    gamma: tuple[int, int]
    alpha: Pair
    k: int
    ab: tuple[int, int]
    p: int
    p_count: int
    L_sq: Fraction
    d_sq: Fraction
    eps: Pair
    q_next: int


class Column(NamedTuple):
    """Column j of the tables: the squared quantities (A, B) of theta_j
    from which the gap minima M_{i,j} = sqrt(A) - sqrt(B), 1 <= i < j,
    and the drop minima m_{i,j}, 1 <= i <= j, read off; M[i-1] is None
    when the denominator gap (Q_{i-1}, Q_i) contains no integer.  floor
    is _drift_floor of its entries."""

    M: tuple
    m: tuple
    floor: Fraction


@dataclass(frozen=True)
class BadConstructionState:
    """Prefix of the inductive construction.

    columns[j-1] is column j of the tables, for 1 <= j < n.

    certify_memo is certify's store of the columns it has built and of
    the gaps it has searched, shared by every state of one lineage:
    init_state makes a fresh one, step hands it on and only reads it.
    Each column is keyed by everything it is a function of
    (_column_key), so a state with other data misses it; each gap is
    keyed by (q_lo, q_hi, budget) and holds the theta it was searched
    on (_Gap), which every reader's Lipschitz margin accounts for.
    """

    n: int
    thetas: tuple[Pair, ...]
    q_list: tuple[int, ...]
    eps_list: tuple[Pair, ...]
    steps: tuple[StepRecord, ...]
    columns: tuple[Column, ...]
    certify_memo: dict = field(compare=False, repr=False)

    @property
    def theta(self) -> Pair:
        return self.thetas[-1]

    @property
    def Q(self) -> int:
        return self.q_list[-1]


def _drift_floor(entries) -> Fraction:
    """A strict lower bound on T = (sqrt(A) - sqrt(B))^2 over the entries
    (A, B), or -1 when some entry has A <= B.

    An entry fails sqrt(drift) + sqrt(B) <= sqrt(A) iff A < B, or A = B
    and drift > 0, or A > B and drift > T.  With A = an/ad, B = bn/bd and
    s = isqrt(an bn ad bd), sqrt(AB) = sqrt(an bn ad bd)/(ad bd) <
    (s + 1)/(ad bd), so T = A + B - 2 sqrt(AB) > A + B - 2(s + 1)/(ad bd)
    = (an bd + bn ad - 2(s + 1))/(ad bd).
    Hence, when every A > B, no entry fails for a drift at most the least
    of these bounds; when some A <= B, -1 lies below every drift.
    """
    bounds = []
    for a, b in entries:
        if a <= b:
            return Fraction(-1)
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        s = math.isqrt(an * bn * ad * bd)
        bounds.append(Fraction(an * bd + bn * ad - 2 * (s + 1), ad * bd))
    return min(bounds)


def _column(
    thetas,
    q_list,
    j: int,
    budget: int,
    carried: Optional[dict] = None,
    keep: Optional[dict] = None,
) -> tuple[Column, Callable[[int, int], Optional[Fraction]]]:
    """Column j of the tables (quantities of theta_j), and the gap search
    of theta_j that built it, reading and storing gaps as _gap_search
    does with ``carried`` and ``keep``."""
    theta_j = thetas[j]
    gap_search = _gap_search(theta_j, budget, carried, keep)
    r = [_r_sq(theta_j, q) for q in q_list[: j + 1]]
    gaps = [gap_search(q_list[i - 1], q_list[i]) for i in range(1, j)]
    M = tuple(None if g is None else (g, r[i]) for i, g in enumerate(gaps))
    m = tuple(zip(r, r[1:]))
    floor = _drift_floor([ab for ab in M + m if ab is not None])
    return Column(M, m, floor), gap_search


def _column_key(thetas, q_list, j: int, budget: int) -> tuple:
    """Everything column j of the tables is a function of: theta_j,
    Q_0..Q_j and the search budget."""
    return (thetas[j], q_list[: j + 1], budget)


def _drift_beats(drift_sq: Fraction, columns, which: str) -> Optional[tuple]:
    """The first key (i, j), column-major, whose entry (A, B) in table
    which ("M" or "m") of column j = columns[j-1] fails
    sqrt(drift_sq) + sqrt(B) <= sqrt(A), or None.  A column whose floor
    is at least drift_sq has no such entry (_drift_floor); the others
    are decided entry by entry, each by sqrt_affine_leq's integer test
    with drift_sq's numerator and denominator read once."""
    dn, dd = drift_sq.numerator, drift_sq.denominator
    for j, column in enumerate(columns, 1):
        floor = column.floor
        if dn * floor.denominator <= floor.numerator * dd:
            continue
        for i, ab in enumerate(getattr(column, which), 1):
            if ab is None:
                continue
            an, ad = ab[0].as_integer_ratio()
            bn, bd = ab[1].as_integer_ratio()
            # sqrt(drift) + sqrt(B) <= sqrt(A), with A = an/ad, B = bn/bd
            rest = (an * dd - dn * ad) * bd - bn * dd * ad
            if rest < 0 or 4 * dn * bn * dd * bd * ad * ad > rest * rest:
                return (i, j)
    return None


def init_state() -> BadConstructionState:
    """Seed state at n=1: theta_0 = (0,0), theta_1 = (1/5, 1/5)."""
    theta0 = (Fraction(0), Fraction(0))
    theta1 = (Fraction(1, 5), Fraction(1, 5))
    eps0 = (Fraction(1, 5), Fraction(1, 5))
    return BadConstructionState(
        n=1,
        thetas=(theta0, theta1),
        q_list=(1, 5),
        eps_list=(eps0,),
        steps=(),
        columns=(),
        certify_memo={},
    )


def _quadrant_candidates(
    b1: tuple[int, int], b2: tuple[int, int], lo_sq: int, hi_sq: int, budget: int
) -> list[tuple[int, int, int]]:
    """Primitive points of the lattice spanned by the reduced basis
    (b1, b2) with both coordinates positive and lo_sq < norm^2 <= hi_sq,
    sorted by (norm^2, x, y), from one enumeration of the disk, which
    visits one m of each pair +-m: a point in the negative quadrant
    stands for its negative."""
    out = []

    def visit(m: tuple[int, ...]) -> None:
        x = m[0] * b1[0] + m[1] * b2[0]
        y = m[0] * b1[1] + m[1] * b2[1]
        if x < 0 and y < 0:
            x, y = -x, -y
        if x > 0 and y > 0 and lo_sq < x * x + y * y and math.gcd(*m) == 1:
            out.append((x * x + y * y, x, y))

    fp_enumerate((b1, b2), hi_sq, visit, budget=budget)
    out.sort()
    return out


def step(
    state: BadConstructionState,
    x_search_bound: int = 1 << 16,
    *,
    budget: int = 10**7,
) -> BadConstructionState:
    """One inductive step; deterministic (smallest admissible candidate,
    then smallest window integer).

    x_search_bound caps the growth factor of the candidate search radius
    over its lower bound |gamma|^2 = n Q_n; raise it if the step reports
    exhaustion.

    Column n of the tables comes from certify_memo when certify(state)
    has stored it under step's own key, and is built by _column
    otherwise; step never writes the memo.  The next state holds the
    state's columns and column n.
    """
    n = state.n
    Q = state.Q
    theta = state.theta
    _, _, rb1, rb2 = _lattice_minima(theta, Q)
    column = state.certify_memo.get(
        _column_key(state.thetas, state.q_list, n, budget)
    )
    if column is None:
        column, _ = _column(
            state.thetas, state.q_list, n, budget, carried=state.certify_memo
        )
    columns = state.columns + (column,)
    eps_prev_sq = (
        state.eps_list[-1][0] ** 2 + state.eps_list[-1][1] ** 2
    )
    base_sq = max(n * Q, 1)
    lo_sq = base_sq - 1
    hi_sq = 4 * base_sq
    growth = 1
    while growth <= x_search_bound:
        for n2, x, y in _quadrant_candidates(rb1, rb2, lo_sq, hi_sq, budget):
            gamma = (x, y) if n % 2 == 0 else (-x, -y)
            p_lo = math.ceil(Fraction(10 * n2, Q))
            p_hi = math.floor(Fraction(20 * n2, Q))
            p_count = p_hi - p_lo + 1
            if p_count < 2 or p_lo < 2:
                continue
            k = _solve_k(gamma, theta, Q)
            q_next = p_lo * Q - k
            eps = (Fraction(gamma[0], q_next), Fraction(gamma[1], q_next))
            e_sq = eps[0] ** 2 + eps[1] ** 2
            if not e_sq < eps_prev_sq:
                continue
            drift_sq = 64 * e_sq
            if _drift_beats(drift_sq, columns, "m") or _drift_beats(
                drift_sq, columns, "M"
            ):
                continue
            alpha = (Fraction(gamma[0], Q), Fraction(gamma[1], Q))
            ab_vec = (
                int(alpha[0] - k * theta[0]),
                int(alpha[1] - k * theta[1]),
            )
            if (alpha[0] - k * theta[0]) != ab_vec[0] or (
                alpha[1] - k * theta[1]
            ) != ab_vec[1]:
                raise AssertionError("alpha decomposition failed")
            theta_next = (theta[0] + eps[0] / Q, theta[1] + eps[1] / Q)
            if _lcd(theta_next) != q_next:
                raise AssertionError("lowest common denominator mismatch")
            # the new shortest vector must be +-eps with the right sign
            lam1_sq, lam2_sq, _, _ = _lattice_minima(theta_next, q_next)
            if lam1_sq != Fraction(n2):
                continue
            if not 4 * lam1_sq <= lam2_sq <= 900 * lam1_sq:
                continue
            sign = 1 if n % 2 == 0 else -1
            if not (sign * eps[0] > 0 and sign * eps[1] > 0):
                raise AssertionError("quadrant sign violated")
            rec = StepRecord(
                n,
                gamma,
                alpha,
                k,
                ab_vec,
                p_lo,
                p_count,
                Fraction(n2, Q * Q),
                Fraction(1, n2),
                eps,
                q_next,
            )
            return BadConstructionState(
                n=n + 1,
                thetas=state.thetas + (theta_next,),
                q_list=state.q_list + (q_next,),
                eps_list=state.eps_list + (eps,),
                steps=state.steps + (rec,),
                columns=columns,
                certify_memo=state.certify_memo,
            )
        lo_sq = hi_sq
        hi_sq *= 4
        growth *= 2
    raise SearchLimitError(
        "x_search_bound=%d exhausted at n=%d" % (x_search_bound, n)
    )


@dataclass(frozen=True)
class CertifyReport:
    """Outcome of the independent re-verification at state n."""

    n: int
    conditions: dict
    lam1_sq: Fraction
    lam2_sq: Fraction
    vacuous: tuple[str, ...]
    scanned: bool


def _gap_route(theta: Pair, qs, gaps, last_gap) -> None:
    """Condition 1 by the gap minima: Q_0..Q_n are the best denominators
    of theta = theta_n iff their distances strictly decrease and no
    height in a gap (Q_{i-1}, Q_i) beats r_{i-1} = d(Q_{i-1} theta,
    Z^2)^2, a tie with r_{i-1} being no record.  ``gaps`` is column n of
    the tables, gaps[i-1] = (minimum, r_{i-1}) of gap i < n or None;
    last_gap(Q_{n-1}, Q_n) gives the last one."""
    n = len(gaps) + 1
    if len(qs) != n + 1:
        raise AssertionError("%d denominators for n = %d" % (len(qs), n))
    r = [_r_sq(theta, q) for q in qs]
    for i in range(1, n + 1):
        if not r[i] < r[i - 1]:
            raise AssertionError("distances fail to decrease at i=%d" % i)
        if i < n:
            gap = None if gaps[i - 1] is None else gaps[i - 1][0]
        else:
            gap = last_gap(qs[n - 1], qs[n])
        if gap is not None and gap < r[i - 1]:
            raise AssertionError(
                "gap (%d, %d) beats r_{i-1}: %s < %s"
                % (qs[i - 1], qs[i], gap, r[i - 1])
            )


def _chain_route(theta: Pair, qs, budget: int) -> None:
    """Condition 1 by the chain of theta's lattice: from the height-1
    record, step k goes to the successor of record Q_{k-1}, capped at
    height Q_k (core.chain_walker), and must land at height Q_k.

    This verifies the list without rediscovering it: a capped step
    answers the true successor when its height is at most the cap, and
    nothing otherwise.  So if Q_k is not the successor of Q_{k-1}, the
    step finds a lower successor, or none when the true one is higher,
    and the lists differ either way; the walk accepts exactly the list
    chain_engine((theta,), q_max=Q_n) returns.  A step from a terminal
    record finds nothing, so a list that goes on past one is rejected.
    """
    if qs[0] != 1:
        raise AssertionError("chain route disagrees with Q list at Q_0")
    step = chain_walker(LatticeBasis.from_theta((theta,)), budget=budget)
    y = (nearest_int(theta[0]), nearest_int(theta[1]), 1)
    for k in range(1, len(qs)):
        key, members = step(y, cap=qs[k] * qs[k])
        if key is None or key[0] != qs[k] * qs[k]:
            raise AssertionError("chain route disagrees with Q list at Q_%d" % k)
        y = members[0]


def certify(
    state: BadConstructionState,
    *,
    budget: int = 10**7,
) -> CertifyReport:
    """Re-verify the seven inductive conditions from the state's thetas,
    denominators Q_0..Q_n, eps_list and step records.

    Raises AssertionError with the offending datum on any violation.
    certify never reads step's columns: it checks only columns it built
    or stored itself.  Condition 1 has three routes to the denominator
    list, each able to reject a wrong list alone, run in this order:
    theta_n's chain capped step by step at the claimed heights
    (_chain_route), a direct scan while Q_n <= SCAN_CAP, and the gap
    minima (_gap_route: the tables' column n and the last gap).  The
    first two build no table column, so a wrong list is rejected by name
    before a column's gap searches, which on a wrong list can open gaps
    of ~10^12 heights and exhaust the budget, are run.

    Column j of the tables is a function of (theta_j, Q_0..Q_j, budget)
    alone, so columns j < n come from the lineage's certify_memo when
    that key is there, and are built and stored otherwise; column n is
    always built, and stored for the next state's certify.  Only certify
    writes the memo; step reads column n from it.  The memo also holds
    every gap certify searched, under (Q_{i-1}, Q_i, budget), so a
    lineage certified in order searches each gap once: gap i on
    theta_i, as state i's last gap, and every later column reads it off
    the heights that search kept (_carried_gap), unless its Lipschitz
    margin fails and the column searches it again.  A 12-step
    construction certified in order thus makes 13 gap searches and
    carries the other 78 gaps; its chain route makes one search per
    capped step, 91 in all.
    """
    n = state.n
    theta = state.theta
    qs = state.q_list
    conditions = {}
    vacuous = []
    if _lcd(theta) != qs[-1]:
        raise AssertionError("det invariant broken: lcd != Q_n")

    # condition 1: Q_0..Q_n are exactly the best denominators of theta_n
    if _r_sq(theta, qs[-1]) != 0:
        raise AssertionError("theta_n not terminal at its own denominator")
    _chain_route(theta, qs, budget)
    scanned = False
    if qs[-1] <= SCAN_CAP:
        recs = direct_scan((theta,), qs[-1])
        if tuple(int(r.Q[0]) for r in recs) != qs:
            raise AssertionError("direct scan disagrees with Q list")
        scanned = True
    # columns 1..n; column n holds the gaps i < n, and its search also
    # serves the last gap
    columns = []
    memo = state.certify_memo
    for j in range(1, n + 1):
        key = _column_key(state.thetas, qs, j, budget)
        column = memo.get(key) if j < n else None
        if column is None:
            column, gap_search = _column(state.thetas, qs, j, budget, memo, memo)
            memo[key] = column
        columns.append(column)
    gaps_n = columns[-1].M
    _gap_route(theta, qs, gaps_n, gap_search)
    conditions["best_denominators"] = True

    # condition 2: growth and recorded branching
    for j in range(1, n + 1):
        if not qs[j] > 2 * j * qs[j - 1]:
            raise AssertionError("growth fails at j=%d" % j)
    for rec in state.steps:
        if rec.p_count < 2:
            raise AssertionError("no branching at recorded step %d" % rec.n)
    conditions["growth_and_branching"] = True

    # condition 3 on column n, conditions 4-5 on columns 1..n-1
    if n >= 2:
        for i, ab in enumerate(gaps_n, 1):
            if ab is not None and not ab[0] > ab[1]:
                raise AssertionError("M_{%d,%d} <= 0" % (i, n))
        conditions["gap_minima_positive"] = True
    else:
        vacuous.append("gap_minima_positive")
    delta = (theta[0] - state.thetas[-2][0], theta[1] - state.thetas[-2][1])
    drift_sq = 64 * qs[-2] ** 2 * (delta[0] ** 2 + delta[1] ** 2)
    for name, label in (
        ("drift_below_gap_minima", "M"),
        ("drift_below_drop_minima", "m"),
    ):
        if not any(getattr(column, label) for column in columns[:-1]):
            vacuous.append(name)
            continue
        key = _drift_beats(drift_sq, columns[:-1], label)
        if key is not None:
            raise AssertionError("drift beats %s at %s" % (label, key))
        conditions[name] = True

    # conditions 6-7 on the lattice of theta_n
    eps = state.eps_list[-1]
    gam = (eps[0] * qs[-1], eps[1] * qs[-1])
    if gam[0].denominator != 1 or gam[1].denominator != 1:
        raise AssertionError("eps_{n-1} is not in the lattice")
    gam = (int(gam[0]), int(gam[1]))
    lam1_sq, lam2_sq, _, _ = _lattice_minima(theta, qs[-1])
    if Fraction(gam[0] ** 2 + gam[1] ** 2) != lam1_sq:
        raise AssertionError("eps_{n-1} is not a shortest vector")
    sign = 1 if (n - 1) % 2 == 0 else -1
    if not (sign * eps[0] > 0 and sign * eps[1] > 0):
        raise AssertionError("sign alternation violated at n=%d" % n)
    conditions["shortest_vector_sign"] = True
    if not 4 * lam1_sq <= lam2_sq <= 900 * lam1_sq:
        raise AssertionError(
            "second minimum ratio out of range: %s, %s" % (lam1_sq, lam2_sq)
        )
    conditions["second_minimum_ratio"] = True
    lam1_frac = lam1_sq / qs[-1] ** 2
    lam2_frac = lam2_sq / qs[-1] ** 2
    return CertifyReport(n, conditions, lam1_frac, lam2_frac, tuple(vacuous), scanned)


@dataclass(frozen=True)
class PrefixStats:
    """Exact prefix diagnostics of the separation: a = min q_i r_i^2
    should sink, b = min q_{i+1} r_i^2 should stay bounded away from 0."""

    n: int
    a: Fraction
    b: Fraction
    a_terms: tuple[Fraction, ...]
    b_terms: tuple[Fraction, ...]


def _prefix_stats(theta: Pair, qs: tuple[int, ...]) -> PrefixStats:
    """PrefixStats of theta over the denominators qs[0] < ... < qs[-1]."""
    a_terms = []
    b_terms = []
    for i in range(len(qs) - 1):
        r_sq = _r_sq(theta, qs[i])
        a_terms.append(qs[i] * r_sq)
        b_terms.append(qs[i + 1] * r_sq)
    return PrefixStats(
        len(qs) - 1, min(a_terms), min(b_terms), tuple(a_terms), tuple(b_terms)
    )


def prefix_statistics(state: BadConstructionState) -> PrefixStats:
    return _prefix_stats(state.theta, state.q_list)


def certificate(
    state: BadConstructionState, reports: tuple[CertifyReport, ...]
) -> dict:
    """JSON-ready payload: one row per certified index, every quantity an
    exact fraction string."""
    by_n = {rep.n: rep for rep in reports}
    recs = {rec.n + 1: rec for rec in state.steps}
    rows = []
    for idx in sorted(by_n):
        rep = by_n[idx]
        theta_idx = state.thetas[idx]
        row = {
            "n": idx,
            "theta": [str(theta_idx[0]), str(theta_idx[1])],
            "Q": state.q_list[idx],
            "conditions": dict(rep.conditions),
            "vacuous": list(rep.vacuous),
            "scanned": rep.scanned,
            "lam1_sq": str(rep.lam1_sq),
            "lam2_sq": str(rep.lam2_sq),
            "q_next_sq_r_fourth": str(
                (state.q_list[idx] * _r_sq(theta_idx, state.q_list[idx - 1])) ** 2
            ),
        }
        rec = recs.get(idx)
        if rec is not None:
            row["alpha"] = [str(rec.alpha[0]), str(rec.alpha[1])]
            row["k"] = rec.k
            row["p"] = rec.p
            row["p_count"] = rec.p_count
            row["eps"] = [str(rec.eps[0]), str(rec.eps[1])]
        stats = _prefix_stats(theta_idx, state.q_list[: idx + 1])
        row["prefix_min_q_r_sq"] = str(stats.a)
        row["prefix_min_qnext_r_sq"] = str(stats.b)
        rows.append(row)
    return {"d": 2, "c": 1, "steps": rows}
