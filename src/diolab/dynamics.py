"""Diagonal-flow dynamics on lattices of R^d x R^c.

The flow g_t expands the first block by e^{ct} and contracts the second
by e^{-dt}.  This module walks minimal-vector chains, decides membership
on the two transversals (the two-short-vector surface S and the
corner-vector surface S'), computes visiting and first-return times, and
carries the explicit d=c=1 chart coordinates (x, y, eps) together with
the closed-form return map that serves as an oracle for the dynamical
one.

Chains are sequences of cylinder classes: sign-canonical vectors sharing
the same exact (width^2, height^2) are one entry.  The index convention
places n = 0 at the smallest n with |X_{n+1}|_- >= |X_n|_+.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath

from .core import (
    FLOW_BITS,
    LatticeBasis,
    LatticeVector,
    NonGenericLatticeError,
    _critical_ball,
    _cylinder_search,
    _kernel_vector,
    chain_walker,
    frac_from_mpf,
    ln_frac,
    mpf_from_frac,
    shortest_mixed_vectors,
    sq_close,
)

__all__ = [
    "apply_flow",
    "ChainEntry",
    "MinimalVectorChain",
    "minimal_vectors",
    "VisitingTimes",
    "visiting_times",
    "SurfaceMembership",
    "surface_membership_S",
    "surface_membership_Sprime",
    "FirstReturn",
    "first_return",
    "SurfacePoint1D",
    "chart_lattice_1d",
    "sample_surface_point_1d",
    "surface_coordinates_1d",
    "return_map_explicit_1d",
    "surface_first_return_1d",
    "SurfacePoint2D",
    "chart_lattice_2d",
    "apply_flow_log",
]


def apply_flow(basis: LatticeBasis, t) -> LatticeBasis:
    """Image of the basis under g_t.

    The two scale factors e^{ct} and e^{-dt} are evaluated as
    FLOW_BITS-bit floats and frozen to exact rationals.  The image keeps
    the basis's columns and scale_sq and stores the factors, multiplied
    into those of earlier flows (basis.flow), so no column is rebuilt
    and the kernel columns stay the parent's; a stored flow also sets
    the tolerance of decisions across the two blocks (basis.tol).
    """
    if t == 0:
        return basis
    d, c = basis.d, basis.c
    with mpmath.mp.workprec(FLOW_BITS):
        if isinstance(t, Fraction):
            tt = mpf_from_frac(t, FLOW_BITS)
        else:
            tt = mpmath.mpf(t)
        fp = frac_from_mpf(mpmath.exp(c * tt))
        fm = frac_from_mpf(mpmath.exp(-d * tt))
    if basis.flow is not None:
        fp, fm = fp * basis.flow[0], fm * basis.flow[1]
    return LatticeBasis(d, c, basis.columns, basis.scale_sq, (fp, fm))


def apply_flow_log(basis: LatticeBasis, ratio_sq: Fraction) -> LatticeBasis:
    """Flow by t = ln(ratio_sq)/(2(d+c)), keeping the time at full
    working precision.  Flow times produced by visiting_times or
    first_return are exactly of this form."""
    m = basis.d + basis.c
    with mpmath.mp.workprec(FLOW_BITS):
        t = ln_frac(ratio_sq, FLOW_BITS) / (2 * m)
    return apply_flow(basis, t)


# ---------------------------------------------------------------------------
# minimal-vector chains


@dataclass(frozen=True)
class ChainEntry:
    """One cylinder class of the chain; ``vector`` is the representative
    with lexicographically smallest reversed coordinate tuple."""

    n: int
    vector: LatticeVector
    class_size: int
    certified: bool


@dataclass(frozen=True)
class MinimalVectorChain:
    basis: LatticeBasis
    entries: tuple[ChainEntry, ...]
    backward_finite: bool
    forward_finite: bool

    def entry(self, n: int) -> ChainEntry:
        for e in self.entries:
            if e.n == n:
                return e
        raise KeyError(n)


def _chain_stepper(basis: LatticeBasis, budget: int):
    """Chain steps on ``basis`` through core.chain_walker.  ``step(x)``
    returns the successor class of the vector x and ``step(x,
    forward=False)`` its predecessor class, each sorted by reversed
    coordinates so that the first member is the class representative;
    None when x is vertical (resp. horizontal).  x is a chain member, so
    its neighbour lies in the Minkowski cylinder the walker searches
    (w(X_n)^d h(X_{n+1})^c <= C det) and an empty search is a fault."""
    walk = chain_walker(basis, budget=budget)

    def step(x: LatticeVector, forward: bool = True) -> Optional[list[LatticeVector]]:
        if (x.width_sq if forward else x.height_sq) == 0:
            return None
        key, members = walk(x.y, forward)
        if not members:
            raise AssertionError("the Minkowski cylinder holds no chain neighbour")
        o, n = key
        w, h = (n, o) if forward else (o, n)
        members.sort(key=lambda y: y[::-1])
        return [_kernel_vector(basis, y, w, h) for y in members]

    return step


def _anchor(basis: LatticeBasis, budget: int) -> list[LatticeVector]:
    """The class of smallest (height^2, width^2) among the shortest
    mixed-norm vectors: the wide class when the critical ball holds one,
    else the narrowest of the rest.  It is a relative minimum: a vector
    no wider and no taller has mixed norm lambda_1, so it lies on the
    ball, and the key's minimality makes it cylinder-equal."""
    svs = shortest_mixed_vectors(basis, budget=budget)
    key = min((v.height_sq, v.width_sq) for v in svs)
    cls = [v for v in svs if (v.height_sq, v.width_sq) == key]
    return sorted(cls, key=lambda v: v.y[::-1])


def _certify(
    search: Callable[[int, int], tuple], basis: LatticeBasis, x: LatticeVector
) -> int:
    """Check that every lattice point of C(x) is cylinder-equal to x;
    returns the number of sign-canonical points found.  ``search`` is a
    warm-started cylinder search on basis (core._cylinder_search), and
    the radii are x's own squared width and height in the integer units
    of basis.kernel.  Widths are compared with widths and heights with
    heights, as integers, so the test is exact on every basis, flowed
    ones included (see core.chain_walker); no coordinates are built."""
    _, (unit_w, unit_h), _ = basis.kernel
    key = (math.floor(x.width_sq * unit_w), math.floor(x.height_sq * unit_h))
    points, _ = search(*key)
    if any((w, h) != key for w, h, _ in points):
        raise NonGenericLatticeError(
            "chain entry is not minimal: cylinder contains a "
            "strictly smaller vector"
        )
    return len(points)


def minimal_vectors(
    basis: LatticeBasis,
    count: int,
    *,
    back: int = 0,
    certify: bool = True,
    budget: int = 10**7,
) -> MinimalVectorChain:
    """``count`` consecutive chain entries from index 0 on, plus ``back``
    entries below 0 when the chain extends that far.

    X_0 is the first class X_n meeting the origin test height(X_{n+1})
    >= width(X_n), within basis.tol.  The anchor A (_anchor) meets it:
    its successor is narrower than A, so narrower than lambda_1, so at
    least lambda_1 tall.  Along the chain the test only gains, since
    heights grow and widths shrink and sq_close's relative slack keeps
    that order.  So X_0 follows the first predecessor of A failing the
    test, and is the chain's first class when none fails; a walk back
    from A finds it.  With no successor A is X_0 and no walk is made.

    A chain entry is certified by enumerating its cylinder and checking
    cylinder-equality of everything found; a cylinder holding a strictly
    smaller vector raises NonGenericLatticeError.  The entries share one
    cylinder search, each warm-started from the reduction the previous
    one left.  The steps and the certificate are exact; only the origin
    test, which compares a height with a width, uses basis.tol.
    """
    if count < 1:
        raise ValueError("count must be positive")
    step = _chain_stepper(basis, budget)
    chain: deque[list[LatticeVector]] = deque([_anchor(basis, budget)])
    backward_finite = forward_finite = False

    def grow_forward() -> bool:
        nonlocal forward_finite
        if forward_finite:
            return False
        nxt = step(chain[-1][0])
        if nxt is None:
            forward_finite = True
            return False
        chain.append(nxt)
        return True

    def grow_backward() -> bool:
        nonlocal backward_finite
        if backward_finite:
            return False
        prv = step(chain[0][0], forward=False)
        if prv is None:
            backward_finite = True
            return False
        chain.appendleft(prv)
        return True

    idx0 = 0
    if grow_forward():
        while grow_backward():
            h, w = chain[1][0].height_sq, chain[0][0].width_sq
            if not (h > w or sq_close(h, w, basis.tol)):
                idx0 = 1
                break
    while idx0 < back and grow_backward():
        idx0 += 1
    while len(chain) - idx0 < count and grow_forward():
        pass

    entries = []
    search = _cylinder_search(basis, budget)
    for j, members in enumerate(chain):
        n = j - idx0
        if -back <= n < count:
            rep = members[0]
            if certify:
                size = _certify(search, basis, rep)
            else:
                size = len(members)
            entries.append(ChainEntry(n, rep, size, certify))
    # a vertical last (horizontal first) entry ends the chain unsearched
    backward_finite |= chain[0][0].height_sq == 0
    forward_finite |= chain[-1][0].width_sq == 0
    return MinimalVectorChain(
        basis, tuple(entries), backward_finite, forward_finite
    )


@dataclass(frozen=True)
class VisitingTimes:
    """t[n] is the flow time taking the lattice onto S between entries n
    and n+1.  ratio_sq holds the exact value of e^{2(d+c)t} for each
    time, suitable for apply_flow_log when a float time is too coarse;
    ratio_sq_prime[n] that of the time landing on S' at entry n."""

    t: tuple[tuple[int, float], ...]
    ratio_sq: tuple[tuple[int, Fraction], ...]
    ratio_sq_prime: tuple[tuple[int, Fraction], ...]


def visiting_times(chain: MinimalVectorChain) -> VisitingTimes:
    """Times ln(height(X_{n+1})/width(X_n))/(d+c) and the exact ratios
    height(X_n)^2/width(X_n)^2 of the times onto S', from exact squared
    norms."""
    if len(chain.entries) < 2:
        raise ValueError("need a chain with at least two entries")
    m = chain.basis.d + chain.basis.c
    ts = []
    rs = []
    rps = []
    for a, b in zip(chain.entries, chain.entries[1:]):
        if b.n != a.n + 1:
            continue
        if a.vector.width_sq > 0 and b.vector.height_sq > 0:
            ratio = b.vector.height_sq / a.vector.width_sq
            val = ln_frac(ratio, 53) / (2 * m)
            ts.append((a.n, float(val)))
            rs.append((a.n, ratio))
    for a in chain.entries:
        if a.vector.width_sq > 0 and a.vector.height_sq > 0:
            rps.append((a.n, a.vector.height_sq / a.vector.width_sq))
    return VisitingTimes(tuple(ts), tuple(rs), tuple(rps))


# ---------------------------------------------------------------------------
# transversal membership


@dataclass(frozen=True)
class SurfaceMembership:
    """Membership of a lattice on S or S' and why it fails.  ``lam1_sq``
    is lambda_1^2 of the mixed norm in physical units.  On a flowed
    basis it is exact for the lattice scaled by the frozen flow factors
    (LatticeBasis.flow), which is the flowed lattice only up to the
    relative tolerance LatticeBasis.tol."""

    member: bool
    reason: str
    lam1_sq: Fraction
    wide: Optional[LatticeVector] = None
    tall: Optional[LatticeVector] = None
    corner: Optional[LatticeVector] = None


def _critical_classes(
    basis: LatticeBasis, budget: int
) -> tuple[
    Fraction,
    list[LatticeVector],
    list[LatticeVector],
    list[LatticeVector],
    list[LatticeVector],
]:
    """lambda_1^2, the vectors on the closed critical ball, and those
    among them that are wide (width at lambda_1), tall (height at
    lambda_1) or corner (both).  lambda_1 may be a width or a height,
    so each test compares the two blocks and holds within basis.tol;
    _critical_ball makes it on the integers of basis.kernel and hands
    each vector's two flags over.  With minimal_vectors' origin test
    these are the only decisions that use a tolerance."""
    lam_sq, on = _critical_ball(basis, basis.tol, budget)
    wide, tall, corner = [], [], []
    for v, at_w, at_h in on:
        if at_w and at_h:
            corner.append(v)
        elif at_w:
            wide.append(v)
        elif at_h:
            tall.append(v)
        else:
            # the mixed norm of a vector on the ball is within tol of
            # lambda_1^2, and it is the width or the height
            raise AssertionError("a vector on the critical ball is neither wide nor tall")
    return lam_sq, [v for v, _, _ in on], wide, tall, corner


def surface_membership_S(
    basis: LatticeBasis, *, budget: int = 10**7
) -> SurfaceMembership:
    """Membership on the two-short-vector transversal.

    True iff the closed critical ball contains exactly one wide pair
    (width = lambda_1, 0 < height < lambda_1) and one tall pair
    (height = lambda_1, 0 < width < lambda_1), all inequalities strict
    beyond the basis tolerance.
    """
    lam_sq, on, wide, tall, corner = _critical_classes(basis, budget)
    if corner:
        return SurfaceMembership(
            False, "corner vector on the critical ball", lam_sq, corner=corner[0]
        )
    if len(on) != 2 or len(wide) != 1 or len(tall) != 1:
        return SurfaceMembership(
            False,
            f"critical ball holds {len(on)} vector pairs "
            f"({len(wide)} wide, {len(tall)} tall)",
            lam_sq,
        )
    v0, v1 = wide[0], tall[0]
    if v0.height_sq == 0 or v1.width_sq == 0:
        return SurfaceMembership(
            False, "degenerate short vector on a coordinate block", lam_sq, v0, v1
        )
    return SurfaceMembership(True, "", lam_sq, v0, v1)


def surface_membership_Sprime(
    basis: LatticeBasis, *, budget: int = 10**7
) -> SurfaceMembership:
    """True iff the critical ball is the cylinder of a single corner pair
    with width = height = lambda_1."""
    lam_sq, on, _, _, corner = _critical_classes(basis, budget)
    if len(on) == 1 and len(corner) == 1:
        return SurfaceMembership(True, "", lam_sq, corner=corner[0])
    return SurfaceMembership(
        False,
        f"critical ball holds {len(on)} vector pairs ({len(corner)} corner)",
        lam_sq,
    )


# ---------------------------------------------------------------------------
# first return


@dataclass(frozen=True)
class FirstReturn:
    tau: float
    ratio_sq: Fraction
    basis_after: LatticeBasis
    vector: LatticeVector
    rho_star: float
    membership: SurfaceMembership


def _return_step(
    basis: LatticeBasis, budget: int
) -> tuple[SurfaceMembership, LatticeVector, Fraction]:
    """Membership of ``basis`` on S, the chain successor X_2 of its tall
    short vector X_1, and the exact ratio height(X_2)^2 / width(X_1)^2
    = e^{2(d+c) tau} of the return time tau.  Membership makes X_1 a
    relative minimum of nonzero width, so X_2 exists; the chain ends
    where X_2 is vertical, the flowed lattice would then be off S, and
    that raises NonGenericLatticeError."""
    mem = surface_membership_S(basis, budget=budget)
    if not mem.member:
        raise ValueError(f"lattice is not on the transversal: {mem.reason}")
    x2 = _chain_stepper(basis, budget)(mem.tall)[0]
    if x2.width_sq == 0:
        raise NonGenericLatticeError("successor of the tall short vector is vertical")
    return mem, x2, x2.height_sq / mem.tall.width_sq


def first_return(basis: LatticeBasis, *, budget: int = 10**7) -> FirstReturn:
    """Flow time to the next visit of S and the flowed basis.

    tau = ln(height(X_2)/width(X_1))/(d+c) where X_1 is the tall short
    vector and X_2 its chain successor; ratio_sq = e^{2(d+c) tau} is kept
    exact.  rho_star = ln(width(v_0)/width(v_1)) is the part of the
    return-time identity readable before the flow.
    """
    mem, x2, ratio_sq = _return_step(basis, budget)
    m = basis.d + basis.c
    tau = float(ln_frac(ratio_sq, 53)) / (2 * m)
    rho_star = float(ln_frac(mem.wide.width_sq / mem.tall.width_sq, 53) / 2)
    basis_after = apply_flow_log(basis, ratio_sq)
    return FirstReturn(tau, ratio_sq, basis_after, x2, rho_star, mem)


# ---------------------------------------------------------------------------
# explicit d=c=1 charts


@dataclass(frozen=True)
class SurfacePoint1D:
    """Chart coordinates on the d=c=1 transversal: the lattice is spanned
    by (1, eps*y) and (-eps*x, 1), scaled by (1+xy)^(-1/2)."""

    x: Fraction
    y: Fraction
    eps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        if not (0 < self.x < 1 and 0 < self.y < 1):
            raise ValueError("chart coordinates must lie in (0,1)")
        if self.eps not in (-1, 1):
            raise ValueError("eps must be +-1")


def chart_lattice_1d(p: SurfacePoint1D) -> LatticeBasis:
    cols = (
        (Fraction(1), p.eps * p.y),
        (-p.eps * p.x, Fraction(1)),
    )
    return LatticeBasis(1, 1, cols, scale_sq=1 + p.x * p.y)


def sample_surface_point_1d(rng: random.Random, bits: int = 53) -> SurfacePoint1D:
    """Chart point with x, y uniform on the nonzero multiples of 2^-bits
    in (0, 1) and a fair sign."""
    if bits < 1:
        raise ValueError("bits must be positive")

    def draw() -> Fraction:
        while True:
            v = rng.getrandbits(bits)
            if v:
                return Fraction(v, 1 << bits)

    return SurfacePoint1D(draw(), draw(), 1 if rng.getrandbits(1) else -1)


def _chart_point(wide: LatticeVector, tall: LatticeVector) -> SurfacePoint1D:
    """Chart point of the d=c=1 lattice whose wide and tall short vectors
    are ``wide`` and ``tall``: x = |tall / wide| on the first coordinate,
    y = |wide / tall| on the second, eps the sign of wide's two
    coordinates.  Each ratio compares one block of two vectors, so the
    scale and every frozen flow factor cancel in the raw coordinates and
    the point is exact on chart and flowed lattices alike."""
    x = abs(tall.raw[0] / wide.raw[0])
    y = abs(wide.raw[1] / tall.raw[1])
    return SurfacePoint1D(x, y, 1 if wide.raw[0] * wide.raw[1] > 0 else -1)


def surface_coordinates_1d(
    basis: LatticeBasis, *, budget: int = 10**7
) -> SurfacePoint1D:
    """Chart coordinates of a d=c=1 lattice on the transversal, read
    exactly off its two short vectors (_chart_point), on chart-built and
    flowed lattices alike."""
    if (basis.d, basis.c) != (1, 1):
        raise ValueError("chart coordinates exist only for d = c = 1")
    mem = surface_membership_S(basis, budget=budget)
    if not mem.member:
        raise ValueError(f"lattice is not on the transversal: {mem.reason}")
    return _chart_point(mem.wide, mem.tall)


def return_map_explicit_1d(
    p: SurfacePoint1D,
) -> tuple[SurfacePoint1D, Fraction]:
    """Closed-form return map (x, y, eps) -> ({1/x}, 1/(y+floor(1/x)), -eps)
    together with the exact squared expansion ratio e^{2(d+c) tau}."""
    a = p.x.denominator // p.x.numerator
    x_next = Fraction(p.x.denominator - a * p.x.numerator, p.x.numerator)
    if x_next == 0:
        raise NonGenericLatticeError("rational x fell on the chart boundary")
    y_next = 1 / (p.y + a)
    ratio = (p.y + a) / p.x
    return SurfacePoint1D(x_next, y_next, -p.eps), ratio * ratio


def surface_first_return_1d(
    p: SurfacePoint1D, *, budget: int = 10**7
) -> tuple[SurfacePoint1D, Fraction]:
    """Dynamical route to the next chart point: build the chart lattice,
    find the chain successor by enumeration, and read the chart point of
    the flowed lattice, whose wide and tall short vectors are the tall
    vector and its successor (_chart_point).  Agrees with
    return_map_explicit_1d."""
    mem, x2, ratio_sq = _return_step(chart_lattice_1d(p), budget)
    return _chart_point(mem.tall, x2), ratio_sq


# ---------------------------------------------------------------------------
# d=2, c=1 chart


@dataclass(frozen=True)
class SurfacePoint2D:
    """Free parameters of the d=2, c=1 transversal chart: the lattice is
    spanned by (1, 0, n31), (n12, n22, 1), (n13, n23, n33).  A horizontal
    rotation angle phi completes the parametrization but changes no block
    norm, so membership and density do not depend on it."""

    n12: Fraction
    n22: Fraction
    n13: Fraction
    n23: Fraction
    n31: Fraction
    n33: Fraction


def chart_lattice_2d(p: SurfacePoint2D) -> LatticeBasis:
    cols = (
        (Fraction(1), Fraction(0), Fraction(p.n31)),
        (Fraction(p.n12), Fraction(p.n22), Fraction(1)),
        (Fraction(p.n13), Fraction(p.n23), Fraction(p.n33)),
    )
    return LatticeBasis(2, 1, cols)
