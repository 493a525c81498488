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

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .core import (
    FLOW_BITS,
    Cylinder,
    LatticeBasis,
    LatticeVector,
    NonGenericLatticeError,
    SearchLimitError,
    _critical_ball,
    _kernel_vector,
    chain_walker,
    enumerate_in_cylinder,
    exact_sqrt,
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

    The two scale factors are evaluated as FLOW_BITS-bit floats and
    frozen to exact rationals; the result is tagged with that precision
    so later equality tests pick the matching tolerance (basis.tol).
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
    cols = tuple(
        tuple((fp if i < d else fm) * x for i, x in enumerate(col))
        for col in basis.columns
    )
    bits = FLOW_BITS
    if basis.precision_bits is not None:
        bits = min(bits, basis.precision_bits)
    return LatticeBasis(d, c, cols, basis.scale_sq, bits)


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
    None when x is vertical (resp. horizontal)."""
    walk = chain_walker(basis, budget=budget)

    def step(x: LatticeVector, forward: bool = True) -> Optional[list[LatticeVector]]:
        if (x.width_sq if forward else x.height_sq) == 0:
            return None
        key, members = walk(x.y, forward)
        if not members:
            raise SearchLimitError(
                "the Minkowski cylinder holds no chain neighbour"
            )
        o, n = key
        w, h = (n, o) if forward else (o, n)
        members.sort(key=lambda y: y[::-1])
        return [_kernel_vector(basis, y, w, h) for y in members]

    return step


def _anchor(basis: LatticeBasis, budget: int) -> list[LatticeVector]:
    """The chain class through a shortest mixed-norm vector."""
    svs = shortest_mixed_vectors(basis, budget=budget)
    lam_sq = svs[0].mixed_sq
    wide = [v for v in svs if v.width_sq == lam_sq]
    if wide:
        h_min = min(v.height_sq for v in wide)
        cls = [v for v in wide if v.height_sq == h_min]
    else:
        w_min = min(v.width_sq for v in svs)
        cls = [v for v in svs if v.width_sq == w_min]
    return sorted(cls, key=lambda v: v.y[::-1])


def _certify(basis: LatticeBasis, x: LatticeVector, budget: int) -> int:
    """Check that every lattice point of C(x) is cylinder-equal to x;
    returns the number of sign-canonical points found."""
    tol = basis.tol
    cands = enumerate_in_cylinder(
        basis, Cylinder(x.width_sq, x.height_sq), budget=budget
    )
    for v in cands:
        if not (
            sq_close(v.width_sq, x.width_sq, tol)
            and sq_close(v.height_sq, x.height_sq, tol)
        ):
            raise NonGenericLatticeError(
                "chain entry is not minimal: cylinder contains a "
                "strictly smaller vector"
            )
    return len(cands)


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

    A chain entry is certified by enumerating its cylinder and checking
    cylinder-equality of everything found.  Lattices whose chain order is
    ambiguous (exact or within-tolerance ties on the successor key) raise
    NonGenericLatticeError.
    """
    if count < 1:
        raise ValueError("count must be positive")
    step = _chain_stepper(basis, budget)
    tol = basis.tol
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

    def cond(i: int) -> bool:
        h = chain[i + 1][0].height_sq
        w = chain[i][0].width_sq
        return h > w or sq_close(h, w, tol)

    # walk backward to before the numbering transition
    for _ in range(10000):
        if len(chain) < 2:
            if not grow_forward():
                break
            continue
        if not cond(0):
            break
        if not grow_backward():
            break
    else:
        raise SearchLimitError("failed to locate the chain origin")

    # first index satisfying the condition is n = 0
    idx0 = None
    i = 0
    for _ in range(10000):
        while len(chain) < i + 2 and grow_forward():
            pass
        if len(chain) < i + 2:
            idx0 = max(len(chain) - 1, 0)
            break
        if cond(i):
            idx0 = i
            break
        i += 1
    if idx0 is None:
        raise SearchLimitError("failed to locate the chain origin")

    while idx0 < back and grow_backward():
        idx0 += 1
    while len(chain) - idx0 < count and grow_forward():
        pass

    entries = []
    for j, members in enumerate(chain):
        n = j - idx0
        if -back <= n < count:
            rep = members[0]
            if certify:
                size = _certify(basis, rep, budget)
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
    and n+1; t_prime[n] the time landing on S' at entry n.  ratio_sq
    holds the exact value of e^{2(d+c)t} for each time, suitable for
    apply_flow_log when a float time is too coarse."""

    t: tuple[tuple[int, float], ...]
    t_prime: tuple[tuple[int, float], ...]
    ratio_sq: tuple[tuple[int, Fraction], ...]
    ratio_sq_prime: tuple[tuple[int, Fraction], ...]


def visiting_times(chain: MinimalVectorChain, *, prec: int = 53) -> VisitingTimes:
    """Times ln(height(X_{n+1})/width(X_n))/(d+c) and
    ln(height(X_n)/width(X_n))/(d+c), from exact squared norms."""
    if len(chain.entries) < 2:
        raise ValueError("need a chain with at least two entries")
    m = chain.basis.d + chain.basis.c
    ts = []
    tps = []
    rs = []
    rps = []
    for a, b in zip(chain.entries, chain.entries[1:]):
        if b.n != a.n + 1:
            continue
        if a.vector.width_sq > 0 and b.vector.height_sq > 0:
            ratio = b.vector.height_sq / a.vector.width_sq
            val = ln_frac(ratio, prec) / (2 * m)
            ts.append((a.n, float(val)))
            rs.append((a.n, ratio))
    for a in chain.entries:
        if a.vector.width_sq > 0 and a.vector.height_sq > 0:
            ratio = a.vector.height_sq / a.vector.width_sq
            val = ln_frac(ratio, prec) / (2 * m)
            tps.append((a.n, float(val)))
            rps.append((a.n, ratio))
    return VisitingTimes(tuple(ts), tuple(tps), tuple(rs), tuple(rps))


# ---------------------------------------------------------------------------
# transversal membership


@dataclass(frozen=True)
class SurfaceMembership:
    member: bool
    reason: str
    lam1_sq: Fraction
    wide: Optional[LatticeVector] = None
    tall: Optional[LatticeVector] = None
    corner: Optional[LatticeVector] = None


def surface_membership_S(
    basis: LatticeBasis, *, budget: int = 10**7
) -> SurfaceMembership:
    """Membership on the two-short-vector transversal.

    True iff the closed critical ball contains exactly one wide pair
    (width = lambda_1, 0 < height < lambda_1) and one tall pair
    (height = lambda_1, 0 < width < lambda_1), all inequalities strict
    beyond the basis tolerance.
    """
    tol = basis.tol
    lam_sq, on = _critical_ball(basis, tol, budget)

    # the mixed norm of each vector on the ball is close to lambda_1, so
    # its width or its height is
    wide, tall, corner = [], [], []
    for v in on:
        at_w = sq_close(v.width_sq, lam_sq, tol)
        at_h = sq_close(v.height_sq, lam_sq, tol)
        if at_w and at_h:
            corner.append(v)
        elif at_w:
            wide.append(v)
        else:
            tall.append(v)
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
    tol = basis.tol
    lam_sq, on = _critical_ball(basis, tol, budget)
    corner = [
        v
        for v in on
        if sq_close(v.width_sq, lam_sq, tol) and sq_close(v.height_sq, lam_sq, tol)
    ]
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
    = e^{2(d+c) tau} of the return time tau.  The chain ends where X_1
    or X_2 is vertical; the flowed lattice would then be off S, so that
    raises NonGenericLatticeError."""
    mem = surface_membership_S(basis, budget=budget)
    if not mem.member:
        raise ValueError(f"lattice is not on the transversal: {mem.reason}")
    cls = _chain_stepper(basis, budget)(mem.tall)
    if cls is None:
        raise NonGenericLatticeError("tall short vector is vertical")
    x2 = cls[0]
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


def _sqrt_frac(x: Fraction, bits: int) -> Fraction:
    root = exact_sqrt(x)
    if root is not None:
        return root
    with mpmath.mp.workprec(bits):
        return frac_from_mpf(mpmath.sqrt(mpf_from_frac(x, bits)))


def surface_coordinates_1d(
    basis: LatticeBasis, *, budget: int = 10**7
) -> SurfacePoint1D:
    """Chart coordinates of a d=c=1 lattice on the transversal.

    x and y come from exact ratios of squared norms (the scale cancels),
    so for chart-built lattices the round trip is exact.
    """
    if (basis.d, basis.c) != (1, 1):
        raise ValueError("chart coordinates exist only for d = c = 1")
    mem = surface_membership_S(basis, budget=budget)
    if not mem.member:
        raise ValueError(f"lattice is not on the transversal: {mem.reason}")
    x_sq = mem.tall.width_sq / mem.wide.width_sq
    y_sq = mem.wide.height_sq / mem.tall.height_sq
    bits = FLOW_BITS if basis.precision_bits is None else basis.precision_bits
    x = _sqrt_frac(x_sq, bits)
    y = _sqrt_frac(y_sq, bits)
    eps = 1 if mem.wide.raw[0] * mem.wide.raw[1] > 0 else -1
    return SurfacePoint1D(x, y, eps)


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
    find the chain successor by enumeration, and re-extract coordinates
    from exact norm ratios.  Agrees with return_map_explicit_1d."""
    mem, x2, ratio_sq = _return_step(chart_lattice_1d(p), budget)
    x_sq = x2.width_sq / mem.tall.width_sq
    y_sq = mem.tall.height_sq / x2.height_sq
    x_next = exact_sqrt(x_sq)
    y_next = exact_sqrt(y_sq)
    if x_next is None or y_next is None:
        raise NonGenericLatticeError("chart ratios are not rational squares")
    eps_next = 1 if mem.tall.raw[0] * mem.tall.raw[1] > 0 else -1
    return SurfacePoint1D(x_next, y_next, eps_next), ratio_sq


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
    phi: float = 0.0


def chart_lattice_2d(p: SurfacePoint2D) -> LatticeBasis:
    cols = (
        (Fraction(1), Fraction(0), Fraction(p.n31)),
        (Fraction(p.n12), Fraction(p.n22), Fraction(1)),
        (Fraction(p.n13), Fraction(p.n23), Fraction(p.n33)),
    )
    return LatticeBasis(2, 1, cols)
