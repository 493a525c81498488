"""Exact geometry core: mixed norms, cylinders, lattice bases, LLL
reduction, Fincke-Pohst enumeration, the Lagrange-Gauss plane search
and Minkowski bounds.

Scalars are exact :class:`fractions.Fraction`s, except in the integer
kernel (LLL, Fincke-Pohst and Lagrange-Gauss), which is integer-only:
Fincke-Pohst decides its ranges on fixed-point integer intervals and
falls back to exact integers where an interval cannot decide, with no
float anywhere.
mpmath supplies arbitrary-precision floats for logarithms, flow factors
and display, but every decision made here (containment, minimality,
ties) reduces to comparisons of exact squared norms.  Irrational
constants enter only through certified rational bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import isqrt
from operator import mul
from typing import Callable, Optional, Sequence

import mpmath

__all__ = [
    "BudgetExceededError",
    "NonGenericLatticeError",
    "SingularBasisError",
    "SearchLimitError",
    "FLOW_BITS",
    "GUARD_BITS",
    "LLL_DELTA",
    "sq_close",
    "Cylinder",
    "LatticeBasis",
    "LatticeVector",
    "minkowski_bound_sq_range",
    "minkowski_leq",
    "a_safe",
    "nearest_int",
    "frac_from_mpf",
    "mpf_from_frac",
    "ln_frac",
    "canonical_sign",
    "lll_columns",
    "fp_enumerate",
    "chain_walker",
    "enumerate_in_cylinder",
    "shortest_mixed_vectors",
]


class BudgetExceededError(RuntimeError):
    """An enumeration or scan exceeded its node budget."""


class NonGenericLatticeError(ValueError):
    """A decision required by the computation is ambiguous: two lattice
    vectors tie where the underlying theory assumes a strict inequality."""


class SingularBasisError(ValueError):
    """Basis columns are linearly dependent."""


class SearchLimitError(RuntimeError):
    """A growing search exhausted its expansion limit without an answer."""


# ---------------------------------------------------------------------------
# scalar helpers


def nearest_int(x: Fraction) -> int:
    """Nearest integer to ``x``, halves rounded down (toward -inf)."""
    return (2 * x.numerator + x.denominator - 1) // (2 * x.denominator)


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative argument")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def frac_from_mpf(x: "mpmath.mpf") -> Fraction:
    """Exact rational value of a finite mpf."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    man = int(man)  # gmpy backend hands out mpz
    exp = int(exp)
    if man == 0:
        if exp != 0:
            raise ValueError("non-finite value")
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def mpf_from_frac(x: Fraction, prec: int = 53) -> "mpmath.mpf":
    with mpmath.mp.workprec(prec):
        return mpmath.mpf(x.numerator) / x.denominator


def ln_frac(x: Fraction, prec: int = 53) -> "mpmath.mpf":
    """log(x) for positive rational x of arbitrary magnitude."""
    if x <= 0:
        raise ValueError("log of nonpositive value")
    with mpmath.mp.workprec(prec + 10):
        return mpmath.log(mpmath.mpf(x.numerator)) - mpmath.log(
            mpmath.mpf(x.denominator)
        )


def _pi_bounds(prec: int) -> tuple[Fraction, Fraction]:
    with mpmath.mp.workprec(prec):
        p = +mpmath.mp.pi
    v = frac_from_mpf(p)
    slack = Fraction(1, 1 << (prec - 10))
    return v - slack, v + slack


PI_LO, PI_HI = _pi_bounds(200)


@cache
def _ball_volume(k: int) -> tuple[Fraction, int]:
    """Unit-ball volume V_k = coeff * pi**pi_pow as (coeff, pi_pow), from
    V_0 = 1, V_1 = 2 and V_k = (2 pi / k) V_{k-2}."""
    coeff, pi_pow = Fraction(1 + k % 2), 0
    for j in range(2 + k % 2, k + 1, 2):
        coeff, pi_pow = coeff * Fraction(2, j), pi_pow + 1
    return coeff, pi_pow


@cache
def minkowski_bound_sq_range(
    d: int, c: int, prec: int = 200
) -> tuple[Fraction, Fraction]:
    """Certified rational bounds (lo, hi) on the square of the Minkowski
    constant; lo == hi exactly when the constant is rational.  Cached:
    the result depends only on (d, c, prec)."""
    cd, pd = _ball_volume(d)
    cc, pc = _ball_volume(c)
    rat = Fraction(2 ** (d + c)) / (cd * cc)
    p = pd + pc
    if p == 0:
        return rat * rat, rat * rat
    lo_pi, hi_pi = (PI_LO, PI_HI) if prec == 200 else _pi_bounds(prec)
    return rat * rat / hi_pi ** (2 * p), rat * rat / lo_pi ** (2 * p)


def minkowski_leq(value_sq: Fraction, d: int, c: int) -> bool:
    """Exact decision of value <= C_{d,c} given value**2, escalating the
    precision of the pi bounds until the comparison is unambiguous."""
    prec = 200
    while prec <= 4000:
        lo, hi = minkowski_bound_sq_range(d, c, prec)
        if value_sq <= lo:
            return True
        if value_sq > hi:
            return False
        prec *= 2
    raise NonGenericLatticeError(
        "value coincides with the Minkowski constant beyond 4000 bits"
    )


def a_safe(d: int, c: int) -> int:
    """Safe cap on the number of sign-canonical lattice points a minimal
    vector's cylinder can contain in any chain step."""

    def n_of(k: int) -> int:
        ceil_sqrt = isqrt(k - 1) + 1 if k > 0 else 0
        return (4 * ceil_sqrt + 1) ** k

    return n_of(d) * n_of(c) + 1


# ---------------------------------------------------------------------------
# tolerance of approximate lattices

# Flow factors are computed as FLOW_BITS-bit floats and frozen to exact
# rationals; squared norms of a flowed basis count as equal up to the
# relative tolerance 2**-(FLOW_BITS - GUARD_BITS) (LatticeBasis.tol).
FLOW_BITS = 128
GUARD_BITS = 16


def sq_close(a: Fraction, b: Fraction, tol: Fraction) -> bool:
    """Equality of squared norms up to the relative tolerance ``tol``,
    with 1 as the floor of the scale; exact equality when tol = 0."""
    return abs(a - b) <= tol * max(abs(a), abs(b), Fraction(1))


# ---------------------------------------------------------------------------
# ambient objects


@dataclass(frozen=True)
class Cylinder:
    """Product B_d(0, r_plus) x B_c(0, r_minus), stored via squared radii."""

    r_plus_sq: Fraction
    r_minus_sq: Fraction

    def contains_sq(self, width_sq: Fraction, height_sq: Fraction) -> bool:
        return width_sq <= self.r_plus_sq and height_sq <= self.r_minus_sq


@dataclass(frozen=True)
class LatticeVector:
    """Lattice point with exact physical squared norms.

    ``y`` are integer coordinates in the originating basis; ``raw`` are
    ambient coordinates, each block times its flow factor, before
    division by sqrt(scale_sq) of the basis.
    """

    y: tuple[int, ...]
    raw: tuple[Fraction, ...]
    width_sq: Fraction
    height_sq: Fraction

    @property
    def mixed_sq(self) -> Fraction:
        return max(self.width_sq, self.height_sq)


@cache
def _sign_order(d: int, m: int) -> tuple[int, ...]:
    """canonical_sign's scan order on R^d x R^(m-d): the minus block,
    then the plus block."""
    return tuple(range(d, m)) + tuple(range(d))


def canonical_sign(y: Sequence[int], d: int) -> tuple[int, ...]:
    """Flip the sign of y so its first nonzero entry, scanning the minus
    block before the plus block, is positive."""
    for i in _sign_order(d, len(y)):
        t = y[i]
        if t > 0:
            return tuple(y)
        if t < 0:
            return tuple(-t for t in y)
    return tuple(y)


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank basis of a lattice in R^d x R^c.

    ``columns[j]`` lists the ambient coordinates of the j-th basis vector
    before division by sqrt(scale_sq); keeping the scale factored out lets
    chart lattices with irrational normalization stay exact.
    ``flow`` is None for an unflowed basis and otherwise the frozen
    factors (e^{ct}, e^{-dt}) of every flow applied to it, multiplied
    together: the lattice is that of ``columns`` with the width block
    times the first and the height block times the second.  A flowed
    basis keeps its parent's columns and scale_sq; its frozen factors
    set ``tol``.  ``kernel`` and ``kernel_minkowski_sq`` are the basis
    in the integer units of the lattice kernel, each computed once on
    first use.
    """

    d: int
    c: int
    columns: tuple[tuple[Fraction, ...], ...]
    scale_sq: Fraction = Fraction(1)
    flow: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self) -> None:
        m = self.d + self.c
        if len(self.columns) != m or any(len(col) != m for col in self.columns):
            raise ValueError("need d+c columns of length d+c")
        # columns that are already Fractions stay the same object, so a
        # flowed basis shares its parent's
        if type(self.columns) is not tuple or any(
            type(col) is not tuple or any(type(t) is not Fraction for t in col)
            for col in self.columns
        ):
            object.__setattr__(
                self,
                "columns",
                tuple(tuple(Fraction(t) for t in col) for col in self.columns),
            )
        object.__setattr__(self, "scale_sq", Fraction(self.scale_sq))
        if self.scale_sq <= 0:
            raise ValueError("scale_sq must be positive")
        if self.flow is not None:
            object.__setattr__(self, "flow", tuple(Fraction(f) for f in self.flow))
            if len(self.flow) != 2 or min(self.flow) <= 0:
                raise ValueError("flow needs two positive factors")

    @property
    def m(self) -> int:
        return self.d + self.c

    @classmethod
    def identity(cls, d: int, c: int) -> "LatticeBasis":
        m = d + c
        cols = tuple(
            tuple(Fraction(1 if i == j else 0) for i in range(m)) for j in range(m)
        )
        return cls(d, c, cols)

    @classmethod
    def from_theta(cls, theta: Sequence[Sequence[Fraction]]) -> "LatticeBasis":
        """Basis mapping integer (P, Q) to (P - theta Q, Q); ``theta`` is a
        list of c columns of length d."""
        c = len(theta)
        d = len(theta[0])
        m = d + c
        cols = []
        for i in range(d):
            cols.append(tuple(Fraction(1 if r == i else 0) for r in range(m)))
        for j in range(c):
            col = [-Fraction(theta[j][i]) for i in range(d)]
            col += [Fraction(1 if r == j else 0) for r in range(c)]
            cols.append(tuple(col))
        return cls(d, c, tuple(cols))

    def vector(self, y: Sequence[int]) -> LatticeVector:
        m = self.m
        raw = [Fraction(0)] * m
        for j, yj in enumerate(y):
            if yj:
                col = self.columns[j]
                for i in range(m):
                    raw[i] += yj * col[i]
        if self.flow is not None:
            fp, fm = self.flow
            raw = [t * (fp if i < self.d else fm) for i, t in enumerate(raw)]
        wsq = sum((t * t for t in raw[: self.d]), Fraction(0)) / self.scale_sq
        hsq = sum((t * t for t in raw[self.d :]), Fraction(0)) / self.scale_sq
        return LatticeVector(tuple(y), tuple(raw), wsq, hsq)

    def det_raw(self) -> Fraction:
        """Determinant of the raw column matrix, flow factors included."""
        m = self.m
        a = [[self.columns[j][i] for j in range(m)] for i in range(m)]
        det = Fraction(1)
        for k in range(m):
            piv = None
            for r in range(k, m):
                if a[r][k] != 0:
                    piv = r
                    break
            if piv is None:
                return Fraction(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                det = -det
            det *= a[k][k]
            inv = a[k][k]
            for r in range(k + 1, m):
                if a[r][k] != 0:
                    f = a[r][k] / inv
                    for s in range(k, m):
                        a[r][s] -= f * a[k][s]
        if self.flow is not None:
            fp, fm = self.flow
            det *= fp**self.d * fm**self.c
        return det

    def det_sq(self) -> Fraction:
        """Squared covolume of the physical lattice."""
        dr = self.det_raw()
        return dr * dr / self.scale_sq ** self.m

    @property
    def tol(self) -> Fraction:
        """Relative tolerance of sq_close on this basis's squared norms:
        0 for exact data, 2**-(FLOW_BITS - GUARD_BITS) once a frozen
        flow factor enters."""
        if self.flow is None:
            return Fraction(0)
        return Fraction(1, 1 << (FLOW_BITS - GUARD_BITS))

    @cached_property
    def kernel(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        """The basis in the integer units of the lattice kernel.

        Each block of ``columns``, rows [:d] (width) and rows [d:]
        (height), is cleared of its own denominators, L_b the least
        common one, and then divided by its content g_b, the gcd of all
        its entries, so that the integer block is s_b = L_b / (g_b f_b)
        times the raw one, f_b the block's flow factor (1 unflowed).  A
        flow thus changes only s_b, never the integer columns.  A
        physical squared norm of block b is the integer one divided by
        the block's unit s_b^2 * scale_sq; this is the one place that
        convention is computed.  Returns (integer columns, (unit_w,
        unit_h), (s_w, s_h)).
        """
        d, m = self.d, self.m
        blocks = []
        scales = []
        for f, rows in zip(self.flow or (1, 1), (slice(0, d), slice(d, m))):
            ints, den = _int_columns([col[rows] for col in self.columns])
            g = math.gcd(*(t for col in ints for t in col))
            if g == 0:
                raise SingularBasisError("degenerate basis")
            blocks.append([tuple(t // g for t in col) for col in ints])
            scales.append(Fraction(den, g) / f)
        cols = tuple(w + h for w, h in zip(*blocks))
        units = (scales[0] ** 2 * self.scale_sq, scales[1] ** 2 * self.scale_sq)
        return cols, units, (scales[0], scales[1])

    @cached_property
    def kernel_minkowski_sq(self) -> Fraction:
        """C_{d,c}^2 det^2 in the integer units of ``kernel``: c_sq_hi
        times the Gram determinant of its columns.  Divided by unit_w^d
        unit_h^c it is the certified upper bound on the product
        width^(2d) height^(2c) of the chain neighbours, and on
        lambda_1^(2m) for the mixed norm, in physical units, with no
        Fraction elimination.  Raises SingularBasisError on dependent
        columns."""
        dd, _ = _int_gso(self.kernel[0])
        _, c_sq_hi = minkowski_bound_sq_range(self.d, self.c)
        return c_sq_hi * dd[-1]


# ---------------------------------------------------------------------------
# integer-column kernel: LLL and Fincke-Pohst


def _int_gso(
    cols: Sequence[Sequence[int]],
) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data of integer columns (Cohen, Alg. 2.6.7):
    dd[i] is the Gram determinant of the first i columns (dd[0] = 1) and
    lam[i][j] = dd[j+1] * mu_ij for j < i, all exact integers."""
    m = len(cols)
    dd = [1] * (m + 1)
    lam: list[list[int]] = []
    for i in range(m):
        row: list[int] = []
        for j in range(i + 1):
            lj = row if j == i else lam[j]
            s = sum(map(mul, cols[i], cols[j]))
            for t in range(j):
                s = (dd[t + 1] * s - row[t] * lj[t]) // dd[t]
            row.append(s)
        dd[i + 1] = row.pop()
        if dd[i + 1] <= 0:
            raise SingularBasisError("dependent columns")
        lam.append(row)
    return dd, lam


# Lovasz parameter of lll_columns
LLL_DELTA = Fraction(99, 100)


def lll_columns(
    cols: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], tuple[list[int], list[list[int]]]]:
    """LLL-reduce integer columns; returns (reduced columns, transform U,
    (dd, lam)) with reduced = original . U, U unimodular (columns
    convention) and (dd, lam) == _int_gso(reduced): the integral
    Gram-Schmidt data the loop keeps exact, for fp_enumerate's ``gso``.
    Size reduction is stale-mu: a pass takes every r_j =
    round-half-up(lam_kj / dd[j+1]) from the row before it, so only
    |mu_{k,k-1}| <= 1/2 is guaranteed.  Lovasz with LLL_DELTA = p/q:
    q (dd[k+1] dd[k-1] + lam_{k,k-1}^2) >= p dd[k]^2.  Raises
    SingularBasisError on dependent columns."""
    m = len(cols)
    b = [list(col) for col in cols]
    u = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    dd, lam = _int_gso(b)
    p, q = LLL_DELTA.numerator, LLL_DELTA.denominator
    k = 1
    rounds = 0
    while k < m:
        rounds += 1
        if rounds > 100000:
            raise RuntimeError("reduction failed to terminate")
        lk = lam[k]
        rs = [(2 * lk[j] + dd[j + 1]) // (2 * dd[j + 1]) for j in range(k)]
        for j, r in enumerate(rs):
            if r:
                b[k] = [s - r * t for s, t in zip(b[k], b[j])]
                u[k] = [s - r * t for s, t in zip(u[k], u[j])]
                lk[: j + 1] = [s - r * t for s, t in zip(lk, lam[j] + [dd[j + 1]])]
        lm = lk[k - 1]
        if q * (dd[k + 1] * dd[k - 1] + lm * lm) >= p * dd[k] * dd[k]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        u[k], u[k - 1] = u[k - 1], u[k]
        lam[k - 1], lam[k] = lk[: k - 1], lam[k - 1] + [lm]
        dk = (dd[k + 1] * dd[k - 1] + lm * lm) // dd[k]
        for i in range(k + 1, m):
            li = lam[i]
            t = li[k]
            li[k] = (dd[k + 1] * li[k - 1] - lm * t) // dd[k]
            li[k - 1] = (dk * t + lm * li[k]) // dd[k + 1]
        dd[k] = dk
        k = max(k - 1, 1)
    return b, u, (dd, lam)


# Fraction bits of fp_enumerate's fixed-point intervals.  Every value
# gives the same walk; fewer bits only send more nodes to the exact branch.
_FP_BITS = 64


def _fp_weights(dd: Sequence[int], den: int) -> tuple[list[int], int]:
    """The exact weights of fp_enumerate's integer walk: (w, prod) with
    prod = prod_i dd[i+1] dd[i] and w_i = den prod / (dd[i+1] dd[i]), by
    suffix then prefix products, with no long division."""
    m = len(dd) - 1
    w = [0] * m
    acc = den
    for i in reversed(range(m)):
        w[i] = acc
        acc *= dd[i + 1] * dd[i]
    prod = 1
    for i in range(m):
        w[i] *= prod
        prod *= dd[i + 1] * dd[i]
    return w, prod


def fp_enumerate(
    cols: Sequence[Sequence[int]],
    bound_sq: Fraction | int,
    visit: Callable[[tuple[int, ...]], None],
    budget: int = 10**7,
    gso: Optional[tuple[list[int], list[list[int]]]] = None,
) -> int:
    """Visit one y of each pair +-y of nonzero integer combinations with
    |cols . y|^2 <= bound_sq (Euclidean): the y whose last nonzero
    coordinate is positive.  Returns nodes used; raises
    BudgetExceededError when the traversal exceeds ``budget`` nodes.

    Fincke-Pohst on the data (dd, lam) of _int_gso(cols), or on ``gso``
    when given (lll_columns returns it for its reduced columns): with
    r_i = dd[i+1] / dd[i], mu_ji = lam_ji / dd[i+1] and B_i the bound
    left at level i (B_{m-1} = B = bound_sq), level i tries in
    increasing order the y_i with (y_i - c)^2 r_i <= B_i, c = -sum_{j>i}
    mu_ji y_j.  The walk stays in the half-space: while every coordinate
    above level i is 0 (so c = 0), it tries only y_i >= 0, and y_0 >= 1.
    The visit order is that of the whole ball (y[m-1] outermost, each
    coordinate increasing) restricted to the half, and every y_i tried
    counts one node against ``budget``.

    Each range is decided on integers, in fixed point with P = _FP_BITS
    fraction bits: eps = B_i / B (0 when B = 0), c, and the per-call
    floors of r_i / B, B / r_i and mu_ji (one quotient each of dd and
    lam) are kept as intervals rounded outward, so that rho = sqrt(eps B
    / r_i) has one too.  The range is lo = ceil(c - rho)
    (0 or 1 in the half-space) and hi = floor(c + rho), and it is taken
    when both ends of its interval round to the same integer.  These are
    exactly the integer walk's bounds on the exact remainder R = S B_i,
    S = den(B) prod_i dd[i+1] dd[i]: with w_i = S / (dd[i+1] dd[i]), n =
    c dd[i+1] and h = isqrt(R // w_i) = floor(rho dd[i+1]),
    ceil((n - h) / dd[i+1]) = ceil(c - rho) and floor((n + h) / dd[i+1])
    = floor(c + rho), since n - y_i dd[i+1] is an integer.  Where an
    interval leaves an end undecided, or eps's lower end is negative,
    the node recomputes R from y and takes that integer walk's range
    (the weights are built then, once per call), and its eps interval
    restarts from R.  Either way the range, the visits and the node
    count are the exact walk's; only integers are used.
    """
    m = len(cols)
    dd, lam = _int_gso(cols) if gso is None else gso
    num, den = bound_sq.numerator, bound_sq.denominator
    if num < 0:
        return 0
    p = _FP_BITS
    # eps = B_i / X, X = xn / den: B itself, or 1 / den on the zero ball
    xn = num or 1
    # floors in units of 2^-p: each value lies in [f, f + 1) 2^-p
    r_x = [(dd[i + 1] * den << p) // (dd[i] * xn) for i in range(m)]
    x_r = [(xn * dd[i] << p) // (den * dd[i + 1]) for i in range(m)]
    mu = [[(t << p) // dd[i + 1] for i, t in enumerate(row)] for row in lam]
    y = [0] * m
    nodes = 0
    weights: Optional[tuple[list[int], int]] = None

    def exact(i: int, above: bool) -> tuple[int, int, int]:
        # the integer walk's range on R recomputed from y, and the floor
        # of eps = R / (xn prod) in units of 2^-p
        nonlocal weights
        if weights is None:
            weights = _fp_weights(dd, den)
        w, prod = weights

        def centre(j: int) -> int:
            return -sum(lam[k][j] * y[k] for k in range(j + 1, m))

        rem = num * prod
        for j in range(i + 1, m):
            t = y[j] * dd[j + 1] - centre(j)
            rem -= t * t * w[j]
        di, n = dd[i + 1], centre(i)
        h = isqrt(rem // w[i])
        lo = (n - h + di - 1) // di if above else 0 if i else 1
        return lo, (n + h) // di, (rem << p) // (xn * prod)

    def descend(i: int, e_lo: int, e_hi: int, above: bool) -> None:
        # above: some coordinate above level i is nonzero; eps lies in
        # [e_lo, e_hi] 2^-p, and c in [c_lo, c_hi] 2^-p
        nonlocal nodes
        c_lo = c_hi = 0
        if above:
            s = r = 0
            for j in range(i + 1, m):
                yj = y[j]
                s -= mu[j][i] * yj
                r += abs(yj)
            c_lo, c_hi = s - r, s + r
        lo = 0 if i else 1
        sure = e_lo >= 0
        if sure:
            rho_lo = isqrt(e_lo * x_r[i])
            rho_hi = isqrt(e_hi * (x_r[i] + 1)) + 1
            hi = (c_lo + rho_lo) >> p
            sure = hi == (c_hi + rho_hi) >> p
            if sure and above:
                lo = -((rho_hi - c_lo) >> p)
                sure = lo == -((rho_lo - c_hi) >> p)
        if not sure:
            lo, hi, e_lo = exact(i, above)
            e_hi = e_lo + 1
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
            a_lo, a_hi, p2 = r_x[i], r_x[i] + 1, 2 * p
            for yi in range(lo, hi + 1):
                y[i] = yi
                # eps - (y_i - c)^2 r_i / B, with (y_i - c)^2 in
                # [q_lo, q_hi] 2^-2p
                d_lo, d_hi = (yi << p) - c_hi, (yi << p) - c_lo
                if d_lo >= 0:
                    q_lo, q_hi = d_lo * d_lo, d_hi * d_hi
                elif d_hi <= 0:
                    q_lo, q_hi = d_hi * d_hi, d_lo * d_lo
                else:
                    q_lo, q_hi = 0, max(d_lo * d_lo, d_hi * d_hi)
                descend(
                    i - 1,
                    e_lo + (-q_hi * a_hi >> p2),
                    e_hi - (q_lo * a_lo >> p2),
                    above or yi != 0,
                )
        y[i] = 0

    e = (num << p) // xn
    descend(m - 1, e, e, False)
    return nodes


def _matvec_int(cols: Sequence[Sequence[int]], y: Sequence[int]) -> list[int]:
    n = len(cols[0])
    out = [0] * n
    for j, yj in enumerate(y):
        if yj:
            cj = cols[j]
            for i in range(n):
                out[i] += yj * cj[i]
    return out


def _matmul_int(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> list[list[int]]:
    return [_matvec_int(a, bj) for bj in b]


def _gauss_pair(
    a: Sequence[int], b: Sequence[int]
) -> tuple[
    tuple[int, ...], tuple[int, ...], tuple[int, int, int], list[list[int]]
]:
    """Lagrange-Gauss reduction of two integer vectors.

    Returns (a', b', (|a'|^2, <a', b'>, |b'|^2), u): the reduced pair,
    with |a'| <= |b'| and 2|<a', b'>| <= |a'|^2, so |a'| and |b'| are
    the successive minima of the lattice the pair spans, and u the
    unimodular transform (a', b') = (a, b) . u in the columns convention
    of lll_columns.  Size reduction rounds halves toward -inf, as
    nearest_int does.  Raises SingularBasisError on dependent vectors.
    """
    na = sum(t * t for t in a)
    nb = sum(t * t for t in b)
    ua, ub = [1, 0], [0, 1]
    if na > nb:
        a, b, na, nb, ua, ub = b, a, nb, na, ub, ua
    while True:
        if na == 0:
            raise SingularBasisError("dependent columns")
        g = sum(s * t for s, t in zip(a, b))
        r = (2 * g + na - 1) // (2 * na)
        if r:
            b = [s - r * t for s, t in zip(b, a)]
            ub = [ub[0] - r * ua[0], ub[1] - r * ua[1]]
            nb += r * (r * na - 2 * g)
            g -= r * na
        if nb >= na:
            return tuple(a), tuple(b), (na, g, nb), [ua, ub]
        a, b, na, nb, ua, ub = b, a, nb, na, ub, ua


# the points of one cylinder search: (width^2, height^2, coordinates in
# the search's own reduced basis), and the search's coordinate builder
_Points = list[tuple[int, int, tuple[int, ...]]]
_Coords = Callable[[tuple[int, ...]], tuple[int, ...]]
# what a cylinder search leaves the next: (a, red, U) (_cylinder_points)
_Carry = tuple[int, Sequence[Sequence[int]], list[list[int]]]


def _plane_points(
    work: Sequence[Sequence[int]],
    rp: int,
    rm: int,
    ball: int,
    sw: int,
    sh: int,
    budget: int,
) -> tuple[_Points, list[tuple[int, ...]], list[list[int]]]:
    """The m = 2 search of _cylinder_points on the rebalanced pair
    ``work`` (d = 1): Lagrange-Gauss reduction, then one pass over the
    half-plane z_b >= 0 (z_a >= 1 on z_b = 0) of the disk |z_a b_1 +
    z_b b_2|^2 <= ``ball``.  With A, G, B the reduced Gram entries and
    D = AB - G^2, that disk is D z_b^2 + (A z_a + G z_b)^2 <= A ball, so
    |z_b| <= isqrt(A ball // D) and |A z_a + G z_b| <= isqrt(A ball -
    D z_b^2).  Every row and every z_a tried counts one node against
    ``budget``.  Returns what LLL and fp_enumerate give the m >= 3
    search: the points [(width^2, height^2, z)] inside the cylinder, one
    per pair +-z, z = (z_a, z_b) in the reduced pair, then the reduced
    pair and its transform u2 (reduced = work . u2).
    """
    p, q, (ga, gg, gb), u2 = _gauss_pair(*work)
    (p0, p1), (q0, q1) = p, q
    det = ga * gb - gg * gg
    bound = ga * ball
    found: _Points = []
    nodes = 0
    for zb in range(isqrt(bound // det) + 1):
        h = isqrt(bound - zb * zb * det)
        n = -gg * zb
        lo = -((h - n) // ga) if zb else 1
        hi = (n + h) // ga
        nodes += 1 + max(hi - lo + 1, 0)
        if nodes > budget:
            raise BudgetExceededError(f"enumeration exceeded budget of {budget} nodes")
        for za in range(lo, hi + 1):
            x0 = za * p0 + zb * q0
            w = x0 * x0 >> sw
            if w > rp:
                continue
            x1 = za * p1 + zb * q1
            ht = x1 * x1 >> sh
            if ht <= rm:
                found.append((w, ht, (za, zb)))
    return found, [p, q], u2


def _rescaled(
    cols: Sequence[Sequence[int]], d: int, ew: int, eh: int
) -> Sequence[Sequence[int]]:
    """``cols`` with rows [:d] times 2^ew and rows [d:] times 2^eh
    (``cols`` itself when both are 0); a negative exponent shifts right,
    exact where it undoes a scaling."""
    if not (ew or eh):
        return cols
    shifts = [ew] * d + [eh] * (len(cols) - d)
    return [[t << e if e >= 0 else t >> -e for t, e in zip(col, shifts)] for col in cols]


def _cylinder_points(
    cols: Sequence[Sequence[int]],
    carry: Optional[_Carry],
    d: int,
    rp: int,
    rm: int,
    budget: int,
) -> tuple[_Points, _Coords, _Carry]:
    """The cylinder search under _cylinder_search and
    enumerate_in_cylinder: every nonzero y with |cols . y|^2 <= rp on
    rows [:d] and <= rm on rows [d:] (closed integer squared radii).

    The cylinder is rebalanced inside the Euclidean ball: with a =
    bitlen(isqrt(rm)) - bitlen(isqrt(rp)), the block with the smaller
    radius is scaled up by 2^|a| (S(a), the rebalancing scale), which
    also pins a zero-radius block to zero (every nonzero integer point
    there lands beyond the ball).  ``carry`` is what the previous search
    left (None: from scratch), for every m the triple (a', red, U): its
    exponent, its reduced columns red = S(a') cols U and the unimodular
    transform U, kept multiplied out.  The search re-shifts red's rows
    from S(a') to S(a) (_rescaled), exact since column operations
    commute with row scaling and the scaled block holds multiples of
    2^|a'|, so the reduction starts from S(a) cols U without a matrix
    product.  For m = 2, Lagrange-Gauss reduces that pair and its disk
    is walked over a half-plane (_plane_points); for m >= 3, LLL hands
    its reduced columns and their Gram-Schmidt data to fp_enumerate,
    which walks the half-ball of one z per pair +-z, and the visitor
    reads the norms off the rows of the reduced columns, built once per
    search, shifting the scaled block back exactly.  Either way the
    reduction's transform u2 gives the new U = U' u2.

    Returns (points, coords, carry): points [(width^2, height^2, z)] in
    the units of ``cols``, one per pair +-y, z the reduced coordinates;
    coords(z) = canonical_sign(U z), the sign-canonical y of a point,
    called only by a caller that reads coordinates; and the carry for
    the next search.
    """
    m = len(cols)
    # (r.bit_length() + 1) // 2 == isqrt(r).bit_length() for r >= 0
    a = (rm.bit_length() + 1) // 2 - (rp.bit_length() + 1) // 2
    ball = (rp << 2 * a) + rm if a > 0 else rp + (rm << -2 * a)
    sw, sh = (2 * a, 0) if a > 0 else (0, -2 * a)
    # S(a) scales rows [:d] by 2^ew and rows [d:] by 2^eh
    ew, eh = sw >> 1, sh >> 1
    if carry is None:
        work = _rescaled(cols, d, ew, eh)
    else:
        a0, red, u = carry
        work = _rescaled(red, d, ew - max(a0, 0), eh - max(-a0, 0))
    if m == 2:
        points, red, u2 = _plane_points(work, rp, rm, ball, sw, sh, budget)
    else:
        red, u2, gso = lll_columns(work)
        points = []
        rows = list(zip(*red))
        w_rows, h_rows = rows[:d], rows[d:]

        def visit(z: tuple[int, ...]) -> None:
            w = 0
            for row in w_rows:
                t = sum(map(mul, row, z))
                w += t * t
            w >>= sw
            if w > rp:
                return
            h = 0
            for row in h_rows:
                t = sum(map(mul, row, z))
                h += t * t
            h >>= sh
            if h <= rm:
                points.append((w, h, z))

        fp_enumerate(red, ball, visit, budget=budget, gso=gso)
    u = u2 if carry is None else _matmul_int(u, u2)

    def coords(z: tuple[int, ...]) -> tuple[int, ...]:
        return canonical_sign(_matvec_int(u, z), d)

    return points, coords, (a, red, u)


def _cylinder_search(
    basis: LatticeBasis, budget: int
) -> Callable[[int, int], tuple[_Points, _Coords]]:
    """Repeated cylinder searches on one basis.  ``search(rp, rm)`` is
    _cylinder_points on the columns of basis.kernel with closed integer
    squared radii in its units, returning (points, coords); each search
    starts from the carry (a, red, U) the previous one left (from
    scratch on the first), its reduced columns re-shifted, for every m,
    and ``budget`` counts the nodes of one search.  The points found are
    a set, so they do not depend on the order of the searches."""
    cols = basis.kernel[0]
    d = basis.d
    carry: Optional[_Carry] = None

    def search(rp: int, rm: int) -> tuple[_Points, _Coords]:
        nonlocal carry
        points, coords, carry = _cylinder_points(cols, carry, d, rp, rm, budget)
        return points, coords

    return search


def chain_walker(
    basis: LatticeBasis,
    *,
    budget: int,
) -> Callable[..., tuple[Optional[tuple[int, int]], list[tuple[int, ...]]]]:
    """Steps along the minimal-vector chain of ``basis``.

    ``step(y, forward=True, cap=None)`` steps from the vector with
    coordinates ``y``.  The successor (``forward``) is the class of
    minimal (height^2, width^2) among vectors strictly narrower and
    strictly taller than y; the predecessor is the same step with the
    blocks swapped.  The cylinder searched is cut off by Minkowski's
    bound width^(2d) height^(2c) <= C_{d,c}^2 det^2
    (basis.kernel_minkowski_sq), or by the step's own ``cap`` on the
    other block when that is lower, so a capped step answers the
    minimal class with other^2 <= cap, or (None, []); it goes
    through _cylinder_search on basis.kernel, which rebalances it and
    starts the reduction from what the previous step's search left (from
    scratch on the first step).  Only the answer class's coordinates are
    built (the search's coords).

    For m >= 3 the walker keeps what it learnt from its last cylinder:
    the direction of the step, the cylinder's narrow radius R_n, the
    floor F (the other^2 of the step's answer), its other radius B and
    every point of the cylinder with other^2 above F, which are all the
    lattice points with narrow^2 <= R_n and F < other^2 <= B.
    A later step from y in the same direction, with x_n - 1 <= R_n,
    x_o >= F (x_n, x_o the narrow^2 and other^2 of y) and no cap below
    B, first reads the kept points with narrow^2 < x_n and other^2 >
    x_o.  If any is left, their minimal class is the answer and no
    search runs; the points read with other^2 above the answer's are
    kept, with R_n = x_n - 1, the answer's other^2 as the floor, and B
    unchanged.  This is exact.  The Minkowski bound falls as the narrow
    norm grows, and x_n <= R_n + 1, so it is at least B; with the cap
    at least B, so is the step's own bound, and every point read lies
    in its cylinder.  A candidate of y that beats the answer, or ties
    it, has narrow^2 <= x_n - 1 <= R_n and F <= x_o < other^2 <= the
    answer's other^2 <= B, so it was kept and is read.  A step capped
    below B searches.  If none is left and the step's own bound is at
    most B, every candidate of y would have been kept and read, so y
    has no successor and the step returns (None, []) with no search.  Along a chain the floor is the next step's x_o, so
    that step makes no search whenever the last cylinder already holds
    its successor, or already shows that the chain ends at the cap.  A
    step answered from the kept points makes no nodes, so it cannot
    raise BudgetExceededError.  For d = c = 1 no step is answered so:
    C_{1,1} = 1 puts the cylinder searched from record n - 1 at heights
    q <= 1 / r_{n-1} < q_{n-1} + q_n <= q_{n+1}, below the record after
    next, so m = 2 keeps nothing.

    Returns (key, members): the minimal (other^2, narrow^2) in the
    integer units of basis.kernel and the sorted sign-canonical
    coordinates achieving it, an exact tie being one class; (None, [])
    when y has zero narrow norm or the cylinder holds no candidate.

    Every decision compares norms of one block, as integers of
    basis.kernel, so it is exact on every basis: a flowed basis scales
    each block by one frozen factor, which the kernel clears with the
    block's denominators, and apply_flow(b, t).kernel[0] == b.kernel[0].
    A flowed lattice's chain is therefore its parent's chain.
    """
    cols, _, _ = basis.kernel
    mink_sq = basis.kernel_minkowski_sq
    d, m = basis.d, basis.m
    search = _cylinder_search(basis, budget)
    # the last cylinder (m >= 3): (forward, R_n, floor, B, [(other^2,
    # narrow^2, z) of each point above the floor], coords of the z)
    last: Optional[tuple[bool, int, int, int, list, _Coords]] = None

    def step(
        y: Sequence[int], forward: bool = True, cap: Optional[int] = None
    ) -> tuple[Optional[tuple[int, int]], list[tuple[int, ...]]]:
        nonlocal last
        x = _matvec_int(cols, y)
        x_n = sum(t * t for t in (x[:d] if forward else x[d:]))
        x_o = sum(t * t for t in (x[d:] if forward else x[:d]))
        if x_n == 0:
            return None, []
        found = []
        kept = (
            last
            and last[0] == forward
            and x_n - 1 <= last[1]
            and x_o >= last[2]
            and (cap is None or cap >= last[3])
        )
        if kept:
            _, _, _, bound, points, coords = last
            found = [p for p in points if p[1] < x_n and p[0] > x_o]
        if not found:
            k = d if forward else m - d  # size of the narrowing block
            # other^2 is an integer, so the exact floor of the root is the bound
            bound = _iroot(
                mink_sq.numerator // (mink_sq.denominator * x_n**k), m - k
            )
            if cap is not None:
                bound = min(bound, cap)
            if kept and bound <= last[3]:
                return None, []
            radii = (x_n - 1, bound) if forward else (bound, x_n - 1)
            points, coords = search(*radii)
            for w, h, z in points:
                n, o = (w, h) if forward else (h, w)
                if o > x_o:
                    found.append((o, n, z))
        if not found:
            last = None
            return None, []
        best = min(found)[:2]
        if m > 2:
            above = [p for p in found if p[0] > best[0]]
            last = (forward, x_n - 1, best[0], bound, above, coords)
        return best, sorted(coords(z) for o, n, z in found if (o, n) == best)

    return step


# ---------------------------------------------------------------------------
# public wrappers on LatticeBasis


def _int_columns(
    columns: Sequence[Sequence[Fraction]],
) -> tuple[list[list[int]], int]:
    """Clear denominators: integer columns plus the common scale L such
    that int_cols = L * columns."""
    den = 1
    for col in columns:
        for t in col:
            den = den * t.denominator // math.gcd(den, t.denominator)
    cols = [[t.numerator * (den // t.denominator) for t in col] for col in columns]
    return cols, den


def _kernel_vector(
    basis: LatticeBasis, y: Sequence[int], w: int, h: int
) -> LatticeVector:
    """The LatticeVector of coordinates ``y`` whose squared width and
    height are ``w`` and ``h`` in the integer units of basis.kernel: the
    same vector as basis.vector(y), without its Fraction sums."""
    cols, (unit_w, unit_h), (s_w, s_h) = basis.kernel
    d = basis.d
    raw = tuple(
        Fraction(t * s.denominator, s.numerator)
        for t, s in zip(_matvec_int(cols, y), [s_w] * d + [s_h] * basis.c)
    )
    return LatticeVector(tuple(y), raw, w / unit_w, h / unit_h)


def enumerate_in_cylinder(
    basis: LatticeBasis,
    cyl: Cylinder,
    *,
    budget: int = 10**7,
) -> list[LatticeVector]:
    """All sign-canonical nonzero lattice vectors in the closed cylinder.

    Output is sorted by (height_sq, width_sq, y).  Each radius is
    floored into the integer units of its block (basis.kernel), which
    is exact since the squared norms there are integers, and the points
    come from _cylinder_points, the search chain_walker also uses, with
    the reduction from scratch.
    """
    cols, (unit_w, unit_h), _ = basis.kernel
    rp = math.floor(cyl.r_plus_sq * unit_w)
    rm = math.floor(cyl.r_minus_sq * unit_h)
    if rp < 0 or rm < 0:
        return []
    points, coords, _ = _cylinder_points(cols, None, basis.d, rp, rm, budget)
    out = [_kernel_vector(basis, coords(z), w, h) for w, h, z in points]
    out.sort(key=lambda v: (v.height_sq, v.width_sq, v.y))
    return out


def _critical_ball(
    basis: LatticeBasis, tol: Fraction, budget: int
) -> tuple[Fraction, list[tuple[LatticeVector, bool, bool]]]:
    """lambda_1^2 of the mixed norm and the vectors on the closed critical
    ball: mixed^2 <= lambda_1^2 (1 + 4 tol) and within tol of lambda_1^2
    (sq_close), so exactly lambda_1^2 when tol = 0.  Each vector comes
    with (at_w, at_h): its width, resp. its height, within tol of
    lambda_1^2; the list is sorted by (height^2, width^2, y).

    Every decision is made on the integers of basis.kernel.  With k =
    unit_h / unit_w = kn / kd in lowest terms, a point's squared width
    and height w, h in kernel units are W = w kn and H = h kd in units
    of 1 / (kd unit_h), its mixed norm is max(W, H) and physical 1 is
    kd unit_h there, so each sq_close is one integer cross-multiplication.
    One from-scratch _cylinder_points searches the mixed ball of the
    certified Minkowski radius, lambda_1^(2m) <= C^2 det^2
    (basis.kernel_minkowski_sq), widened by 1 + 4 tol: in kernel units
    rp^m >= kms (kd/kn)^c (1 + 4 tol)^m and rm^m >= kms (kn/kd)^d
    (1 + 4 tol)^m.  By Minkowski's theorem it holds a nonzero vector, so
    an empty result is a fault (AssertionError).  Only the vectors on
    the ball are built.
    """
    cols, (unit_w, unit_h), _ = basis.kernel
    d, c, m = basis.d, basis.c, basis.m
    k = unit_h / unit_w
    kn, kd = k.numerator, k.denominator
    kms = basis.kernel_minkowski_sq
    tn, td = tol.numerator, tol.denominator
    num = kms.numerator * (td + 4 * tn) ** m
    den = kms.denominator * td**m
    rp = _iroot(num * kd**c // (den * kn**c), m) + 1
    rm = _iroot(num * kn**d // (den * kd**d), m) + 1
    points, coords, _ = _cylinder_points(cols, None, d, rp, rm, budget)
    if not points:
        raise AssertionError("the Minkowski ball holds no lattice vector")
    lam = min(max(w * kn, h * kd) for w, h, _ in points)
    one = kd * unit_h
    on_n = one.numerator * tn

    def close(a: int) -> bool:
        # sq_close(a, lam) in units of 1 / (kd unit_h)
        diff = abs(a - lam) * td
        return diff <= tn * max(a, lam) or diff * one.denominator <= on_n

    on = []
    for w, h, z in points:
        big = max(w * kn, h * kd)
        if big * td <= lam * (td + 4 * tn) and close(big):
            on.append((h, w, coords(z)))
    on.sort()
    lam_sq = Fraction(lam * one.denominator, one.numerator)
    return lam_sq, [
        (_kernel_vector(basis, y, w, h), close(w * kn), close(h * kd)) for h, w, y in on
    ]


def shortest_mixed_vectors(
    basis: LatticeBasis, *, budget: int = 10**7
) -> list[LatticeVector]:
    """All sign-canonical vectors achieving the mixed-norm first minimum:
    the critical ball with tol = 0."""
    return [v for v, _, _ in _critical_ball(basis, Fraction(0), budget)[1]]
