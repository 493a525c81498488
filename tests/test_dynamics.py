"""Diagonal flow, minimal-vector chains, transversal membership, and the
two first-return routes."""

import math
import random
from fractions import Fraction

import pytest

from diolab.bestapprox import chain_engine, direct_scan, sample_theta
import diolab.core as core
from diolab.core import (
    Cylinder,
    LatticeBasis,
    NonGenericLatticeError,
    a_safe,
    kth_root_upper,
    ln_frac,
    minkowski_bound_sq_range,
    sq_close,
)
from diolab.dynamics import (
    SurfacePoint1D,
    _chain_stepper,
    SurfacePoint2D,
    apply_flow,
    apply_flow_log,
    chart_lattice_1d,
    chart_lattice_2d,
    first_return,
    minimal_vectors,
    return_map_explicit_1d,
    sample_surface_point_1d,
    surface_coordinates_1d,
    surface_first_return_1d,
    surface_membership_S,
    surface_membership_Sprime,
    visiting_times,
)

from conftest import brute_cylinder, safe_box


def fib(n):
    seq = [0, 1, 1]
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
        seq.append(b)
    return seq


def physical_minkowski_sq(basis):
    """C_{d,c}^2 det^2 in physical units, from the Fraction determinant."""
    return minkowski_bound_sq_range(basis.d, basis.c)[1] * basis.det_sq()


def theta_basis(bits, seed, d=1, c=1):
    theta = sample_theta(d, c, bits, random.Random(seed))
    return theta, LatticeBasis.from_theta(theta)


# ---------------------------------------------------------------------------
# flow


def test_apply_flow_zero_is_identity():
    basis = LatticeBasis.identity(1, 1)
    assert apply_flow(basis, 0) is basis
    assert apply_flow_log(basis, Fraction(1)) is basis


def test_apply_flow_preserves_covolume():
    _, basis = theta_basis(64, 5)
    flowed = apply_flow(basis, 0.37)
    assert flowed.precision_bits == 128
    assert abs(flowed.det_sq() - 1) < Fraction(1, 1 << 110)


def test_apply_flow_scales_blocks():
    _, basis = theta_basis(64, 6)
    flowed = apply_flow(basis, 0.37)
    v0 = basis.vector((1, 2))
    v1 = flowed.vector((1, 2))
    import math

    assert float(v1.width_sq / v0.width_sq) == pytest.approx(
        math.exp(2 * 0.37), rel=1e-12
    )
    assert float(v1.height_sq / v0.height_sq) == pytest.approx(
        math.exp(-2 * 0.37), rel=1e-12
    )


# ---------------------------------------------------------------------------
# chains


def test_chain_z2_terminates_both_ways():
    chain = minimal_vectors(LatticeBasis.identity(1, 1), 5)
    assert [(e.n, e.vector.y) for e in chain.entries] == [(0, (1, 0)), (1, (0, 1))]
    assert chain.backward_finite and chain.forward_finite
    assert chain.entry(0).class_size == 1
    with pytest.raises(KeyError):
        chain.entry(7)


@pytest.mark.parametrize("count", [2, 3])
def test_chain_ends_known_without_search(count):
    # the last entry (0, 1) is vertical and the first (1, 0) horizontal,
    # so both ends are known whether or not the walk tried to pass them
    chain = minimal_vectors(LatticeBasis.from_theta(((Fraction(0),),)), count)
    assert [(e.n, e.vector.y) for e in chain.entries] == [(0, (1, 0)), (1, (0, 1))]
    assert chain.forward_finite and chain.backward_finite


def test_chain_z3_class_sizes():
    chain = minimal_vectors(LatticeBasis.identity(2, 1), 5)
    assert [(e.n, e.vector.y) for e in chain.entries] == [
        (0, (1, 0, 0)),
        (1, (0, 0, 1)),
    ]
    assert chain.entry(0).class_size == 2
    assert chain.entry(1).class_size == 1
    assert all(e.certified for e in chain.entries)


def test_chain_fibonacci_heights_are_records():
    f = fib(31)
    x = Fraction(f[30], f[31])
    basis = LatticeBasis.from_theta(((x,),))
    chain = minimal_vectors(basis, 40)
    recs = chain_engine(((x,),), depth=40)
    assert len(chain.entries) == len(recs) + 1 == 30
    assert chain.entries[0].vector.y == (1, 0)
    for entry, rec in zip(chain.entries[1:], recs):
        assert entry.vector.y == (rec.P[0], rec.Q[0])
        assert entry.vector.height_sq == rec.q_sq
        assert entry.vector.width_sq == rec.r_sq
    assert chain.forward_finite and chain.backward_finite


def test_chain_matches_records_random():
    rng = random.Random(31)
    for d, c in ((1, 1), (2, 1), (1, 2)):
        for _ in range(4):
            theta = sample_theta(d, c, 64, rng)
            basis = LatticeBasis.from_theta(theta)
            chain = minimal_vectors(basis, 9)
            recs = chain_engine(theta, depth=8)
            for entry, rec in zip(chain.entries[1:], recs):
                assert entry.vector.y == (*rec.P, *rec.Q)
                assert entry.vector.height_sq == rec.q_sq
                assert entry.vector.width_sq == rec.r_sq


def test_predecessor_inverts_successor():
    bases = [
        theta_basis(64, seed, d, c)[1]
        for d, c in ((1, 1), (2, 1), (1, 2))
        for seed in (34, 35)
    ]
    bases.append(apply_flow(theta_basis(64, 33)[1], 0.7))
    pairs = 0
    for basis in bases:
        step = _chain_stepper(basis, 10**7)
        for entry in minimal_vectors(basis, 10, certify=False).entries[:-1]:
            back = step(step(entry.vector)[0], forward=False)
            assert back[0].y == entry.vector.y
            assert len(back) == entry.class_size
            pairs += 1
    assert pairs == 63


def test_kernel_units_and_minkowski_bound():
    # the integer cut-off c_sq_hi * dd[m] is the physical C^2 det^2 in
    # the per-block units, and each block's squared norm divides by its unit
    chart_2d = chart_lattice_2d(SurfacePoint2D(
        Fraction(-5, 16), Fraction(5, 8), Fraction(-7, 8), Fraction(-1, 2),
        Fraction(1, 8), Fraction(61, 16),
    ))
    rng = random.Random(40)
    bases = [theta_basis(128, 41 + i, d, c)[1] for i, (d, c) in enumerate(((1, 1), (2, 1), (1, 2)))]
    bases += [chart_lattice_1d(sample_surface_point_1d(rng, 48)) for _ in range(3)]
    bases.append(chart_2d)
    bases += [first_return(b).basis_after for b in bases[3:]]
    bases += [apply_flow(b, 0.3) for b in bases[:7]]
    for basis in bases:
        cols, (unit_w, unit_h), _ = basis.kernel
        d, c = basis.d, basis.c
        assert basis.kernel_minkowski_sq == physical_minkowski_sq(basis) * unit_w**d * unit_h**c
        for block in (slice(0, d), slice(d, basis.m)):
            assert math.gcd(*(t for col in cols for t in col[block])) == 1
        for y in ((1,) + (0,) * (basis.m - 1), (1, -2) + (1,) * (basis.m - 2)):
            v = basis.vector(y)
            x = [sum(cols[j][i] * y[j] for j in range(basis.m)) for i in range(basis.m)]
            assert v.width_sq == sum(t * t for t in x[:d]) / unit_w
            assert v.height_sq == sum(t * t for t in x[d:]) / unit_h
    assert sum(b.precision_bits is not None for b in bases) >= 10


def brute_chain_class(basis, x, forward):
    """The chain neighbour class of x from a brute scan of its Minkowski
    cylinder in physical Fractions, with chain_walker's rules stated in
    physical units: strictly narrower, strictly taller, a narrow norm
    within tolerance of x's is no decrease, minimal (other^2, narrow^2);
    None when the scan box is too large."""
    tol = basis.tol
    k = basis.d if forward else basis.c
    x_n, x_o = (x.width_sq, x.height_sq) if forward else (x.height_sq, x.width_sq)
    r_o = kth_root_upper(physical_minkowski_sq(basis) / x_n**k, basis.m - k)
    cyl = Cylinder(x_n, r_o) if forward else Cylinder(r_o, x_n)
    box = safe_box(basis, cyl)
    if box > (12 if basis.m == 2 else 5):
        return None
    found = {}
    for v in brute_cylinder(basis, cyl, box):
        n, o = (v.width_sq, v.height_sq) if forward else (v.height_sq, v.width_sq)
        if n < x_n and o > x_o and not sq_close(n, x_n, tol):
            found[v] = (o, n)
    best = min(found.values())
    for key in found.values():
        assert key == best or not (
            sq_close(key[0], best[0], tol) and sq_close(key[1], best[1], tol)
        )
    return sorted((v for v, key in found.items() if key == best), key=lambda v: v.y[::-1])


def test_stepper_with_tolerance_matches_brute_force():
    # flowed chart and theta lattices (tol > 0), scale_sq != 1, whose
    # blocks have different units
    rng = random.Random(42)
    checked = {(1, 1): 0, (2, 1): 0, (1, 2): 0}
    for i in range(18):
        d, c = ((1, 1), (2, 1), (1, 2))[i % 3]
        if (d, c) == (1, 1):
            basis = chart_lattice_1d(sample_surface_point_1d(rng, bits=8))
        else:
            basis = LatticeBasis.from_theta(sample_theta(d, c, 4, rng))
        scale_sq = basis.scale_sq * Fraction(rng.choice((1, 4, 9)), rng.choice((1, 2)))
        basis = LatticeBasis(d, c, basis.columns, scale_sq)
        basis = apply_flow(basis, Fraction(rng.choice((-1, 1)) * rng.randrange(10, 40), 100))
        _, (unit_w, unit_h), _ = basis.kernel
        assert basis.tol > 0 and unit_w != unit_h
        step = _chain_stepper(basis, 10**7)
        for entry in minimal_vectors(basis, 5, back=4, certify=False).entries:
            x = entry.vector
            for forward in (True, False):
                if (x.width_sq if forward else x.height_sq) == 0:
                    continue
                want = brute_chain_class(basis, x, forward)
                if want is None:
                    continue
                # whole vectors, raw coordinates included, against the
                # Fraction reference basis.vector
                assert step(x, forward) == want
                checked[d, c] += 1
    assert min(checked.values()) >= 10 and sum(checked.values()) >= 70


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("short", [False, True])
def test_near_tie_within_tolerance_raises(forward, short):
    # two candidates of the same other norm whose narrow norms differ by
    # about tol/2: a tie within tolerance.  With short narrow norms (< 1)
    # only the unit floor of sq_close makes them close, and the narrow
    # block's unit is over 2^48 times the other's, so a comparison in the
    # other block's unit would not.
    w = Fraction(1, 2) if short else Fraction(3)
    eps = Fraction(1, 1 << 25) if short else w / (1 << 26)
    pair = [(w, Fraction(1)), (-(w + eps), Fraction(1))]
    if not forward:
        pair = [col[::-1] for col in pair]
    exact = LatticeBasis(1, 1, pair)
    basis = LatticeBasis(1, 1, pair, precision_bits=40)
    tol = basis.tol
    x = basis.vector((1, -1))
    a, b = basis.vector((1, 0)), basis.vector((0, 1))
    n_a, n_b = (a.width_sq, b.width_sq) if forward else (a.height_sq, b.height_sq)
    assert n_a != n_b and abs(n_a - n_b) <= tol * max(n_a, n_b, 1)
    assert (abs(n_a - n_b) > tol * max(n_a, n_b)) == short
    unit_n, unit_o = basis.kernel[1][:: 1 if forward else -1]
    assert unit_n >= unit_o * (1 << 48)
    with pytest.raises(NonGenericLatticeError, match="tie within tolerance"):
        _chain_stepper(basis, 10**7)(x, forward)
    got = _chain_stepper(exact, 10**7)(exact.vector((1, -1)), forward)
    assert [v.y for v in got] == [(1, 0)]


def test_tie_policies_share_the_kernel():
    # heights (1, 2) and (2, -1) of norm^2 5 both hit an integer point:
    # the record sequence is undefined there, while the chain has one
    # class of two members
    theta = ((Fraction(1, 5),), (Fraction(2, 5),))
    with pytest.raises(NonGenericLatticeError, match=r"norm\^2 5 "):
        direct_scan(theta, 40)
    with pytest.raises(NonGenericLatticeError, match=r"norm\^2 5 "):
        chain_engine(theta, depth=20)
    entry = minimal_vectors(LatticeBasis.from_theta(theta), 6).entry(2)
    assert entry.vector.height_sq == 5
    assert entry.class_size == 2


def test_chain_class_sizes_bounded():
    rng = random.Random(32)
    cap = a_safe(1, 1)
    for _ in range(5):
        theta = sample_theta(1, 1, 48, rng)
        chain = minimal_vectors(LatticeBasis.from_theta(theta), 12)
        assert all(1 <= e.class_size <= cap for e in chain.entries)


def test_chain_flow_equivariance():
    _, basis = theta_basis(64, 33)
    base = minimal_vectors(basis, 12, certify=False)
    flowed = minimal_vectors(apply_flow(basis, 0.7), 12, certify=False)
    ys_a = [e.vector.y for e in base.entries]
    ys_b = [e.vector.y for e in flowed.entries]
    # same chain of classes, possibly renumbered: one sequence contains
    # a long contiguous run of the other
    assert ys_b[0] in ys_a
    k = ys_a.index(ys_b[0])
    n = min(len(ys_a) - k, len(ys_b))
    assert n >= 8
    assert ys_a[k : k + n] == ys_b[:n]


def test_chain_count_validation():
    with pytest.raises(ValueError):
        minimal_vectors(LatticeBasis.identity(1, 1), 0)


# ---------------------------------------------------------------------------
# visiting times


def test_visiting_times_ratios_exact():
    _, basis = theta_basis(64, 40)
    chain = minimal_vectors(basis, 7)
    vt = visiting_times(chain)
    by_n = {e.n: e.vector for e in chain.entries}
    for (n, ratio) in vt.ratio_sq:
        assert ratio == by_n[n + 1].height_sq / by_n[n].width_sq
    for (n, ratio) in vt.ratio_sq_prime:
        assert ratio == by_n[n].height_sq / by_n[n].width_sq
    m = basis.d + basis.c
    for (n, t), (_, ratio) in zip(vt.t, vt.ratio_sq):
        assert t == pytest.approx(float(ln_frac(ratio, 60)) / (2 * m), abs=1e-13)


def test_visiting_times_land_on_transversal():
    _, basis = theta_basis(64, 41)
    chain = minimal_vectors(basis, 6)
    vt = visiting_times(chain)
    for (n, ratio) in vt.ratio_sq:
        if n < 1:
            continue
        mem = surface_membership_S(apply_flow_log(basis, ratio))
        assert mem.member, f"t[{n}] missed S: {mem.reason}"
    for (n, ratio) in vt.ratio_sq_prime:
        if n < 1:
            continue
        mem = surface_membership_Sprime(apply_flow_log(basis, ratio))
        assert mem.member, f"t'[{n}] missed S': {mem.reason}"


def test_visiting_times_need_two_entries():
    chain = minimal_vectors(LatticeBasis.identity(1, 1), 1)
    with pytest.raises(ValueError):
        visiting_times(chain)


# ---------------------------------------------------------------------------
# membership


def test_z2_fails_on_corner():
    mem = surface_membership_S(LatticeBasis.identity(1, 1))
    assert not mem.member
    assert mem.reason == "corner vector on the critical ball"
    assert mem.corner.y == (-1, 1)
    assert not surface_membership_Sprime(LatticeBasis.identity(1, 1)).member


def test_z3_fails_on_corner():
    mem = surface_membership_S(LatticeBasis.identity(2, 1))
    assert not mem.member
    assert mem.corner is not None


def test_sprime_frozen_corner_lattice():
    basis = LatticeBasis(1, 1, ((1, Fraction(3, 5)), (Fraction(3, 5), 1)))
    mem = surface_membership_Sprime(basis)
    assert mem.member
    assert mem.corner.y == (-1, 1)
    assert mem.lam1_sq == Fraction(4, 25)
    assert not surface_membership_S(basis).member


def brute_critical_ball(basis):
    """lambda_1^2 and the wide, tall and corner vectors of the critical
    ball, from a brute scan of the Minkowski ball widened by 1 + 4 tol."""
    tol = basis.tol
    slack = 1 + 4 * tol
    r_sq = kth_root_upper(physical_minkowski_sq(basis), basis.m, guard_bits=4) * slack
    cyl = Cylinder(r_sq, r_sq)
    box = safe_box(basis, cyl)
    assert box <= 4
    found = brute_cylinder(basis, cyl, box)
    lam_sq = min(v.mixed_sq for v in found)

    def close(a, b):
        return sq_close(a, b, tol)

    on = [v for v in found if v.mixed_sq <= lam_sq * slack and close(v.mixed_sq, lam_sq)]
    wide = [v.y for v in on if close(v.width_sq, lam_sq) and not close(v.height_sq, lam_sq)]
    tall = [v.y for v in on if close(v.height_sq, lam_sq) and not close(v.width_sq, lam_sq)]
    corner = [v.y for v in on if close(v.width_sq, lam_sq) and close(v.height_sq, lam_sq)]
    return lam_sq, len(on), wide, tall, corner


def test_membership_matches_brute_force():
    rng = random.Random(77)
    lattices = [
        LatticeBasis.identity(1, 1),
        LatticeBasis.identity(2, 1),
        LatticeBasis(1, 1, ((1, Fraction(3, 5)), (Fraction(3, 5), 1))),
        chart_lattice_2d(SurfacePoint2D(
            Fraction(-5, 16), Fraction(5, 8), Fraction(-7, 8), Fraction(-1, 2),
            Fraction(1, 8), Fraction(61, 16),
        )),
    ]
    for i in range(60):
        basis = chart_lattice_1d(sample_surface_point_1d(rng, bits=8))
        if i % 2:
            basis = apply_flow(basis, Fraction(rng.randrange(-20, 21), 100))
        lattices.append(basis)
    flowed = members = 0
    for basis in lattices:
        flowed += basis.tol > 0
        lam_sq, n_on, wide, tall, corner = brute_critical_ball(basis)
        mem = surface_membership_S(basis)
        assert mem.lam1_sq == lam_sq
        if corner:
            assert not mem.member and mem.corner.y == corner[0]
        elif n_on == 2 and len(wide) == len(tall) == 1:
            assert (mem.wide.y, mem.tall.y) == (wide[0], tall[0])
            members += mem.member
        else:
            assert not mem.member and mem.wide is None and mem.corner is None
        mem = surface_membership_Sprime(basis)
        assert mem.lam1_sq == lam_sq
        assert mem.member == (n_on == 1 and len(corner) == 1)
        if mem.member:
            assert mem.corner.y == corner[0]
    assert flowed >= 25 and members >= 25


# ---------------------------------------------------------------------------
# d = c = 1 chart


def test_chart_point_validation():
    with pytest.raises(ValueError):
        SurfacePoint1D(Fraction(0), Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        SurfacePoint1D(Fraction(1, 2), Fraction(1), 1)
    with pytest.raises(ValueError):
        SurfacePoint1D(Fraction(1, 2), Fraction(1, 2), 2)


def test_chart_round_trip_exact():
    rng = random.Random(50)
    for _ in range(15):
        p = sample_surface_point_1d(rng, bits=24)
        q = surface_coordinates_1d(chart_lattice_1d(p))
        assert (q.x, q.y, q.eps) == (p.x, p.y, p.eps)


def test_first_return_frozen():
    p = SurfacePoint1D(Fraction(3, 10), Fraction(1, 2), 1)
    fr = first_return(chart_lattice_1d(p))
    assert fr.ratio_sq == Fraction(1225, 9)
    assert fr.tau == pytest.approx(1.228367886410652, abs=1e-14)
    q = surface_coordinates_1d(fr.basis_after)
    assert (q.x, q.y, q.eps) == (Fraction(1, 3), Fraction(2, 7), -1)


def test_explicit_map_frozen():
    p = SurfacePoint1D(Fraction(7, 10), Fraction(3, 10), 1)
    q, ratio_sq = return_map_explicit_1d(p)
    assert (q.x, q.y, q.eps) == (Fraction(3, 7), Fraction(10, 13), -1)
    assert ratio_sq == Fraction(169, 49)


def test_explicit_matches_dynamic():
    rng = random.Random(51)
    for _ in range(20):
        p = sample_surface_point_1d(rng, bits=20)
        q_dyn, r_dyn = surface_first_return_1d(p)
        q_exp, r_exp = return_map_explicit_1d(p)
        assert q_dyn == q_exp
        assert r_dyn == r_exp


def test_explicit_map_boundary_raises():
    # 1/x is an integer: the successor X_2 is vertical on both routes
    p = SurfacePoint1D(Fraction(1, 2), Fraction(1, 3), 1)
    with pytest.raises(NonGenericLatticeError):
        return_map_explicit_1d(p)
    with pytest.raises(NonGenericLatticeError, match="successor"):
        surface_first_return_1d(p)


def test_first_return_raises_where_the_chain_ends():
    # a 48-bit chart point has a finite chain: return 29's successor X_2
    # is vertical, so its flowed lattice would be off S and return 30
    # would fail membership with a ValueError
    basis = chart_lattice_1d(sample_surface_point_1d(random.Random(1), 48))
    for _ in range(29):
        basis = first_return(basis).basis_after
    with pytest.raises(NonGenericLatticeError, match="successor .* vertical"):
        first_return(basis)


def test_first_return_needs_transversal():
    with pytest.raises(ValueError):
        first_return(LatticeBasis.identity(1, 1))


def test_first_return_clears_each_basis_once(monkeypatch):
    # membership, the chain step and the vectors they build share the
    # basis's cached kernel view: one denominator clearing per block
    calls = []
    int_columns = core._int_columns

    def counted(columns):
        calls.append(len(columns))
        return int_columns(columns)

    monkeypatch.setattr(core, "_int_columns", counted)
    basis = chart_lattice_1d(sample_surface_point_1d(random.Random(3), 48))
    for _ in range(3):
        fr = first_return(basis)
        assert len(calls) == 2
        calls.clear()
        basis = fr.basis_after
        assert basis.tol > 0


def test_sample_surface_point_deterministic():
    a = sample_surface_point_1d(random.Random(8), bits=30)
    b = sample_surface_point_1d(random.Random(8), bits=30)
    assert a == b


@pytest.mark.parametrize("bits", [0, -1])
def test_sample_surface_point_needs_bits(bits):
    # getrandbits(0) is always 0, so the draw would never return
    with pytest.raises(ValueError, match="bits must be positive"):
        sample_surface_point_1d(random.Random(8), bits=bits)


# ---------------------------------------------------------------------------
# return-time identity


def rho_at(basis):
    mem = surface_membership_S(basis)
    assert mem.member
    return float(ln_frac(mem.tall.height_sq / mem.wide.height_sq, 60)) / 2


def test_return_time_identity_1d():
    rng = random.Random(60)
    for _ in range(10):
        p = sample_surface_point_1d(rng, bits=24)
        basis = chart_lattice_1d(p)
        fr = first_return(basis)
        lhs = fr.tau * 2
        rhs = rho_at(fr.basis_after) + fr.rho_star
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_return_time_identity_2d():
    p = SurfacePoint2D(
        Fraction(-5, 16), Fraction(5, 8), Fraction(-7, 8), Fraction(-1, 2),
        Fraction(1, 8), Fraction(61, 16),
    )
    fr = first_return(chart_lattice_2d(p))
    assert fr.tau * 3 == pytest.approx(rho_at(fr.basis_after) + fr.rho_star, abs=1e-9)


def test_consecutive_returns_follow_visiting_times():
    _, basis = theta_basis(64, 61)
    chain = minimal_vectors(basis, 8)
    vt = visiting_times(chain)
    start = dict(vt.ratio_sq)[1]
    times = dict(vt.t)
    on_s = apply_flow_log(basis, start)
    fr = first_return(on_s)
    assert fr.tau == pytest.approx(times[2] - times[1], abs=1e-9)
    fr2 = first_return(fr.basis_after)
    assert fr2.tau == pytest.approx(times[3] - times[2], abs=1e-9)


# ---------------------------------------------------------------------------
# d = 2 chart


def test_chart_2d_frozen_membership():
    p = SurfacePoint2D(
        Fraction(-5, 16), Fraction(5, 8), Fraction(-7, 8), Fraction(-1, 2),
        Fraction(1, 8), Fraction(61, 16),
    )
    mem = surface_membership_S(chart_lattice_2d(p))
    assert mem.member
    assert mem.lam1_sq == 1
    assert mem.wide.y == (1, 0, 0)
    assert mem.wide.height_sq == Fraction(1, 64)
    assert mem.tall.y == (0, 1, 0)
    assert mem.tall.width_sq == Fraction(125, 256)


def test_chart_2d_first_return_frozen():
    p = SurfacePoint2D(
        Fraction(-5, 16), Fraction(5, 8), Fraction(-7, 8), Fraction(-1, 2),
        Fraction(1, 8), Fraction(61, 16),
    )
    fr = first_return(chart_lattice_2d(p))
    assert fr.ratio_sq == Fraction(3969, 125)
    assert fr.vector.y == (1, 0, 1)
    assert fr.tau == pytest.approx(0.5763259525801273, abs=1e-14)
    mem = surface_membership_S(fr.basis_after)
    assert mem.member
    assert mem.wide.y == (0, 1, 0)
    assert mem.tall.y == (1, 0, 1)


def test_chart_2d_off_transversal():
    p = SurfacePoint2D(
        Fraction(-5, 16), Fraction(5, 8), Fraction(-7, 8), Fraction(-1, 2),
        Fraction(1, 8), Fraction(1, 16),
    )
    basis = chart_lattice_2d(p)
    mem = surface_membership_S(basis)
    assert not mem.member
