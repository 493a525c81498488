"""Diagonal flow, minimal-vector chains, transversal membership, and the
two first-return routes."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from diolab.bestapprox import chain_engine, direct_scan, sample_theta
import diolab.core as core
import diolab.dynamics as dynamics
from diolab.core import (
    Cylinder,
    LatticeBasis,
    NonGenericLatticeError,
    a_safe,
    ln_frac,
    minkowski_bound_sq_range,
    sq_close,
)
from diolab.dynamics import (
    SurfacePoint1D,
    _chain_stepper,
    SurfacePoint2D,
    _critical_classes,
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

from conftest import (
    brute_cylinder,
    flow_by_columns,
    kth_root_upper,
    reference_critical_ball,
    return_orbit,
    safe_box,
)


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
    assert flowed.tol == Fraction(1, 1 << 112)
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
    assert sum(b.flow is not None for b in bases) >= 10


def brute_chain_class(basis, x, forward):
    """The chain neighbour class of x from a brute scan of its Minkowski
    cylinder in physical Fractions, with chain_walker's exact rules
    stated in physical units: strictly narrower, strictly taller, every
    vector of minimal (other^2, narrow^2); None when the scan box is too
    large."""
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
        if n < x_n and o > x_o:
            found[v] = (o, n)
    best = min(found.values())
    return sorted((v for v, key in found.items() if key == best), key=lambda v: v.y[::-1])


def test_stepper_on_flowed_lattices_matches_exact_brute_force():
    # flowed chart and theta lattices (tol > 0), scale_sq != 1, whose
    # blocks have different units: the walker decides exactly on them
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
def test_near_tie_is_decided_exactly(forward, short):
    # two candidates of the same other norm whose narrow norms differ by
    # about tol/2, a tie within the fixed tolerance of a flowed basis
    # (with short narrow norms, < 1, only by the unit floor of
    # sq_close); the walker compares them as integers of one block, so
    # the basis carrying a flow, here of unit factors, steps to the same
    # class as the exact one
    w = Fraction(1, 2) if short else Fraction(3)
    eps = Fraction(1, 1 << 113) if short else w / (1 << 114)
    pair = [(w, Fraction(1)), (-(w + eps), Fraction(1))]
    if not forward:
        pair = [col[::-1] for col in pair]
    exact = LatticeBasis(1, 1, pair)
    basis = LatticeBasis(1, 1, pair, flow=(1, 1))
    tol = basis.tol
    assert tol == Fraction(1, 1 << 112)
    a, b = basis.vector((1, 0)), basis.vector((0, 1))
    n_a, n_b = (a.width_sq, b.width_sq) if forward else (a.height_sq, b.height_sq)
    assert n_a != n_b and abs(n_a - n_b) <= tol * max(n_a, n_b, 1)
    assert (abs(n_a - n_b) > tol * max(n_a, n_b)) == short
    got = _chain_stepper(basis, 10**7)(basis.vector((1, -1)), forward)
    want = _chain_stepper(exact, 10**7)(exact.vector((1, -1)), forward)
    assert [v.y for v in got] == [v.y for v in want] == [(1, 0)]


def test_flow_keeps_kernel_columns():
    # each block of a flowed basis is its parent's times one frozen
    # factor, which the kernel clears: the integer columns, and so every
    # chain step, stay those of the unflowed basis
    rng = random.Random(12)
    for i, (d, c) in enumerate(((1, 1), (2, 1), (1, 2))):
        _, basis = theta_basis(64, 90 + i, d, c)
        cols = basis.kernel[0]
        step = _chain_stepper(basis, 10**7)
        flowed = basis
        for k in range(4):
            # float and Fraction times alike
            t = rng.uniform(-3, 3)
            flowed = apply_flow(flowed, Fraction(t) if k % 2 else t)
            assert flowed.columns is basis.columns
            assert flowed.kernel[0] == cols
        flowed_step = _chain_stepper(flowed, 10**7)
        checked = 0
        for entry in minimal_vectors(basis, 6, back=3, certify=False).entries:
            for forward in (True, False):
                want = step(entry.vector, forward)
                if want is None:
                    continue
                got = flowed_step(flowed.vector(entry.vector.y), forward)
                assert [v.y for v in got] == [v.y for v in want]
                checked += 1
        assert checked >= 10
    orbit = return_orbit(5, 10)
    basis = next(orbit)
    for flowed in orbit:
        assert flowed.columns is basis.columns
        assert flowed.kernel[0] == basis.kernel[0]


def test_flow_factors_match_scaled_columns():
    # a flowed basis keeps its parent's columns and stores the product
    # of its frozen factors; after each of four chained flows its
    # vectors (raw coordinates included), determinant and kernel view
    # are the same Fractions as on a basis whose columns were scaled
    # explicitly, flow by flow
    rng = random.Random(13)
    bases = [theta_basis(64, 70 + i, d, c)[1] for i, (d, c) in enumerate(((1, 1), (2, 1), (1, 2)))]
    bases.append(chart_lattice_1d(sample_surface_point_1d(rng, 48)))
    bases.append(chart_lattice_2d(SurfacePoint2D(
        Fraction(-5, 16), Fraction(5, 8), Fraction(-7, 8), Fraction(-1, 2),
        Fraction(1, 8), Fraction(61, 16),
    )))
    for basis in bases:
        ys = [y for y in itertools.product(range(-2, 3), repeat=basis.m) if any(y)]
        flowed = ref = basis
        for k in range(4):
            t = rng.uniform(-3, 3)
            t = Fraction(t) if k % 2 else t
            flowed, ref = apply_flow(flowed, t), flow_by_columns(ref, t)
            assert flowed.columns is basis.columns and flowed.scale_sq == basis.scale_sq
            assert flowed.tol == Fraction(1, 1 << 112) and ref.flow is None
            assert flowed.det_raw() == ref.det_raw()
            assert flowed.det_sq() == ref.det_sq()
            assert flowed.kernel == ref.kernel
            assert flowed.kernel_minkowski_sq == ref.kernel_minkowski_sq
            assert [flowed.vector(y) for y in ys] == [ref.vector(y) for y in ys]


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


@pytest.mark.parametrize("certify", [False, True])
def test_anchor_is_a_relative_minimum_beside_a_corner(certify):
    # columns (1, 1) and (-1/2, 1): the critical ball holds the corner
    # (1, 0) and the tall vector (0, 1) at height 1.  The corner is no
    # relative minimum (the tall vector is narrower at its height), so
    # the chain anchors on the tall vector
    basis = LatticeBasis(1, 1, ((Fraction(1), Fraction(1)), (Fraction(-1, 2), Fraction(1))))
    chain = minimal_vectors(basis, 3, back=2, certify=certify)
    assert [(e.n, e.vector.y) for e in chain.entries] == [
        (-1, (-1, 1)),
        (0, (0, 1)),
        (1, (1, 2)),
    ]
    assert chain.backward_finite and chain.forward_finite


def test_an_empty_successor_cylinder_is_a_fault(monkeypatch):
    # every vector stepped from is a chain member, whose neighbour lies in
    # the Minkowski cylinder: a walker finding none is a fault
    monkeypatch.setattr(
        dynamics, "chain_walker", lambda *args, **kwargs: lambda y, forward=True: (None, [])
    )
    with pytest.raises(AssertionError, match="no chain neighbour"):
        minimal_vectors(LatticeBasis.identity(1, 1), 2)


def test_chain_count_validation():
    with pytest.raises(ValueError):
        minimal_vectors(LatticeBasis.identity(1, 1), 0)


def test_origin_is_the_first_class_meeting_the_condition():
    # X_0 meets height(X_1) >= width(X_0) within tol and X_{-1} fails it,
    # on theta-lattices and chart lattices, flowed and after a return
    def meets(x, nxt, tol):
        h, w = nxt.height_sq, x.width_sq
        return h > w or sq_close(h, w, tol)

    rng = random.Random(19)
    bases = []
    for d, c in [(1, 1), (2, 1), (1, 2)]:
        for _ in range(3):
            basis = LatticeBasis.from_theta(sample_theta(d, c, 64, rng))
            ratio = dict(visiting_times(minimal_vectors(basis, 3)).ratio_sq)[1]
            on_s = apply_flow_log(basis, ratio)
            bases += [basis, apply_flow(basis, 0.37), first_return(on_s).basis_after]
    for _ in range(6):
        basis = chart_lattice_1d(sample_surface_point_1d(rng, 48))
        bases += [basis, apply_flow(basis, -0.61), first_return(basis).basis_after]
    behind = 0
    for basis in bases:
        chain = minimal_vectors(basis, 3, back=2, certify=False)
        by_n = {e.n: e.vector for e in chain.entries}
        if 1 in by_n:
            assert meets(by_n[0], by_n[1], basis.tol)
        if -1 in by_n:
            assert not meets(by_n[-1], by_n[0], basis.tol)
            behind += 1
    assert len(bases) == 45 and behind >= 20


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


def near_tie_basis(s, delta, corner=False):
    """d = c = 1 lattice with a frozen flow of unit factors (tol > 0).
    Off the corner: the wide vector (1, 0) has width^2 s^2 = lambda_1^2
    and the tall vector (0, 1) height^2 s^2 (1 + delta)^2, a near tie of
    the mixed norm.  corner: (1, 0) has width^2 s^2 (1 + delta)^2 =
    lambda_1^2 and height^2 s^2.  The signs keep (1, +-1) longer."""
    x, y = Fraction(1, 3), Fraction(1, 5)
    if corner:
        cols = ((s * (1 + delta), s), (-s * x, 2 * s))
    else:
        cols = ((s, s * y), (-s * x, s * (1 + delta)))
    return LatticeBasis(1, 1, cols, flow=(1, 1))


def assert_ball_matches_reference(basis, tol):
    lam_sq, on = core._critical_ball(basis, tol, 10**7)
    want_lam, want = reference_critical_ball(basis, tol)
    assert lam_sq == want_lam
    # whole vectors (y, raw, width^2, height^2) in order, and the flags
    assert on == want
    return lam_sq, on


def test_critical_ball_equals_reference():
    # the integer radius, lambda_1, on-ball filter and wide/tall/corner
    # flags against the Fraction reference on theta, chart, flowed and
    # chained-return lattices, at tol = basis.tol and at tol = 0
    rng = random.Random(17)
    bases = []
    for i, (d, c) in enumerate(((1, 1), (2, 1), (1, 2)) * 3):
        _, basis = theta_basis((32, 64, 128)[i // 3], 200 + i, d, c)
        bases += [basis, apply_flow(basis, rng.uniform(-2, 2))]
    bases += [chart_lattice_1d(sample_surface_point_1d(rng, 48)) for _ in range(6)]
    bases.append(chart_lattice_2d(SurfacePoint2D(
        Fraction(-5, 16), Fraction(5, 8), Fraction(-7, 8), Fraction(-1, 2),
        Fraction(1, 8), Fraction(61, 16),
    )))
    while len(bases) < 30:
        p = SurfacePoint2D(*(Fraction(rng.randrange(-64, 65), 32) for _ in range(6)))
        basis = chart_lattice_2d(p)
        if basis.det_raw() != 0:
            bases += [basis, apply_flow(basis, rng.uniform(-1, 1))]
    for seed in (0, 1, 7):
        bases += list(return_orbit(seed, 10))
    members = 0
    for basis in bases:
        assert_ball_matches_reference(basis, Fraction(0))
        lam_sq, on = assert_ball_matches_reference(basis, basis.tol)
        _, vecs, wide, tall, corner = _critical_classes(basis, 10**7)
        assert vecs == [v for v, _, _ in on]
        assert wide == [v for v, at_w, at_h in on if at_w and not at_h]
        assert tall == [v for v, at_w, at_h in on if at_h and not at_w]
        assert corner == [v for v, at_w, at_h in on if at_w and at_h]
        members += surface_membership_S(basis).member
    assert sum(b.tol > 0 for b in bases) >= 40 and members >= 30


@pytest.mark.parametrize(
    "s, delta, corner, n_on",
    [
        # norms below 1: within tol of lambda_1 only by sq_close's floor
        # of physical 1, and beyond the 1 + 4 tol slack, so off the ball
        (Fraction(1, 8), 16, False, 1),
        # norms below 1: within tol only by the floor, within the slack
        (Fraction(1, 2), 1, False, 2),
        # norms above 1: within tol of lambda_1 relative to the norm
        (Fraction(2), Fraction(1, 4), False, 2),
        # norms above 1: within the slack, beyond tol relative to the norm
        (Fraction(2), 1, False, 1),
        # a corner: the height within tol of the width at lambda_1
        (Fraction(1), Fraction(1, 4), True, 1),
    ],
)
def test_critical_ball_near_ties(s, delta, corner, n_on):
    basis = near_tie_basis(s, delta * Fraction(1, 1 << 112), corner)
    tol = basis.tol
    assert tol == Fraction(1, 1 << 112)
    lam_sq, on = assert_ball_matches_reference(basis, tol)
    assert len(on) == n_on
    a, b = basis.vector((1, 0)), basis.vector((0, 1))
    if corner:
        assert [(v.y, at_w, at_h) for v, at_w, at_h in on] == [((1, 0), True, True)]
        assert a.width_sq == lam_sq != a.height_sq
        assert surface_membership_Sprime(basis).member
        return
    assert a.width_sq == lam_sq < b.height_sq
    gap = b.height_sq - lam_sq
    # the branch each case reaches, in physical Fractions
    assert (gap <= tol * max(b.height_sq, 1)) == (s < 1 or n_on == 2)
    assert (gap <= tol * b.height_sq) == (s > 1 and n_on == 2)
    assert (gap <= 4 * tol * lam_sq) == (s > 1 or n_on == 2)
    assert surface_membership_S(basis).member == (n_on == 2)


@pytest.mark.parametrize(
    "a, e", [(Fraction(999, 500), Fraction(2)), (Fraction(899, 1000), Fraction(9, 10))]
)
def test_critical_ball_closed_at_tol(a, e):
    # the tall vector's height^2 exceeds lambda_1^2 = a^2 by exactly tol
    # times itself (norms above 1) or times the floor 1 (below 1), with
    # tol chosen to hit the boundary: sq_close is closed, so it stays on
    # the ball
    basis = LatticeBasis(1, 1, ((a, a / 5), (-e / 3, e)))
    lam, big = a * a, e * e
    tol = (big - lam) / max(big, 1)
    assert big <= lam * (1 + 4 * tol)
    lam_sq, on = assert_ball_matches_reference(basis, tol)
    assert lam_sq == lam
    assert [(v.y, at_w, at_h) for v, at_w, at_h in on] == [((1, 0), True, False), ((0, 1), False, True)]


def test_critical_classes_file_no_vector_silently(monkeypatch):
    # a vector on the ball is wide, tall or both; one that is neither
    # raises instead of being filed as tall
    basis = LatticeBasis.identity(1, 1)
    lam_sq, on = core._critical_ball(basis, basis.tol, 10**7)
    monkeypatch.setattr(
        dynamics, "_critical_ball", lambda *args: (lam_sq, [(v, False, False) for v, _, _ in on])
    )
    with pytest.raises(AssertionError, match="neither wide nor tall"):
        surface_membership_S(basis)


def test_first_return_builds_vectors_only_on_the_ball(monkeypatch):
    # membership decides on kernel integers: no enumerate_in_cylinder, and
    # a LatticeVector only for each vector on the critical ball and each
    # member of the successor class
    bases = list(return_orbit(3, 10))
    sizes = []
    for basis in bases:
        _, on = core._critical_ball(basis, basis.tol, 10**7)
        tall = surface_membership_S(basis).tall
        sizes.append(len(on) + len(_chain_stepper(basis, 10**7)(tall)))
    built = []
    kernel_vector = core._kernel_vector

    def counted(basis, y, w, h):
        built.append(y)
        return kernel_vector(basis, y, w, h)

    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate_in_cylinder called during a first return")

    monkeypatch.setattr(core, "_kernel_vector", counted)
    monkeypatch.setattr(dynamics, "_kernel_vector", counted)
    monkeypatch.setattr(core, "enumerate_in_cylinder", forbidden)
    monkeypatch.setattr(dynamics, "enumerate_in_cylinder", forbidden, raising=False)
    for basis, size in zip(bases, sizes):
        built.clear()
        first_return(basis)
        assert 0 < len(built) <= size


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


def test_chained_returns_read_the_chart_map_exactly():
    # a flowed lattice carries frozen flow factors, and its chart point is
    # still exactly the explicit map's iterate, return after return
    rng = random.Random(52)
    for _ in range(20):
        p = sample_surface_point_1d(rng, bits=48)
        basis = chart_lattice_1d(p)
        for _ in range(12):
            basis = first_return(basis).basis_after
            p, _ = return_map_explicit_1d(p)
            assert surface_coordinates_1d(basis) == p


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
