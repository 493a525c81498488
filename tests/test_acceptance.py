"""Acceptance gate, one test per numbered target, master seed 1.

1. Levy constant, d=c=1: ergodic tail slopes vs pi^2/(12 ln2), 0.012.
2. Levy constant, d=2, c=1: vs the 9-digit literature value, 0.02.
3. Duality c*L = d*L* inside 3 combined stderr on both runs above.
4. Surface quadrature equals 2 ln 2 (1e-6); zeta route equals the
   closed form (1e-12).
5. Enumeration first-return map vs the explicit chart map on 10^3
   random surface points: relative error <= 1e-9, exact sign agreement.
6. Pooled q_{k+1} r_k sample, d=c=1, >= 1e5 values: exact support
   inside [1/2, 1] and KS distance to the closed-form CDF <= 0.02 (the
   quadrature oracle is pinned to the closed form in test_estimators).
7. Pooled sample, d=2, c=1, >= 2000 values: all mass <= 4/pi exactly;
   the mass below 0.05 is >= 0.2% in both the chain pool and a pool from
   an exact integer scan (no lattice code), and the two-sample KS
   distance between the pools is <= 1.95*sqrt((n+m)/(nm)) (alpha ~ 0.001).
8. Property suites: engine equivalence on 100 targets, exact Minkowski
   bound per term, doubling q_{n+A} >= 2 q_n at the safe gap, flow
   equivariance of chains, return-time identity along 10^3 returns,
   enumeration vs brute force on 500 bases.
9. Inductive construction: 10 certified steps under 10 minutes, all
   seven conditions witnessed, min q_n r_n^2 sinks >= 4x while
   min q_{n+1} r_n^2 keeps half its early value.

Each test prints one PASS/FAIL line with the measured numbers.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import (
    brute_cylinder,
    exact_scan_2x1,
    random_cylinder,
    random_unimodular_basis,
    safe_box,
)
from diolab.badk import certify, init_state, prefix_statistics, step
from diolab.bestapprox import (
    beta_sequence,
    cf_best_denominators,
    chain_engine,
    direct_scan,
    sample_theta,
)
from diolab.core import (
    NonGenericLatticeError,
    a_safe,
    enumerate_in_cylinder,
    ln_frac,
    minkowski_leq,
)
from diolab.dynamics import (
    apply_flow,
    chart_lattice_1d,
    first_return,
    minimal_vectors,
    return_map_explicit_1d,
    sample_surface_point_1d,
    surface_first_return_1d,
    surface_membership_S,
)
from diolab.estimators import (
    LEVY_2_1,
    bjw_cdf_1d,
    bjw_empirical,
    ks_distance,
    levy_closed_form_1d,
    levy_ergodic,
    surface_measure_1d,
)

SEED = 1


def report(name: str, ok: bool, detail: str) -> None:
    print("%s: %s  [%s]" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s failed: %s" % (name, detail)


@pytest.fixture(scope="module")
def levy_1d():
    return levy_ergodic(1, 1, trials=200, depth=100, bits=256, seed=SEED)


@pytest.fixture(scope="module")
def levy_2d():
    return levy_ergodic(2, 1, trials=100, depth=60, bits=512, seed=SEED)


def test_criterion_1_levy_constant_1d(levy_1d):
    target = levy_closed_form_1d().value
    err = abs(levy_1d.L_hat - target)
    err_star = abs(levy_1d.L_star_hat - target)
    report(
        "criterion 1 (Levy d=c=1)",
        err <= 0.012 and err_star <= 0.012,
        "|L_hat-L|=%.5f |L*_hat-L|=%.5f tol 0.012" % (err, err_star),
    )


def test_criterion_2_levy_constant_2d(levy_2d):
    err = abs(levy_2d.L_hat - LEVY_2_1)
    report(
        "criterion 2 (Levy d=2,c=1)",
        err <= 0.02,
        "|L_hat-%.9f|=%.5f tol 0.02" % (LEVY_2_1, err),
    )


def test_criterion_3_duality(levy_1d, levy_2d):
    details = []
    ok = True
    for label, est in (("1x1", levy_1d), ("2x1", levy_2d)):
        res = abs(est.duality_residual)
        bound = 3 * est.duality_stderr
        ok = ok and res <= bound
        details.append("%s |cL-dL*|=%.5f <= %.5f" % (label, res, bound))
    report("criterion 3 (duality)", ok, "; ".join(details))


def test_criterion_4_surface_closed_form():
    quad = surface_measure_1d()
    closed = levy_closed_form_1d()
    err_quad = abs(quad - 2 * math.log(2))
    err_zeta = abs(closed.zeta_ratio - closed.value)
    report(
        "criterion 4 (closed forms)",
        err_quad <= 1e-6 and err_zeta <= 1e-12,
        "|quad-2ln2|=%.2e, |zeta route-L|=%.2e" % (err_quad, err_zeta),
    )


def test_criterion_5_return_map_oracle():
    rng = random.Random(SEED)
    worst = 0.0
    checked = 0
    while checked < 1000:
        p = sample_surface_point_1d(rng, bits=48)
        try:
            want, want_ratio = return_map_explicit_1d(p)
            got, got_ratio = surface_first_return_1d(p)
        except NonGenericLatticeError:
            continue
        assert got.eps == want.eps
        assert got_ratio == want_ratio
        rel = max(
            abs(float((got.x - want.x) / want.x)),
            abs(float((got.y - want.y) / want.y)),
        )
        worst = max(worst, rel)
        checked += 1
    report(
        "criterion 5 (return-map oracle)",
        worst <= 1e-9,
        "1000 points, max relative error %.3g, exact eps" % worst,
    )


def test_criterion_6_bjw_distribution_1d():
    # every pooled value is range-checked exactly in squared form inside
    # bjw_empirical; a violation raises instead of polluting the sample
    ecdf = bjw_empirical(1, 1, trials=500, depth=215, bits=512, seed=SEED)
    pool = ecdf.samples.size
    ks = ks_distance(ecdf, bjw_cdf_1d)
    lo, hi = float(ecdf.samples.min()), float(ecdf.samples.max())
    report(
        "criterion 6 (limit law d=c=1)",
        pool >= 10**5 and ks <= 0.02 and 0.5 - 1e-12 <= lo and hi <= 1 + 1e-12,
        "pool=%d KS=%.5f support=[%.6f, %.6f]" % (pool, ks, lo, hi),
    )


# Criterion 7 compares the chain pool with a second route: an exact int64
# scan of every height q <= 2^18 on 30-bit dyadic targets.  The first two
# products of each scan involve q_0 = 1, whose r_0 follows the uniform law
# of theta mod Z^2 rather than the limit law, so they are dropped.
SCAN_BITS = 30
SCAN_Q_MAX = 1 << 18
SCAN_TARGETS = 600
SCAN_DISCARD = 2
LOW_CUT = 0.05
LOW_FLOOR = 0.002


@pytest.fixture(scope="module")
def bjw_2d():
    return bjw_empirical(2, 1, trials=100, depth=60, bits=512, seed=SEED)


@pytest.fixture(scope="module")
def scan_2d():
    """Pooled q_{n+1} r_n^2 over seeded targets, from exact_scan_2x1."""
    rng = random.Random(SEED)
    scale = 1 << 2 * SCAN_BITS
    pooled = []
    for _ in range(SCAN_TARGETS):
        theta = sample_theta(2, 1, SCAN_BITS, rng)
        qs, ws = exact_scan_2x1(theta, SCAN_BITS, SCAN_Q_MAX)
        pairs = list(zip(qs[1:].tolist(), ws[:-1].tolist()))[SCAN_DISCARD:]
        pooled.extend(float(Fraction(q1 * w0, scale)) for q1, w0 in pairs)
    return np.asarray(pooled)


def low_mass_verdict(chain, scan):
    """The low-mass clause of criterion 7 on a chain pool and a scan pool.

    Both pools must put at least LOW_FLOOR of their mass below LOW_CUT:
    the exact scan measures about 0.42% there, and 0.2% is about 2.5
    binomial sigma below that for a pool of 5000.  The two pools must also agree:
    their KS distance is at most the alpha ~ 0.001 critical value
    1.95*sqrt((n+m)/(nm)), fixed by the sample sizes alone.
    """
    n, m = chain.size, scan.size
    low_chain = float(np.mean(chain < LOW_CUT))
    low_scan = float(np.mean(scan < LOW_CUT))
    ks = float(stats.ks_2samp(chain, scan).statistic)
    bound = 1.95 * math.sqrt((n + m) / (n * m))
    ok = low_chain >= LOW_FLOOR and low_scan >= LOW_FLOOR and ks <= bound
    detail = (
        "mass<%.2f chain=%.4f scan=%.4f (floor %.3f) KS=%.4f (bound %.4f, n=%d, m=%d)"
        % (LOW_CUT, low_chain, low_scan, LOW_FLOOR, ks, bound, n, m)
    )
    return ok, detail


def test_criterion_7_bjw_low_mass_2d(bjw_2d, scan_2d):
    # the 4/pi cap is checked exactly per value inside bjw_empirical.  For
    # d >= 2 and almost every theta the liminf of q_{n+1} r_n^2 is 0, so
    # the law has mass near 0 (the d=c=1 law has none below 1/2).  Not for
    # every theta: criterion 9's construction is a theta whose
    # min q_{n+1} r_n^2 stays near 0.1.  How much mass is not given by the
    # paper, so the floor is set from the exact scan's measurement and the
    # chain pool must match the scan pool as a whole
    pool = bjw_2d.samples.size
    hi = float(bjw_2d.samples.max())
    ok, detail = low_mass_verdict(bjw_2d.samples, scan_2d)
    report(
        "criterion 7 (low mass d=2,c=1)",
        pool >= 2000 and hi <= 4 / math.pi + 1e-12 and ok,
        "pool=%d max=%.6f (cap %.6f) %s" % (pool, hi, 4 / math.pi, detail),
    )


def test_criterion_7_rejects_truncated_pool(bjw_2d, scan_2d):
    # the chart Monte Carlo never accepts products below 0.149; a pool cut
    # there keeps its cap and size but must fail the low-mass clause
    cut = bjw_2d.samples[bjw_2d.samples >= 0.149]
    assert 2000 <= cut.size < bjw_2d.samples.size
    ok, detail = low_mass_verdict(cut, scan_2d)
    assert not ok, detail


def _check_equivalence_suite():
    rng = random.Random(SEED)
    targets = 0
    for _ in range(60):
        theta = sample_theta(1, 1, 96, rng)
        qs = cf_best_denominators(theta[0][0])
        recs = chain_engine(theta, depth=len(qs) + 5)
        assert [r.Q[0] for r in recs] == qs
        assert recs[-1].terminal
        for b_sq in beta_sequence(recs, 1, 1):
            assert minkowski_leq(b_sq, 1, 1)
        targets += 1
    for _ in range(25):
        theta = sample_theta(2, 1, 128, rng)
        recs = chain_engine(theta, q_max=400)
        assert recs == direct_scan(theta, 400)
        for b_sq in beta_sequence(recs, 2, 1):
            assert minkowski_leq(b_sq, 2, 1)
        targets += 1
    for _ in range(15):
        theta = sample_theta(1, 2, 128, rng)
        recs = chain_engine(theta, q_max=100)
        assert recs == direct_scan(theta, 100)
        for b_sq in beta_sequence(recs, 1, 2):
            assert minkowski_leq(b_sq, 1, 2)
        targets += 1
    return "%d targets" % targets


def _check_doubling_suite():
    pairs = 0
    for d, c, bits, depth, seed in ((1, 1, 256, 80, 7), (2, 1, 1024, 410, 81)):
        theta = sample_theta(d, c, bits, random.Random(seed))
        recs = chain_engine(theta, depth=depth)
        gap = a_safe(d, c)
        qs = [max(abs(t) for t in r.Q) for r in recs]
        assert len(qs) > gap
        for n in range(len(qs) - gap):
            assert qs[n + gap] >= 2 * qs[n]
            pairs += 1
    return "%d doubling pairs" % pairs


def _check_equivariance_suite():
    rng = random.Random(SEED)
    for _ in range(8):
        theta = sample_theta(1, 1, 64, rng)
        from diolab.core import LatticeBasis

        basis = LatticeBasis.from_theta(theta)
        t = 0.1 + 1.9 * rng.random()
        base = minimal_vectors(basis, 12, certify=False)
        flowed = minimal_vectors(apply_flow(basis, t), 12, certify=False)
        ys_a = [e.vector.y for e in base.entries]
        ys_b = [e.vector.y for e in flowed.entries]
        assert ys_b[0] in ys_a
        k = ys_a.index(ys_b[0])
        n = min(len(ys_a) - k, len(ys_b))
        assert n >= 8
        assert ys_a[k : k + n] == ys_b[:n]
    return "8 flowed chains"


def _check_return_time_identity():
    rng = random.Random(8)
    worst = 0.0
    checked = 0
    while checked < 1000:
        p = sample_surface_point_1d(rng, bits=40)
        basis = chart_lattice_1d(p)
        for _ in range(10):
            fr = first_return(basis)
            mem = surface_membership_S(fr.basis_after)
            assert mem.member
            rho = float(ln_frac(mem.tall.height_sq / mem.wide.height_sq, 60)) / 2
            gap = abs(2 * fr.tau - (rho + fr.rho_star))
            worst = max(worst, gap)
            basis = fr.basis_after
            checked += 1
    assert worst <= 1e-9
    return "identity gap %.2e over %d returns" % (worst, checked)


def _check_brute_force_suite():
    rng = random.Random(2024)
    checked = attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 5000, "safe boxes reject too many random bases"
        d, c = rng.choice(((1, 1), (1, 1), (1, 1), (2, 1), (1, 2)))
        basis = random_unimodular_basis(rng, d, c, ops=4 if d + c == 3 else 5)
        cyl = random_cylinder(rng)
        box = safe_box(basis, cyl)
        if box > (16 if d + c == 2 else 7):
            continue
        got = enumerate_in_cylinder(basis, cyl)
        want = brute_cylinder(basis, cyl, box)
        assert [v.y for v in got] == [v.y for v in want]
        checked += 1
    return "500 bases"


def test_criterion_8_property_suites():
    details = [
        _check_equivalence_suite(),
        _check_doubling_suite(),
        _check_equivariance_suite(),
        _check_return_time_identity(),
        _check_brute_force_suite(),
    ]
    report("criterion 8 (property suites)", True, "; ".join(details))


def test_criterion_9_inductive_construction():
    t0 = time.monotonic()
    state = init_state()
    reports = [certify(state)]
    early = None
    for _ in range(10):
        state = step(state)
        reports.append(certify(state))
        if state.n == 2:
            early = prefix_statistics(state)
    elapsed = time.monotonic() - t0
    final = prefix_statistics(state)
    full = {
        "best_denominators",
        "growth_and_branching",
        "gap_minima_positive",
        "drift_below_gap_minima",
        "drift_below_drop_minima",
        "shortest_vector_sign",
        "second_minimum_ratio",
    }
    for rep in reports:
        assert set(rep.conditions) | set(rep.vacuous) == full
        assert all(rep.conditions.values())
    witnessed = reports[-1].vacuous == ()
    sink = final.a * 4 <= early.a
    floor = final.b * 2 >= early.b
    # the wall time stays off the verdict line, which repeats byte for byte
    print("criterion 9 wall time: %.2fs (< 600s)" % elapsed)
    report(
        "criterion 9 (construction)",
        elapsed < 600 and witnessed and sink and floor,
        "n=%d, a ratio %.2f (>=4), b ratio %.3f (>=0.5)"
        % (state.n, float(early.a / final.a), float(final.b / early.b)),
    )
