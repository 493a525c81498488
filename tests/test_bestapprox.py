"""Best-approximation engines: frozen record sequences, the continued
fraction oracle, and scan-vs-chain equivalence on random targets."""

import random
from fractions import Fraction

import numpy as np
import pytest

import diolab.bestapprox as bestapprox
from diolab.bestapprox import (
    beta_sequence,
    cf_best_denominators,
    cf_convergents,
    chain_engine,
    direct_scan,
    minkowski_ok,
    sample_theta,
    theta_from_strings,
)
from conftest import exact_scan_2x1, reference_shells
from diolab.core import BudgetExceededError, NonGenericLatticeError, _int_columns


def fib(n):
    a, b = 1, 1
    seq = [0, 1, 1]
    for _ in range(n - 2):
        a, b = b, a + b
        seq.append(b)
    return seq


def test_theta_from_strings():
    theta = theta_from_strings(["1/2,1/3"])
    assert theta == ((Fraction(1, 2), Fraction(1, 3)),)
    theta = theta_from_strings(["1/3", "2/7"])
    assert theta == ((Fraction(1, 3),), (Fraction(2, 7),))
    with pytest.raises(ValueError):
        theta_from_strings(["1/2,1/3", "1/5"])


def test_sample_theta_deterministic():
    a = sample_theta(2, 1, 64, random.Random(9))
    b = sample_theta(2, 1, 64, random.Random(9))
    assert a == b
    assert len(a) == 1 and len(a[0]) == 2
    assert all(0 <= t < 1 for col in a for t in col)


def test_direct_scan_frozen_2x1():
    theta = theta_from_strings(["1/2,1/3"])
    recs = direct_scan(theta, 50)
    assert [r.Q for r in recs] == [(1,), (2,), (6,)]
    assert [r.P for r in recs] == [(0, 0), (1, 1), (3, 2)]
    assert [r.r_sq for r in recs] == [
        Fraction(13, 36),
        Fraction(1, 9),
        Fraction(0),
    ]
    assert [r.terminal for r in recs] == [False, False, True]
    assert [r.n for r in recs] == [0, 1, 2]


def test_direct_scan_frozen_1x1_tie_is_not_a_record():
    # q = 2 ties the q = 1 distance for theta = 1/3 and must not appear
    recs = direct_scan(((Fraction(1, 3),),), 10)
    assert [r.Q for r in recs] == [(1,), (3,)]
    assert recs[0].r_sq == Fraction(1, 9)
    assert recs[1].terminal


def test_exact_scan_oracle_matches_direct_scan():
    # small bits reach a terminal record (and ties) inside the scan range
    rng = random.Random(11)
    for bits in [30] * 20 + [12, 9, 6]:
        theta = sample_theta(2, 1, bits, rng)
        recs = direct_scan(theta, 3000)
        qs, ws = exact_scan_2x1(theta, bits, 3000)
        assert [r.Q for r in recs] == [(int(q),) for q in qs]
        assert [r.r_sq for r in recs] == [Fraction(int(w), 1 << 2 * bits) for w in ws]


def test_direct_scan_budget():
    theta = ((Fraction(123456789, 1 << 40),),)
    with pytest.raises(BudgetExceededError):
        direct_scan(theta, 10**6, budget=100)


def test_direct_scan_budget_builds_one_chunk(monkeypatch):
    # the disk of norm 10^6 holds about 1.6e12 heights; a budget of 50
    # heights raises inside the first annulus without building the rest
    theta = ((Fraction(123456789, 1 << 40),), (Fraction(987654321, 1 << 40),))
    built = []
    annulus = bestapprox._annulus

    def counted(n0, n1):
        built.append((n0, n1))
        return annulus(n0, n1)

    monkeypatch.setattr(bestapprox, "_annulus", counted)
    with pytest.raises(BudgetExceededError):
        direct_scan(theta, 10**6, budget=100)
    assert len(built) == 1


def test_prefilter_keeps_every_height_within_the_bound():
    # non-dyadic denominators truncate every a_ji, and |q_j| runs up to
    # q_max; each height whose exact squared distance is at most the
    # bound survives, and some survive only by the margin E = sum |q_j|
    rng = random.Random(23)
    by_margin = 0
    for d, c, q_max in ((1, 1, 3000), (3, 1, 1500), (1, 2, 36), (2, 2, 24)):
        for den in (3**41, 7**29, (1 << 89) - 1):
            entries = [Fraction(rng.randrange(-den, 2 * den), den) for _ in range(d * c)]
            entries[0] = Fraction(-1, den)  # a = 2^64 - 1 after the truncation
            theta = tuple(tuple(entries[j * d : (j + 1) * d]) for j in range(c))
            tnum, den_ = _int_columns(theta)
            frac64 = bestapprox._frac64(tnum, den_)
            heights = [h for _, h in reference_shells(c, q_max)]
            qcols = [np.array([h[j] for h in heights], dtype=np.int64) for j in range(c)]
            w = []
            u = []
            for h in heights:
                dist = [sum(h[j] * tnum[j][i] for j in range(c)) % den_ for i in range(d)]
                w.append(sum(min(x, den_ - x) ** 2 for x in dist))
                s = [sum(h[j] * frac64[j][i] for j in range(c)) % (1 << 64) for i in range(d)]
                u.append(max(min(x, (1 << 64) - x) for x in s))
            for bound in sorted(w)[:: len(w) // 40]:
                kept = set(bestapprox._survivors(qcols, frac64, den_, bound).tolist())
                near = [k for k, wk in enumerate(w) if wk <= bound]
                assert kept.issuperset(near)
                b64 = bestapprox._bound64(bound, den_)
                by_margin += sum(u[k] > b64 for k in near)
    assert by_margin > 0


def test_cf_convergents():
    assert cf_convergents(Fraction(355, 113)) == [(3, 1), (22, 7), (355, 113)]
    assert cf_convergents(Fraction(1, 3)) == [(0, 1), (1, 3)]
    assert cf_best_denominators(Fraction(1, 3)) == [1, 3]
    # leading quotient 1 doubles the q = 1 convergent
    assert cf_best_denominators(Fraction(2, 3)) == [1, 3]


def test_fibonacci_chain_has_29_records():
    # F30/F31: the height F30 ties F29 at distance 1/F31, so the record
    # chain skips it and jumps straight to the terminal F31
    f = fib(31)
    x = Fraction(f[30], f[31])
    expect = [1] + [f[k] for k in range(3, 30)] + [f[31]]
    assert cf_best_denominators(x) == expect
    assert len(expect) == 29

    recs = chain_engine(((x,),), depth=60)
    assert [r.Q[0] for r in recs] == expect
    assert recs[-1].terminal and recs[-1].r_sq == 0
    assert all(not r.terminal for r in recs[:-1])

    scan = direct_scan(((x,),), f[31])
    assert scan == recs


def test_chain_matches_cf_oracle_random():
    rng = random.Random(77)
    for _ in range(20):
        theta = sample_theta(1, 1, 256, rng)
        x = theta[0][0]
        qs = cf_best_denominators(x)
        recs = chain_engine(theta, depth=len(qs) + 10)
        assert [r.Q[0] for r in recs] == qs
        assert recs[-1].terminal
        assert len(recs) >= 80


def test_chain_matches_scan_2x1():
    rng = random.Random(101)
    total = 0
    for _ in range(10):
        theta = sample_theta(2, 1, 256, rng)
        scan = direct_scan(theta, 500)
        recs = chain_engine(theta, q_max=500)
        assert recs == scan
        assert len(recs) >= 2
        total += len(recs)
    assert total >= 40


def test_chain_matches_scan_5x1():
    # the Minkowski constant of d = 5 comes from the ball-volume recurrence
    rng = random.Random(55)
    total = 0
    for _ in range(4):
        theta = sample_theta(5, 1, 64, rng)
        recs = chain_engine(theta, q_max=60)
        assert recs == direct_scan(theta, 60)
        total += len(recs)
    assert total >= 8


def test_chain_depth_must_be_positive():
    theta = sample_theta(1, 1, 64, random.Random(9))
    assert len(chain_engine(theta, depth=1)) == 1
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth"):
            chain_engine(theta, depth=depth)


def test_chain_matches_scan_1x2():
    rng = random.Random(202)
    total = 0
    for _ in range(8):
        theta = sample_theta(1, 2, 256, rng)
        scan = direct_scan(theta, 120)
        recs = chain_engine(theta, q_max=120)
        assert recs == scan
        assert len(recs) >= 2
        total += len(recs)
    assert total >= 30


def test_records_shrink_and_grow():
    rng = random.Random(303)
    for _ in range(10):
        theta = sample_theta(2, 1, 128, rng)
        recs = chain_engine(theta, depth=30)
        for a, b in zip(recs, recs[1:]):
            assert b.q_sq > a.q_sq
            assert b.r_sq < a.r_sq
        assert recs[0].Q == (1,)


def test_beta_sequence_and_minkowski():
    theta = theta_from_strings(["1/2,1/3"])
    recs = direct_scan(theta, 50)
    beta = beta_sequence(recs, 2, 1)
    assert beta == [Fraction(169, 324), Fraction(4, 9)]
    assert minkowski_ok(beta, 2, 1)
    with pytest.raises(ValueError):
        beta_sequence(recs[::2], 2, 1)


def test_minkowski_ok_boundary():
    assert minkowski_ok([Fraction(1)], 1, 1)
    assert not minkowski_ok([Fraction(1) + Fraction(1, 10**20)], 1, 1)


def test_minkowski_holds_along_random_chains():
    rng = random.Random(404)
    for _ in range(5):
        theta = sample_theta(1, 1, 192, rng)
        recs = chain_engine(theta, depth=60)
        beta = beta_sequence(recs, 1, 1)
        assert minkowski_ok(beta, 1, 1)


def test_tied_unit_heights_raise():
    theta = theta_from_strings(["1/3", "1/3"])
    with pytest.raises(NonGenericLatticeError):
        chain_engine(theta, depth=5)
    with pytest.raises(NonGenericLatticeError):
        direct_scan(theta, 5)


def test_chain_requires_a_stop():
    with pytest.raises(ValueError):
        chain_engine(((Fraction(1, 3),),))
