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
    sample_theta,
)
from conftest import exact_scan_2x1, reference_scan, reference_shells
from diolab.core import (
    BudgetExceededError,
    NonGenericLatticeError,
    _int_columns,
    minkowski_leq,
)


def fib(n):
    a, b = 1, 1
    seq = [0, 1, 1]
    for _ in range(n - 2):
        a, b = b, a + b
        seq.append(b)
    return seq


def test_sample_theta_deterministic():
    a = sample_theta(2, 1, 64, random.Random(9))
    b = sample_theta(2, 1, 64, random.Random(9))
    assert a == b
    assert len(a) == 1 and len(a[0]) == 2
    assert all(0 <= t < 1 for col in a for t in col)


@pytest.mark.parametrize("bits", [0, -1])
def test_sample_theta_needs_bits(bits):
    # getrandbits(0) is always 0: every draw would be theta = 0
    with pytest.raises(ValueError, match="bits must be positive"):
        sample_theta(2, 1, bits, random.Random(9))


def test_direct_scan_frozen_2x1():
    theta = ((Fraction(1, 2), Fraction(1, 3)),)
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


def test_direct_scan_reuses_cached_annuli(monkeypatch):
    # the c = 2 shell order does not depend on theta: a second scan of
    # the same q_max builds no annulus, the cached heights, norms and
    # margins are read-only, and scans of two targets filter by the same
    # margin arrays
    a = ((Fraction(123456789, 1 << 40),), (Fraction(987654321, 1 << 40),))
    b = ((Fraction(2, 7),), (Fraction(5, 1 << 30),))
    bestapprox._annulus.cache_clear()
    first = direct_scan(a, 200)
    built = bestapprox._annulus.cache_info()
    assert built.misses > 1 and built.currsize == built.misses
    assert direct_scan(a, 200) == first
    direct_scan(b, 200)
    again = bestapprox._annulus.cache_info()
    assert again.misses == built.misses and again.hits >= built.misses
    (q1, q2), norms, margin = bestapprox._annulus(0, 42)
    assert margin.dtype == np.uint64
    assert margin.tolist() == (np.abs(q1) + np.abs(q2) + 1).tolist()
    for arr in (q1, q2, norms, margin):
        with pytest.raises(ValueError):
            arr[0] = 7

    seen = []
    excess = bestapprox._excess

    def recorded(qcols, margin, frac64):
        seen[-1].append(margin)
        return excess(qcols, margin, frac64)

    monkeypatch.setattr(bestapprox, "_excess", recorded)
    for theta in (a, b):
        seen.append([])
        direct_scan(theta, 200)
    # b = (2/7, 5/2^30) ends at its terminal height (7, 0), in its
    # second chunk
    ma, mb = seen
    assert len(ma) > len(mb) == 2
    assert all(x is y for x, y in zip(ma, mb))


def test_prefilter_keeps_every_height_within_the_bound():
    # non-dyadic denominators truncate every a_ji, and |q_j| runs up to
    # q_max; in every chunk, with the margins it comes with, each height
    # whose exact squared distance is at most the bound survives, and
    # some survive only by the margin E = sum |q_j| + 1
    rng = random.Random(23)
    by_margin = 0
    for d, c, q_max in ((1, 1, 3000), (3, 1, 1500), (1, 2, 36), (2, 2, 24)):
        for den in (3**41, 7**29, (1 << 89) - 1):
            entries = [Fraction(rng.randrange(-den, 2 * den), den) for _ in range(d * c)]
            entries[0] = Fraction(-1, den)  # a = 2^64 - 1 after the truncation
            theta = tuple(tuple(entries[j * d : (j + 1) * d]) for j in range(c))
            tnum, den_ = _int_columns(theta)
            frac64 = bestapprox._frac64(tnum, den_)
            assert int(frac64[0][0]) == (1 << 64) - 1
            chunks = list(bestapprox._shell_chunks(c, q_max))
            heights = [h for qcols, _, _ in chunks for h in zip(*(q.tolist() for q in qcols))]
            assert heights == [h for _, h in reference_shells(c, q_max)]
            w = {}
            u = {}
            for h in heights:
                dist = [sum(h[j] * tnum[j][i] for j in range(c)) % den_ for i in range(d)]
                w[h] = sum(min(x, den_ - x) ** 2 for x in dist)
                s = [sum(h[j] * int(frac64[j][i]) for j in range(c)) % (1 << 64) for i in range(d)]
                u[h] = max(min(x, (1 << 64) - x) for x in s)
            for bound in sorted(w.values())[:: len(w) // 40]:
                b64 = bestapprox._bound64(bound, den_)
                for qcols, _, margin in chunks:
                    hs = list(zip(*(q.tolist() for q in qcols)))
                    assert margin.tolist() == [sum(map(abs, h)) + 1 for h in hs]
                    ex = bestapprox._excess(qcols, margin, frac64)
                    kept = set(np.flatnonzero(ex <= b64).tolist())
                    near = [k for k, h in enumerate(hs) if w[h] <= bound]
                    assert kept.issuperset(near)
                    by_margin += sum(u[hs[k]] > b64 for k in near)
    assert by_margin > 0


def scan_outcome(scan, theta, q_max, **kwargs):
    try:
        return scan(theta, q_max, **kwargs)
    except NonGenericLatticeError:
        return "tie"
    except BudgetExceededError:
        return "budget"


@pytest.mark.parametrize(
    "theta, q_max",
    [
        (((Fraction(123456789, 1 << 40),), (Fraction(987654321, 1 << 40),)), 30),
        # the two unit heights of the first shell tie
        (((Fraction(1, 3),), (Fraction(2, 3),)), 20),
        # integer entries: the first height is terminal, seeding a bound 0
        (((Fraction(1, 2),), (Fraction(4),)), 20),
        (((Fraction(3), Fraction(-7)),), 40),
        (((Fraction(2, 7), Fraction(3, 11)),), 500),
    ],
)
def test_first_chunk_edges_match_reference_scan(theta, q_max):
    # the first chunk is filtered by the exact distance of the first
    # height the budget pays for; every budget from 0 to just past the
    # first chunk, and the unlimited one, agrees with the plain loop
    c, dc = len(theta), len(theta) * len(theta[0])
    _, keys, _ = next(bestapprox._shell_chunks(c, q_max))
    for budget in [*range(dc * (len(keys) + 2)), 10**9]:
        assert scan_outcome(direct_scan, theta, q_max, budget=budget) == scan_outcome(
            reference_scan, theta, q_max, budget=budget
        )
    assert scan_outcome(direct_scan, theta, q_max, budget=0) == "budget"


def test_first_chunk_edges_pinned():
    assert scan_outcome(direct_scan, ((Fraction(1, 3),), (Fraction(2, 3),)), 20) == "tie"
    (rec,) = direct_scan(((Fraction(1, 2),), (Fraction(4),)), 20)
    assert rec.Q == (0, 1) and rec.P == (4,) and rec.terminal
    (rec,) = direct_scan(((Fraction(3), Fraction(-7)),), 40)
    assert rec.Q == (1,) and rec.P == (3, -7) and rec.terminal


def test_direct_scan_equals_reference_scan_at_workload_size():
    # the bench's scan sizes: 256-bit 1x2 targets at q_max = 200 (c = 2
    # annuli up to the chunk cap) and one 2x1 target at q_max = 2000
    rng = random.Random(271)
    for _ in range(3):
        theta = sample_theta(1, 2, 256, rng)
        assert direct_scan(theta, 200) == reference_scan(theta, 200)
    theta = sample_theta(2, 1, 256, rng)
    assert direct_scan(theta, 2000) == reference_scan(theta, 2000)


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
    theta = ((Fraction(1, 2), Fraction(1, 3)),)
    recs = direct_scan(theta, 50)
    beta = beta_sequence(recs, 2, 1)
    assert beta == [Fraction(169, 324), Fraction(4, 9)]
    assert all(minkowski_leq(b, 2, 1) for b in beta)
    with pytest.raises(ValueError):
        beta_sequence(recs[::2], 2, 1)


def test_minkowski_holds_along_random_chains():
    rng = random.Random(404)
    for _ in range(5):
        theta = sample_theta(1, 1, 192, rng)
        recs = chain_engine(theta, depth=60)
        beta = beta_sequence(recs, 1, 1)
        assert all(minkowski_leq(b, 1, 1) for b in beta)


def test_tied_unit_heights_raise():
    theta = ((Fraction(1, 3),), (Fraction(1, 3),))
    with pytest.raises(NonGenericLatticeError):
        chain_engine(theta, depth=5)
    with pytest.raises(NonGenericLatticeError):
        direct_scan(theta, 5)


def test_chain_requires_a_stop():
    with pytest.raises(ValueError):
        chain_engine(((Fraction(1, 3),),))
