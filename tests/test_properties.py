"""Property tests on small-denominator targets, where ties are common and
chains terminate: the chain engine agrees with the exhaustive scan, and
the minimal-vector chain of the target's lattice carries the records;
in 1x1 the chain engine recovers the continued-fraction denominators.
The prefiltered scan agrees with the plain reference scan, budget
included.  Targets at the extremes of ``bits`` and degenerate 2x2 bases
close the file."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diolab.bestapprox import cf_best_denominators, chain_engine, direct_scan, sample_theta
from diolab.core import (
    BudgetExceededError,
    Cylinder,
    LatticeBasis,
    NonGenericLatticeError,
    SingularBasisError,
    enumerate_in_cylinder,
)
from diolab.dynamics import minimal_vectors

from conftest import brute_cylinder, reference_scan, reference_shells, safe_box

SHAPES = ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2))
# height caps past every terminal record of a target with denominators <= 16
Q_MAX = {1: 40, 2: 20}


@st.composite
def small_theta(draw):
    d, c = draw(st.sampled_from(SHAPES))
    entry = st.integers(1, 16).flatmap(
        lambda den: st.integers(0, den - 1).map(lambda num: Fraction(num, den))
    )
    return tuple(tuple(draw(entry) for _ in range(d)) for _ in range(c))


def records_or_tie(engine, *args, **kwargs):
    try:
        return engine(*args, **kwargs)
    except NonGenericLatticeError:
        return "tie"


@settings(derandomize=True, deadline=None, max_examples=3000)
@given(small_theta())
def test_chain_equals_scan_or_both_raise(theta):
    q_max = Q_MAX[len(theta)]
    chain = records_or_tie(chain_engine, theta, q_max=q_max)
    assert chain == records_or_tie(direct_scan, theta, q_max)
    assert chain_engine(theta, q_max=0) == direct_scan(theta, 0) == []


@settings(derandomize=True, deadline=None, max_examples=1350)
@given(small_theta())
def test_minimal_vectors_carry_the_records(theta):
    recs = records_or_tie(chain_engine, theta, depth=64)
    if recs == "tie":
        return
    assert recs[-1].terminal
    chain = minimal_vectors(LatticeBasis.from_theta(theta), len(recs) + 1)
    assert [(e.vector.height_sq, e.vector.width_sq) for e in chain.entries[1:]] == [
        (r.q_sq, r.r_sq) for r in recs
    ]


@settings(derandomize=True, deadline=None, max_examples=800)
@given(st.integers(1, 10**4).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))))
def test_chain_equals_continued_fraction_1x1(x):
    # the records of a 1x1 target x = p/q end at height q = den(x)
    q = x.denominator
    chain = records_or_tie(chain_engine, ((x,),), q_max=q)
    if chain == "tie":
        assert records_or_tie(direct_scan, ((x,),), q) == "tie"
    else:
        assert [r.Q[0] for r in chain] == cf_best_denominators(x)


SCAN_SHAPES = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2))
# height caps that let some scans reach their terminal record and cut
# others short
SCAN_Q_MAX = {1: 300, 2: 16}


@st.composite
def scan_case(draw):
    # dyadic denominators (ties) and 3^k, 7^k; entries in [-2, 2]
    d, c = draw(st.sampled_from(SCAN_SHAPES))
    den = draw(
        st.one_of(
            st.integers(1, 12).map(lambda b: 1 << b),
            st.integers(1, 6).map(lambda k: 3**k),
            st.integers(1, 4).map(lambda k: 7**k),
        )
    )
    entry = st.integers(-2 * den, 2 * den).map(lambda num: Fraction(num, den))
    theta = tuple(tuple(draw(entry) for _ in range(d)) for _ in range(c))
    return theta, draw(st.integers(1, SCAN_Q_MAX[c]))


def scan_outcome(scan, theta, q_max, **kwargs):
    try:
        return records_or_tie(scan, theta, q_max, **kwargs)
    except BudgetExceededError:
        return "budget"


def scan_length(theta, q_max):
    """The number k of heights the reference scan visits: the least k
    whose budget d*c*k it completes within."""
    dc = len(theta[0]) * len(theta)
    lo, hi = 0, len(reference_shells(len(theta), q_max))
    while lo < hi:
        mid = (lo + hi) // 2
        if scan_outcome(reference_scan, theta, q_max, budget=dc * mid) == "budget":
            lo = mid + 1
        else:
            hi = mid
    return lo


@settings(derandomize=True, deadline=None, max_examples=250)
@given(scan_case(), st.integers(0, 10**6))
def test_direct_scan_equals_reference_scan(case, cut):
    # records, ties and budget errors agree, at the budgets around the
    # scan's last height k and at one budget inside the scan
    theta, q_max = case
    dc = len(theta[0]) * len(theta)
    assert scan_outcome(direct_scan, theta, q_max) == scan_outcome(reference_scan, theta, q_max)
    k = scan_length(theta, q_max)
    for budget in (dc * k - 1, dc * k, dc * k + 1, cut % (dc * k + 1)):
        assert scan_outcome(direct_scan, theta, q_max, budget=budget) == scan_outcome(
            reference_scan, theta, q_max, budget=budget
        )


@settings(derandomize=True, deadline=None, max_examples=260)
@given(
    st.sampled_from(SHAPES),
    st.sampled_from((1, 2, 3, 2048)),
    st.integers(0, 2**32 - 1),
)
def test_chain_at_extreme_bits(shape, bits, seed):
    # one random bit per entry (every target a resonance) up to 2048;
    # 1x1 against the continued fraction, the others against the scan
    d, c = shape
    theta = sample_theta(d, c, bits, random.Random(seed))
    if shape == (1, 1):
        x = theta[0][0]
        chain = records_or_tie(chain_engine, theta, depth=48)
        if chain == "tie":
            assert records_or_tie(direct_scan, theta, x.denominator) == "tie"
        else:
            assert [r.Q[0] for r in chain] == cf_best_denominators(x)[:48]
    else:
        q_max = Q_MAX[c]
        chain = records_or_tie(chain_engine, theta, q_max=q_max)
        assert chain == records_or_tie(direct_scan, theta, q_max)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.fractions(min_value=0, max_value=12, max_denominator=4),
    st.fractions(min_value=0, max_value=12, max_denominator=4),
)
def test_degenerate_plane_bases(entries, r_plus_sq, r_minus_sq):
    # dependent columns, a zero column or a zero block raise; every
    # other basis matches the brute scan
    a, b, e, f = entries
    basis_cols = ((a, b), (e, f))
    cyl = Cylinder(r_plus_sq, r_minus_sq)
    if a * f == b * e:
        with pytest.raises(SingularBasisError):
            enumerate_in_cylinder(LatticeBasis(1, 1, basis_cols), cyl)
        return
    basis = LatticeBasis(1, 1, basis_cols)
    got = enumerate_in_cylinder(basis, cyl)
    want = brute_cylinder(basis, cyl, safe_box(basis, cyl))
    assert [(v.y, v.width_sq, v.height_sq) for v in got] == [
        (v.y, v.width_sq, v.height_sq) for v in want
    ]
