"""Inductive construction: frozen first steps, certification of every
condition, exact comparator, and failure modes."""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import diolab.badk as badk
import diolab.core as core
from conftest import r_sq, reference_drift_beats, reference_gap
from diolab.badk import (
    _column,
    _gap_search,
    _lattice_minima,
    _quadrant_candidates,
    _r_sq,
    certificate,
    certify,
    init_state,
    prefix_statistics,
    sqrt_affine_leq,
    step,
)
from diolab.core import BudgetExceededError, LatticeBasis, SearchLimitError


def advance(n_steps):
    state = init_state()
    for _ in range(n_steps):
        state = step(state)
    return state


@pytest.fixture(scope="module")
def states():
    """Every state of a 12-step construction, n = 1 .. 13."""
    out = [init_state()]
    for _ in range(12):
        out.append(step(out[-1]))
    return out


def fraction_sqrt_affine_leq(a, b, u):
    """sqrt(a) + sqrt(b) <= sqrt(u) on Fractions: u - a - b >= 0 and
    4ab <= (u - a - b)^2."""
    rest = u - a - b
    return rest >= 0 and 4 * a * b <= rest * rest


def coprime_denominators(rng, k, bits):
    while True:
        dens = [rng.randrange(1, 1 << bits) for _ in range(k)]
        if all(math.gcd(x, y) == 1 for x, y in itertools.combinations(dens, 2)):
            return dens


def test_sqrt_affine_leq_frozen():
    assert sqrt_affine_leq(Fraction(1), Fraction(1), Fraction(4))
    assert not sqrt_affine_leq(Fraction(1), Fraction(1), Fraction(39, 10))
    assert sqrt_affine_leq(Fraction(0), Fraction(9), Fraction(9))
    assert not sqrt_affine_leq(Fraction(1), Fraction(0), Fraction(99, 100))
    with pytest.raises(ValueError):
        sqrt_affine_leq(Fraction(1), Fraction(1), Fraction(-1))


def test_sqrt_affine_leq_matches_float_oracle():
    rng = random.Random(13)
    for _ in range(500):
        a = Fraction(rng.randrange(0, 50), rng.randrange(1, 20))
        b = Fraction(rng.randrange(0, 50), rng.randrange(1, 20))
        u = Fraction(rng.randrange(0, 200), rng.randrange(1, 20))
        lhs = math.sqrt(a) + math.sqrt(b)
        rhs = math.sqrt(u)
        if abs(lhs - rhs) < 1e-9:
            continue
        assert sqrt_affine_leq(a, b, u) == (lhs <= rhs)


def test_sqrt_affine_leq_matches_fraction_formula():
    # u within a few 1/ud of (sqrt a + sqrt b)^2, so both outcomes come
    # from the last bits of the cleared integers
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        ad, bd, ud = coprime_denominators(rng, 3, 100)
        a = Fraction(rng.getrandbits(100) * rng.randrange(2), ad)
        b = Fraction(rng.getrandbits(100), bd)
        near = math.floor((a + b) * ud) + math.isqrt(math.floor(4 * a * b * ud * ud))
        u = Fraction(max(near + rng.randrange(-3, 4), 0), ud)
        got = sqrt_affine_leq(a, b, u)
        assert got == fraction_sqrt_affine_leq(a, b, u), (a, b, u)
        outcomes[got] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_sqrt_affine_leq_exact_boundaries():
    assert sqrt_affine_leq(Fraction(1, 9), Fraction(4, 9), Fraction(1))
    assert not sqrt_affine_leq(Fraction(1, 9), Fraction(4, 9), 1 - Fraction(1, 9))
    rng = random.Random(19)
    for _ in range(200):
        y, w = coprime_denominators(rng, 2, 50)
        p = Fraction(rng.getrandbits(50), y)
        r = Fraction(rng.getrandbits(50), w)
        # sqrt(p^2) + sqrt(r^2) = sqrt((p + r)^2) exactly
        u = (p + r) ** 2
        step_sq = Fraction(1, (p + r).denominator ** 2)
        assert sqrt_affine_leq(p * p, r * r, u)
        assert sqrt_affine_leq(r * r, p * p, u)
        assert sqrt_affine_leq(p * p, r * r, u + step_sq)
        assert not sqrt_affine_leq(p * p, r * r, u - step_sq)


def test_r_sq_matches_fraction_distance(states):
    state = states[-1]
    for theta in state.thetas:
        for q in state.q_list:
            for h in (q - 1, q, q + 1):
                assert _r_sq(theta, h) == r_sq(theta, h), (theta, h)


def test_init_state():
    state = init_state()
    assert state.n == 1
    assert state.thetas == (
        (Fraction(0), Fraction(0)),
        (Fraction(1, 5), Fraction(1, 5)),
    )
    assert state.q_list == (1, 5)
    assert state.eps_list == ((Fraction(1, 5), Fraction(1, 5)),)
    assert state.steps == ()


def test_certify_initial_state():
    rep = certify(init_state())
    assert rep.n == 1
    assert rep.conditions == {
        "best_denominators": True,
        "growth_and_branching": True,
        "shortest_vector_sign": True,
        "second_minimum_ratio": True,
    }
    assert sorted(rep.vacuous) == [
        "drift_below_drop_minima",
        "drift_below_gap_minima",
        "gap_minima_positive",
    ]
    assert rep.lam1_sq == Fraction(2, 25)
    assert rep.lam2_sq == Fraction(13, 25)
    assert rep.scanned


def test_first_step_frozen():
    state = step(init_state())
    assert state.n == 2
    rec = state.steps[0]
    assert rec.gamma == (-1, -6)
    assert rec.k == 4
    assert rec.ab == (-1, -2)
    assert rec.p == 74
    assert rec.p_count == 75
    assert rec.q_next == 366
    assert rec.L_sq == Fraction(37, 25)
    assert rec.d_sq == Fraction(1, 37)
    assert rec.eps == (Fraction(-1, 366), Fraction(-1, 61))
    assert state.theta == (Fraction(73, 366), Fraction(12, 61))
    assert state.Q == 366
    rep = certify(state)
    assert all(rep.conditions.values())
    # the M table opens at column 2, so the gap-minima drift bound has
    # nothing to check until n = 3
    assert rep.vacuous == ("drift_below_gap_minima",)
    assert rep.lam1_sq == Fraction(37, 366**2)
    assert rep.lam2_sq == Fraction(3625, 366**2)


def test_six_step_denominators_frozen():
    state = advance(6)
    assert state.q_list == (
        1,
        5,
        366,
        39106,
        28825870,
        4540015683,
        785451499923,
        136668532160732,
    )


def test_step_is_deterministic():
    a = advance(3)
    b = advance(3)
    assert a == dataclasses.replace(b)
    assert a.thetas == b.thetas and a.steps == b.steps


def test_step_leaves_input_unchanged(states):
    # state n holds columns 1..n-1; step hands them on as they are and
    # appends column n
    s1 = init_state()
    step(s1)
    assert s1.n == 1 and s1.q_list == (1, 5) and s1.columns == ()
    for state, after in zip(states, states[1:]):
        assert len(state.columns) == state.n - 1
        assert after.columns[:-1] == state.columns


def test_certify_every_prefix():
    state = init_state()
    for i in range(4):
        state = step(state)
        rep = certify(state)
        assert rep.n == state.n
        assert all(rep.conditions.values())
        if state.n >= 3:
            assert rep.vacuous == ()
        assert rep.scanned == (state.Q <= 10**6)


def test_eps_norms_strictly_decrease():
    state = advance(5)
    norms = [e[0] ** 2 + e[1] ** 2 for e in state.eps_list]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    signs = [1 if e[0] > 0 else -1 for e in state.eps_list]
    assert signs == [(-1) ** i for i in range(len(signs))]


def test_certify_rejects_corrupted_denominator():
    state = init_state()
    bad = dataclasses.replace(state, q_list=(1, 6))
    with pytest.raises(AssertionError):
        certify(bad)


def test_certify_rejects_corrupted_sign():
    state = init_state()
    bad = dataclasses.replace(
        state, eps_list=((Fraction(-1, 5), Fraction(-1, 5)),)
    )
    with pytest.raises(AssertionError):
        certify(bad)


def test_certify_rejects_skipped_denominator_beyond_scan_cap():
    # Q_6 ~ 7.9e11 is beyond SCAN_CAP, so direct_scan is off; doubling
    # Q_3 skips the best denominator 39106 of theta_6
    state = advance(5)
    assert state.Q > badk.SCAN_CAP
    qs = state.q_list
    assert qs[3] == 39106
    bad = dataclasses.replace(state, q_list=qs[:3] + (2 * qs[3],) + qs[4:])
    with pytest.raises(
        AssertionError,
        match=r"gap \(366, 78212\) beats r_\{i-1\}|chain route disagrees",
    ):
        certify(bad)


def test_chain_route_alone_rejects_every_wrong_list(monkeypatch):
    # past SCAN_CAP, with the gap route stubbed out (its gap searches,
    # which on a wrong list can exhaust the budget, and its checks) and
    # the scan never reached, the chain route, each step capped at the
    # claimed height, rejects each wrong list at the first index it
    # differs, and passes the true one
    state = advance(7)
    assert state.Q > badk.SCAN_CAP

    def no_scan(*args, **kwargs):
        raise RuntimeError("the scan ran")

    monkeypatch.setattr(badk, "_gap_search", lambda *args: lambda q_lo, q_hi: None)
    monkeypatch.setattr(badk, "_gap_route", lambda *args: None)
    monkeypatch.setattr(badk, "direct_scan", no_scan)
    qs = state.q_list
    rejected = 0
    for k in range(1, state.n):
        wrong = [
            (qs[:k] + qs[k + 1 :], k),  # Q_k dropped
            (qs[: k + 1] + qs[k:], k + 1),  # Q_k doubled
            (qs[:k] + (qs[k] + 1,) + qs[k + 1 :], k),
            (qs[:k] + ((qs[k - 1] + qs[k]) // 2,) + qs[k:], k),  # a midpoint
            (qs[:k] + (qs[k] - qs[k - 1],) + qs[k + 1 :], k),
        ]
        for q_list, at in wrong:
            bad = dataclasses.replace(state, q_list=q_list, certify_memo={})
            with pytest.raises(
                AssertionError, match=r"^chain route disagrees with Q list at Q_%d$" % at
            ):
                certify(bad)
            rejected += 1
    assert rejected == 5 * (state.n - 1)
    assert all(certify(state).conditions.values())


def test_certify_rejects_a_wrong_list_before_any_gap_search(monkeypatch):
    # Q_4 + 1 in the n = 8 state: a column built on that list opens gaps
    # too wide for a budget of 10^5 nodes, but the chain route runs
    # first, builds no column and names the wrong denominator
    state = advance(7)
    assert state.n == 8
    qs = state.q_list
    bad = dataclasses.replace(state, q_list=qs[:4] + (qs[4] + 1,) + qs[5:], certify_memo={})
    built = []
    recording_column(monkeypatch, built)
    with pytest.raises(AssertionError, match=r"^chain route disagrees with Q list at Q_4$"):
        certify(bad, budget=10**5)
    assert built == [] and bad.certify_memo == {}


def test_gap_search_matches_brute_force_on_the_construction():
    state = advance(3)
    qs = state.q_list
    checked = 0
    for j in range(2, state.n + 1):
        theta = state.thetas[j]
        gap_search = _gap_search(theta, 10**7)
        # theta_j = (a, b) / Q_j, so Q_j^2 r_sq(q) = |qa|^2 + |qb|^2 mod Q_j
        den = qs[j]
        a, b = (int(t * den) for t in theta)
        top = min(qs[j - 1], 39106)
        num = [None] + [
            min(q * a % den, -q * a % den) ** 2 + min(q * b % den, -q * b % den) ** 2
            for q in range(1, top)
        ]
        for i in range(1, j):
            gap = gap_search(qs[i - 1], qs[i])
            least = min(num[qs[i - 1] + 1 : qs[i]], default=None)
            want = None if least is None else Fraction(least, den * den)
            assert want is None or want == r_sq(theta, num.index(least))
            assert gap == want, (i, j)
            if j < state.n:
                entry = state.columns[j - 1].M[i - 1]
                assert (None if entry is None else entry[0]) == want
                checked += 1
    assert checked == sum(len(c.M) for c in state.columns) == 3


def test_gap_search_matches_brute_force_on_random_ranges():
    rng = random.Random(5)
    kinds = {"empty": 0, "near": 0, "far": 0}
    for _ in range(200):
        theta = (
            Fraction(rng.randrange(1, 97), 97),
            Fraction(rng.randrange(1, 89), 89),
        )
        q_lo = rng.randrange(1, 120)
        q_hi = q_lo + rng.choice(
            [rng.randrange(0, 2), rng.randrange(2, q_lo + 2), rng.randrange(2, 3 * q_lo + 3)]
        )
        gap = _gap_search(theta, 10**7)(q_lo, q_hi)
        if q_hi - q_lo < 2:
            assert gap is None
            kinds["empty"] += 1
            continue
        kinds["near" if q_hi <= 2 * q_lo else "far"] += 1
        assert gap == min(r_sq(theta, q) for q in range(q_lo + 1, q_hi))
    # every branch of the witness height max(q_lo + 1, q_hi - q_lo) runs
    assert min(kinds.values()) >= 40, kinds


def test_carried_gap_is_exact_or_declines():
    # a gap searched on theta' and read on a theta at distance about
    # 1/(s q_hi): where its Lipschitz margin holds the carried minimum
    # is the brute-force one on theta, and where it fails the gap
    # declines; both happen, and every theta' == theta is carried
    rng = random.Random(7)
    outcomes = {"carried": 0, "declined": 0, "same": 0}
    for _ in range(400):
        src = (Fraction(rng.randrange(1, 997), 997), Fraction(rng.randrange(1, 991), 991))
        q_lo = rng.randrange(1, 60)
        q_hi = q_lo + rng.randrange(2, 3 * q_lo + 3)
        keep = {}
        least = _gap_search(src, 10**7, keep=keep)(q_lo, q_hi)
        (held,) = keep.values()
        assert keep == {(q_lo, q_hi, 10**7): held} and held.theta == src
        assert held.points[0][0] == least
        s = rng.choice([1, 3, 30, 300])
        theta = tuple(t + Fraction(rng.randrange(-97, 98), 97 * s * q_hi) for t in src)
        want = min(r_sq(theta, q) for q in range(q_lo + 1, q_hi))
        got = badk._carried_gap(held, theta, q_hi)
        assert got in (None, want), (src, theta, q_lo, q_hi)
        outcomes["declined" if got is None else "carried"] += 1
        outcomes["same"] += badk._carried_gap(held, src, q_hi) == least
    assert min(outcomes["carried"], outcomes["declined"]) >= 50, outcomes
    assert outcomes["same"] == 400


def recording_gap_search(monkeypatch, asked):
    """Patch badk._gap_search so every gap asked is appended to asked as
    (theta, q_lo, q_hi, gap)."""
    real_search = badk._gap_search

    def recording_search(theta, *args):
        gap_search = real_search(theta, *args)

        def gap(q_lo, q_hi):
            got = gap_search(q_lo, q_hi)
            asked.append((theta, q_lo, q_hi, got))
            return got

        return gap

    monkeypatch.setattr(badk, "_gap_search", recording_search)


def recording_column(monkeypatch, built):
    """Patch badk._column so the index j of every column it starts to
    build is appended to built."""
    real_column = badk._column

    def recording(thetas, q_list, j, *args, **kwargs):
        built.append(j)
        return real_column(thetas, q_list, j, *args, **kwargs)

    monkeypatch.setattr(badk, "_column", recording)


def test_fresh_tables_match_reference_gap(states, monkeypatch):
    # every gap certify asks, column n's and the last one, against a
    # fresh enumeration per gap, and column n's drops against Fraction
    # distances; a lineage certified in order builds one column per
    # certify, column n, and takes the others from its memo
    asked = []
    built = []
    recording_gap_search(monkeypatch, asked)
    recording_column(monkeypatch, built)
    memo = {}
    want = {}
    for state in states:
        asked.clear()
        built.clear()
        certify(dataclasses.replace(state, certify_memo=memo))
        n, qs, thetas = state.n, state.q_list, state.thetas
        assert built == [n]
        column = memo[badk._column_key(thetas, qs, n, 10**7)]
        r = [r_sq(thetas[n], q) for q in qs]
        assert column.m == tuple(zip(r, r[1:]))
        assert len(column.M) == n - 1
        for i, entry in enumerate(column.M, 1):
            args = (thetas[n], qs[i - 1], qs[i])
            want[args] = reference_gap(*args)
            assert (None if entry is None else entry[0]) == want[args], (n, i)
            assert entry is None or entry[1] == r[i - 1]
        last = (thetas[n], qs[n - 1], qs[n])
        assert asked[-1] == last + (reference_gap(*last),)
        assert len(asked) == n
    assert len(want) == 12 * 13 // 2


def test_memo_builds_one_column_per_certify(states, monkeypatch):
    # in order: column n's n - 1 gaps and the last gap; cold: every
    # column, n (n - 1) / 2 gaps, and the last gap; the same report
    asked = []
    built = []
    recording_gap_search(monkeypatch, asked)
    recording_column(monkeypatch, built)
    memo = {}
    for state in states:
        n = state.n
        reports = []
        for warm in (True, False):
            asked.clear()
            built.clear()
            reports.append(
                certify(dataclasses.replace(state, certify_memo=memo if warm else {}))
            )
            if warm:
                assert built == [n]
                assert len(asked) == n
            else:
                assert built == list(range(1, n + 1))
                assert len(asked) == n * (n - 1) // 2 + 1
        assert reports[0] == reports[1], n
    columns = [key for key in memo if isinstance(key[0], tuple)]
    assert len(columns) == states[-1].n
    # the rest of the memo is the gaps certify searched: every gap of
    # the lineage, under (Q_{i-1}, Q_i, budget)
    qs = states[-1].q_list
    assert len(memo) - len(columns) == len(qs) - 1
    assert all((qs[i - 1], qs[i], 10**7) in memo for i in range(1, len(qs)))


def test_lineages_never_share_a_memo():
    a, b = init_state(), init_state()
    assert a.certify_memo is not b.certify_memo
    certify(a)
    assert a.certify_memo and not b.certify_memo
    a2 = step(a)
    assert a2.certify_memo is a.certify_memo
    assert step(b).certify_memo is b.certify_memo


class Unwritable(dict):
    """A dict that raises on every write."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("step wrote to the memo")

    __setitem__ = __delitem__ = setdefault = update = refuse
    pop = popitem = clear = refuse


def warm_memos(states, budget=10**7):
    """For each state of the fixture's lineage but the last, the state on
    the memo of a lineage certified in order up to it."""
    memo = {}
    for state in states[:-1]:
        warm = dataclasses.replace(state, certify_memo=memo)
        certify(warm, budget=budget)
        yield warm


def frozen(memo):
    """An Unwritable copy of memo; its columns are immutable already."""
    return Unwritable(memo)


def test_step_never_writes_the_memo(states):
    # an empty memo, certify's warm memo, a memo holding column n only
    # under another budget, and the warm memo without column n, whose
    # carried gaps build column n on the miss, each frozen: step writes
    # none of them and builds the fixture's next state on each
    other = warm_memos(states, budget=10**6)
    for warm, elsewhere, after in zip(warm_memos(states), other, states[1:]):
        n = warm.n
        key = (warm.thetas[n], warm.q_list, 10**7)
        assert key in warm.certify_memo
        assert (warm.thetas[n], warm.q_list, 10**6) in elsewhere.certify_memo
        carried = {k: v for k, v in warm.certify_memo.items() if k != key}
        assert (warm.q_list[-2], warm.Q, 10**7) in carried
        for memo in ({}, warm.certify_memo, elsewhere.certify_memo, carried):
            unwritable = frozen(memo)
            got = step(dataclasses.replace(warm, certify_memo=unwritable))
            assert got == after, n
            assert got.certify_memo is unwritable
            assert unwritable == memo


def test_step_takes_column_n_from_certify(states, monkeypatch):
    # after certify(state_n) on the lineage's memo, step builds no
    # column and asks no gap; cold, or with column n only under another
    # budget than its own, it builds column n and asks its n - 1 gaps
    asked = []
    built = []
    recording_gap_search(monkeypatch, asked)
    recording_column(monkeypatch, built)
    other = list(warm_memos(states, budget=10**6))
    warm = list(warm_memos(states))
    for state, elsewhere in zip(warm, other):
        n = state.n
        for memo, budget, want in (
            (state.certify_memo, 10**7, []),
            ({}, 10**7, [n]),
            (elsewhere.certify_memo, 10**7, [n]),
            (state.certify_memo, 10**6, [n]),
        ):
            asked.clear()
            built.clear()
            step(dataclasses.replace(state, certify_memo=memo), budget=budget)
            assert built == want, n
            assert len(asked) == (n - 1 if want else 0), n


def flat(columns, which):
    """The entries of table which ("M" or "m") of columns 1, 2, ... as
    one dict keyed (i, j), column-major."""
    return {
        (i, j): ab
        for j, column in enumerate(columns, 1)
        for i, ab in enumerate(getattr(column, which), 1)
    }


def hand_column(M, m):
    """A column of the given entries and its floor."""
    entries = [ab for ab in M + m if ab is not None]
    return badk.Column(tuple(M), tuple(m), badk._drift_floor(entries))


def test_drift_floors_agree_with_the_flat_scan(monkeypatch):
    # every drift test of a 40-step certified lineage, step's on each
    # candidate that reaches it and certify's conditions 4-5, names the
    # key the flat scan of every entry names; some columns are skipped
    # by their floor and the others decided entry by entry
    real = badk._drift_beats
    seen = {"skipped": 0, "decided": 0, "beaten": 0, "passed": 0}

    def checked(drift_sq, columns, which):
        got = real(drift_sq, columns, which)
        want = reference_drift_beats(drift_sq, flat(columns, which), len(columns))
        assert got == want, (drift_sq, which, len(columns))
        for column in columns:
            seen["skipped" if drift_sq <= column.floor else "decided"] += 1
        seen["passed" if got is None else "beaten"] += 1
        return got

    monkeypatch.setattr(badk, "_drift_beats", checked)
    state = init_state()
    for _ in range(40):
        certify(state)
        state = step(state)
    certify(state)
    assert min(seen.values()) > 0, seen


def test_drift_floor_on_hand_made_columns():
    F = Fraction
    # A and B rational squares, so AB is one and T = (sqrt A - sqrt B)^2
    # = (3/2 - 1/2)^2 = 1 exactly; s = isqrt(9 * 1 * 4 * 4) = 12 makes the
    # floor 9/4 + 1/4 - 2 * 13/16 = 7/8 < T
    square = hand_column([None, (F(9, 4), F(1, 4))], [(F(100), F(1))])
    assert square.floor == F(7, 8)
    # AB = 2 is no square: T = 3 - 2 sqrt 2 > 3 - 2(1 + 1) = -1
    loose = hand_column([], [(F(2), F(1))])
    assert loose.floor == -1
    # A = B fails for every positive drift, A < B for every drift
    equal = hand_column([], [(F(1, 3), F(1, 3))])
    below = hand_column([], [(F(1, 4), F(1, 3))])
    assert equal.floor == below.floor == -1
    cases = [
        ([square], F(7, 8), "M", None),  # drift = floor: skipped
        ([square], F(15, 16), "M", None),  # in (floor, T]: decided, passes
        ([square], F(1), "M", None),  # drift = T passes
        ([square], 1 + F(1, 10**9), "M", (2, 1)),  # just above T fails
        ([square], 1 + F(1, 10**9), "m", None),
        ([loose], F(1, 6), "m", None),
        ([loose], F(1, 2), "m", (1, 1)),
        ([equal], F(0), "m", None),
        ([equal], F(1, 10**9), "m", (1, 1)),
        ([below], F(0), "m", (1, 1)),
        # column-major: column 1's entry comes before column 2's
        ([square, below], F(2), "m", (1, 2)),
        ([square, square], F(2), "M", (2, 1)),
    ]
    for columns, drift_sq, which, want in cases:
        table = flat(columns, which)
        assert badk._drift_beats(drift_sq, columns, which) == want, (drift_sq, which)
        assert reference_drift_beats(drift_sq, table, len(columns)) == want


def test_certify_names_the_first_beaten_entry(states):
    # entries the drift beats (A < B), planted in memo columns under
    # their own keys: certify names the first, column-major (not the
    # first by i), and M before m; column n is always rebuilt, so an
    # entry planted there is never read
    state = states[5]
    n, thetas, qs = state.n, state.thetas, state.q_list
    memo = {}
    for earlier in states[:6]:
        certify(dataclasses.replace(earlier, certify_memo=memo))
    warm = dataclasses.replace(state, certify_memo=memo)
    beaten = (Fraction(1, 4), Fraction(1, 3))

    def plant(which, i, j):
        key = badk._column_key(thetas, qs, j, 10**7)
        column = memo[key]
        tables = {"M": list(column.M), "m": list(column.m)}
        tables[which][i - 1] = beaten
        memo[key] = hand_column(tables["M"], tables["m"])

    plant("m", 1, n)
    plant("M", 1, n)
    assert all(certify(warm).conditions.values())
    plant("m", 1, 4)
    plant("m", 3, 3)
    with pytest.raises(AssertionError, match=r"drift beats m at \(3, 3\)$"):
        certify(warm)
    plant("M", 1, 5)
    plant("M", 2, 4)
    with pytest.raises(AssertionError, match=r"drift beats M at \(2, 4\)$"):
        certify(warm)


def count_routes(monkeypatch):
    """Patch badk so that counts["chain"] and counts["gap"] count the
    cylinder searches of the chain route and of the gap searches, and
    counts["carried"] and counts["failed"] the carried gaps that were
    and were not decided by their Lipschitz margin."""
    counts = {"chain": 0, "gap": 0, "carried": 0, "failed": 0}
    inside = []
    cylinder_points = core._cylinder_points
    chain_route = badk._chain_route
    gap_search = badk._gap_search
    carried_gap = badk._carried_gap

    def counted_points(*args):
        counts[inside[-1]] += 1
        return cylinder_points(*args)

    def counted_chain(*args):
        inside.append("chain")
        try:
            return chain_route(*args)
        finally:
            inside.pop()

    def counted_search(*args):
        gap = gap_search(*args)

        def counted_gap(q_lo, q_hi):
            inside.append("gap")
            try:
                return gap(q_lo, q_hi)
            finally:
                inside.pop()

        return counted_gap

    def counted_carry(*args):
        got = carried_gap(*args)
        counts["failed" if got is None else "carried"] += 1
        return got

    monkeypatch.setattr(core, "_cylinder_points", counted_points)
    monkeypatch.setattr(badk, "_chain_route", counted_chain)
    monkeypatch.setattr(badk, "_gap_search", counted_search)
    monkeypatch.setattr(badk, "_carried_gap", counted_carry)
    return counts


def certified_lineage(n_steps):
    """The states and reports of an n_steps construction certified in
    the bench's order, certify then step."""
    state = init_state()
    states, reports = [state], [certify(state)]
    for _ in range(n_steps):
        state = step(state)
        states.append(state)
        reports.append(certify(state))
    return states, reports


def test_certified_construction_search_counts_per_route(monkeypatch):
    # 12 steps in the bench's order: certify asks n gaps at state n, 91
    # in all; each gap is searched once, as the last gap of its state,
    # and the 78 others are carried; the chain route searches once per
    # capped step, 91 in all; step takes column n from certify and
    # makes no cylinder search
    counts = count_routes(monkeypatch)
    certified_lineage(12)
    assert counts == {"chain": 91, "gap": 13, "carried": 78, "failed": 0}


def test_forced_margin_failures_search_again_and_agree(monkeypatch):
    # with the radius factor 1 a gap search keeps only heights up to its
    # witness width, so no carried gap has a Lipschitz margin: every
    # later column searches its gaps again, as before the carry, and
    # the states, columns and reports are the carried lineage's
    want = certified_lineage(12)
    counts = count_routes(monkeypatch)
    monkeypatch.setattr(badk, "_RADIUS_FACTOR", 1)
    assert certified_lineage(12) == want
    assert counts == {"chain": 91, "gap": 91, "carried": 0, "failed": 78}


def certify_column(state):
    """Column n of the tables as certify stored it."""
    return state.certify_memo[badk._column_key(state.thetas, state.q_list, state.n, 10**7)]


def test_carried_gaps_match_reference_gap_to_depth_40(monkeypatch):
    # every M_{i,j} of a 40-step lineage certified in order, gap i
    # searched once as state i's last gap and carried into every later
    # column, against a fresh enumeration per gap
    counts = count_routes(monkeypatch)
    states, _ = certified_lineage(40)
    assert counts["carried"] == 40 * 41 // 2 and counts["failed"] == 0
    monkeypatch.undo()
    state = states[-1]
    thetas, qs = state.thetas, state.q_list
    checked = 0
    for j, column in enumerate(state.columns + (certify_column(state),), 1):
        assert len(column.M) == max(j - 1, 0)
        for i, entry in enumerate(column.M, 1):
            want = reference_gap(thetas[j], qs[i - 1], qs[i])
            assert (None if entry is None else entry[0]) == want, (i, j)
            checked += 1
    assert checked == 40 * 41 // 2


def test_memo_is_keyed_by_budget(states, monkeypatch):
    # the default-budget columns are in the memo, yet a budget of one
    # node rebuilds from column 1 and fails at column 2's first search
    # (the chain route, which runs before any column and would exhaust
    # that budget first, is stubbed out)
    state = dataclasses.replace(states[4], certify_memo={})
    for earlier in states[:5]:
        certify(dataclasses.replace(earlier, certify_memo=state.certify_memo))
    built = []
    recording_column(monkeypatch, built)
    monkeypatch.setattr(badk, "_chain_route", lambda *args: None)
    with pytest.raises(BudgetExceededError):
        certify(state, budget=1)
    assert built == [1, 2]


def test_memo_misses_a_tampered_state(states, monkeypatch):
    # doubling Q_3 changes the key of every column j >= 3: certify
    # rebuilds those columns and rejects the state.  The chain route,
    # which would reject it before any column, is stubbed out, and Q_6
    # is beyond SCAN_CAP, so the scan is off
    state = states[5]
    assert state.Q > badk.SCAN_CAP
    memo = {}
    for earlier in states[:6]:
        certify(dataclasses.replace(earlier, certify_memo=memo))
    qs = state.q_list
    bad = dataclasses.replace(
        state, q_list=qs[:3] + (2 * qs[3],) + qs[4:], certify_memo=memo
    )
    built = []
    recording_column(monkeypatch, built)
    monkeypatch.setattr(badk, "_chain_route", lambda *args: None)
    with pytest.raises(AssertionError, match=r"gap \(366, 78212\) beats"):
        certify(bad)
    assert built == [3, 4, 5, 6]


def test_column_search_is_order_free(states):
    # the warm start carries reduced columns from gap to gap; the minima
    # must not depend on the order the gaps are asked in
    state = states[-1]
    qs = state.q_list
    for j in range(2, state.n + 1):
        theta = state.thetas[j]
        gaps = [(qs[i - 1], qs[i]) for i in range(1, j + 1)]
        want = [reference_gap(theta, *g) for g in gaps]
        up = _gap_search(theta, 10**7)
        down = _gap_search(theta, 10**7)
        assert [up(*g) for g in gaps] == want, j
        assert [down(*g) for g in reversed(gaps)] == want[::-1], j


def test_column_builds_one_basis_per_column(states, monkeypatch):
    # without a carry, one lattice of theta_j per column that has a gap
    # to search, built on its first search and reduced from scratch
    # once; the column's other gaps warm-start from the previous gap's
    # carry.  On the memo of the lineage certified in order, every gap
    # is carried: no column builds a lattice or searches
    built = []
    scratch = []
    from_theta = LatticeBasis.from_theta.__func__
    cylinder_points = core._cylinder_points

    def counted_from_theta(cls, theta):
        built.append(theta)
        return from_theta(cls, theta)

    def counted_points(cols, carry, *args):
        scratch.append(carry is None)
        return cylinder_points(cols, carry, *args)

    state = states[-1]
    memo = {}
    for earlier in states:
        certify(dataclasses.replace(earlier, certify_memo=memo))
    monkeypatch.setattr(LatticeBasis, "from_theta", classmethod(counted_from_theta))
    monkeypatch.setattr(core, "_cylinder_points", counted_points)
    for j in range(1, state.n + 1):
        cold, _ = _column(state.thetas, state.q_list, j, 10**7)
        assert built == [(state.thetas[j],)] * (j > 1), j
        assert len(scratch) == j - 1 and sum(scratch) == min(j - 1, 1), j
        built.clear()
        scratch.clear()
        warm, _ = _column(state.thetas, state.q_list, j, 10**7, memo)
        assert warm == cold and built == scratch == [], j


def test_quadrant_candidates_match_coefficient_box():
    def brute(b1, b2, lo_sq, hi_sq):
        # Cramer: |m_i| <= |x| max|b| / |det| for x = m1 b1 + m2 b2
        det = abs(b1[0] * b2[1] - b1[1] * b2[0])
        nb = max(b1[0] ** 2 + b1[1] ** 2, b2[0] ** 2 + b2[1] ** 2)
        box = math.isqrt(hi_sq * nb // (det * det)) + 1
        out = []
        for m1 in range(-box, box + 1):
            for m2 in range(-box, box + 1):
                x = m1 * b1[0] + m2 * b2[0]
                y = m1 * b1[1] + m2 * b2[1]
                nsq = x * x + y * y
                if x > 0 and y > 0 and lo_sq < nsq <= hi_sq and math.gcd(m1, m2) == 1:
                    out.append((nsq, x, y))
        return sorted(out)

    state = init_state()
    for _ in range(5):
        _, _, b1, b2 = _lattice_minima(state.theta, state.Q)
        assert abs(b1[0] * b2[1] - b1[1] * b2[0]) == state.Q
        base = state.n * state.Q
        # the first annulus of step and one 4x wider
        for hi_sq in (4 * base, 16 * base):
            got = _quadrant_candidates(b1, b2, base - 1, hi_sq, 10**7)
            assert got == brute(b1, b2, base - 1, hi_sq)
        assert got, state.n  # the wider annulus always holds candidates
        # both ends of the annulus on a candidate's norm
        lo_sq, hi_sq = got[0][0], got[-1][0]
        want = [c for c in got if c[0] > lo_sq]
        assert _quadrant_candidates(b1, b2, lo_sq, hi_sq, 10**7) == want
        state = step(state)


def test_search_limit_error():
    with pytest.raises(SearchLimitError):
        step(init_state(), x_search_bound=0)


def test_prefix_statistics_exact():
    state = advance(4)
    stats = prefix_statistics(state)
    assert stats.n == state.n
    theta = state.theta
    for i, term in enumerate(stats.a_terms):
        assert term == state.q_list[i] * r_sq(theta, state.q_list[i])
    for i, term in enumerate(stats.b_terms):
        assert term == state.q_list[i + 1] * r_sq(theta, state.q_list[i])
    assert stats.a == min(stats.a_terms)
    assert stats.b == min(stats.b_terms)
    assert 0 < stats.a <= stats.b


def test_certificate_payload():
    state = init_state()
    reports = [certify(state)]
    for _ in range(2):
        state = step(state)
        reports.append(certify(state))
    payload = certificate(state, tuple(reports))
    assert payload["d"] == 2 and payload["c"] == 1
    rows = payload["steps"]
    assert [row["n"] for row in rows] == [1, 2, 3]
    assert rows[1]["Q"] == 366
    assert rows[1]["k"] == 4
    assert rows[1]["p"] == 74
    assert rows[1]["theta"] == ["73/366", "12/61"]
    assert "alpha" not in rows[0]
    for row in rows:
        assert set(row["conditions"]) | set(row["vacuous"]) == {
            "best_denominators",
            "growth_and_branching",
            "gap_minima_positive",
            "drift_below_gap_minima",
            "drift_below_drop_minima",
            "shortest_vector_sign",
            "second_minimum_ratio",
        }
        assert Fraction(row["prefix_min_q_r_sq"]) > 0
    assert json.loads(json.dumps(payload)) == payload
