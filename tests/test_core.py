"""Kernel tests: exact helpers, norms, Minkowski bounds, LLL, and the
cylinder enumeration against the brute-force oracle."""

import ast
import hashlib
import importlib
import inspect
import itertools
import math
import pkgutil
import random
from fractions import Fraction
from math import isqrt

import pytest

import diolab
import diolab.core as core
import diolab.dynamics as dynamics

from diolab.core import (
    BudgetExceededError,
    _cylinder_points,
    _ball_volume,
    _int_gso,
    _gauss_pair,
    Cylinder,
    LLL_DELTA,
    LatticeBasis,
    SingularBasisError,
    a_safe,
    canonical_sign,
    chain_walker,
    enumerate_in_cylinder,
    fp_enumerate,
    frac_from_mpf,
    ln_frac,
    lll_columns,
    minkowski_bound_sq_range,
    minkowski_leq,
    mpf_from_frac,
    nearest_int,
    shortest_mixed_vectors,
    sq_close,
)

from diolab.bestapprox import chain_engine, sample_theta
from diolab.dynamics import apply_flow, chart_lattice_1d, sample_surface_point_1d

from conftest import (
    brute_cylinder,
    brute_ellipsoid,
    ellipsoid_box,
    fraction_gso,
    random_cylinder,
    random_unimodular_basis,
    reference_fp_enumerate,
    safe_box,
)


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(diolab.__path__) if m.name[0] != "_"]
)
def test_every_export_resolves(module):
    mod = importlib.import_module("diolab." + module)
    names = mod.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(diolab.__path__) if m.name[0] != "_"]
)
def test_every_import_is_used(module):
    # every name a module imports is read there or re-exported by its
    # __all__, so a deletion cannot leave a stale import behind
    mod = importlib.import_module("diolab." + module)
    tree = ast.parse(inspect.getsource(mod))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    assert sorted(imported - read - set(getattr(mod, "__all__", ()))) == []


def test_every_helper_is_called():
    # every module-level function and class is read somewhere in src/ or
    # exported by its module's __all__, so a deletion cannot leave a
    # helper with no caller behind
    mods = [diolab] + [
        importlib.import_module("diolab." + m.name)
        for m in pkgutil.iter_modules(diolab.__path__)
    ]
    trees = {mod: ast.parse(inspect.getsource(mod)) for mod in mods}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        "%s.%s" % (mod.__name__, node.name)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read
        and node.name not in getattr(mod, "__all__", ())
    ]
    assert unread == []


# the integer lattice kernel: every decision there is made on integers
KERNEL = (
    "_iroot",
    "_int_gso",
    "lll_columns",
    "_fp_weights",
    "fp_enumerate",
    "_matvec_int",
    "_matmul_int",
    "_gauss_pair",
    "_plane_points",
    "_rescaled",
    "_cylinder_points",
    "_cylinder_search",
    "chain_walker",
    "canonical_sign",
)


def test_kernel_is_integer_only():
    # no float literal, float() call, true division or math, numpy or
    # mpmath attribute anywhere in a kernel function, nested ones included
    tree = ast.parse(inspect.getsource(core))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert sorted(set(KERNEL) - set(defs)) == []
    found = []
    for name in KERNEL:
        for node in ast.walk(defs[name]):
            if (
                (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
                or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")
                or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
                or (
                    isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) in ("math", "np", "numpy", "mpmath")
                )
            ):
                found.append((name, node.lineno, ast.dump(node)[:60]))
    assert found == []


def test_nearest_int_halves_round_down():
    assert nearest_int(Fraction(1, 2)) == 0
    assert nearest_int(Fraction(3, 2)) == 1
    assert nearest_int(Fraction(-1, 2)) == -1
    assert nearest_int(Fraction(7, 3)) == 2
    assert nearest_int(Fraction(-7, 3)) == -2


def test_mpf_round_trip_exact():
    rng = random.Random(3)
    for _ in range(100):
        x = Fraction(rng.getrandbits(40), 1 << rng.randrange(1, 30))
        assert frac_from_mpf(mpf_from_frac(x, 80)) == x


def test_ln_frac_huge_arguments():
    big = Fraction(1 << 100000)
    assert abs(float(ln_frac(big, 80)) - 100000 * math.log(2)) < 1e-9
    tiny = 1 / big
    assert abs(float(ln_frac(tiny, 80)) + 100000 * math.log(2)) < 1e-9


def test_minkowski_constants():
    lo, hi = minkowski_bound_sq_range(2, 1, 300)
    assert lo < hi
    assert float(hi - lo) < 1e-60
    assert abs(float(lo) - 16 / math.pi**2) < 1e-12
    exact_lo, exact_hi = minkowski_bound_sq_range(1, 1)
    assert exact_lo == exact_hi == 1


def test_ball_volumes_from_the_recurrence():
    # V_k = coeff * pi^pi_pow: 2, pi, 4 pi/3, pi^2/2, 8 pi^2/15, pi^3/6
    assert [_ball_volume(k) for k in range(1, 7)] == [
        (Fraction(2), 0),
        (Fraction(1), 1),
        (Fraction(4, 3), 1),
        (Fraction(1, 2), 2),
        (Fraction(8, 15), 2),
        (Fraction(1, 6), 3),
    ]
    for k in range(1, 7):
        coeff, pi_pow = _ball_volume(k)
        assert float(coeff) * math.pi**pi_pow == pytest.approx(
            math.pi ** (k / 2) / math.gamma(k / 2 + 1), rel=1e-14
        )
    # C_{5,1}^2 = (2^6 / (V_5 V_1))^2 = (60 / pi^2)^2
    lo, hi = minkowski_bound_sq_range(5, 1)
    assert lo < hi and float(hi - lo) < 1e-50
    assert float(lo) == pytest.approx(3600 / math.pi**4, rel=1e-14)


def test_minkowski_leq_exact_boundary():
    # C_{1,1} = 1 exactly: equality is allowed, above is not
    assert minkowski_leq(Fraction(1), 1, 1)
    assert not minkowski_leq(Fraction(1) + Fraction(1, 10**30), 1, 1)
    # C_{2,1}^2 = 16/pi^2; test values straddling it
    assert minkowski_leq(Fraction(16210, 10000), 2, 1)
    assert not minkowski_leq(Fraction(16212, 10000), 2, 1)


def test_a_safe_values():
    assert a_safe(1, 1) == 26
    assert a_safe(2, 1) == 5 * 81 + 1


def test_canonical_sign_scans_minus_block_first():
    assert canonical_sign((1, -1), 1) == (-1, 1)
    assert canonical_sign((-1, 0), 1) == (1, 0)
    assert canonical_sign((0, 2), 1) == (0, 2)
    assert canonical_sign((0, 0), 1) == (0, 0)


def test_basis_tol_and_sq_close():
    basis = LatticeBasis.identity(1, 1)
    assert basis.tol == 0
    tol = apply_flow(basis, 0.5).tol
    assert tol == Fraction(1, 1 << 112)
    # one fixed tolerance for every flowed basis, however many flows it
    # carries and whatever its factors
    assert apply_flow(apply_flow(basis, 0.5), Fraction(-1, 4)).tol == tol
    assert LatticeBasis(1, 1, basis.columns, flow=(1, 1)).tol == tol
    assert sq_close(Fraction(1), Fraction(1) + Fraction(1, 1 << 120), tol)
    assert not sq_close(Fraction(1), Fraction(1) + Fraction(1, 1 << 100), tol)
    # the scale floor of 1 and exact equality at tol = 0
    assert sq_close(Fraction(1, 1 << 200), Fraction(0), tol)
    assert not sq_close(Fraction(1), Fraction(1) + Fraction(1, 1 << 400), Fraction(0))


def test_from_theta_unimodular():
    theta = ((Fraction(1, 2), Fraction(1, 3)),)
    basis = LatticeBasis.from_theta(theta)
    assert (basis.d, basis.c) == (2, 1)
    assert basis.det_sq() == 1
    v = basis.vector((0, 0, 1))
    assert v.raw == (Fraction(-1, 2), Fraction(-1, 3), Fraction(1))
    assert v.height_sq == 1


def test_basis_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LatticeBasis(1, 1, ((Fraction(1),),))
    with pytest.raises(ValueError):
        LatticeBasis(1, 1, ((1, 0), (0, 1)), scale_sq=0)


def test_lll_columns_unimodular_transform():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.choice((2, 3))
        cols = [
            [rng.randrange(-9, 10) for _ in range(m)] for _ in range(m)
        ]
        # force independence by adding the identity
        for i in range(m):
            cols[i][i] += 10
        red, u, _ = lll_columns(cols)
        # reduced = original . U with U unimodular
        det_u = (
            u[0][0] * u[1][1] - u[0][1] * u[1][0]
            if m == 2
            else u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
            - u[1][0] * (u[0][1] * u[2][2] - u[0][2] * u[2][1])
            + u[2][0] * (u[0][1] * u[1][2] - u[0][2] * u[1][1])
        )
        assert det_u in (1, -1)
        for j in range(m):
            comb = [
                sum(cols[t][i] * u[j][t] for t in range(m)) for i in range(m)
            ]
            assert comb == red[j]


def lll_test_bases():
    """Seeded nonsingular integer bases, m = 2, 3, 4, entries up to 2^300:
    dense random ones, and skewed theta-lattice ones shaped like a chain
    step's (den * e_i, then (-a, den), with the height row scaled)."""
    rng = random.Random(4)
    bases = []
    for m in (2, 3, 4):
        for bits in (2, 8, 64, 300):
            for _ in range(20):
                cols = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(m)] for _ in range(m)]
                if LatticeBasis(1, m - 1, cols).det_raw() != 0:
                    bases.append(cols)
                den = 1 << bits
                cols = [[den if i == j else 0 for i in range(m)] for j in range(m - 1)]
                cols.append([-rng.randrange(den) for _ in range(m - 1)] + [den])
                for col in cols:
                    col[-1] <<= rng.randrange(bits)
                bases.append(cols)
    return bases


# SHA-256 of repr([(red, u), ...]) over lll_test_bases(), computed with the
# Fraction Gram-Schmidt LLL this kernel replaced
LLL_DIGEST = "f192b4c08e46249449a37129405e95718e09d50065958275d58a145d149bc17c"


def test_lll_columns_against_fraction_oracle():
    delta = LLL_DELTA
    outputs = []
    stale = 0
    for cols in lll_test_bases():
        m = len(cols)
        red, u, _ = lll_columns(cols)
        assert LatticeBasis(1, m - 1, u).det_raw() in (1, -1)
        assert red == [
            [sum(u[j][t] * cols[t][i] for t in range(m)) for i in range(m)]
            for j in range(m)
        ]
        mu, dvec = fraction_gso(red)
        for k in range(1, m):
            assert abs(mu[k][k - 1]) <= Fraction(1, 2)
            assert dvec[k] >= (delta - mu[k][k - 1] ** 2) * dvec[k - 1]
        # stale-mu size reduction leaves some |mu_kj| > 1/2 for j < k-1
        stale += any(abs(mu[k][j]) > Fraction(1, 2) for k in range(m) for j in range(k - 1))
        outputs.append((red, u))
    assert len(outputs) == 477 and stale > 0
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == LLL_DIGEST


def fp_test_cases():
    """Seeded (cols, bound, on) cases, m = 1, 2, 3: small non-reduced
    integer bases, bounds with denominators 3 and 7, and integer bounds
    met exactly by the lattice vector of coordinates ``on``; the brute
    box of every case stays under 4000 points."""
    rng = random.Random(12)
    cases = []
    for m in (1, 2, 3):
        while len(cases) < 60 * m:
            cols = [[rng.randrange(-4, 5) + 6 * (i == j) for i in range(m)] for j in range(m)]
            for _ in range(3 * (m - 1)):
                a, b = rng.sample(range(m), 2)
                cols[a] = [s + rng.choice((-2, -1, 1, 2)) * t for s, t in zip(cols[a], cols[b])]
            on = tuple(rng.randrange(-2, 3) for _ in range(m))
            x = [sum(cols[j][i] * on[j] for j in range(m)) for i in range(m)]
            three = [
                (cols, Fraction(rng.randrange(1, 400), 3), None),
                (cols, Fraction(rng.randrange(1, 400), 7), None),
                (cols, Fraction(sum(t * t for t in x)), on),
            ]
            if all(math.prod(2 * b + 1 for b in ellipsoid_box(*case[:2])) < 4000 for case in three):
                cases.extend(three)
    return cases


# SHA-256 of repr([visit sequence, ...]) over fp_test_cases(), computed
# with the Fraction Gram-Schmidt enumeration this kernel replaced
FP_DIGEST = "ab8d783ab2095b68574691c66e41d7ab1ba1f8e54b4da55519cbc56938139408"


def last_nonzero_positive(y):
    return next(t for t in reversed(y) if t) > 0


def test_fp_enumerate_exact_against_brute_force():
    # FP_DIGEST pins the whole-ball sequences of brute_ellipsoid; the
    # enumeration visits that sequence restricted to the half whose last
    # nonzero coordinate is positive
    sequences = []
    on_bound = 0
    for cols, bound, on in fp_test_cases():
        whole = brute_ellipsoid(cols, bound)
        seen = []
        nodes = fp_enumerate(cols, bound, seen.append)
        assert seen == [y for y in whole if last_nonzero_positive(y)]
        assert 2 * len(seen) == len(whole)
        assert nodes >= len(seen)
        if on is not None and any(on):
            neg = tuple(-t for t in on)
            assert (on in seen) != (neg in seen)
            on_bound += 1
        sequences.append(whole)
    assert on_bound >= 50
    assert hashlib.sha256(repr(sequences).encode()).hexdigest() == FP_DIGEST


def test_lll_columns_hands_on_its_gram_schmidt_data():
    # the (dd, lam) lll_columns returns is _int_gso of its reduced
    # columns, and fp_enumerate walks the same nodes with it as without
    rng = random.Random(16)
    bases = [cols for cols, _, _ in fp_test_cases()[::3]]
    for m in (3, 4):
        while len(bases) < 180 + 40 * (m - 2):
            cols = [[rng.randrange(-50, 51) for _ in range(m)] for _ in range(m)]
            if LatticeBasis(1, m - 1, cols).det_raw() != 0:
                bases.append(cols)
    for cols in bases:
        red, _, gso = lll_columns(cols)
        assert gso == _int_gso(red)
        bound = sum(t * t for t in red[-1]) + 1
        plain, handed = [], []
        nodes = fp_enumerate(red, bound, plain.append)
        assert fp_enumerate(red, bound, handed.append, gso=gso) == nodes
        assert handed == plain


def test_fp_enumerate_negative_bound_and_budget():
    seen = []
    assert fp_enumerate([[2, 1], [1, 3]], Fraction(-1, 3), seen.append) == 0
    assert seen == []
    with pytest.raises(BudgetExceededError):
        fp_enumerate([[1, 0], [0, 1]], Fraction(10**6, 7), seen.append, budget=10)


def fp_identity_cases(monkeypatch):
    """(cols, bound, gso) cases for fp_enumerate against the exact walk:
    fp_test_cases(); LLL-reduced m = 3 and 4 bases with bounds met by
    each reduced column and one between; and the warm-started cylinders
    chain_engine searches on two 256- and two 512-bit 1x2 and 2x1
    targets and on two 2048-bit 3x1 and 2x2 ones, recorded from its
    calls."""
    cases = [(cols, bound, None) for cols, bound, _ in fp_test_cases()]
    rng = random.Random(20)
    for m in (3, 4):
        for bits in (4, 64, 300):
            for _ in range(8):
                cols = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(m)] for _ in range(m)]
                if LatticeBasis(1, m - 1, cols).det_raw() == 0:
                    continue
                red, _, gso = lll_columns(cols)
                norms = [sum(t * t for t in col) for col in red]
                cases += [(red, bound, gso) for bound in norms]
                cases.append((red, Fraction(3 * max(norms), 2), gso))
    walk = fp_enumerate

    def record(cols, bound, visit, budget=10**7, gso=None):
        cases.append((cols, bound, gso))
        return walk(cols, bound, visit, budget=budget, gso=gso)

    with monkeypatch.context() as mp:
        mp.setattr(diolab.core, "fp_enumerate", record)
        for d, c, bits, depth in (
            (1, 2, 256, 40), (2, 1, 256, 40), (1, 2, 512, 40), (2, 1, 512, 40),
            (3, 1, 2048, 16), (2, 2, 2048, 16),
        ):
            for _ in range(2):
                chain_engine(sample_theta(d, c, bits, rng), depth=depth)
    return cases


def _fp_walk(enumerate_, case, budget=10**7):
    cols, bound, gso = case
    seen = []
    try:
        nodes = enumerate_(cols, bound, seen.append, budget=budget, gso=gso)
    except BudgetExceededError:
        nodes = None
    return nodes, seen


def test_fp_enumerate_matches_the_exact_walk(monkeypatch):
    # the fixed-point ranges are the integer walk's: the same nodes and
    # visits at the module's fraction bits, and at 8 down to 1 bit, where
    # the intervals are wide enough to fail on a centre or bound rounded
    # inward and, at one bit, most ranges are left to the exact branch
    cases = fp_identity_cases(monkeypatch)
    assert len(cases) > 550
    assert sum(max(abs(t) for col in cols for t in col).bit_length() > 2000 for cols, _, _ in cases) > 20
    want = [_fp_walk(reference_fp_enumerate, case) for case in cases]
    assert [_fp_walk(fp_enumerate, case) for case in cases] == want
    exact = []
    weights = diolab.core._fp_weights
    monkeypatch.setattr(diolab.core, "_fp_weights", lambda *a: exact.append(a) or weights(*a))
    for bits in range(8, 0, -1):
        exact.clear()
        monkeypatch.setattr(diolab.core, "_FP_BITS", bits)
        assert [_fp_walk(fp_enumerate, case) for case in cases] == want, bits
    assert len(exact) > len(cases) // 2


@pytest.mark.parametrize("bits", [None, 1])
def test_fp_enumerate_budget_edge_matches_the_exact_walk(monkeypatch, bits):
    # budget = nodes - 1 raises in both walks after the same visits, and
    # budget = nodes raises in neither
    cases = fp_identity_cases(monkeypatch)
    if bits:
        monkeypatch.setattr(diolab.core, "_FP_BITS", bits)
    edges = 0
    for case in cases:
        nodes, seen = _fp_walk(reference_fp_enumerate, case)
        if not nodes:
            continue
        short = _fp_walk(reference_fp_enumerate, case, budget=nodes - 1)
        assert short[0] is None
        assert _fp_walk(fp_enumerate, case, budget=nodes - 1) == short
        assert _fp_walk(fp_enumerate, case, budget=nodes) == (nodes, seen)
        edges += 1
    assert edges > 500


def test_kernel_calls_keep_the_shape_a_tracer_wraps(monkeypatch):
    # a tracer times the kernel by rebinding core.lll_columns and
    # core.fp_enumerate by name: it takes the visitor as fp_enumerate's
    # third argument (or visit=), counts one call with one tuple per
    # point and reads the int node count returned; lll_columns returns
    # (red, u, (dd, lam)).  An m >= 3 search calls both through those names.
    assert list(inspect.signature(fp_enumerate).parameters)[:3] == ["cols", "bound_sq", "visit"]
    cols = [[5, 1, 0], [2, 7, 1], [1, 0, 9]]
    seen = []
    nodes = fp_enumerate(cols, 200, lambda *args: seen.append(args))
    assert type(nodes) is int and nodes >= len(seen) > 0
    assert all(len(args) == 1 and type(args[0]) is tuple and len(args[0]) == 3 for args in seen)
    out = lll_columns(cols)
    assert type(out) is tuple and len(out) == 3
    red, u, gso = out
    assert type(gso) is tuple and gso == _int_gso(red)
    assert red == core._matmul_int(cols, u)
    calls = []
    for name in ("lll_columns", "fp_enumerate"):
        fn = getattr(core, name)

        def traced(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            if _name == "fp_enumerate":
                assert callable(kwargs.get("visit", args[2] if len(args) > 2 else None))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(core, name, traced)
    _cylinder_points(cols, None, 1, 60, 90, 10**7)
    assert calls == ["lll_columns", "fp_enumerate"]


def test_lll_columns_rejects_dependent_columns():
    with pytest.raises(SingularBasisError):
        lll_columns([[1, 1], [2, 2]])


def test_enumerate_z2_unit_cylinder():
    basis = LatticeBasis.identity(1, 1)
    vecs = enumerate_in_cylinder(basis, Cylinder(Fraction(1), Fraction(1)))
    ys = [v.y for v in vecs]
    assert ys == [(1, 0), (0, 1), (-1, 1), (1, 1)]


def test_enumerate_z3_cylinder():
    basis = LatticeBasis.identity(2, 1)
    vecs = enumerate_in_cylinder(basis, Cylinder(Fraction(1), Fraction(4)))
    assert len(vecs) == 12
    assert {v.y for v in vecs if v.height_sq == 0} == {(1, 0, 0), (0, 1, 0)}
    assert all(v.width_sq <= 1 and v.height_sq <= 4 for v in vecs)


def test_enumerate_empty_cylinder():
    basis = LatticeBasis.identity(1, 1)
    assert enumerate_in_cylinder(basis, Cylinder(Fraction(1, 4), Fraction(1, 4))) == []


def test_enumerate_budget_error():
    basis = LatticeBasis.identity(1, 1)
    with pytest.raises(BudgetExceededError):
        enumerate_in_cylinder(basis, Cylinder(Fraction(10**6), Fraction(10**6)), budget=10)


def _brute_checked(basis, cyl):
    """enumerate_in_cylinder's output after checking it against the brute
    scan, or None when the safe box is too large to scan."""
    box = safe_box(basis, cyl)
    if box > (16 if basis.m == 2 else 7):
        return None
    got = enumerate_in_cylinder(basis, cyl)
    want = brute_cylinder(basis, cyl, box)
    assert [v.y for v in got] == [v.y for v in want]
    assert [(v.width_sq, v.height_sq, v.raw) for v in got] == [
        (v.width_sq, v.height_sq, v.raw) for v in want
    ]
    return got


def _random_basis(rng):
    d, c = rng.choice(((1, 1), (1, 1), (1, 1), (2, 1), (1, 2)))
    return random_unimodular_basis(rng, d, c, ops=4 if d + c == 3 else 5)


def _two_unit_basis(rng):
    """A basis whose width and height blocks have different denominators
    and contents: a flowed unimodular basis (t != 0) or a dyadic
    theta-lattice, with one block stretched by a rational factor or
    none, and scale_sq drawn from 1, 4, 9/4 and 2/3."""
    d, c = rng.choice(((1, 1), (2, 1), (1, 2)))
    if rng.getrandbits(1):
        flow_t = Fraction(rng.choice((-1, 1)) * rng.randrange(5, 40), 100)
        basis = apply_flow(_random_basis(rng), flow_t)
        d, c = basis.d, basis.c
    else:
        den = 1 << rng.randrange(1, 5)
        theta = [[Fraction(rng.randrange(den), den) for _ in range(d)] for _ in range(c)]
        basis = LatticeBasis.from_theta(theta)
    f = rng.choice((Fraction(3), Fraction(2, 3), Fraction(5, 4), Fraction(1, 2)))
    stretch = rng.randrange(3)  # 0: none, 1: width block, 2: height block
    rows = range(d) if stretch == 1 else range(d, d + c) if stretch == 2 else ()
    cols = tuple(
        tuple(t * f if i in rows else t for i, t in enumerate(col)) for col in basis.columns
    )
    scale_sq = rng.choice((Fraction(1), Fraction(4), Fraction(9, 4), Fraction(2, 3)))
    return LatticeBasis(d, c, cols, scale_sq, basis.flow)


def test_enumerate_matches_brute_force():
    rng = random.Random(2024)
    checked = attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 5000, "safe boxes reject too many random bases"
        if _brute_checked(_random_basis(rng), random_cylinder(rng)) is not None:
            checked += 1
    # eccentric cylinders, radius ratios 2^k for |k| <= 11 both ways, and
    # zero radii, which the rebalancing pins by scaling one block
    rng = random.Random(2025)
    checked = attempts = zero_hits = 0
    while checked < 400:
        attempts += 1
        assert attempts < 4000, "safe boxes reject too many random bases"
        basis = _random_basis(rng)
        k = rng.randrange(-11, 12)
        big = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        small = Fraction(0) if rng.getrandbits(1) else big / (1 << abs(k))
        cyl = Cylinder(big, small) if k >= 0 else Cylinder(small, big)
        got = _brute_checked(basis, cyl)
        if got is not None:
            checked += 1
            zero_hits += small == 0 and bool(got)
    assert zero_hits >= 100
    # per-block integer units: blocks with different denominators,
    # contents and scale_sq, against the scan in physical Fractions
    rng = random.Random(2026)
    checked = attempts = hits = two_units = 0
    while checked < 200:
        attempts += 1
        assert attempts < 2000, "safe boxes reject too many random bases"
        basis = _two_unit_basis(rng)
        got = _brute_checked(basis, random_cylinder(rng))
        if got is not None:
            checked += 1
            hits += bool(got)
            _, (unit_w, unit_h), _ = basis.kernel
            two_units += unit_w != unit_h
    assert hits >= 150 and two_units >= 150


def test_enumerate_output_sorted_and_canonical():
    rng = random.Random(5)
    for _ in range(30):
        basis = random_unimodular_basis(rng, 1, 1)
        vecs = enumerate_in_cylinder(basis, Cylinder(Fraction(4), Fraction(4)))
        keys = [(v.height_sq, v.width_sq, v.y) for v in vecs]
        assert keys == sorted(keys)
        assert all(v.y == canonical_sign(v.y, 1) for v in vecs)
        assert len({v.y for v in vecs}) == len(vecs)


def test_shortest_mixed_vectors_z2():
    # the sup-norm first minimum of Z^2 is attained along both axes and
    # both diagonals
    vecs = shortest_mixed_vectors(LatticeBasis.identity(1, 1))
    assert {v.y for v in vecs} == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    assert all(v.mixed_sq == 1 for v in vecs)


def test_shortest_mixed_respects_scale():
    basis = LatticeBasis(1, 1, ((1, 0), (0, 1)), scale_sq=Fraction(4))
    vecs = shortest_mixed_vectors(basis)
    assert len(vecs) == 4
    assert all(v.mixed_sq == Fraction(1, 4) for v in vecs)


def test_an_empty_minkowski_ball_is_a_fault(monkeypatch):
    # Minkowski's theorem puts a lattice vector in the ball, so a search
    # finding none is a kernel fault, not an exhausted budget
    monkeypatch.setattr(core, "_cylinder_points", lambda *args: ([], None, None))
    with pytest.raises(AssertionError, match="Minkowski ball holds no"):
        shortest_mixed_vectors(LatticeBasis.identity(1, 1))


# ---------------------------------------------------------------------------
# the m = 2 plane search: Lagrange-Gauss reduction and the half-plane walk


def _lll_fp_points(cols, d, rp, rm):
    """The cylinder search by the m >= 3 route, run on any m: LLL and
    fp_enumerate on the columns with one block scaled by 2^|k|, so that
    the ball of the scaled radii holds the cylinder, and the cylinder
    filter on the unscaled columns.  k is chosen here, by its own rule."""
    m = len(cols)
    k = (rm.bit_length() - rp.bit_length()) // 2
    rows = range(d) if k > 0 else range(d, m)
    work = [[t << abs(k) if i in rows else t for i, t in enumerate(col)] for col in cols]
    ball = (rp << 2 * k) + rm if k > 0 else rp + (rm << -2 * k)
    red, u, _ = lll_columns(work)
    found = {}

    def visit(yred):
        y = [sum(u[j][i] * yred[j] for j in range(m)) for i in range(m)]
        x = [sum(cols[j][i] * y[j] for j in range(m)) for i in range(m)]
        w = sum(t * t for t in x[:d])
        h = sum(t * t for t in x[d:])
        if w <= rp and h <= rm:
            found[canonical_sign(y, d)] = (w, h)

    fp_enumerate(red, ball, visit)
    return found


def _box_points(cols, rp, rm):
    """The cylinder search by a scan of the exact coefficient box of the
    ball |cols . y|^2 <= rp + rm (d = 1)."""
    found = {}
    box = ellipsoid_box(cols, rp + rm)
    for y in itertools.product(*(range(-b, b + 1) for b in box)):
        x = [sum(cols[j][i] * y[j] for j in range(2)) for i in range(2)]
        if any(y) and x[0] ** 2 <= rp and x[1] ** 2 <= rm:
            found[canonical_sign(y, 1)] = (x[0] ** 2, x[1] ** 2)
    return found


def _expand(points, coords):
    """{sign-canonical y: (width^2, height^2)} of a search's points."""
    return {coords(z): (w, h) for w, h, z in points}


def _search(cols, carry, d, rp, rm):
    """_cylinder_points as {y: (width^2, height^2)} and its carry."""
    points, coords, carry = _cylinder_points(cols, carry, d, rp, rm, 10**7)
    got = _expand(points, coords)
    assert len(got) == len(points)
    return got, carry


def _scaled(cols, d, a):
    """S(a) cols: rows [:d] times 2^a for a > 0, rows [d:] times 2^-a
    for a < 0."""
    ew, eh = max(a, 0), max(-a, 0)
    return [[t << (ew if i < d else eh) for i, t in enumerate(col)] for col in cols]


def _carries(cols, d, carry):
    """Assert that a search's carry is (a, S(a) cols U, U), U unimodular."""
    a, red, u = carry
    assert abs(LatticeBasis(d, len(cols) - d, u).det_raw()) == 1
    assert [list(col) for col in red] == _scaled(core._matmul_int(cols, u), d, a)
    return a


def _plane_matches(cols, carry, rp, rm):
    got, carry = _search(cols, carry, 1, rp, rm)
    assert got == _lll_fp_points(cols, 1, rp, rm)
    _carries(cols, 1, carry)
    return got, carry


def test_plane_search_matches_box_scan_and_lll_route():
    rng = random.Random(808)
    hits = zero_hits = 0
    for _ in range(900):
        cols = [[rng.randrange(-9, 10) for _ in range(2)] for _ in range(2)]
        if cols[0][0] * cols[1][1] == cols[0][1] * cols[1][0]:
            continue
        rp, rm = rng.randrange(0, 60), rng.randrange(0, 60)
        if rng.randrange(3) == 0:
            rp, rm = (0, rm) if rng.getrandbits(1) else (rp, 0)
        got, _ = _plane_matches(cols, None, rp, rm)
        assert got == _box_points(cols, rp, rm)
        hits += bool(got)
        zero_hits += bool(got) and 0 in (rp, rm)
    assert hits >= 300 and zero_hits >= 40


def test_plane_search_on_skewed_chains():
    # the cylinders of 512-bit 1x1 chains, forward and backward, from the
    # previous step's carry and from scratch
    steps = 0
    for seed in range(4):
        theta = ((Fraction(random.Random(seed).getrandbits(512), 1 << 512),),)
        basis = LatticeBasis.from_theta(theta)
        cols, mink = basis.kernel[0], basis.kernel_minkowski_sq
        step = chain_walker(basis, budget=10**7)
        y, carry = (nearest_int(theta[0][0]), 1), None
        for _ in range(40):
            x = [sum(cols[j][i] * y[j] for j in range(2)) for i in range(2)]
            wy, hy = x[0] ** 2, x[1] ** 2
            ahead = mink.numerator // (mink.denominator * wy)
            behind = mink.numerator // (mink.denominator * hy)
            _plane_matches(cols, carry, behind, hy - 1)
            _plane_matches(cols, None, wy - 1, ahead)
            # the walker's own search, whose carry it keeps
            got, carry = _plane_matches(cols, carry, wy - 1, ahead)
            key, members = step(y)
            assert set(members) <= set(got) and got[members[0]] == key[::-1]
            y = members[0]
            steps += 1
    assert steps == 160


def test_plane_search_on_flowed_lattices():
    # flowed chart lattices carry a tolerance; the search is exact on
    # their kernel columns, and enumerate_in_cylinder matches the scan
    rng = random.Random(77)
    checked = 0
    for _ in range(12):
        basis = chart_lattice_1d(sample_surface_point_1d(rng, 48))
        basis = apply_flow(basis, Fraction(rng.randrange(-40, 41), 100))
        assert basis.tol > 0
        cols, (unit_w, unit_h), _ = basis.kernel
        for _ in range(4):
            cyl = random_cylinder(rng)
            rp = math.floor(cyl.r_plus_sq * unit_w)
            rm = math.floor(cyl.r_minus_sq * unit_h)
            _plane_matches(cols, None, rp, rm)
            checked += _brute_checked(basis, cyl) is not None
    assert checked >= 40


def test_gauss_pair_invariants():
    rng = random.Random(11)
    for _ in range(400):
        bits = rng.choice((2, 8, 64, 512))
        a = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(2)]
        b = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(2)]
        if rng.getrandbits(1):  # skew: b close to a multiple of a
            f = rng.randrange(1, 1 << bits)
            b = [f * s + t % 3 for s, t in zip(a, b)]
        if a[0] * b[1] == a[1] * b[0]:
            with pytest.raises(SingularBasisError):
                _gauss_pair(a, b)
            continue
        b1, b2, (na, g, nb), u = _gauss_pair(a, b)
        assert (na, g, nb) == (
            sum(t * t for t in b1),
            sum(s * t for s, t in zip(b1, b2)),
            sum(t * t for t in b2),
        )
        assert na <= nb and 2 * abs(g) <= na
        assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
        for v, uj in zip((b1, b2), u):
            assert list(v) == [uj[0] * s + uj[1] * t for s, t in zip(a, b)]


def test_plane_search_errors():
    for a, b in (((2, 4), (3, 6)), ((0, 0), (1, 2)), ((5, 0), (0, 0))):
        with pytest.raises(SingularBasisError):
            _gauss_pair(a, b)
    with pytest.raises(SingularBasisError):
        _cylinder_points([[1, 1], [2, 2]], None, 1, 4, 4, 10**7)
    with pytest.raises(BudgetExceededError):
        _cylinder_points([[1, 0], [0, 1]], None, 1, 10**6, 10**6, 100)
    # the unit square of Z^2 in the disk of radius^2 2: two rows of the
    # half-plane and four candidates are six nodes
    assert len(_cylinder_points([[1, 0], [0, 1]], None, 1, 1, 1, 6)[0]) == 4
    with pytest.raises(BudgetExceededError):
        _cylinder_points([[1, 0], [0, 1]], None, 1, 1, 1, 5)


# ---------------------------------------------------------------------------
# the m >= 3 search: the visitor on the rows of the reduced columns


SHAPES_M3 = ((2, 1), (1, 2), (3, 1), (1, 3), (2, 2))


def test_cylinder_points_matches_the_lll_route_at_m_3_and_4():
    # random columns and eccentric radii from scratch, then the chain
    # cylinders of theta-lattices, each from the carry the last left
    rng = random.Random(64)
    hits = 0
    for m in (3, 4):
        for bits in (4, 64, 256):
            for _ in range(6):
                d = rng.randrange(1, m)
                cols = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(m)] for _ in range(m)]
                if LatticeBasis(d, m - d, cols).det_raw() == 0:
                    continue
                red, _, _ = lll_columns(cols)
                top = 3 * max(sum(t * t for t in col) for col in red)
                rp, rm = rng.randrange(top), rng.randrange(top)
                if rng.getrandbits(1):
                    rp, rm = (rp >> rng.randrange(12), rm) if rng.getrandbits(1) else (rp, rm >> 6)
                got, u = _search(cols, None, d, rp, rm)
                assert got == _lll_fp_points(cols, d, rp, rm)
                hits += bool(got)
                rp, rm = rm, rp
                got, _ = _search(cols, u, d, rp, rm)
                assert got == _lll_fp_points(cols, d, rp, rm)
    assert hits >= 20
    warm = 0
    for d, c in SHAPES_M3:
        theta = sample_theta(d, c, 256, rng)
        basis = LatticeBasis.from_theta(theta)
        cols, mink = basis.kernel[0], basis.kernel_minkowski_sq
        u = None
        for rec in chain_engine(theta, depth=12):
            x = [sum(col[i] * t for col, t in zip(cols, (*rec.P, *rec.Q))) for i in range(d + c)]
            wy = sum(t * t for t in x[:d])
            if wy == 0:
                break
            bound = core._iroot(mink.numerator // (mink.denominator * wy**d), c)
            got, u = _search(cols, u, d, wy - 1, bound)
            assert got == _lll_fp_points(cols, d, wy - 1, bound)
            warm += u is not None and bool(got)
    assert warm >= 40


def test_warm_searches_carry_their_reduced_columns():
    # warm m = 2, 3 and 4 searches over radii whose rebalancing exponent
    # a changes sign: each equals a from-scratch search, whether its
    # coordinates are read at once, after later searches or not at all,
    # and for every m the carry is (a, S(a) cols U, U), U unimodular
    rng = random.Random(73)
    signs = {m: set() for m in (2, 3, 4)}
    checked = 0
    for m in (2, 3, 4):
        for bits in (8, 64, 256):
            for _ in range(3):
                d = 1 if m == 2 else rng.randrange(1, m)
                cols = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(m)] for _ in range(m)]
                if LatticeBasis(d, m - d, cols).det_raw() == 0:
                    continue
                red, _, _ = lll_columns(cols)
                top = 3 * max(sum(t * t for t in col) for col in red)
                carry = earlier = None
                for _ in range(8):
                    rp = rng.randrange(top) >> rng.randrange(0, 4 * bits, 3)
                    rm = rng.randrange(top) >> rng.randrange(0, 4 * bits, 3)
                    points, coords, carry = _cylinder_points(cols, carry, d, rp, rm, 10**7)
                    want, _ = _search(cols, None, d, rp, rm)
                    a = _carries(cols, d, carry)
                    assert a == isqrt(rm).bit_length() - isqrt(rp).bit_length()
                    signs[m].add((a > 0) - (a < 0))
                    if earlier is not None:
                        assert _expand(*earlier[:2]) == earlier[2]
                        earlier = None
                    if rng.randrange(3) == 0:
                        earlier = points, coords, want
                        continue
                    if rng.randrange(2):
                        norms = sorted((w, h) for w, h, _ in points)
                        assert norms == sorted(want.values())
                        continue
                    assert _expand(points, coords) == want
                    checked += 1
    assert all(s == {-1, 0, 1} for s in signs.values()) and checked >= 60


# ---------------------------------------------------------------------------
# chain_walker's last cylinder: steps answered from the points it kept


def _count_searches(monkeypatch):
    calls = []
    points = core._cylinder_points

    def counted(*args):
        calls.append(args)
        return points(*args)

    monkeypatch.setattr(core, "_cylinder_points", counted)
    return calls


def _fresh_step(basis, y, forward=True, cap=None):
    return chain_walker(basis, budget=10**7)(y, forward, cap=cap)


def _record_ys(theta, depth):
    return [(*rec.P, *rec.Q) for rec in chain_engine(theta, depth=depth)]


@pytest.mark.parametrize("capped", [False, True])
def test_kept_cylinder_steps_match_fresh_walkers(monkeypatch, capped):
    # each step of a chain equals that of a walker built for it alone;
    # a cap at the height of record 14 ends every capped chain there,
    # each with no search: the last cylinder, cut off by the same cap,
    # already holds every candidate
    calls = _count_searches(monkeypatch)
    rng = random.Random(61)
    steps = answered = ended = 0
    for d, c in SHAPES_M3:
        for _ in range(2):
            theta = sample_theta(d, c, 256, rng)
            basis = LatticeBasis.from_theta(theta)
            ys = _record_ys(theta, 30)
            cap = int(chain_engine(theta, depth=15)[-1].q_sq) if capped else None
            step = chain_walker(basis, budget=10**7)
            y = ys[0]
            for _ in range(30):
                before = len(calls)
                got = step(y, cap=cap)
                hit = len(calls) == before
                answered += hit
                assert got == _fresh_step(basis, y, cap=cap)
                steps += 1
                if not got[1]:
                    break
                y = got[1][0]
            assert capped == (got == (None, []))
            ended += capped and hit
    assert steps == (150 if capped else 300) and answered >= steps // 3
    assert ended == (10 if capped else 0)


def test_kept_cylinder_step_bound_one_above_the_last(monkeypatch):
    # step k from record k, capped at o - 1 (o the height^2 of record
    # k + 2) under a Minkowski bound of at least o - 1, keeps a cylinder
    # of other radius B = o - 1; step k + 1 from record k + 1, capped at
    # o, reads nothing kept and has its own bound exactly B + 1, with
    # record k + 2 on it: it must search, and answer record k + 2
    calls = _count_searches(monkeypatch)
    rng = random.Random(68)
    checked = 0
    for d, c in SHAPES_M3:
        theta = sample_theta(d, c, 256, rng)
        basis = LatticeBasis.from_theta(theta)
        cols, _, _ = basis.kernel
        mink_sq = basis.kernel_minkowski_sq
        ys = _record_ys(theta, 20)
        for y0, y1, y2 in zip(ys, ys[1:], ys[2:]):
            x0, x2 = core._matvec_int(cols, y0), core._matvec_int(cols, y2)
            narrow = sum(t * t for t in x0[:d])
            o = sum(t * t for t in x2[d:])
            bound = core._iroot(mink_sq.numerator // (mink_sq.denominator * narrow**d), c)
            if bound < o - 1:
                continue
            step = chain_walker(basis, budget=10**7)
            assert step(y0, cap=o - 1)[1][0] == y1
            before = len(calls)
            got = step(y1, cap=o)
            assert len(calls) == before + 1
            assert got == _fresh_step(basis, y1, cap=o) and got[1][0] == y2
            checked += 1
    assert checked >= 20


def test_kept_cylinder_under_a_lower_cap(monkeypatch):
    # an uncapped step from record k keeps every point up to its
    # Minkowski bound B, here at least the height^2 o2 of record k + 2.
    # A later step capped below B does not read the kept points: from
    # record k + 1 capped at o2 - 1 and at o2 it searches, and finds
    # nothing, then record k + 2
    calls = _count_searches(monkeypatch)
    rng = random.Random(69)
    checked = 0
    for d, c in SHAPES_M3:
        theta = sample_theta(d, c, 256, rng)
        basis = LatticeBasis.from_theta(theta)
        cols, _, _ = basis.kernel
        mink_sq = basis.kernel_minkowski_sq
        ys = _record_ys(theta, 20)
        for y0, y1, y2 in zip(ys, ys[1:], ys[2:]):
            x0 = core._matvec_int(cols, y0)
            o2 = sum(t * t for t in core._matvec_int(cols, y2)[d:])
            narrow = sum(t * t for t in x0[:d])
            if core._iroot(mink_sq.numerator // (mink_sq.denominator * narrow**d), c) <= o2:
                continue
            for cap, want in ((o2 - 1, None), (o2, y2)):
                step = chain_walker(basis, budget=10**7)
                assert step(y0)[1][0] == y1
                before = len(calls)
                got = step(y1, cap=cap)
                assert len(calls) == before + 1
                assert got == _fresh_step(basis, y1, cap=cap)
                assert (got[1][0] if got[1] else None) == want
            checked += 1
    assert checked >= 10


def test_kept_cylinder_steps_off_the_chain(monkeypatch):
    # after the chain steps from records k - 1 and k, the walker is asked
    # about record k again (below its floor), sums and differences of
    # nearby records (often wider than its narrow radius) and steps the
    # other way; every answer equals a fresh walker's
    calls = _count_searches(monkeypatch)
    rng = random.Random(65)
    asked = answered = 0
    for d, c in SHAPES_M3:
        theta = sample_theta(d, c, 256, rng)
        basis = LatticeBasis.from_theta(theta)
        ys = _record_ys(theta, 32)
        step = chain_walker(basis, budget=10**7)
        for k in range(2, len(ys) - 2):
            y0, y1, y2, y3, y4 = ys[k - 2 : k + 3]
            queries = [(y2, True), (y3, False), (y2, False)] + [
                (tuple(s + sign * t for s, t in zip(a, b)), True)
                for a, b, sign in ((y1, y3, 1), (y0, y3, 1), (y1, y4, 1), (y0, y4, -1))
            ]
            for y, forward in queries:
                assert step(ys[k - 1])[1][0] == y2 and step(y2)[1][0] == y3
                before = len(calls)
                got = step(y, forward)
                answered += len(calls) == before
                assert got == _fresh_step(basis, y, forward), (k, y, forward)
                asked += 1
    assert asked >= 900 and answered >= 10


def test_minimal_vectors_steps_match_fresh_walkers(monkeypatch):
    # the steps of d = 2 chains of flowed theta-lattices, backward from
    # the anchor and then forward
    calls = _count_searches(monkeypatch)
    asked = []
    walker = dynamics.chain_walker

    def recording(basis, **kwargs):
        step = walker(basis, **kwargs)

        def recorded(y, forward=True):
            before = len(calls)
            got = step(y, forward)
            asked.append((basis, y, forward, got, len(calls) == before))
            return got

        return recorded

    monkeypatch.setattr(dynamics, "chain_walker", recording)
    rng = random.Random(66)
    for _ in range(3):
        basis = apply_flow(LatticeBasis.from_theta(sample_theta(2, 1, 256, rng)), 25)
        chain = dynamics.minimal_vectors(basis, 20, back=12, certify=False)
        assert len(chain.entries) == 32
    for basis, y, forward, got, _ in asked:
        assert got == _fresh_step(basis, y, forward)
    backward = [hit for _, _, forward, _, hit in asked if not forward]
    forward = [hit for _, _, forward, _, hit in asked if forward]
    assert len(backward) >= 36 and sum(backward) >= 10 and sum(forward) >= 10


def test_a_2x1_chain_searches_less_than_once_per_record(monkeypatch):
    calls = _count_searches(monkeypatch)
    records = chain_engine(sample_theta(2, 1, 512, random.Random(67)), depth=60)
    assert len(records) == 60
    assert len(calls) < len(records)
