"""Statistical layer: closed forms, quadrature oracles, the ergodic Levy
estimator, the product-distribution pool, and the d=2 chart Monte Carlo."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import diolab
from diolab import estimators
from diolab.core import SearchLimitError
from diolab.estimators import (
    LEVY_2_1,
    EmpiricalCDF,
    bjw_cdf_1d,
    bjw_empirical,
    bjw_oracle_cdf_1d,
    ks_distance,
    levy_closed_form_1d,
    levy_ergodic,
    surface_density_1d,
    surface_mc_2d,
    surface_measure_1d,
)


def test_levy_closed_form():
    cf = levy_closed_form_1d()
    assert cf.value == pytest.approx(1.1865691104156255, abs=1e-15)
    assert cf.zeta_ratio == pytest.approx(cf.value, rel=1e-14)
    assert cf.khintchin == pytest.approx(math.exp(cf.value), rel=1e-15)
    assert LEVY_2_1 == 1.135256974


def test_bjw_cdf_frozen_values():
    assert bjw_cdf_1d(0.5) == 0.0
    assert bjw_cdf_1d(0.3) == 0.0
    assert bjw_cdf_1d(1.0) == 1.0
    assert bjw_cdf_1d(2.0) == 1.0
    # F(3/4) = (3 ln 3)/(4 ln 2) - 1
    assert bjw_cdf_1d(0.75) == pytest.approx(0.18872187554086706, abs=1e-15)
    assert bjw_cdf_1d(0.75) == pytest.approx(
        3 * math.log(3) / (4 * math.log(2)) - 1, abs=1e-15
    )


def test_bjw_cdf_monotone():
    grid = np.linspace(0.45, 1.05, 241)
    vals = [bjw_cdf_1d(float(t)) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_bjw_quadrature_oracle_matches_closed_form():
    assert bjw_oracle_cdf_1d(0.75) == pytest.approx(0.18872187554086716, abs=1e-9)
    for t in np.arange(0.55, 0.99, 0.05):
        assert bjw_oracle_cdf_1d(float(t)) == pytest.approx(
            bjw_cdf_1d(float(t)), abs=1e-8
        )
    assert bjw_oracle_cdf_1d(0.5) == 0.0
    assert bjw_oracle_cdf_1d(1.0) == 1.0


def test_bjw_quadrature_pins_closed_form_on_grid():
    # criterion 6 measures KS against the closed form; this keeps the
    # quadrature route checking it, at the 200 midpoints of (1/2, 1)
    grid = [0.5 + (k + 0.5) / 400 for k in range(200)]
    diff = max(abs(bjw_oracle_cdf_1d(t) - bjw_cdf_1d(t)) for t in grid)
    assert diff <= 1e-12


def test_bjw_quadrature_matches_adaptive_quadrature():
    # a third, adaptive route: scipy's dblquad on the unmapped region
    from scipy import integrate

    for t in (0.55, 0.7, 0.85, 0.95, 0.99):
        u = 1.0 / t - 1.0
        val, _ = integrate.dblquad(
            lambda y, x: (1.0 + x * y) ** -2, u, 1.0, lambda x: u / x, 1.0,
            epsabs=1e-10, epsrel=1e-10,
        )
        assert abs(val / math.log(2) - bjw_oracle_cdf_1d(t)) <= 1e-12


def test_bjw_quadrature_near_the_ends():
    # near t = 1 the mapped integrand needs 80 nodes; the rule doubles
    for t in (0.5 + 1e-12, 0.9999, 1 - 1e-9, 1 - 1e-15):
        assert abs(bjw_oracle_cdf_1d(t) - bjw_cdf_1d(t)) <= 1e-12


def test_bjw_quadrature_raises_when_rules_disagree(monkeypatch):
    # a rule whose weights sum to 1 + 1/n never settles
    monkeypatch.setattr(
        estimators,
        "_gauss_legendre",
        lambda n: (np.full(n, 0.5), np.full(n, (1 + 1 / n) / n)),
    )
    with pytest.raises(RuntimeError):
        bjw_oracle_cdf_1d(0.75)


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(diolab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, diolab, diolab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_empirical_cdf():
    ecdf = EmpiricalCDF(np.array([3.0, 1.0, 2.0, 2.0]))
    assert list(ecdf.samples) == [1.0, 2.0, 2.0, 3.0]
    assert ecdf(0.5) == 0.0
    assert ecdf(1.0) == 0.25
    assert ecdf(2.0) == 0.75
    assert ecdf(10.0) == 1.0
    with pytest.raises(ValueError):
        EmpiricalCDF(np.array([]))


def test_ks_distance_blocks_match_one_pass():
    # blocks of the sample give the bits of the one-pass formula; the
    # caller's array is copied, not sorted in place
    raw = 0.5 + 0.5 * np.random.default_rng(3).random(2 * estimators._KS_BLOCK + 17)
    before = raw.copy()
    ecdf = EmpiricalCDF(raw)
    assert np.array_equal(raw, before)
    n = raw.size
    F = np.array([bjw_cdf_1d(float(x)) for x in ecdf.samples])
    steps = np.arange(1, n + 1) / n
    want = float(max(np.max(steps - F), np.max(F - (steps - 1 / n))))
    assert ks_distance(ecdf, bjw_cdf_1d) == want


def test_ks_distance_self_is_one_over_n():
    ecdf = EmpiricalCDF(np.array([0.55, 0.65, 0.8, 0.95]))
    assert ks_distance(ecdf, ecdf) == pytest.approx(0.25)


def test_ks_distance_uniform_grid():
    n = 50
    ecdf = EmpiricalCDF((np.arange(1, n + 1) - 0.5) / n)
    assert ks_distance(ecdf, lambda t: min(max(t, 0.0), 1.0)) == pytest.approx(
        0.5 / n
    )


def test_surface_density_and_measure():
    assert surface_density_1d(0.0, 0.0) == 1.0
    assert surface_density_1d(1.0, 1.0) == 0.25
    with pytest.raises(ValueError):
        surface_density_1d(1.5, 0.0)
    assert surface_measure_1d() == pytest.approx(2 * math.log(2), abs=1e-9)


def test_levy_ergodic_smoke_1d():
    est = levy_ergodic(1, 1, trials=8, depth=24, bits=128, seed=3)
    assert est.trials == 8 and est.depth == 24
    assert abs(est.L_hat - 1.1865691104156255) < 0.25
    assert abs(est.L_star_hat - est.L_hat) < 0.2
    assert est.stderr > 0 and est.stderr_star > 0
    assert len(est.per_trial) == 8
    # duality residual is a difference of the same-orbit slopes, much
    # tighter than either slope alone
    assert abs(est.duality_residual) < 0.05
    again = levy_ergodic(1, 1, trials=8, depth=24, bits=128, seed=3)
    assert again == est


def test_levy_ergodic_smoke_2d():
    est = levy_ergodic(2, 1, trials=4, depth=14, bits=96, seed=5)
    assert abs(est.L_hat - LEVY_2_1) < 0.35
    assert est.resamples == 0


def test_levy_ergodic_validation():
    with pytest.raises(ValueError):
        levy_ergodic(1, 1, trials=8, depth=3, bits=64, seed=1)
    with pytest.raises(ValueError):
        levy_ergodic(1, 1, trials=1, depth=10, bits=64, seed=1)


def test_levy_ergodic_resonance_exhaustion():
    # 3-bit targets always terminate long before depth 8
    with pytest.raises(SearchLimitError):
        levy_ergodic(1, 1, trials=2, depth=8, bits=3, seed=1)


def test_bjw_empirical_pool():
    ecdf = bjw_empirical(1, 1, trials=5, depth=40, bits=192, seed=2, discard=10)
    assert ecdf.samples.size == 5 * 30
    assert ecdf.samples.min() > 0.5
    assert ecdf.samples.max() <= 1.0 + 1e-12
    assert ks_distance(ecdf, bjw_cdf_1d) < 0.25
    again = bjw_empirical(1, 1, trials=5, depth=40, bits=192, seed=2, discard=10)
    assert np.array_equal(again.samples, ecdf.samples)


def test_bjw_empirical_resonance_exhaustion():
    # 3-bit targets always terminate long before depth 12
    with pytest.raises(SearchLimitError):
        bjw_empirical(1, 1, trials=2, depth=12, bits=3, seed=1, discard=10)


def test_bjw_empirical_counts_resamples():
    # 20-bit targets often terminate before depth 12; both estimators
    # draw through the same loop and count the same re-draws
    ecdf = bjw_empirical(1, 1, trials=6, depth=12, bits=20, seed=1, discard=2)
    est = levy_ergodic(1, 1, trials=6, depth=12, bits=20, seed=1)
    assert ecdf.samples.size == 6 * 10
    assert ecdf.resamples == est.resamples > 0


def test_seeded_trials_draw_children_in_order():
    # attempt k sees the child Random(master.getrandbits(64)) of draw k;
    # a None uses up its child and counts as one re-draw
    master = random.Random(3)
    children = [master.getrandbits(64) for _ in range(5)]
    seen = []

    def attempt(rng):
        seen.append(rng.random())
        return None if len(seen) in (2, 3) else len(seen)

    out = list(estimators._seeded_trials(3, 3, attempt))
    assert out == [(1, 0), (4, 2), (5, 2)]
    assert seen == [random.Random(k).random() for k in children]


def test_seeded_trials_cap():
    # 2 * trials + 64 draws, then SearchLimitError
    calls = []

    def attempt(rng):
        calls.append(rng)
        assert len(calls) <= 2 * 2 + 64, "a draw past the cap"
        return None

    with pytest.raises(SearchLimitError):
        next(estimators._seeded_trials(1, 2, attempt))
    assert len(calls) == 2 * 2 + 64


def test_bjw_empirical_validation():
    with pytest.raises(ValueError):
        bjw_empirical(1, 1, trials=2, depth=10, bits=64, seed=1, discard=10)


def test_surface_mc_2d_smoke():
    est = surface_mc_2d(250, seed=7)
    assert est.samples == 250
    assert est.accepted == round(est.accept_rate * 250)
    assert 0.02 < est.accept_rate < 0.4
    assert est.muS_hat > 0
    assert est.stderr > 0
    again = surface_mc_2d(250, seed=7)
    assert again == est


def test_surface_mc_2d_validation():
    with pytest.raises(ValueError):
        surface_mc_2d(0, seed=1)
