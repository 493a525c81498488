"""Per-call costs of single layers, one row each.

    python3 bench/roadmap_rows.py

Re-measures the per-layer rows of the ROADMAP baseline table on fixed
seeds and prints one line per row.  The timed workloads in run.py are
the measurement of record; these rows exist so that the table's figures
can be compared across commits one by one.
"""

import random
import statistics
import sys
from time import perf_counter

import run  # noqa: F401  (puts src/ on the path)
import mpmath
from diolab import bestapprox, dynamics, estimators, badk
from diolab.core import LatticeBasis, NonGenericLatticeError


def per_item(fn, items: int, repeats: int = 3) -> float:
    """Median over ``repeats`` of the seconds per item of ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / items)
    return statistics.median(times)


def chart_bases(n: int) -> list:
    rng = random.Random(5)
    out = []
    while len(out) < n:
        point = dynamics.sample_surface_point_1d(rng, 48)
        try:
            dynamics.return_map_explicit_1d(point)
        except NonGenericLatticeError:
            continue
        out.append(point)
    return out


def main() -> None:
    rows = []
    rng = random.Random(1)
    for d, c, depth in ((1, 1, 200), (2, 1, 60), (1, 2, 60)):
        theta = bestapprox.sample_theta(d, c, 512, rng)
        ms = per_item(lambda: bestapprox.chain_engine(theta, depth=depth), depth) * 1e3
        rows.append(("chain_engine %dx%d 512 bits, per record" % (d, c), ms, "ms"))

    theta = bestapprox.sample_theta(1, 1, 256, random.Random(2))
    basis = LatticeBasis.from_theta(theta)
    for certify in (False, True):
        ms = per_item(lambda: dynamics.minimal_vectors(basis, 40, certify=certify), 40) * 1e3
        rows.append(("minimal_vectors 1x1 256 bits, per entry (certify=%s)" % certify, ms, "ms"))
    ms = per_item(lambda: bestapprox.chain_engine(theta, depth=40), 40) * 1e3
    rows.append(("chain_engine same theta, per record", ms, "ms"))

    points = chart_bases(50)
    bases = [dynamics.chart_lattice_1d(p) for p in points]
    ms = per_item(lambda: [dynamics.surface_membership_S(b) for b in bases], 50) * 1e3
    rows.append(("surface_membership_S, per call", ms, "ms"))
    ms = per_item(lambda: [dynamics.surface_first_return_1d(p) for p in points], 50) * 1e3
    rows.append(("surface_first_return_1d, per call", ms, "ms"))
    ms = per_item(lambda: [dynamics.first_return(b) for b in bases], 50) * 1e3
    rows.append(("first_return, per call", ms, "ms"))

    grid = [0.5 + (i + 0.5) / 400 for i in range(200)]
    ms = per_item(lambda: [estimators.bjw_oracle_cdf_1d(t) for t in grid], 200, 1) * 1e3
    rows.append(("bjw_oracle_cdf_1d (quadrature), per point", ms, "ms"))
    us = per_item(lambda: [estimators.bjw_cdf_1d(t) for t in grid], 200) * 1e6
    rows.append(("bjw_cdf_1d (closed form), per point", us, "us"))
    gap = max(abs(estimators.bjw_oracle_cdf_1d(t) - estimators.bjw_cdf_1d(t)) for t in grid)
    rows.append(("max |quadrature - closed form| over the grid", gap, ""))

    ms = per_item(lambda: estimators.surface_mc_2d(500, 5), 500, 1) * 1e3
    rows.append(("surface_mc_2d, per sample", ms, "ms"))

    def construction():
        state = badk.init_state()
        badk.certify(state)
        for _ in range(10):
            state = badk.step(state)
            badk.certify(state)

    s = per_item(construction, 1, 1)
    rows.append(("badk 10 steps + certify", s, "s"))

    print("Python %s, mpmath backend %s" % (sys.version.split()[0], mpmath.libmp.BACKEND))
    for label, value, unit in rows:
        print("%-55s %12.4g %s" % (label, value, unit))


if __name__ == "__main__":
    main()
