"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The workloads are shrunk through their class attributes so the whole
file runs in well under a minute.
"""

import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

EXACT = (
    "core.fp_enumerate.calls",
    "core.fp_enumerate.nodes",
    "core.fp_enumerate.visits",
    "core.lll_columns.calls",
    "core.enumerate_in_cylinder.calls",
    "core.enumerate_in_cylinder.vectors",
    "bestapprox.chain_engine.records",
    "bestapprox.direct_scan.calls",
    "dynamics.first_return.calls",
    "dynamics.enumerations_per_return",
    "trace.spans",
)


@pytest.fixture
def small(monkeypatch):
    """Workloads cut to a second or two each."""
    monkeypatch.setattr(workloads.Chain1x1, "pinned_rounds", 2)
    monkeypatch.setattr(workloads.Chain3d, "pinned_rounds", 1)
    monkeypatch.setattr(workloads.Transversal, "pinned_rounds", 2)
    monkeypatch.setattr(workloads.Certify, "steps", 5)
    monkeypatch.setattr(workloads.Certify, "cross_checks", 2)
    os.makedirs(run.OUTDIR, exist_ok=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_and_digest_repeat_for_a_seed(small, name):
    first, digest1 = run.traced_run(name, 3, {}, run.Ops())
    second, digest2 = run.traced_run(name, 3, {}, run.Ops())
    assert digest1 == digest2
    for key in EXACT:
        assert first["metrics"][key] == second["metrics"][key], key
    assert set(first["metrics"]) == set(second["metrics"])


def test_counters_see_the_layers(small):
    result, _ = run.traced_run("transversal", 3, {}, run.Ops())
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["dynamics.first_return.calls"] == 20
    assert m["dynamics.enumerations_per_return"] >= 3
    assert m["core.fp_enumerate.nodes"] > m["core.fp_enumerate.calls"] > 0
    assert m["bestapprox.chain_engine.records"] == 0


def test_tampered_digest_fails_the_run(small, monkeypatch, capsys):
    _, digest = run.traced_run("transversal", 4, {}, run.Ops())
    tampered = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    monkeypatch.setattr(run, "load_pins", lambda: {"transversal": {"4": tampered}})
    code = run.main(["--workload", "transversal", "--seed", "4", "--seconds", "1", "--trace", "1"])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last
    monkeypatch.setattr(run, "load_pins", lambda: {"transversal": {"4": digest}})
    assert run.main(["--workload", "transversal", "--seed", "4", "--seconds", "1", "--trace", "1"]) == 0


def _feed(monkeypatch, first):
    """Make the workload's next draw ``first``, then draw as usual."""
    real = workloads.bestapprox.sample_theta
    queue = [first]

    def sample(d, c, bits, rng):
        if queue and (len(queue[0][0]), len(queue[0])) == (d, c):
            return queue.pop()
        return real(d, c, bits, rng)

    monkeypatch.setattr(workloads.bestapprox, "sample_theta", sample)


def test_non_generic_input_is_a_failure_not_a_wrong_answer(small, monkeypatch):
    # two unit heights of a 1x2 target tie at the first record
    _feed(monkeypatch, ((Fraction(1, 3),), (Fraction(1, 3),)))
    w = workloads.make("chain-3d", 5, run.OUTDIR)
    ops = run.Ops()
    for _ in range(2):
        w.round(ops)
    assert (ops.attempted, ops.failed, len(ops.times)) == (2, 1, 1)


def test_early_termination_is_a_failure(small, monkeypatch):
    _feed(monkeypatch, ((Fraction(355, 113),),))
    w = workloads.make("chain-1x1", 5, run.OUTDIR)
    ops = run.Ops()
    w.round(ops)
    w.round(ops)
    assert (ops.attempted, ops.failed) == (2, 1)


def test_wrong_output_fails_the_run(small, monkeypatch):
    real = workloads.bestapprox.cf_best_denominators
    monkeypatch.setattr(
        workloads.bestapprox, "cf_best_denominators", lambda x: [q + 1 for q in real(x)]
    )
    w = workloads.make("chain-1x1", 5, run.OUTDIR)
    with pytest.raises(workloads.WrongOutput):
        w.round(run.Ops())


def test_tail_percentile_is_fixed_and_needs_ten_ops_beyond():
    times = [i / 1000 for i in range(1, 51)]
    assert run.tail(times, 80) == times[39]
    with pytest.raises(SystemExit):
        run.tail(times[:49], 80)
    assert [run.min_ops(p) for p in (80, 65, 99, 75)] == [50, 29, 1000, 40]


def test_pooled_ks_is_a_timed_op(small):
    result, _ = run.traced_run("chain-1x1", 3, {}, run.Ops())
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["attempted"] == workloads.Chain1x1.pinned_rounds + 1
    assert m["estimators.ks_distance.self_s"] > 0
    assert m["estimators.bjw_oracle_cdf_1d.ms_per_point"] > 0
