"""diolab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload in a single process and thread, closed loop,
and prints a report whose last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (timed run): ops run back to back until their summed wall
time reaches ``--seconds`` and enough ops ran for the workload's tail
percentile, always finishing the current round and always covering the
pinned rounds.  Every time is process CPU time: the ops are
single-threaded and compute-bound, so CPU time is what they cost, and it
leaves out the time a shared host takes the CPU away from the machine.
The metrics are the end-to-end ones: setup_s (CPU seconds from process
start to the first timed op: imports, input generation and one warm-up
op), ops_per_s, op_p50_ms, op_tail_ms and peak_rss_mb.

``--trace 1`` (traced run): the pinned rounds run once untraced and once
with the layer tracer installed, so every counter is exact and repeats
for a seed; the metrics are the per-layer ones and the spans are written
to ``.bench_out/``.

Any wrong output exits 1; the run never reports a wrong answer as fast.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
TAIL_MIN_BEYOND = 10


class Ops:
    """Times each op of a run on the process CPU clock, and on the wall
    clock for the run length; the tracer, when given, records spans only
    inside ops."""

    def __init__(self, tracer=None) -> None:
        self._inside = tracer.active if tracer is not None else contextlib.nullcontext
        self.times: list[float] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        with self._inside():
            w0 = perf_counter()
            c0 = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = process_time() - c0
                self.wall_s += perf_counter() - w0
                self.cpu_s += cpu
                self.times.append(cpu)

    def fail(self) -> None:
        """The last op failed: count it and drop it from the latencies."""
        self.failed += 1
        self.times.pop()


def load_pins() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def min_ops(pct: float) -> int:
    """Fewest ops that leave ``TAIL_MIN_BEYOND`` ops beyond percentile ``pct``."""
    return math.ceil(TAIL_MIN_BEYOND * 100 / (100 - pct))


def run_rounds(w, ops, seconds: float, pins: dict) -> tuple[str, str]:
    """Run rounds until the ops' wall time reaches ``seconds`` and enough
    ops ran for the workload's tail percentile (``seconds`` 0: the pinned
    rounds only).  Returns the digest of the pinned rounds and a line on
    how it compares with the pinned value."""
    h = hashlib.sha256()
    pinned = ""
    rounds = 0
    least = min_ops(w.tail_pct) if seconds else 0
    while rounds < w.pinned_rounds or ops.wall_s < seconds or ops.attempted < least:
        chunks = w.round(ops)
        rounds += 1
        if rounds > w.pinned_rounds:
            continue
        for chunk in chunks:
            h.update(chunk)
        if rounds == w.pinned_rounds:
            pinned = h.hexdigest()
            want = pins.get(w.name, {}).get(str(w.seed))
            if want is None:
                status = "no pinned digest for this seed"
            elif want != pinned:
                raise WrongOutput("digest %s of the first %d rounds differs from the pinned %s" % (pinned, rounds, want))
            else:
                status = "matches the pinned digest"
    return pinned, status


def tail(times: list[float], pct: float) -> float:
    """Value at percentile ``pct``; the run must leave at least ten ops
    beyond it."""
    xs = sorted(times)
    k = math.ceil(pct / 100 * len(xs))
    if len(xs) - k < TAIL_MIN_BEYOND:
        raise SystemExit("%d completed ops leave fewer than %d beyond p%g" % (len(xs), TAIL_MIN_BEYOND, pct))
    return xs[k - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(name: str, seed: int, seconds: float, pins: dict, ops: Ops) -> dict:
    w = workloads.make(name, seed, OUTDIR)
    w.warm_up()
    setup_s = process_time()
    wall0 = perf_counter()
    digest, status = run_rounds(w, ops, seconds, pins)
    finish = w.finish(ops)
    wall = perf_counter() - wall0
    done = len(ops.times)
    pct = w.tail_pct
    tail_s = tail(ops.times, pct)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("workload %s seed %d: %d ops attempted, %d failed (failed_frac %.4f)"
          % (name, seed, ops.attempted, ops.failed, ops.failed / ops.attempted))
    print("timed phase: ops took %.3f CPU s and %.3f wall s (%.2f ops per wall s), inside %.3f s of "
          "wall with the output checks" % (ops.cpu_s, ops.wall_s, done / ops.wall_s, wall))
    print("set-up took %.3f CPU s from process start to the first timed op" % setup_s)
    print("op_tail_ms is p%g over %d completed ops (%d beyond it)" % (pct, done, done - math.ceil(pct / 100 * done)))
    print("digest of the pinned rounds %s: %s" % (digest, status))
    if finish:
        print(finish)
    return {
        "correct": True,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(done / ops.cpu_s, "1/s"),
            "op_p50_ms": metric(statistics.median(ops.times) * 1000, "ms"),
            "op_tail_ms": metric(tail_s * 1000, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(stats: dict, cpu_s: float, untraced_s: float, n_spans: int) -> dict:
    """Per-layer metrics of a traced batch; see README.md for what each
    one should move."""
    s = stats
    fp, lll = s["core.fp_enumerate"], s["core.lll_columns"]
    eic, smv = s["core.enumerate_in_cylinder"], s["core.shortest_mixed_vectors"]
    ce, ds = s["bestapprox.chain_engine"], s["bestapprox.direct_scan"]
    fr, mem = s["dynamics.first_return"], s["dynamics.surface_membership_S"]
    flow = s["dynamics.apply_flow_log"]
    ks, cdf, oracle = s["estimators.ks_distance"], s["estimators.bjw_cdf_1d"], s["estimators.bjw_oracle_cdf_1d"]
    st, cert, wj = s["badk.step"], s["badk.certify"], s["serialize.write_json"]
    m = {
        "core.fp_enumerate.calls": (fp["calls"], "count"),
        "core.fp_enumerate.nodes": (fp["count"], "count"),
        "core.fp_enumerate.visits": (fp["visits"], "count"),
        "core.fp_enumerate.visit_ratio": (_per(fp["visits"], fp["count"]), "ratio"),
        "core.fp_enumerate.self_s": (fp["self_s"], "s"),
        "core.fp_enumerate.us_per_node": (_per(fp["self_s"], fp["count"]) * 1e6, "us"),
        "core.lll_columns.calls": (lll["calls"], "count"),
        "core.lll_columns.self_s": (lll["self_s"], "s"),
        "core.lll_columns.ms_per_call": (_per(lll["self_s"], lll["calls"]) * 1e3, "ms"),
        "core.enumerate_in_cylinder.calls": (eic["calls"], "count"),
        "core.enumerate_in_cylinder.vectors": (eic["count"], "count"),
        "core.enumerate_in_cylinder.self_s": (eic["self_s"], "s"),
        "core.shortest_mixed_vectors.calls": (smv["calls"], "count"),
        "core.shortest_mixed_vectors.total_s": (smv["total_s"], "s"),
        "bestapprox.chain_engine.calls": (ce["calls"], "count"),
        "bestapprox.chain_engine.records": (ce["count"], "count"),
        "bestapprox.chain_engine.self_s": (ce["self_s"], "s"),
        "bestapprox.chain_engine.ms_per_record": (_per(ce["total_s"], ce["count"]) * 1e3, "ms"),
        "bestapprox.direct_scan.calls": (ds["calls"], "count"),
        "bestapprox.direct_scan.self_s": (ds["self_s"], "s"),
        "dynamics.first_return.calls": (fr["calls"], "count"),
        "dynamics.first_return.self_s": (fr["self_s"], "s"),
        "dynamics.first_return.ms_per_call": (_per(fr["total_s"], fr["calls"]) * 1e3, "ms"),
        "dynamics.surface_membership_S.ms_per_call": (_per(mem["total_s"], mem["calls"]) * 1e3, "ms"),
        "dynamics.apply_flow_log.self_s": (flow["self_s"], "s"),
        "dynamics.enumerations_per_return": (_per(fr["under_first_return"], fr["calls"]), "ratio"),
        "estimators.ks_distance.self_s": (ks["self_s"], "s"),
        "estimators.bjw_cdf_1d.us_per_point": (_per(cdf["total_s"], cdf["calls"]) * 1e6, "us"),
        "estimators.bjw_oracle_cdf_1d.ms_per_point": (_per(oracle["total_s"], oracle["calls"]) * 1e3, "ms"),
        "badk.step.self_s": (st["self_s"], "s"),
        "badk.certify.self_s": (cert["self_s"], "s"),
        "badk.certify.total_s": (cert["total_s"], "s"),
        "serialize.write_json.self_s": (wj["self_s"], "s"),
    }
    for layer in tracer.LAYERS:
        self_s = sum(v["self_s"] for k, v in s.items() if k.startswith(layer + "."))
        m[layer + ".share"] = (_per(self_s, cpu_s), "ratio")
    m["bench.share"] = (_per(s["bench"]["self_s"], cpu_s), "ratio")
    m["trace.cpu_s"] = (cpu_s, "s")
    m["trace.untraced_cpu_s"] = (untraced_s, "s")
    m["trace.overhead_frac"] = (_per(cpu_s, untraced_s) - 1, "ratio")
    m["trace.spans"] = (n_spans, "count")
    return {k: metric(v, u) for k, (v, u) in m.items()}


def traced_run(name: str, seed: int, pins: dict, ops: Ops) -> tuple[dict, str]:
    """Trace the pinned rounds; ``ops`` times the untraced pass."""
    plain = workloads.make(name, seed, OUTDIR)
    plain.warm_up()
    digest, status = run_rounds(plain, ops, 0, pins)
    rounds_s = ops.cpu_s
    untraced_s = rounds_s + _timed(plain.finish, ops)

    tr = tracer.Tracer()
    tr.install()
    try:
        w = workloads.make(name, seed, OUTDIR)
        tops = Ops(tr)
        digest2, _ = run_rounds(w, tops, 0, pins)
        rounds_s = tops.cpu_s
        with tr.active():
            finish_s = _timed(w.finish, tops)
    finally:
        tr.uninstall()
    if digest2 != digest:
        raise WrongOutput("traced and untraced runs disagree on the outputs")
    cpu_s = rounds_s + finish_s
    stats = tracer.summarize(tr.spans, cpu_s)
    path = os.path.join(OUTDIR, "trace-%s-seed%d.json" % (name, seed))
    tr.write(path, {"workload": name, "seed": seed, "cpu_s": cpu_s})
    metrics = layer_metrics(stats, cpu_s, untraced_s, len(tr.spans))
    print("workload %s seed %d traced: %d pinned rounds, %d ops, %d failed; spans in %s"
          % (name, seed, w.pinned_rounds, tops.attempted, tops.failed, os.path.relpath(path, ROOT)))
    print("digest of the pinned rounds %s: %s" % (digest, status))
    print("base of every share and of overhead_frac: traced batch %.3f CPU s "
          "(ops plus the end-of-run step); untraced batch %.3f CPU s" % (cpu_s, untraced_s))
    fp = stats["core.fp_enumerate"]
    print("us_per_node = fp_enumerate self %.3f s / %d nodes; visit_ratio = %d visits / %d nodes"
          % (fp["self_s"], fp["count"], fp["visits"], fp["count"]))
    result = {"correct": True, "attempted": tops.attempted, "failed": tops.failed, "metrics": metrics}
    return result, digest


def _timed(fn, *args) -> float:
    t0 = process_time()
    fn(*args)
    return process_time() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.makedirs(OUTDIR, exist_ok=True)
    pins = load_pins()
    ops = Ops()
    try:
        if args.trace:
            result, _ = traced_run(args.workload, args.seed, pins, ops)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, pins, ops)
    except WrongOutput as exc:
        print("WRONG OUTPUT: %s" % exc, file=sys.stderr)
        wrong = {"correct": False, "attempted": max(1, ops.attempted), "failed": ops.failed, "metrics": {}}
        print(json.dumps(wrong))
        return 1
    print(json.dumps(result))
    return 0


if not os.path.isdir(os.path.join(SRC, "diolab")):
    sys.exit("bench/run.py: no diolab sources at %s" % SRC)
sys.path[:0] = [BENCH_DIR, SRC]
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WrongOutput  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
