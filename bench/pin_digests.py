"""Recompute the pinned output digests of the benchmark workloads.

    python3 bench/pin_digests.py SEED [SEED ...]

Writes ``bench/digests.json``: for each workload and seed, the SHA-256 of
the exact outputs of the workload's pinned rounds.  A timed or traced
run fails when its digest differs from the pinned one.  Re-pin only for
a change that is meant to alter outputs; a performance change must leave
every digest as it is.
"""

import json
import os
import sys

import run


def main(seeds: list[int]) -> None:
    try:
        pins = run.load_pins()
    except FileNotFoundError:
        pins = {}
    os.makedirs(run.OUTDIR, exist_ok=True)
    for name in sorted(run.workloads.WORKLOADS):
        for seed in seeds:
            w = run.workloads.make(name, seed, run.OUTDIR)
            digest, _ = run.run_rounds(w, run.Ops(), 0, {})
            pins.setdefault(name, {})[str(seed)] = digest
            print(name, seed, digest, flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
