"""The bench's pinned output digests, checked in the test suite: a change
that alters a pinned record, ratio or certificate fails here, not first
in a bench run."""

import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "run.py")


@pytest.mark.parametrize("workload", ["chain-1x1", "transversal", "certify", "chain-3d"])
def test_pinned_digest_matches(workload):
    # --seconds 0 runs only the pinned rounds; --trace 1 runs them twice,
    # untraced and traced
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, RUN, *argv], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "matches the pinned digest" in proc.stdout
