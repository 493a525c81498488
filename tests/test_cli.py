"""End-to-end command tests through main(argv): outputs, exit codes,
seed handling, and byte-identical reruns."""

import json
import re

import pytest

from diolab.cli import main
from diolab.serialize import read_csv, read_json


def fib(n):
    seq = [0, 1, 1]
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
        seq.append(b)
    return seq


def run(tmp_path, *argv):
    return main(["--outdir", str(tmp_path), *argv])


def only_file(tmp_path, pattern):
    hits = sorted(p for p in tmp_path.iterdir() if re.fullmatch(pattern, p.name))
    assert len(hits) == 1, hits
    return hits[0]


def test_bestapprox_fibonacci(tmp_path):
    f = fib(31)
    assert run(
        tmp_path, "bestapprox", "--theta", "%d/%d" % (f[30], f[31]),
        "--qmax", str(f[31]),
    ) == 0
    path = only_file(tmp_path, r"bestapprox_[0-9a-f]{12}\.csv")
    config, header, rows = read_csv(str(path))
    assert config["command"] == "bestapprox"
    assert config["theta"] == "%d/%d" % (f[30], f[31])
    assert header == ["n", "Q0", "P0", "q", "r_sq"]
    assert len(rows) == 29
    assert [int(r[1]) for r in rows] == [1] + [f[k] for k in range(3, 30)] + [f[31]]
    assert rows[0][2] == "1"
    assert rows[-1][4] == "0"


def test_bestapprox_2x1_frozen(tmp_path):
    assert run(
        tmp_path, "bestapprox", "--d", "2", "--theta", "1/2,1/3", "--qmax", "50"
    ) == 0
    path = only_file(tmp_path, r"bestapprox_[0-9a-f]{12}\.csv")
    _, header, rows = read_csv(str(path))
    assert header == ["n", "Q0", "P0", "P1", "q", "r_sq"]
    assert [r[1] for r in rows] == ["1", "2", "6"]
    assert [r[5] for r in rows] == ["13/36", "1/9", "0"]


def test_bestapprox_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        assert run(d, "bestapprox", "--seed", "5", "--count", "12") == 0
    fa = only_file(a, r"bestapprox_[0-9a-f]{12}\.csv")
    fb = only_file(b, r"bestapprox_[0-9a-f]{12}\.csv")
    assert fa.name == fb.name
    assert fa.read_bytes() == fb.read_bytes()
    _, _, rows = read_csv(str(fa))
    assert len(rows) == 12


# bad arguments of each command: every one exits 2 with an error line
# and writes nothing
USAGE_ERRORS = {
    "bestapprox": [
        ["--qmax", "10"],
        ["--theta", "1/3"],
        ["--theta", "1/0", "--qmax", "9"],
        ["--d", "2", "--theta", "1/3", "--qmax", "9"],
        ["--seed", "1", "--count", "0"],
        ["--seed", "1", "--count", "-2"],
        ["--seed", "1", "--qmax", "-3"],
        ["--d", "0", "--seed", "1", "--count", "3"],
        ["--c", "0", "--seed", "1", "--count", "3"],
        ["--seed", "1", "--count", "3", "--bits", "0"],
    ],
    "levy": [
        ["--seed", "1", "--depth", "3"],
        ["--seed", "1", "--trials", "1"],
        ["--seed", "1", "--d", "0"],
        ["--seed", "1", "--trials", "2", "--depth", "4", "--bits", "0"],
    ],
    "dist": [
        ["--seed", "1", "--depth", "5"],
        ["--seed", "1", "--depth", "11", "--discard", "10"],
        ["--seed", "1", "--trials", "0"],
        ["--seed", "1", "--c", "0"],
        ["--seed", "1", "--trials", "1", "--depth", "4", "--discard", "0", "--bits", "0"],
    ],
    "surface": [["--d", "2", "--samples", "0", "--seed", "1"]],
    "returnmap": [
        ["--bits", "0", "--seed", "1"],
        ["--n", "0", "--seed", "1"],
        ["--n", "-1", "--seed", "1"],
    ],
    "badk": [["--steps", "-1"]],
}


@pytest.mark.parametrize("command", list(USAGE_ERRORS))
def test_usage_errors(tmp_path, capsys, command):
    for argv in USAGE_ERRORS[command]:
        assert run(tmp_path, command, *argv) == 2, argv
        assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_levy_smoke_and_seed_echo(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(a, "levy", "--trials", "3", "--depth", "10", "--bits", "64") == 0
    out = capsys.readouterr().out
    m = re.search(r"^seed: (\d+)$", out, re.M)
    assert m, out
    seed = m.group(1)
    assert run(
        b, "levy", "--trials", "3", "--depth", "10", "--bits", "64",
        "--seed", seed,
    ) == 0
    ja = only_file(a, r"levy_[0-9a-f]{12}\.json")
    jb = only_file(b, r"levy_[0-9a-f]{12}\.json")
    assert ja.name == jb.name
    assert ja.read_bytes() == jb.read_bytes()
    summary = read_json(str(ja))
    assert summary["config"]["seed"] == int(seed)
    assert summary["target"] == pytest.approx(1.1865691104156255)
    assert summary["abs_error"] == pytest.approx(
        abs(summary["L_hat"] - summary["target"])
    )
    ca = only_file(a, r"levy_[0-9a-f]{12}\.csv")
    _, header, rows = read_csv(str(ca))
    assert header == ["trial", "slope_q", "slope_r"]
    assert len(rows) == 3


def test_dist_smoke(tmp_path, capsys):
    assert run(
        tmp_path, "dist", "--trials", "3", "--depth", "30", "--bits", "192",
        "--seed", "4", "--discard", "8",
    ) == 0
    out = capsys.readouterr().out
    assert "KS vs oracle" in out
    summary = read_json(str(only_file(tmp_path, r"dist_[0-9a-f]{12}\.json")))
    assert summary["pool"] == 3 * 22
    assert summary["resamples"] == 0
    assert 0.5 < summary["support_min"] <= summary["support_max"] <= 1.0 + 1e-12
    assert summary["ks_vs_oracle"] is not None
    _, header, rows = read_csv(str(only_file(tmp_path, r"dist_[0-9a-f]{12}\.csv")))
    assert header == ["t", "ecdf", "oracle"]
    assert len(rows) == 124


def test_surface_1d_exact_string(tmp_path):
    assert run(tmp_path, "surface", "--d", "1") == 0
    summary = read_json(str(only_file(tmp_path, r"surface_[0-9a-f]{12}\.json")))
    assert summary["exact"] == "1.38629436111989061883446424292"
    assert summary["abs_diff"] < 1e-9


def test_surface_2d_smoke(tmp_path):
    assert run(tmp_path, "surface", "--d", "2", "--samples", "60",
               "--seed", "11") == 0
    summary = read_json(str(only_file(tmp_path, r"surface_[0-9a-f]{12}\.json")))
    assert summary["samples"] == 60
    assert summary["accepted"] >= 1
    assert summary["muS_hat"] > 0


def test_returnmap_routes_agree_exactly(tmp_path, capsys):
    assert run(
        tmp_path, "returnmap", "--n", "12", "--seed", "9", "--bits", "24"
    ) == 0
    out = capsys.readouterr().out
    assert "max relative delta vs oracle = 0.0" in out
    _, header, rows = read_csv(
        str(only_file(tmp_path, r"returnmap_[0-9a-f]{12}\.csv"))
    )
    assert header == [
        "k", "x", "y", "eps", "tau",
        "x_next", "y_next", "eps_next", "rel_dx", "rel_dy",
    ]
    assert len(rows) == 12
    assert all(r[8] == "0.0" and r[9] == "0.0" for r in rows)


def test_badk_smoke(tmp_path, capsys):
    assert run(tmp_path, "badk", "--steps", "2") == 0
    out = capsys.readouterr().out
    assert "n= 2 Q=366" in out
    payload = read_json(str(only_file(tmp_path, r"badk_[0-9a-f]{12}\.json")))
    assert payload["config"]["command"] == "badk"
    assert [row["n"] for row in payload["steps"]] == [1, 2, 3]
    assert payload["steps"][1]["Q"] == 366


def test_badk_search_bound_exit(tmp_path, capsys):
    assert run(tmp_path, "badk", "--steps", "1", "--x-search-bound", "0") == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DIOLAB_OUTDIR", str(tmp_path / "envdir"))
    assert main(["bestapprox", "--theta", "1/3", "--qmax", "10"]) == 0
    assert (tmp_path / "envdir").is_dir()
    only_file(tmp_path / "envdir", r"bestapprox_[0-9a-f]{12}\.csv")
