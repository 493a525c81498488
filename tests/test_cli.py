"""End-to-end command tests through main(argv): outputs, exit codes,
seed handling, and byte-identical reruns."""

import hashlib
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
        ["--seed", "1", "--count", "3", "--budget", "0"],
        ["--seed", "1", "--count", "3", "--budget", "-5"],
    ],
    "levy": [
        ["--seed", "1", "--depth", "3"],
        ["--seed", "1", "--trials", "1"],
        ["--seed", "1", "--d", "0"],
        ["--seed", "1", "--trials", "2", "--depth", "4", "--bits", "0"],
        ["--seed", "1", "--trials", "2", "--depth", "4", "--budget", "0"],
        ["--seed", "1", "--trials", "2", "--depth", "4", "--budget", "-5"],
    ],
    "dist": [
        ["--seed", "1", "--depth", "5"],
        ["--seed", "1", "--depth", "11", "--discard", "10"],
        ["--seed", "1", "--trials", "0"],
        ["--seed", "1", "--c", "0"],
        ["--seed", "1", "--trials", "1", "--depth", "4", "--discard", "0", "--bits", "0"],
        ["--seed", "1", "--trials", "1", "--depth", "4", "--discard", "0", "--budget", "0"],
        ["--seed", "1", "--trials", "1", "--depth", "4", "--discard", "0", "--budget", "-5"],
    ],
    "surface": [
        ["--d", "2", "--samples", "0", "--seed", "1"],
        ["--d", "1", "--budget", "0"],
        ["--d", "1", "--seed", "3"],
        ["--d", "1", "--samples", "60"],
        ["--d", "1", "--budget", "5"],
        ["--d", "2", "--samples", "1", "--seed", "1", "--budget", "-5"],
    ],
    "returnmap": [
        ["--bits", "0", "--seed", "1"],
        ["--n", "0", "--seed", "1"],
        ["--n", "-1", "--seed", "1"],
        ["--n", "1", "--seed", "1", "--budget", "0"],
        ["--n", "1", "--seed", "1", "--budget", "-5"],
    ],
    "badk": [
        ["--steps", "-1"],
        ["--steps", "0", "--budget", "0"],
        ["--steps", "0", "--budget", "-5"],
        ["--steps", "1", "--x-search-bound", "0"],
    ],
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


def test_returnmap_draw_cap(tmp_path, capsys):
    # at one bit every chart point has x = 1/2, where 1/x is an integer:
    # every draw is non-generic and is re-drawn until the cap
    assert run(tmp_path, "returnmap", "--bits", "1", "--n", "2", "--seed", "1") == 3
    assert "budget exhausted" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_badk_smoke(tmp_path, capsys):
    assert run(tmp_path, "badk", "--steps", "2") == 0
    out = capsys.readouterr().out
    assert "n= 2 Q=366" in out
    payload = read_json(str(only_file(tmp_path, r"badk_[0-9a-f]{12}\.json")))
    assert payload["config"]["command"] == "badk"
    assert [row["n"] for row in payload["steps"]] == [1, 2, 3]
    assert payload["steps"][1]["Q"] == 366


def test_badk_goes_past_twelve_steps(tmp_path, capsys):
    # Q_14 exceeds 10^30: no denominator cap stops the construction
    assert run(tmp_path, "badk", "--steps", "13") == 0
    payload = read_json(str(only_file(tmp_path, r"badk_[0-9a-f]{12}\.json")))
    rows = payload["steps"]
    assert [row["n"] for row in rows] == list(range(1, 15))
    assert rows[-1]["Q"] > 10**30
    for row in rows:
        assert all(row["conditions"].values())
        assert len(set(row["conditions"]) | set(row["vacuous"])) == 7
        assert row["n"] < 3 or row["vacuous"] == []


def test_badk_search_bound_exit(tmp_path, capsys):
    assert run(tmp_path, "badk", "--steps", "1", "--x-search-bound", "1") == 3
    err = capsys.readouterr().err
    assert "budget exhausted: x_search_bound=1 exhausted at n=1" in err


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DIOLAB_OUTDIR", str(tmp_path / "envdir"))
    assert main(["bestapprox", "--theta", "1/3", "--qmax", "10"]) == 0
    assert (tmp_path / "envdir").is_dir()
    only_file(tmp_path / "envdir", r"bestapprox_[0-9a-f]{12}\.csv")


# one small run of each command; every file it writes is pinned by name
# (the name carries the configuration tag) and by SHA-256
PINNED_RUNS = [
    ["bestapprox", "--seed", "5", "--count", "12"],
    ["bestapprox", "--d", "2", "--theta", "1/2,1/3", "--qmax", "50"],
    ["levy", "--trials", "3", "--depth", "10", "--bits", "64", "--seed", "1"],
    ["dist", "--trials", "3", "--depth", "30", "--bits", "192", "--seed", "4",
     "--discard", "8"],
    ["surface", "--d", "1"],
    ["surface", "--d", "2", "--samples", "60", "--seed", "11"],
    ["returnmap", "--n", "12", "--seed", "9", "--bits", "24"],
    ["badk", "--steps", "2"],
]
PINNED_FILES = {
    "badk_a58c8afb79e8.json": "599e972cd9ab38249e7e98fc09ce26849fceac0b49708dfad5d040087f6ec959",
    "bestapprox_51e3b6cb7607.csv": "8338ef607e1a31826337e5decc262b30763ef67f664afeced7aa476ba96bfb25",
    "bestapprox_b7790554637c.csv": "a25dba7ac1311430f9c0819f7b142c0165323cd2f465fc70fd9195ea91b260cb",
    "dist_6aebe0d0ce73.csv": "b2debc5ecb833c60bec5fb051474c7fbe64ba3e556b079898e09acb226e72fd1",
    "dist_6aebe0d0ce73.json": "a1e5765a6212ad4fa196b59b310fdfb00f40a2643e3133d978a2aa3716891c4c",
    "levy_4072c76ed6a2.csv": "80e490458107dde9e4a681a24c16b06ee5edd37d24e2dd1345d80e94ec917e6c",
    "levy_4072c76ed6a2.json": "3b0bd22873862e78116f815e2f5cb05e6cfd1f29976f47f462ebf7be8f7082fb",
    "returnmap_be8306f67528.csv": "485be7cd100855f81b016762f236bd916dd60413d3080b309741c5374f43b977",
    "surface_a21e0276bcbb.json": "a44d34b418c6a247d49671c6c79e56d4c6c369278416479233b2c6185c3a71e6",
    "surface_a2ad328a904c.json": "2f880b1755071cc83b9802ebf5547e59b05401e087ae7fcf0ef0fa4a20a06c7d",
}


def test_outputs_are_pinned(tmp_path):
    for argv in PINNED_RUNS:
        assert run(tmp_path, *argv) == 0, argv
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
    }
    assert written == PINNED_FILES


def test_badk_depth_40_is_pinned(tmp_path, capsys):
    # the 40-step certificate: past a few steps certify reads most gap
    # minima off earlier searches, which only a deep run exercises
    assert run(tmp_path, "badk", "--steps", "40") == 0
    path = only_file(tmp_path, r"badk_[0-9a-f]{12}\.json")
    assert path.name == "badk_db4858c6b74f.json"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "de346ce217b5b5af4624fa8db0c4bbdf234c3bf621e6385b1318a4265ae9345d"
    )
