"""Deterministic text forms and file round trips."""

import json
import os
from fractions import Fraction

import pytest

from diolab.serialize import (
    dec_sqrt_str,
    dec_str,
    frac_str,
    output_dir,
    read_csv,
    write_csv,
    write_json,
)


def test_frac_str_round_trip():
    vals = [Fraction(0), Fraction(-7, 3), Fraction(10**40, 3**30), Fraction(5)]
    for v in vals:
        assert Fraction(frac_str(v)) == v
    assert frac_str(Fraction(1, 2)) == "1/2"
    assert frac_str(4) == "4"


def test_dec_str_frozen():
    assert dec_str(Fraction(1, 3)) == "0.333333333333333333333333333333"
    assert dec_str(Fraction(2)) == "2." + "0" * 29
    assert dec_str(0.5) == "0.5" + "0" * 29
    assert dec_str(Fraction(-1, 4)) == "-0.25" + "0" * 28


def test_dec_str_deterministic_and_digit_capped():
    x = Fraction(10**50 + 7, 10**50)
    s = dec_str(x)
    assert s == dec_str(x)
    digits = sum(ch.isdigit() for ch in s)
    assert digits <= 31


def test_dec_sqrt_str():
    assert dec_sqrt_str(Fraction(4)) == "2." + "0" * 29
    assert dec_sqrt_str(Fraction(1, 4)) == "0.5" + "0" * 29
    assert dec_sqrt_str(Fraction(2)) == "1.41421356237309504880168872421"
    with pytest.raises(ValueError):
        dec_sqrt_str(Fraction(-1))


def test_output_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("DIOLAB_OUTDIR", raising=False)
    assert output_dir(None) == "."
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("DIOLAB_OUTDIR", str(env_dir))
    assert output_dir(None) == str(env_dir)
    assert env_dir.is_dir()
    flag_dir = tmp_path / "from_flag"
    assert output_dir(str(flag_dir)) == str(flag_dir)
    assert flag_dir.is_dir()


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    config = {"command": "x", "seed": 3, "theta": ["1/2", "1/3"]}
    header = ["n", "q", "r_sq"]
    rows = [["0", "1", "13/36"], ["1", "2", "1/9"]]
    write_csv(path, config, header, rows)
    got_config, got_header, got_rows = read_csv(path)
    assert got_config == config
    assert got_header == header
    assert got_rows == rows
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(b"#config=")
    assert b"\r\n" in data
    write_csv(path, config, header, rows)
    with open(path, "rb") as fh:
        assert fh.read() == data


def test_csv_requires_config_line(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("a,b\r\n1,2\r\n")
    with pytest.raises(ValueError):
        read_csv(str(path))


def test_json_round_trip(tmp_path):
    path = str(tmp_path / "t.json")
    payload = {"config": {"seed": 1}, "value": "1/3", "list": [1, 2, 3]}
    write_json(path, payload)
    with open(path) as fh:
        assert json.load(fh) == payload
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.endswith(b"\n")
    write_json(path, payload)
    with open(path, "rb") as fh:
        assert fh.read() == data
