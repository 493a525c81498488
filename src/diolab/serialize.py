"""Deterministic text forms for experiment outputs.

Exact values travel as fraction strings ("num/den"), never floats; the
only decimals are fixed 30-significant-digit renderings of times,
densities, and square roots, computed with guard precision so the same
input gives the same bytes on every platform.  CSV files carry their
full run configuration in a leading "#config=" line, JSON files in a
"config" key, so any output can be re-run from its own header.
"""

from __future__ import annotations

import csv
import io
import json
import os
from fractions import Fraction
from typing import Optional, Sequence, Union

import mpmath

__all__ = [
    "DIGITS",
    "frac_str",
    "dec_str",
    "dec_sqrt_str",
    "write_csv",
    "read_csv",
    "write_json",
    "output_dir",
]

DIGITS = 30
OUTDIR_ENV = "DIOLAB_OUTDIR"


def frac_str(x: Union[Fraction, int]) -> str:
    """"num/den" (or bare integer) for an exact value."""
    return str(Fraction(x))


def dec_str(x: Union[Fraction, int, float], digits: int = DIGITS) -> str:
    """Correctly rounded decimal with a fixed number of significant
    digits."""
    with mpmath.mp.workprec(4 * digits):
        if isinstance(x, float):
            v = mpmath.mpf(x)
        else:
            f = Fraction(x)
            v = mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)
        return mpmath.nstr(v, digits, strip_zeros=False)


def dec_sqrt_str(x_sq: Union[Fraction, int], digits: int = DIGITS) -> str:
    """Decimal rendering of sqrt(x_sq) from its exact square."""
    f = Fraction(x_sq)
    if f < 0:
        raise ValueError("negative square")
    with mpmath.mp.workprec(4 * digits):
        v = mpmath.sqrt(mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator))
        return mpmath.nstr(v, digits, strip_zeros=False)


def output_dir(override: Optional[str] = None) -> str:
    """Output directory: explicit flag, else the environment default,
    else the working directory."""
    path = override or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(path, exist_ok=True)
    return path


def write_csv(
    path: str,
    config: dict,
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
) -> None:
    """RFC-4180 body prefixed by one "#config=" comment line."""
    buf = io.StringIO()
    buf.write("#config=" + json.dumps(config, sort_keys=True) + "\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(list(row))
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#config="):
            raise ValueError("missing #config line")
        config = json.loads(first[len("#config=") :])
        reader = csv.reader(fh)
        table = [row for row in reader if row]
    return config, table[0], table[1:]


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
