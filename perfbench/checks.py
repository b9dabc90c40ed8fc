"""Output checks: fingerprints of written files and their comparison.

A fingerprint is a flat dict of named values read back from the files a
workload wrote.  For seed 0 (and for outputs that do not depend on the
seed) it is compared with `reference.json`, produced at the seed commit:
numbers must agree within REL_TOL relative, with REL_TOL as the absolute
floor for values near 0 (all compared values are O(1) in units of
Omega12, ns or GHz); everything else must be equal.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-12
ISOSPECTRALITY_TOL = 1e-9
NORM_TOL = 1e-10

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class CheckFailed(Exception):
    """An output violates an invariant or differs from the reference."""


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def read_keyvalues(path) -> dict:
    """`key = value` lines (summary.txt, timescales output)."""
    with open(path, encoding="utf-8") as fh:
        return parse_keyvalues(fh.read())


def parse_keyvalues(text) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            num = _number(val)
            out[key] = val if num is None else num
    return out


def csv_fingerprint(path) -> dict:
    """Row count and, per numeric column, the sum of absolute values."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    fp = {"rows": len(body)}
    for j, col in enumerate(header):
        vals = [_number(r[j]) for r in body]
        if body and all(v is not None for v in vals):
            require(all(math.isfinite(v) for v in vals), f"{os.path.basename(path)}: "
                    f"non-finite value in column {col}")
            fp[f"{col}.abs_sum"] = math.fsum(abs(v) for v in vals)
    return fp


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def require_finite(values: dict, what: str):
    for key, val in values.items():
        if isinstance(val, float):
            require(math.isfinite(val), f"{what}: {key} = {val} is not finite")


def close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def compare(observed: dict, reference: dict, what: str):
    """Every reference key present and equal (numbers within REL_TOL)."""
    for key, ref in reference.items():
        require(key in observed, f"{what}: {key} missing")
        val = observed[key]
        if isinstance(ref, float) and isinstance(val, float):
            require(close(val, ref), f"{what}: {key} = {val!r}, reference {ref!r}")
        else:
            require(val == ref, f"{what}: {key} = {val!r}, reference {ref!r}")


def check_summary(values: dict, what: str):
    """Invariants of a scenario summary that hold for every seed."""
    require_finite(values, what)
    resid = values.get("isospectrality_residual")
    if resid is not None:
        require(resid <= ISOSPECTRALITY_TOL,
                f"{what}: isospectrality residual {resid!r} > {ISOSPECTRALITY_TOL}")


def check_flip_rows(path, sizes, draws) -> dict:
    """Every row obeys the ring rule: odd flip count <=> spectrum changed."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = draws * sum(2 ** n - 1 for n in sizes)
    require(len(rows) == expected, f"flip-sensitivity: {len(rows)} rows, expected {expected}")
    for r in rows:
        odd = len(r["flips"].split(";")) % 2 == 1
        want = "spectrum-changed" if odd else "spectrum-unchanged"
        require(r["classification"] == want,
                f"flip-sensitivity: n={r['n']} draw={r['draw']} flips {r['flips']} "
                f"gave {r['classification']}, parity rule says {want}")
    return {"rows": len(rows)}
