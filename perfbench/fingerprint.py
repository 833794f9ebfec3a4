"""Digests and numeric fingerprints of the CSVs a CLI invocation writes.

A digest (sha256 of the bytes) says whether two outputs are identical. When
they are not, the fingerprint says how far apart they are: per numeric
column it keeps four exactly rounded sums (``math.fsum``) of the parsed
values,

    sum   = sum x_i          abs  = sum |x_i|
    wsum  = sum (i+1) x_i    wabs = sum (i+1) |x_i|

The row weights make a value moved to another row show up even when the
column total does not change (histogram counts, permuted rows). Text columns
and the shape must match exactly. Two fingerprints agree when every ``sum``
and ``wsum`` is within ``rel`` of its ``abs``/``wabs`` scale, which is what a
change in the last bits of every value gives; a wrong answer moves them
further.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

LAST_BITS = 1e-12


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_digests(out_dir) -> dict:
    """{file name: sha256} for every *.csv directly inside out_dir."""
    return {name: digest(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")}


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def fingerprint_rows(header: list, rows: list) -> dict:
    """Fingerprint of a table given as a header and rows of cell strings."""
    n_cols = len(header)
    numeric = [all(_float(r[j]) is not None for r in rows) for j in range(n_cols)]
    text = hashlib.sha256()
    sums = {}
    for j, name in enumerate(header):
        if not numeric[j]:
            text.update("\x1f".join(r[j] for r in rows).encode() + b"\x1e")
            continue
        xs = [float(r[j]) for r in rows]
        sums[name] = {
            "sum": math.fsum(xs),
            "abs": math.fsum(abs(x) for x in xs),
            "wsum": math.fsum((i + 1) * x for i, x in enumerate(xs)),
            "wabs": math.fsum((i + 1) * abs(x) for i, x in enumerate(xs)),
        }
    return {"rows": len(rows), "header": list(header),
            "text_sha256": text.hexdigest(), "columns": sums}


def fingerprint(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return fingerprint_rows(header, rows)


def _close(a: float, b: float, scale: float, rel: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(scale)):
        return False
    return abs(a - b) <= rel * scale


def compare(ref: dict, new: dict, rel: float = LAST_BITS) -> list:
    """Differences between two fingerprints beyond `rel`; empty if they agree."""
    problems = []
    for key in ("rows", "header", "text_sha256"):
        if ref[key] != new[key]:
            problems.append(f"{key} differs")
    if problems:
        return problems
    for col, r in ref["columns"].items():
        n = new["columns"].get(col)
        if n is None:
            problems.append(f"{col}: no longer numeric")
            continue
        for total, scale in (("sum", "abs"), ("abs", "abs"),
                             ("wsum", "wabs"), ("wabs", "wabs")):
            s = max(abs(r[scale]), abs(n[scale]))
            if not _close(r[total], n[total], s, rel):
                problems.append(f"{col}.{total}: {r[total]!r} -> {n[total]!r}")
    return problems
