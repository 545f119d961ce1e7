"""Correctness check of one pipeline run against stored reference outputs.

References were generated by ``make_reference.py`` at the commit that added
the benchmark, before any optimisation. Numeric columns must agree with
them within a relative tolerance, not bit for bit: a faster implementation
may change the last digits.
"""
from __future__ import annotations

import gzip
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A value x passes against its reference r when
#   |x - r| <= RTOL * |r| + COLUMN_ATOL * max|r over the column| + ATOL.
RTOL = 1e-7
COLUMN_ATOL = 1e-9
ATOL = 1e-12

# The CLI's CHAIN_TOL and PRODUCT_TOL when the benchmark was added.
# Residuals are rounding noise, so they are held to these limits instead of
# a reference.
RESIDUAL_LIMITS = {"residual_chain": 1e-8, "residual_product": 1e-8}

# witness_norm is the norm of one vector of the sample pool, which the
# seed draws; it must only be finite and positive.
SEED_DEPENDENT = {"witness_norm"}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        lines = fh.read().splitlines() or [""]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _compare(name: str, header: list[str], rows: list[list[str]],
             ref_rows: list[list[str]]) -> list[str]:
    problems = []
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    if any(len(row) != len(header) for row in rows):
        return [f"{name}: a row does not have {len(header)} fields"]
    for j, column in enumerate(header):
        ref_col = [row[j] for row in ref_rows]
        ref_num = [_number(tok) for tok in ref_col]
        if any(v is None for v in ref_num):
            if [row[j] for row in rows] != ref_col:
                problems.append(f"{name}: text column {column} differs")
            continue
        values = [_number(row[j]) for row in rows]
        if any(v is None for v in values):
            problems.append(f"{name}: column {column} is not numeric")
            continue
        if column in RESIDUAL_LIMITS:
            limit = RESIDUAL_LIMITS[column]
            bad = [v for v, r in zip(values, ref_num)
                   if not (v <= limit or (math.isnan(v) and math.isnan(r)))]
            if bad:
                problems.append(f"{name}: {column} = {bad[0]:.3e} exceeds {limit:g}")
            continue
        if column in SEED_DEPENDENT:
            if not all(math.isfinite(v) and v > 0 for v in values):
                problems.append(f"{name}: {column} is not finite and positive")
            continue
        scale = max((abs(r) for r in ref_num if math.isfinite(r)), default=0.0)
        for i, (v, r) in enumerate(zip(values, ref_num)):
            if math.isnan(r):
                ok = math.isnan(v)
            else:
                ok = abs(v - r) <= RTOL * abs(r) + COLUMN_ATOL * scale + ATOL
            if not ok:
                problems.append(f"{name}: {column} row {i} is {v!r}, "
                                f"reference {r!r}")
                break
    return problems


def check_run(status: int, out_dir: Path, workload: str) -> list[str]:
    """Problems found in one run; an empty list means the run is correct."""
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    summary = out_dir / "summary.txt"
    if not summary.is_file():
        return problems + ["summary.txt missing"]
    problems += [f"summary: {line}" for line in summary.read_text().splitlines()
                 if "FAIL" in line]
    ref_dir = REFERENCE_DIR / workload
    expected = {p.name[:-len(".gz")] for p in ref_dir.glob("*.csv.gz")}
    produced = {p.name for p in out_dir.glob("*.csv")}
    if not expected:
        return problems + [f"no reference outputs for {workload}"]
    if produced != expected:
        problems.append(f"CSV files {sorted(produced)} != reference {sorted(expected)}")
    for name in sorted(expected & produced):
        header, rows = read_csv(out_dir / name)
        ref_header, ref_rows = read_csv(ref_dir / (name + ".gz"))
        if header != ref_header:
            problems.append(f"{name}: header differs from reference")
            continue
        problems += _compare(name, header, rows, ref_rows)
    return problems
