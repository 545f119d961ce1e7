#!/usr/bin/env python3
"""Compare two results trees: every CSV and summary.txt, file by file.

    python scripts/compare_results.py OLD NEW

Prints one line per file found under both trees: `identical` when the
bytes agree; otherwise, for a CSV, each changed column with its max absolute
difference and its max relative difference (relative to the larger of the
two magnitudes), and, for a text file, the first line that differs.
Exits 1 when the two trees hold different sets of files, 0 otherwise.
When its reader stops early (`| head -1`), it exits 1 without a traceback.
"""
import math
import os
import sys
from pathlib import Path


def result_files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and (p.suffix == ".csv" or p.name == "summary.txt")}


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def column_changes(old: str, new: str) -> list[str]:
    """One line per changed column of two CSV texts with the same shape."""
    rows_old = [line.split(",") for line in old.splitlines()]
    rows_new = [line.split(",") for line in new.splitlines()]
    if rows_old[0] != rows_new[0]:
        return ["header differs"]
    if [len(r) for r in rows_old] != [len(r) for r in rows_new]:
        return ["shape differs"]
    changes = []
    for j, name in enumerate(rows_old[0]):
        pairs = [(a[j], b[j]) for a, b in zip(rows_old[1:], rows_new[1:])
                 if a[j] != b[j]]
        if not pairs:
            continue
        values = [(_float(a), _float(b)) for a, b in pairs]
        if any(a is None or b is None for a, b in values):
            changes.append(f"{name}: text differs in {len(pairs)} rows")
            continue
        abs_diff = rel_diff = 0.0
        for a, b in values:
            diff = 0.0 if (math.isnan(a) and math.isnan(b)) else abs(a - b)
            scale = max(abs(a), abs(b))
            abs_diff = max(abs_diff, diff)
            rel_diff = max(rel_diff, diff / scale if scale > 0 else diff)
        changes.append(f"{name}: {len(pairs)} rows, max abs {abs_diff:.3e}, "
                       f"max rel {rel_diff:.3e}")
    return changes


def text_change(old: str, new: str) -> str:
    lines_old, lines_new = old.splitlines(), new.splitlines()
    for i, (a, b) in enumerate(zip(lines_old, lines_new), start=1):
        if a != b:
            return f"line {i} differs: {a!r} -> {b!r}"
    return f"line counts differ: {len(lines_old)} -> {len(lines_new)}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_root, new_root = (Path(a) for a in argv)
    old_files, new_files = result_files(old_root), result_files(new_root)
    for rel in sorted(old_files - new_files):
        print(f"{rel}: only in {old_root}")
    for rel in sorted(new_files - old_files):
        print(f"{rel}: only in {new_root}")
    for rel in sorted(old_files & new_files):
        old, new = (root.joinpath(rel).read_text() for root in (old_root, new_root))
        if old == new:
            print(f"{rel}: identical")
        elif rel.suffix == ".csv":
            for change in column_changes(old, new):
                print(f"{rel}: {change}")
        else:
            print(f"{rel}: {text_change(old, new)}")
    return 1 if old_files != new_files else 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send the interpreter's last flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
