"""Regenerate the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py

Runs each workload once through the CLI and stores its CSV files, gzipped,
under ``perfbench/reference/<workload>/``. Only the seed-dependent
invariance witness differs between seeds, and the check does not compare
it, so one seed serves every run. Regenerate only at a commit whose
outputs are known to be right: a later change that moves the numbers
beyond the check's tolerance should be explained, not re-referenced.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from check import REFERENCE_DIR  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

from evolveq import cli  # noqa: E402

REFERENCE_SEED = 0
WORK = HERE.parent / ".perfbench_work" / "reference"


def main() -> int:
    for workload in WORKLOADS.values():
        out = WORK / workload.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = write_config(workload, REFERENCE_SEED, WORK / f"{workload.name}.cfg")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main([workload.command, "--config", str(config),
                               "--out", str(out), "--threads", "1"])
        if status != 0:
            print(f"{workload.name}: exit status {status}", file=sys.stderr)
            return 1
        target = REFERENCE_DIR / workload.name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for csv in sorted(out.glob("*.csv")):
            with gzip.GzipFile(target / (csv.name + ".gz"), "wb", mtime=0) as fh:
                fh.write(csv.read_bytes())
        print(f"{workload.name}: {len(list(target.iterdir()))} reference files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
