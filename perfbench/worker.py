"""Runs one workload's CLI pipeline repeatedly in this process and times it.

Started by ``run.py`` in a fresh interpreter, so that the peak resident
memory the parent reads with ``os.wait4`` belongs to the pipeline runs
alone. Writes its result as JSON to the ``--result`` file.

With ``--trace 1`` traced and untraced repetitions alternate: the traced
ones give the per-layer spans, the untraced ones the base for the tracing
overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from check import check_run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from evolveq import cli  # noqa: E402

SOUNDNESS_CONFIG = ROOT / "configs" / "broken_invariance.cfg"
SOUNDNESS_LINE = "counterexample detected as expected"
MIN_REPS = 3
COUNT_SUFFIXES = (".calls", ".steps", ".bytes", ".unique_ratio")


def run_cli(argv: list[str]) -> tuple[int, float]:
    """Exit status and wall seconds of one in-process CLI invocation.

    An exception escaping the CLI counts as a failed run with status -1.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception:
            traceback.print_exc()
            status = -1
        wall = time.perf_counter() - start
    return status, wall


def soundness_problems(work: Path) -> list[str]:
    """The invariance detector must still flag the broken-coupling preset."""
    out = work / "soundness"
    status, _ = run_cli(["invariance", "--config", str(SOUNDNESS_CONFIG),
                         "--out", str(out), "--threads", "1"])
    summary = (out / "summary.txt").read_text() if (out / "summary.txt").is_file() else ""
    if status != 0 or SOUNDNESS_LINE not in summary:
        return [f"broken_invariance.cfg: status {status}, "
                f"no '{SOUNDNESS_LINE}' line"]
    return []


def layer_metrics(tracer: Tracer) -> dict:
    rows = tracer.summary()
    out = {}
    for name, row in rows.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    points = tracer.solve_points
    out["propagator.solve.unique_ratio"] = len(set(points)) / len(points) if points else 0.0
    out["propagator.oracle_solve.steps"] = tracer.oracle_steps
    out["cli.write_csv.bytes"] = tracer.csv_bytes
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    """Spans of one traced run, one per line; the last run's file remains."""
    with open(path, "w") as fh:
        fh.write("span,name,parent,start_s,end_s,child_s\n")
        for span, (index, parent, start, end, child) in enumerate(tracer.spans):
            fh.write(f"{span},{tracer.names[index]},{parent},{start:.9f},"
                     f"{end:.9f},{child:.9f}\n")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:       # numpy < 1.26 has no mode argument
        blas = {}
    git_sha = None
    if (ROOT / ".git").exists():
        git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha,
        "source_sha256": source_digest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    cli.ExperimentConfig.from_file(args.config)
    problems = soundness_problems(args.workdir)
    soundness_failed = bool(problems)
    argv = [workload.command, "--config", str(args.config),
            "--out", str(args.workdir / "out"), "--threads", "1"]

    tracer = Tracer() if args.trace else None
    walls, traced_walls, layers = [], [], []
    failed_reps = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        shutil.rmtree(args.workdir / "out", ignore_errors=True)
        if traced:
            tracer.install()
        try:
            status, wall = run_cli(argv)
        finally:
            if traced:
                tracer.uninstall()
        rep_problems = check_run(status, args.workdir / "out", workload.name)
        if rep_problems:
            failed_reps += 1
            problems += [p for p in rep_problems if p not in problems]
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer))
            # Free the spans before the next untraced run, whose garbage
            # collections would otherwise traverse them.
            write_spans(tracer, args.workdir / "spans.csv")
            tracer.reset()
        else:
            walls.append(wall)
        elapsed = time.perf_counter() - start
        reps = len(walls) + len(traced_walls)
        min_reps = 2 * MIN_REPS if tracer is not None else MIN_REPS
        if reps >= min_reps and elapsed + wall > args.seconds:
            break

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "walls": walls,
        "attempted": len(walls) + len(traced_walls) + 1,
        "failed": failed_reps + soundness_failed,
        "problems": problems[:20],
        "env": environment(args.seed),
    }
    if tracer is not None:
        result["traced_walls"] = traced_walls
        # Counts repeat exactly, so the low median is the count itself.
        result["layers"] = {
            key: (statistics.median_low if key.endswith(COUNT_SUFFIXES)
                  else statistics.median)([rep[key] for rep in layers])
            for key in layers[0]}
        # Each traced run follows an untraced one; pairing them keeps slow
        # drift in machine speed out of the overhead.
        result["layers"]["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(walls, traced_walls))
        result["layer_counts_repeat"] = all(
            rep[key] == layers[0][key] for rep in layers for key in rep
            if key.endswith(COUNT_SUFFIXES))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
