"""evolveq benchmark: one heat workload through the real CLI entry point.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload heat_fine_mesh --seed 1 --seconds 25 --trace 0

The run writes the workload's experiment config from its spec and the
seed, times interpreter start-up to a parsed config in fresh processes
(``setup_s``), then starts ``worker.py``, which runs the CLI pipeline in
process for ``--seconds`` and checks every run's outputs against the
stored references. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports per-layer spans recorded by wrapping each module's
public functions, and the tracing overhead. The last line of standard
output is one JSON object; earlier lines list every metric with its unit
and the environment. Everything the run writes goes to ``.perfbench_work``
at the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "slabs_per_s": "1/s"}
# Per-layer metric names are '<traced name>.<field>'; each maps to its unit.
PER_LAYER_UNITS = {
    "forms.estimate_constants.s": "s",
    "forms.estimate_constants.calls": "count",
    "presets.resolved_constants.s": "s",
    "presets.get_preset.s": "s",
    "forms.build_step_form.s": "s",
    "forms.build_step_form.self_s": "s",
    "forms.build_step_form.calls": "count",
    "forms.FormFamily.matrix.s": "s",
    "forms.FormFamily.matrix.calls": "count",
    "fem.heat_matrix.s": "s",
    "fem.heat_matrix.calls": "count",
    "spaces.GalerkinSpace.v_norms.s": "s",
    "spaces.GalerkinSpace.v_norms.calls": "count",
    "propagator.solve.s": "s",
    "propagator.solve.self_s": "s",
    "propagator.solve.calls": "count",
    "propagator.solve.unique_ratio": "ratio",
    "propagator.SlabPropagator.build.s": "s",
    "propagator.SlabPropagator.build.calls": "count",
    "propagator.oracle_solve.s": "s",
    "propagator.oracle_solve.self_s": "s",
    "propagator.oracle_solve.steps": "count",
    "mr.check_lemma3.s": "s",
    "mr.mr_norms.s": "s",
    "mr.check_chain_rule.s": "s",
    "mr.check_product_rule.s": "s",
    "mr.check_lemma_indepmax.s": "s",
    "mr.check_H_estimate.self_s": "s",
    "convergence.refine.self_s": "s",
    "convergence.trajectory_l2v_diff.s": "s",
    "convergence.trajectory_suph_diff.s": "s",
    "invariance.check_criterion.s": "s",
    "invariance.check_criterion_symmetric.s": "s",
    "invariance.audit_trajectory.s": "s",
    "invariance.ConvexSet.distance.calls": "count",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "bytes",
    "cli.main.s": "s",
    "trace.base_wall_s": "s",
    "trace.overhead_s": "s",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_seconds(config: Path) -> list[float]:
    """Times from spawning an interpreter to a parsed config."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        probe = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), str(config)],
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe failed: {probe.stderr.strip()}")
        times.append(float(probe.stdout.split()[-1]) - start)
    return times


def run_worker(argv: list[str], result_path: Path, deadline: float) -> tuple[dict, float]:
    """The worker's result and its peak resident memory in MB."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv,
                             "--result", str(result_path)], stdout=sys.stderr)
    # Reap the worker here rather than through Popen, to get its rusage.
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError("worker did not finish before the deadline")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.monotonic()
    for needed in (ROOT / "src" / "evolveq" / "cli.py",
                   ROOT / "configs" / "broken_invariance.cfg"):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} not found; run from a full checkout")

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = write_config(workload, args.seed, work / "experiment.cfg")

    try:
        setup_times = [] if args.trace else setup_seconds(config)
        result, peak_mb = run_worker(
            ["--workload", workload.name, "--seed", str(args.seed),
             "--config", str(config), "--workdir", str(work),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            work / "worker.json", deadline=started + DEADLINE_S)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    wall = statistics.median(result["walls"])
    if args.trace:
        values = {name: result["layers"].get(name) for name in PER_LAYER_UNITS}
        values["trace.base_wall_s"] = wall
        units = PER_LAYER_UNITS
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": peak_mb,
                  "slabs_per_s": workload.ladder_slabs / wall}
        units = END_TO_END_UNITS
    missing = [name for name, value in values.items() if value is None]
    if missing:
        return fail(f"metrics not measured: {missing}")

    failed_frac = result["failed"] / result["attempted"]
    for name, value in values.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    print(f"{workload.name} failed_frac {failed_frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    print(f"{workload.name} repetitions {len(result['walls'])} untraced, "
          f"{len(result.get('traced_walls', []))} traced")
    if args.trace:
        print(f"{workload.name} layer counts repeat exactly: "
              f"{result['layer_counts_repeat']}")
    for problem in result["problems"]:
        print(f"{workload.name} problem: {problem}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    (work / "result.json").write_text(json.dumps(
        {**result, "metrics": values, "failed_frac": failed_frac,
         "setup_times": setup_times}, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
