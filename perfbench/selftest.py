"""Tests of the benchmark itself: tracer call counts and the output check.

    python3 perfbench/selftest.py

Runs each workload's pipeline once traced (about 20 s in all). The
traced call counts are compared with counts taken independently by a
``sys.setprofile`` hook on the original code objects, which sees every
call whatever name it was made through.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from check import check_run  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from worker import COUNT_SUFFIXES, layer_metrics  # noqa: E402
from workloads import WORKLOADS, config_text, write_config  # noqa: E402

from evolveq import cli  # noqa: E402

WORK = HERE.parent / ".perfbench_work" / "selftest"
# Layers the converge pipeline never enters.
NOT_IN_CONVERGE = ("mr.", "invariance.")


def original_code(mod: str, path: str):
    owner = sys.modules[f"evolveq.{mod}"]
    for part in path.split("."):
        owner = getattr(owner, part)
    return getattr(owner, "__func__", owner).__code__


def evolveq_bindings() -> dict:
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name.startswith("evolveq") for attr, value in vars(mod).items()}


def run_pipeline(workload, out: Path) -> int:
    config = write_config(workload, 0, WORK / f"{workload.name}.cfg")
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([workload.command, "--config", str(config),
                         "--out", str(out), "--threads", "1"])


def traced_run(workload, out: Path, profile: bool = False):
    """Layer metrics of one traced run, and profile-hook call counts."""
    codes = {original_code(mod, path): f"{mod}.{path}" for mod, path in TRACED}
    counts = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    tracer = Tracer()
    tracer.install()
    if profile:
        sys.setprofile(hook)
    try:
        status = run_pipeline(workload, out)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    return status, layer_metrics(tracer), counts, tracer


class TracerCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        cls.runs = {}
        for name, workload in WORKLOADS.items():
            cls.runs[name] = traced_run(workload, WORK / name, profile=True)

    def test_counts_match_profile_hook(self):
        for name, (status, layers, counts, _) in self.runs.items():
            self.assertEqual(status, 0, name)
            for traced, calls in counts.items():
                with self.subTest(workload=name, layer=traced):
                    self.assertEqual(layers[f"{traced}.calls"], calls)

    def test_counts_nonzero_where_layer_runs(self):
        for name, (_, layers, _, _) in self.runs.items():
            converge = WORKLOADS[name].command == "converge"
            for traced in (f"{mod}.{path}" for mod, path in TRACED):
                with self.subTest(workload=name, layer=traced):
                    calls = layers[f"{traced}.calls"]
                    if converge and traced.startswith(NOT_IN_CONVERGE):
                        self.assertEqual(calls, 0)
                    else:
                        self.assertGreater(calls, 0)

    def test_counts_repeat_exactly(self):
        workload = WORKLOADS["heat_long_oracle"]
        _, again, _, _ = traced_run(workload, WORK / "repeat")
        first = self.runs[workload.name][1]
        for key, value in again.items():
            if key.endswith(COUNT_SUFFIXES):
                self.assertEqual(value, first[key], key)

    def test_solve_sees_every_ladder_point(self):
        for name, (_, layers, _, tracer) in self.runs.items():
            workload = WORKLOADS[name]
            self.assertEqual(sorted(set(tracer.solve_points)), list(workload.slab_counts))
            self.assertEqual(layers["propagator.oracle_solve.steps"], workload.oracle_steps)

    def test_install_patches_every_binding(self):
        before = evolveq_bindings()
        originals = {id(before[("evolveq." + mod, path)]) for mod, path in TRACED
                     if "." not in path}
        tracer = Tracer()
        tracer.install()
        try:
            left = [key for key, value in evolveq_bindings().items()
                    if id(value) in originals]
        finally:
            tracer.uninstall()
        self.assertEqual(left, [])
        self.assertEqual(evolveq_bindings(), before)


class OutputCheck(unittest.TestCase):
    workload = WORKLOADS["heat_deep_ladder"]
    source = WORK / "check-source"

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(cls.source, ignore_errors=True)
        WORK.mkdir(parents=True, exist_ok=True)
        if run_pipeline(cls.workload, cls.source) != 0:
            raise RuntimeError("pipeline failed")

    def setUp(self):
        self.out = WORK / "check"
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copytree(self.source, self.out)

    def problems(self, status=0):
        return check_run(status, self.out, self.workload.name)

    def edit(self, name: str, row: int, column: str, value: str):
        path = self.out / name
        lines = path.read_text().splitlines()
        j = lines[0].split(",").index(column)
        cells = lines[row + 1].split(",")
        cells[j] = value
        lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def test_clean_run_passes(self):
        self.assertEqual(self.problems(), [])

    def test_flags_perturbed_value(self):
        header, *rows = (self.out / "traj_64.csv").read_text().splitlines()
        value = float(rows[10].split(",")[5])
        self.edit("traj_64.csv", 10, header.split(",")[5], repr(value * (1 + 1e-5)))
        self.assertTrue(any("traj_64.csv" in p for p in self.problems()))

    def test_flags_residual_above_cli_tolerance(self):
        self.edit("mr.csv", 2, "residual_chain", "1e-6")
        self.assertTrue(any("residual_chain" in p for p in self.problems()))

    def test_flags_fail_line_missing_file_and_status(self):
        with open(self.out / "summary.txt", "a") as fh:
            fh.write("FAIL estimate margin at n=16\n")
        (self.out / "traj_16.csv").unlink()
        problems = self.problems(status=2)
        self.assertTrue(any(p.startswith("summary: FAIL") for p in problems))
        self.assertTrue(any("reference" in p for p in problems))
        self.assertIn("exit status 2", problems)

    def test_seed_dependent_column_only_needs_to_be_positive(self):
        self.edit("invariance.csv", 0, "witness_norm", "3.5")
        self.assertEqual(self.problems(), [])
        self.edit("invariance.csv", 0, "witness_norm", "nan")
        self.assertTrue(self.problems())


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         PER_LAYER_UNITS)

class Configs(unittest.TestCase):
    def test_same_seed_same_config_and_it_validates(self):
        WORK.mkdir(parents=True, exist_ok=True)
        for workload in WORKLOADS.values():
            self.assertEqual(config_text(workload, 5), config_text(workload, 5))
            path = write_config(workload, 5, WORK / "seeded.cfg")
            config = cli.ExperimentConfig.from_file(path)
            self.assertEqual(config.seed, 5)
            self.assertEqual(config.slab_counts, workload.slab_counts)


if __name__ == "__main__":
    unittest.main()
