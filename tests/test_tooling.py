"""Repository tooling: the benchmark tracer's names, the results comparer and the rate table."""
import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import evolveq
from evolveq import cli
from evolveq.forms import estimate_constants, rescale
from evolveq.presets import get_preset

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
TRACER = PERFBENCH / "tracer.py"
COMPARE = REPO / "scripts" / "compare_results.py"
RATE_TABLE = REPO / "scripts" / "rate_table.py"
RUN_ALL = REPO / "scripts" / "run_all.py"


def load_script(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass resolves its annotations in its module
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def traced_entries():
    return load_script(TRACER, "perfbench_tracer").TRACED


@pytest.mark.parametrize("mod, path", traced_entries())
def test_traced_entry_resolves(mod, path):
    module = importlib.import_module(f"evolveq.{mod}")
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer patches methods in the class __dict__, not inherited ones
        raw = vars(getattr(module, cls_name))[attr]
        if path == "SlabPropagator.build":
            assert isinstance(raw, classmethod)
        else:
            assert callable(raw)
    else:
        assert callable(getattr(module, path))


@pytest.mark.parametrize("mod, func, position, name", [
    ("propagator", "solve", 1, "subdivision"),
    ("propagator", "oracle_solve", 1, "n_steps"),
    ("cli", "write_csv", 0, "path"),
])
def test_traced_arguments_keep_their_positions(mod, func, position, name):
    # the tracer reads these arguments by position when they are passed so;
    # a moved one would count the wrong thing without an error
    params = list(inspect.signature(
        getattr(importlib.import_module(f"evolveq.{mod}"), func)).parameters)
    assert params[position] == name, params


@pytest.mark.parametrize("workload", sorted(
    load_script(PERFBENCH / "workloads.py", "perfbench_workloads").WORKLOADS))
def test_workload_outputs_pass_the_benchmark_check(tmp_path, capsys, workload):
    # each benchmark workload at seed 1, checked against its stored references
    workloads = load_script(PERFBENCH / "workloads.py", "perfbench_workloads")
    check = load_script(PERFBENCH / "check.py", "perfbench_check")
    spec = workloads.WORKLOADS[workload]
    cfg = workloads.write_config(spec, 1, tmp_path / "bench.cfg")
    out = tmp_path / "out"
    status = cli.main([spec.command, "--config", str(cfg), "--out", str(out)])
    assert check.check_run(status, out, workload) == []


# every module but __main__, which runs the CLI when it is imported
MODULES = ["evolveq"] + sorted(f"evolveq.{m.name}"
                              for m in pkgutil.iter_modules(evolveq.__path__)
                              if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


@pytest.mark.parametrize("name", ["heat-1d-lipschitz", "constant-heat", "broken-coupling"])
def test_assembly_and_constants_build_no_square_array(name):
    # at 2048 cells one dense 2049 x 2049 term is 32 MB, and all the bands
    # of the space and the family are about 0.2 MB
    tracemalloc.start()
    try:
        family = get_preset(name, n_cells=2048).problem.family
        estimate_constants(family)
        rescale(family, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_only_forms_knows_the_storage_route():
    # the family's terms are bands; no other module imports the band module
    # or reads a family's band storage
    readers = set()
    for path in sorted((REPO / "src" / "evolveq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            imports = (isinstance(node, ast.ImportFrom)
                       and (node.module == "tridiagonal"
                            or any(alias.name == "tridiagonal" for alias in node.names)))
            imports |= (isinstance(node, ast.Import)
                        and any(alias.name.endswith("tridiagonal") for alias in node.names))
            reads = isinstance(node, ast.Attribute) and node.attr == "tridiagonal"
            if imports or reads:
                readers.add(path.name)
    assert readers <= {"forms.py"}, sorted(readers - {"forms.py"})


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


# the CSVs each command writes, besides one traj_<n>.csv per row of mr.csv
COMMAND_CSVS = {"constants": set(), "solve": {"mr.csv"},
                "converge": {"convergence.csv"}, "invariance": {"invariance.csv"}}
COMMAND_CSVS["all"] = set().union(*COMMAND_CSVS.values())


@pytest.mark.parametrize("cfg", sorted((REPO / "configs").glob("*.cfg")),
                         ids=lambda path: path.name)
def test_shipped_config_runs(tmp_path, capsys, cfg):
    # each config with the command that scripts/run_all.py runs it with
    command = load_script(RUN_ALL, "run_all").command_for(cfg)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
    expected = set(COMMAND_CSVS[command])
    if "mr.csv" in expected:
        rows = (out / "mr.csv").read_text().splitlines()[1:]
        expected |= {f"traj_{row.split(',')[0]}.csv" for row in rows}
    assert {path.name for path in out.glob("*.csv")} == expected
    assert (out / "summary.txt").is_file()
    # every number is finite but the documented NaNs: the first row's diffs,
    # which have no coarser point, and symmetric_margin when alpha <= 0
    alpha = cli._prepare(cli.ExperimentConfig.from_file(cfg), command).computed.coercivity
    for csv in expected:
        header, *rows = (line.split(",") for line in (out / csv).read_text().splitlines())
        for i, row in enumerate(rows):
            for column, cell in zip(header, row):
                if cell in ("nan", "inf", "-inf"):
                    documented = ((csv, i, column) in {("convergence.csv", 0, "diff_l2V"),
                                                       ("convergence.csv", 0, "diff_supH")}
                                  or (column == "symmetric_margin" and alpha <= 0))
                    assert cell == "nan" and documented, (csv, i, column, cell)


def test_compare_results_reports_each_changed_column(tmp_path, capsys):
    main = load_script(COMPARE, "compare_results").main
    old = {"a/mr.csv": "n,x,y\n8,1.0,2.0\n16,4.0,0.0\n",
           "a/summary.txt": "preset: p\nrate 1.0\n", "b/traj_8.csv": "t\n0\n"}
    new = dict(old, **{"a/mr.csv": "n,x,y\n8,1.0,2.5\n16,4.0,1e-3\n",
                       "a/summary.txt": "preset: p\nrate 1.5\n"})
    write_tree(tmp_path / "old", old)
    write_tree(tmp_path / "new", new)
    assert main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "a/mr.csv: y: 2 rows, max abs 5.000e-01, max rel 1.000e+00",
        "a/summary.txt: line 2 differs: 'rate 1.0' -> 'rate 1.5'",
        "b/traj_8.csv: identical",
    ]


def test_compare_results_fails_on_different_file_sets(tmp_path, capsys):
    main = load_script(COMPARE, "compare_results").main
    write_tree(tmp_path / "old", {"mr.csv": "n\n1\n", "notes.log": "x"})
    write_tree(tmp_path / "new", {"mr.csv": "n\n1\n", "traj_4.csv": "t\n0\n"})
    assert main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out
    assert "traj_4.csv: only in" in out and "mr.csv: identical" in out
    assert "notes.log" not in out


def test_compare_results_stops_quietly_when_its_reader_does(tmp_path):
    # `compare_results.py OLD NEW | head -1`: the pipe closes before the output
    # is flushed; the reader is closed here before the script starts
    files = {f"traj_{n}.csv": "t\n0\n" for n in range(50)}
    write_tree(tmp_path / "old", files)
    write_tree(tmp_path / "new", files)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, str(COMPARE), str(tmp_path / "old"),
                               str(tmp_path / "new")],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 1


@pytest.mark.parametrize("args, status, text", [
    (["--ladder", "4,8,16", "--load", "constant"], 0, "fitted rate"),
    (["--ladder", "8,12"], 2, "error: --ladder: ladder counts must be nested"),
    (["--ladder", "8,x"], 2, "error: --ladder: invalid literal"),
    (["--load", "bogus"], 2, "error: argument --load: invalid choice: 'bogus'"),
], ids=["valid", "not_nested", "not_integer", "unknown_load"])
def test_rate_table_rejects_bad_arguments_with_usage(args, status, text):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(RATE_TABLE), "scalar-decay", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == status
    assert "Traceback" not in done.stderr
    assert text in (done.stdout if status == 0 else done.stderr.splitlines()[-1])
