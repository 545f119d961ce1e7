import inspect
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import bands
from evolveq import cli, fem, mr
from evolveq.cli import (ConfigError, ExperimentConfig, build_parser,
                         list_presets, main, write_csv)
from evolveq.forms import (AffineTerms, FormFamily, Harmonic, Linear,
                           estimate_constants)
from evolveq.invariance import check_criterion_symmetric, sample_pool
from evolveq.mr import _kernel_factor, _slab_coefficients, check_lemma3, mr_norms
from evolveq.presets import get_preset
from evolveq.propagator import (ProblemData, SlabPropagator, Trajectory,
                                _modal_coefficients, oracle_solve, solve)
from evolveq.spaces import GalerkinSpace
from evolveq.tridiagonal import pencil_bracket

SCALAR_CFG = """\
[experiment]
preset = scalar-decay
slab_counts = 4 8 16
oracle_steps = 400

[load]
name = none
"""

HEAT_CFG = """\
[experiment]
preset = heat-1d-lipschitz
n_cells = 4
slab_counts = 2 4
oracle_steps = 100
"""

IDENTITY_CFG = """\
[experiment]
preset = heat-1d-lipschitz
n_cells = 8
slab_counts = 4 8

[load]
"""

BROKEN_CFG = """\
[experiment]
preset = broken-coupling
slab_counts = 8 16
seed = 5

[load]
name = none

[convex_set]
kind = box
metric = lumped
lower = 0.0
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def count_calls(funcs, thunk, under=()):
    """Run thunk; count calls into each function's code, whatever name it is called by.

    `under` lists (function, caller) pairs: such a function's calls count
    only while that caller runs, under the name "<function> in <caller>".
    """
    codes = {f.__code__: f.__qualname__ for f in funcs}
    watched = {}
    for f, caller in under:
        watched.setdefault(f.__code__, []).append(
            (caller.__code__, f"{f.__qualname__} in {caller.__qualname__}"))
    counts = dict.fromkeys(codes.values(), 0)
    counts.update((name, 0) for pairs in watched.values() for _, name in pairs)

    def runs_under(frame, code):
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        return frame is not None

    def hook(frame, event, _arg):
        code = frame.f_code
        if event != "call":
            return
        if code in codes:
            counts[codes[code]] += 1
        for caller, name in watched.get(code, ()):
            if runs_under(frame, caller):
                counts[name] += 1

    sys.setprofile(hook)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, counts


# the dense LAPACK routes that the banded V-side replaced
DENSE_ROUTINES = [inspect.unwrap(f) for f in (sla.eigh, np.linalg.svd, sla.cholesky)]
V_SIDE = [estimate_constants, mr_norms] + [
    f for f in vars(GalerkinSpace).values() if inspect.isfunction(f)]


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path, SCALAR_CFG))
        assert cfg.preset == "scalar-decay"
        assert cfg.slab_counts == (4, 8, 16)
        assert cfg.oracle_steps == 400
        assert cfg.load_name == "none"
        assert cfg.threads == 1

    def test_unknown_key_rejected(self, tmp_path):
        bad = SCALAR_CFG + "typo_key = 1\n"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(write_cfg(tmp_path, bad))

    def test_missing_preset_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(write_cfg(tmp_path, "[experiment]\nseed = 1\n"))

    def test_non_nested_ladder_rejected(self, tmp_path):
        bad = SCALAR_CFG.replace("4 8 16", "4 6 16")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(write_cfg(tmp_path, bad))

    def test_consistent_metric_refused_with_its_reason(self, tmp_path):
        text = BROKEN_CFG.replace("metric = lumped", "metric = consistent")
        with pytest.raises(ConfigError, match="every preset's H-metric is the lumped mass"):
            ExperimentConfig.from_file(write_cfg(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "nope.cfg")

    def test_comma_separated_counts(self, tmp_path):
        cfg_text = SCALAR_CFG.replace("4 8 16", "4, 8, 16")
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path, cfg_text))
        assert cfg.slab_counts == (4, 8, 16)


class TestCsv:
    def test_format_and_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[1, 0.5], ["x", np.float64(2.0)]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,5.0000000000000000e-01"
        assert lines[2] == "x,2.0000000000000000e+00"


class TestMain:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("scalar-decay", "heat-1d-lipschitz", "broken-coupling"):
            assert name in out

    def test_requires_config(self, capsys):
        assert main(["solve"]) == 1

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[experiment]\npreset = nonsense\n")
        assert main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1

    def test_solve_pipeline(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SCALAR_CFG)
        out = tmp_path / "results"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "mr.csv").exists()
        assert (out / "traj_16.csv").exists()
        assert (out / "summary.txt").exists()
        header = (out / "mr.csv").read_text().splitlines()[0]
        assert header.startswith("n_slabs,mesh,l2V,h1H,h1Vp,supV")

    def test_converge_pipeline(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SCALAR_CFG)
        out = tmp_path / "results"
        assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
        body = (out / "convergence.csv").read_text().splitlines()
        assert body[0] == "n_slabs,mesh,diff_l2V,diff_supH,rate_estimate,oracle_gap"
        assert len(body) == 4

    def test_constants_pipeline(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SCALAR_CFG)
        out = tmp_path / "results"
        assert main(["constants", "--config", str(path), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        # the preset declares nothing: its analytic values are the exact ones
        assert "declared:" not in summary
        assert "exact (affine endpoints): M=1.5 alpha=1 L=0.5" in summary

    def test_constants_line_names_its_source(self, tmp_path, capsys):
        path = write_cfg(tmp_path, HEAT_CFG)
        out = tmp_path / "results"
        assert main(["constants", "--config", str(path), "--out", str(out)]) == 0
        assert "\nexact (affine endpoints): M=" in (out / "summary.txt").read_text()

    def test_broken_invariance_counterexample(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BROKEN_CFG)
        out = tmp_path / "results"
        assert main(["invariance", "--config", str(path), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "counterexample detected as expected" in summary
        row = (out / "invariance.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) < 0.0     # criterion margin
        assert float(row[5]) > 0.0     # worst trajectory violation

    def test_env_output_fallback(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, SCALAR_CFG)
        out = tmp_path / "envout"
        monkeypatch.setenv("EVOLVEQ_OUT", str(out))
        assert main(["solve", "--config", str(path)]) == 0
        assert (out / "mr.csv").exists()

    @pytest.mark.parametrize("command", ["converge", "all"])
    def test_one_point_ladder_is_usage_error(self, tmp_path, capsys, command):
        path = write_cfg(tmp_path, SCALAR_CFG.replace("4 8 16", "8"))
        out = tmp_path / "results"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("text, status", [
        (HEAT_CFG + "omega = -50\n", 2),                     # non-coercive slabs
        (SCALAR_CFG.replace("oracle_steps", "horizon = -1.0\noracle_steps"), 1),
        (HEAT_CFG.replace("n_cells = 4", "n_cells = 0"), 1),
        (HEAT_CFG.replace("n_cells = 4", "n_cells = four"), 1),
        (SCALAR_CFG.replace("oracle_steps = 400", "oracle_steps = 0"), 1),
        (SCALAR_CFG.replace("oracle_steps = 400", "seed = 1\nseed = 2\n"
                            "oracle_steps = 400"), 1),
        (HEAT_CFG + "[convex_set]\nkind = halfspace\n", 1),   # no key for a normal
        (HEAT_CFG + "[convex_set]\nmetric = euclid\n", 1),
        (HEAT_CFG + "[convex_set]\nkind = ball\n", 1),
        (HEAT_CFG + "[convex_set]\nkind = ball\nradius = -1.0\n", 1),
        (HEAT_CFG + "[convex_set]\nlower = 1.0\nupper = 0.0\n", 1),
        (HEAT_CFG + "horizon = inf\n", 1),
        (HEAT_CFG + "[load]\namplitude = nan\n", 1),
        (HEAT_CFG + "omega = nan\n", 1),
        (HEAT_CFG + "[convex_set]\nlower = inf\n", 1),
        (HEAT_CFG + "seed = -3\n", 1),
        (HEAT_CFG.replace("n_cells = 4", "n_cells = 8")
         + "[load]\namplitude = 1e160\n", 2),               # the load norm overflows
        (HEAT_CFG.replace("n_cells = 4", "n_cells = 8")
         + "[load]\namplitude = 1.7e308\n", 2),             # so do the slab means
        (HEAT_CFG.replace("n_cells = 4", "n_cells = 8")
         + "[load]\namplitude = 1.2e154\n", 2),             # the MR integrals overflow
        (HEAT_CFG.replace("n_cells = 4", "n_cells = 8")
         + "[load]\namplitude = 1e154\n", 2),               # so does an audit's scale
        (HEAT_CFG + "[convex_set]\nkind = ball\nradius = 1.0\nlower = 5.0\n"
         "upper = -7.0\n", 1),
        (HEAT_CFG + "[convex_set]\nkind = box\nradius = 1.0\n", 1),
        (HEAT_CFG + "[convex_set]\nmetric = consistent\n", 1),
        (HEAT_CFG.replace("heat-1d-lipschitz", "nope"), 1),
        (HEAT_CFG + "[load]\nname = bogus\n", 1),
    ], ids=["omega", "horizon", "n_cells", "n_cells_text", "oracle_steps",
            "duplicate", "set_halfspace", "set_metric", "set_ball_no_radius",
            "set_negative_radius", "set_inverted_box", "horizon_inf",
            "amplitude_nan", "omega_nan", "set_lower_inf", "seed_negative",
            "mr_overflow", "load_mean_overflow", "mr_integrals_overflow",
            "audit_overflow", "set_ball_with_box_keys",
            "set_box_with_radius", "set_metric_consistent", "preset_unknown",
            "load_unknown"])
    def test_typed_errors_map_to_exit_codes(self, tmp_path, capsys, text, status):
        path = write_cfg(tmp_path, text)
        out = tmp_path / "results"
        assert main(["all", "--config", str(path), "--out", str(out)]) == status
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        for amplitude, quantity in (("1e160", "the load norm ||f||_{L^2(0,T;H)}"),
                                    ("1.7e308", "the slab-averaged loads"),
                                    ("1.2e154", "the MR integrals of the 2-slab solve"),
                                    ("1e154", "the product-rule audit")):
            if f"amplitude = {amplitude}\n" in text:
                # an overflow names the quantity that overflowed
                assert err == f"error: overflow in {quantity}\n"
        # an unknown name is refused when the config is read, its line unquoted
        if "nope" in text:
            assert err == ("error: unknown preset 'nope'; choose from ['scalar-decay', "
                           "'scalar-sin', 'constant-heat', 'heat-1d-lipschitz', "
                           "'broken-coupling']\n")
        if "bogus" in text:
            assert err == ("error: unknown [load] name 'bogus'; choose from "
                           "['none', 'constant', 'forcing']\n")
        if status == 1:
            # config errors are caught when the config is read, before any work
            assert not list(out.glob("*.csv"))
        else:
            # the account of the failed run is kept, ending with the error line
            summary = (out / "summary.txt").read_text()
            assert "\nexact (affine endpoints): M=" in summary
            # only the family shifted by omega = -50 is not coercive
            assert ("WARNING: family not coercive" in summary) == ("omega = -50" in text)
            assert summary.splitlines()[-1] == err.strip()
            assert captured.out == summary

    @pytest.mark.parametrize("text", [SCALAR_CFG, HEAT_CFG])
    def test_all_does_each_piece_of_work_once(self, tmp_path, capsys, text):
        path = write_cfg(tmp_path, text)
        config = ExperimentConfig.from_file(path)
        status, counts = count_calls(
            [SlabPropagator.build.__func__, estimate_constants,
             _slab_coefficients, _kernel_factor, sample_pool, fem.heat_matrix],
            lambda: main(["all", "--config", str(path), "--out", str(tmp_path / "o")]),
            under=[(_modal_coefficients, solve),
                   (inspect.unwrap(np.linalg.solve), oracle_solve),
                   (inspect.unwrap(sla.eigh), SlabPropagator.build.__func__),
                   (pencil_bracket, check_criterion_symmetric),
                   (AffineTerms.at, solve),
                   (GalerkinSpace.v_norms, mr_norms),
                   (GalerkinSpace.solve_V, mr_norms),
                   (GalerkinSpace.solve_V, check_lemma3),
                   (Linear.__call__, oracle_solve),
                   (Harmonic.__call__, oracle_solve)]
            + [(dense, caller) for dense in DENSE_ROUTINES for caller in V_SIDE])
        assert status == 0
        # one solve per ladder point, shared by solve, converge and invariance
        assert counts["SlabPropagator.build"] == sum(config.slab_counts)
        assert counts["estimate_constants"] == 1
        # the march evaluates each slab once, at its right end; the trajectory
        # keeps those states instead of evaluating the breakpoints again
        assert counts["_modal_coefficients in solve"] == sum(config.slab_counts)
        # per trajectory, one closed-form pass in mr_norms over all slabs; the
        # identity and estimate audits read what it reports
        assert counts["_slab_coefficients"] == len(config.slab_counts)
        # per trajectory, one lockstep factorization of all slabs' kernels
        assert counts["_kernel_factor"] == len(config.slab_counts)
        # per trajectory, whose modes fit in one chunk here, one norm call
        # each for the modes, the steady parts, the low-rank states and the
        # sup-V samples of all slabs
        assert counts["GalerkinSpace.v_norms in mr_norms"] == 4 * len(config.slab_counts)
        # and one banded solve each for the modes' V'-norms and for the
        # low-rank H^1(V') states of all slabs
        assert counts["GalerkinSpace.solve_V in mr_norms"] == 2 * len(config.slab_counts)
        # the V'-norms of all slab loads of a trajectory are one banded solve
        assert counts["GalerkinSpace.solve_V in check_lemma3"] == len(config.slab_counts)
        # the constants, the MR integrals and the space form no dense V-side
        # product: no dense eigensolve, SVD or Cholesky runs under them
        for dense in DENSE_ROUTINES:
            for caller in V_SIDE:
                assert counts[f"{dense.__qualname__} in {caller.__qualname__}"] == 0
        # one sample pool, read by both invariance criteria; the symmetric
        # one reads alpha from the constants instead of solving for it again
        assert counts["sample_pool"] == 1
        assert counts["pencil_bracket in check_criterion_symmetric"] == 0
        # the heat family is assembled once, as its affine terms; slab means,
        # constants and oracle steps never assemble it again
        assert counts["heat_matrix"] == (1 if "heat" in config.preset else 0)
        # lumped mass and tridiagonal terms (1 x 1 for the scalar preset): the
        # oracle steps through gtsv and the slabs are tridiagonal eigensolves
        assert counts["solve in oracle_solve"] == 0
        # each oracle step calls the form coefficient once, and the load
        # coefficient once when there is a load
        per_step = 1 if config.load_name == "none" else 2
        assert (counts["Linear.__call__ in oracle_solve"]
                + counts["Harmonic.__call__ in oracle_solve"]) == per_step * config.oracle_steps
        assert counts["eigh in SlabPropagator.build"] == 0
        # each slab is its coefficient mean: one band combination A0 + s A1 per slab
        assert counts["AffineTerms.at in solve"] == sum(config.slab_counts)

    @pytest.mark.parametrize("amplitude", ["1e4", "1e6"])
    def test_identity_residuals_judged_relative_to_their_terms(self, tmp_path, capsys,
                                                               amplitude):
        # the residuals are roundoff of terms that scale with amplitude^2:
        # they pass relative to those terms, and mr.csv keeps them absolute
        path = write_cfg(tmp_path, IDENTITY_CFG + f"amplitude = {amplitude}\n")
        out = tmp_path / "results"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert "FAIL" not in (out / "summary.txt").read_text()
        rows = [line.split(",") for line in (out / "mr.csv").read_text().splitlines()]
        chain = rows[0].index("residual_chain")
        assert max(float(row[chain]) for row in rows[1:]) > 1e-10

    @pytest.mark.parametrize("amplitude", ["1", "1e6"])
    def test_perturbed_product_term_fails(self, tmp_path, capsys, monkeypatch, amplitude):
        # one product-rule term off by 1e-6 of itself is not roundoff
        norms = mr.mr_norms

        def perturbed(traj):
            report = norms(traj)
            terms = list(report.product_slabs)
            k = int(np.argmax(np.abs(terms)))
            terms[k] *= 1.0 + 1e-6
            return replace(report, product_slabs=tuple(terms))

        monkeypatch.setattr(mr, "mr_norms", perturbed)
        path = write_cfg(tmp_path, IDENTITY_CFG + f"amplitude = {amplitude}\n")
        out = tmp_path / "results"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert "FAIL identity residual at n=4" in (out / "summary.txt").read_text()

    def test_nonfinite_states_exit_2(self, tmp_path, capsys, monkeypatch):
        # a trajectory with a NaN state is a typed numerical error
        def nan_ladder(problem, slab_counts, threads=1):
            return [Trajectory(np.array([0.0, 1.0]), np.full((1, 2), np.nan))]

        monkeypatch.setattr(cli.conv, "solve_ladder", nan_ladder)
        path = write_cfg(tmp_path, SCALAR_CFG)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: trajectory states are not finite\n"

    def test_uncertified_remainder_exits_2(self, tmp_path, capsys, monkeypatch):
        # a kernel factor stopped early is refused with ToleranceError
        monkeypatch.setattr(mr, "_STOP_TOL", 1e-6)
        path = write_cfg(tmp_path, HEAT_CFG.replace("n_cells = 4", "n_cells = 16"))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the low-rank L^2(V) integral on [0, ")
        assert "certified remainder" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("failure", ["singular_step", "nonfinite_theta"])
    def test_oracle_failures_exit_2(self, tmp_path, capsys, monkeypatch, failure):
        # scalar-decay with A(t) = a0 + theta(t): its oracle step
        # 1 + dt (a0 + 1) at dt = 1/256, after the config's omega = 1
        @dataclass(frozen=True)
        class NanAfterStart(Linear):
            """theta = 0 at t = 0 and on average; not finite at the oracle's steps."""
            def __call__(self, t):
                return 0.0 if t == 0.0 else np.nan

        a0, theta, message = {
            "singular_step": (-257.0, Linear(0.0), "tridiagonal solve failed"),
            "nonfinite_theta": (1.0, NanAfterStart(0.0), "oracle step matrix at t=")}[failure]

        def failing(*args, **kwargs):
            preset = get_preset(*args, **kwargs)
            fam = preset.problem.family
            family = FormFamily(fam.space, AffineTerms(bands([[a0]]), bands([[1.0]]), theta),
                                fam.horizon)
            return replace(preset, problem=ProblemData(family, preset.problem.u0))

        monkeypatch.setattr(cli, "get_preset", failing)
        path = write_cfg(tmp_path, SCALAR_CFG.replace("oracle_steps = 400",
                                                      "oracle_steps = 256\nomega = 1"))
        out = tmp_path / "results"
        assert main(["converge", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and len(err.splitlines()) == 1
        assert (out / "summary.txt").read_text().splitlines()[-1] == err.strip()

    def test_seed_override(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BROKEN_CFG)
        out = tmp_path / "results"
        assert main(["invariance", "--config", str(path), "--out", str(out),
                     "--seed", "99"]) == 0
        assert "seed: 99" in (out / "summary.txt").read_text()

    def test_negative_seed_override_is_usage_error(self, tmp_path, capsys):
        # the overridden config is validated again, before any work
        path = write_cfg(tmp_path, BROKEN_CFG)
        out = tmp_path / "results"
        assert main(["invariance", "--config", str(path), "--out", str(out),
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["all", "--config", "c.cfg", "--threads", "4"])
        assert args.command == "all"
        assert args.threads == 4

    def test_preset_listing_text(self):
        # the descriptions are stored with the builders: listing builds no problem
        text, counts = count_calls([GalerkinSpace.__post_init__], list_presets)
        assert "counterexample" in text
        assert counts["GalerkinSpace.__post_init__"] == 0
