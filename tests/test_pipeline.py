import dataclasses
import hashlib
import importlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sqspec
from sqspec import bogoliubov, pipeline
from sqspec.bogoliubov import bd_mode, coefficients, mode_function
from sqspec.cli import main as cli_main
from sqspec.config import SweepConfig, parse_config, serialize
from sqspec.pipeline import CSV_COLUMNS, make_k_grid, run_sweep, verify, write_outputs
from sqspec.squeeze_dynamics import SqueezeState, evolve_grid

SMALL = SweepConfig(k_points=24)


@pytest.fixture(scope="module")
def small_report():
    return run_sweep(SMALL)


class TestKGrid:
    def test_pivot_snapped_exactly(self):
        grid = make_k_grid(SweepConfig())
        assert 0.05 in grid

    def test_pivot_within_half_percent(self):
        for n in (24, 50, 200):
            grid = make_k_grid(SweepConfig(k_points=n))
            assert np.min(np.abs(np.asarray(grid) - 0.05)) / 0.05 < 0.005

    def test_endpoints_and_count(self):
        # the pivot snap never moves an endpoint, even when the pivot sits
        # nearest one of them
        for cfg in (
            SMALL,
            SweepConfig(k_points=2),
            SweepConfig(k_min=0.04, k_max=0.2, k_points=2),
        ):
            grid = make_k_grid(cfg)
            assert grid[0] == cfg.k_min and grid[-1] == cfg.k_max
            assert len(grid) == cfg.k_points

    def test_pivot_outside_window_untouched(self):
        cfg = SweepConfig(k_min=0.1, k_max=1.0, k_points=10)
        grid = make_k_grid(cfg)
        assert len(grid) == 10 and grid[0] == 0.1

    def test_against_exact_geometric_grid(self):
        # k_min (k_max/k_min)^(i/(n-1)) at 200 bits over 21 windows of 1-5
        # decades between 1e-6 and 3e8.  The two-power form measured a mean of
        # 1.33 ulp and a max of 8.2 ulp here; numpy's geomspace 2.26 and 26.5.
        mpmath = pytest.importorskip("mpmath")
        errors = []
        with mpmath.workprec(200):
            for i in range(21):
                k_min = 10.0 ** (-6 + 0.5 * i)
                k_max = k_min * 10.0 ** (1 + i % 5)
                n = (50, 200, 333)[i % 3]
                # a pivot outside the window leaves every node unsnapped
                grid = make_k_grid(SweepConfig(k_min=k_min, k_max=k_max, k_points=n, k_pivot=1e10))
                assert grid[0] == k_min and grid[-1] == k_max and len(grid) == n
                assert all(a < b for a, b in zip(grid, grid[1:]))
                lo, ratio = mpmath.mpf(k_min), mpmath.mpf(k_max) / k_min
                for j, k in enumerate(grid):
                    exact = lo * ratio ** (mpmath.mpf(j) / (n - 1))
                    errors.append(float(abs(k - exact)) / math.ulp(k))
        assert max(errors) <= 12.0
        assert sum(errors) / len(errors) <= 2.0


class TestRunSweep:
    def test_record_count_and_no_failures(self, small_report):
        assert small_report.summary.n_records == SMALL.k_points
        assert small_report.summary.n_failures == 0
        assert len(small_report.records) + len(small_report.failures) == SMALL.k_points

    def test_records_are_pointwise_consistent(self, small_report):
        for rec in small_report.records:
            assert rec.power_otmss == rec.power_bd * rec.gamma  # bitwise
            assert rec.occupation >= 0.0
            assert -np.pi < rec.phi <= np.pi

    def test_mode_ratio_summary_matches_records(self, small_report):
        # crossing: eta = -1/k; wrapping phi moves the ratio only by rounding
        gaps = []
        for rec in small_report.records:
            state = SqueezeState(r=rec.r, phi=rec.phi, x=1.0)
            k = rec.k * SMALL.unit_scale
            ratio = abs(mode_function(state, -1.0 / k, k) / bd_mode(-1.0 / k, k)) ** 2
            gaps.append(abs(ratio / rec.gamma - 1.0))
        got = small_report.summary.max_abs_mode_ratio_over_gamma_minus_one
        assert got == pytest.approx(max(gaps), rel=1e-6)
        assert 0.0 < got <= 1e-5

    def test_config_roundtrip(self, small_report):
        assert small_report.config == SMALL
        assert parse_config(serialize(small_report.config)) == SMALL

    def test_summary_fit_near_anchors(self, small_report):
        assert small_report.summary.tilt_fit == pytest.approx(0.9649, abs=1e-6)
        assert small_report.summary.amplitude_fit == pytest.approx(2.196e-9, rel=1e-6)

    def test_provenance_hash_is_config_hash(self, small_report, tmp_path):
        expected = hashlib.sha256(serialize(SMALL).encode("utf-8")).hexdigest()
        for out in ("a", "b"):
            write_outputs(small_report, tmp_path / out)
            lines = (tmp_path / out / "summary.txt").read_text(encoding="utf-8").splitlines()
            assert f"config hash: {expected}" in lines

    def test_zero_coupling_debug_run(self):
        report = run_sweep(dataclasses.replace(SMALL, zero_coupling=True))
        assert all(rec.gamma == 1.0 for rec in report.records)
        assert all(rec.power_otmss == rec.power_bd for rec in report.records)
        assert report.summary.max_abs_mode_ratio_over_gamma_minus_one <= 1e-15
        assert report.summary.amplitude_fit == pytest.approx(2.196e-9, rel=1e-12)
        assert report.summary.tilt_fit == pytest.approx(0.9649, abs=1e-12)

    def test_superhorizon_wronskian_residual_is_relative(self):
        # relative to cosh^2 r the stored pair's residual stays at a few
        # ulps up to r ~ 43: 5.8e-16 measured on this sweep, 7.5e-16 over
        # 20,000 random states with r <= 354.8
        report = run_sweep(SweepConfig(eval_point="super-horizon"))
        assert max(rec.r for rec in report.records) > 40.0
        assert report.summary.max_wronskian_residual < 1e-15

    def test_capped_modes_count_up_to_the_evaluated_point(self):
        # r passes 30 only after horizon crossing, so a crossing sweep
        # (integrated to x = 1 and no further) reports no cap hits
        cfg = SweepConfig(k_min=0.5, k_max=1.0, k_points=5)
        assert run_sweep(cfg).summary.n_capped == 0
        report = run_sweep(dataclasses.replace(cfg, eval_point="super-horizon"))
        assert report.summary.n_capped > 0


class TestWriteOutputs:
    def test_manifest_and_csv_shape(self, small_report, tmp_path):
        files = write_outputs(small_report, tmp_path)
        names = {f.name for f in files}
        assert names == {
            "records.csv", "summary.txt",
            "fig_rk.plot", "fig_phik.plot", "fig_betak.plot",
            "fig_gammak.plot", "fig_deltak.plot",
        }
        lines = (tmp_path / "records.csv").read_text().strip().split("\n")
        # the file format is pinned, not read off SpectrumRecord's field order
        assert lines[0] == "k,r,phi,occupation,gamma,power_bd,power_otmss,wronskian_residual"
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + small_report.summary.n_records

    def test_csv_precision(self, small_report, tmp_path):
        write_outputs(small_report, tmp_path)
        first_row = (tmp_path / "records.csv").read_text().split("\n")[1]
        for cell in first_row.split(","):
            mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) >= 15  # 15+ significant digits
        # values survive the round trip exactly
        assert float(first_row.split(",")[0]) == small_report.records[0].k

    def test_summary_failures_line(self, small_report, tmp_path):
        write_outputs(small_report, tmp_path)
        assert "failures: 0" in (tmp_path / "summary.txt").read_text()

    def test_summary_integrator_totals(self, small_report, tmp_path):
        stats = [m.stats for m in evolve_grid(make_k_grid(SMALL), SMALL)]
        s = small_report.summary
        assert s.n_steps == sum(st.n_steps for st in stats)
        assert s.n_rejected == sum(st.n_rejected for st in stats)
        assert s.n_slaved_steps == sum(st.n_slaved_steps for st in stats)
        # every crossing step is slaved: the angle starts on its attractor
        # and is held there up to x = 1
        assert s.n_slaved_steps == s.n_steps
        sup = run_sweep(dataclasses.replace(SMALL, eval_point="super-horizon")).summary
        assert 0 < sup.n_slaved_steps < sup.n_steps
        write_outputs(small_report, tmp_path)
        line = (
            f"integrator steps: {s.n_steps} accepted ({s.n_slaved_steps} slaved), "
            f"{s.n_rejected} rejected"
        )
        assert line in (tmp_path / "summary.txt").read_text().splitlines()

    def test_gammak_plot_script(self, small_report, tmp_path):
        write_outputs(small_report, tmp_path)
        script = (tmp_path / "fig_gammak.plot").read_text()
        assert "set logscale x" in script
        assert "0.05" in script  # pivot reference line
        assert "records.csv" in script
        assert '"gamma"' in script

    def test_determinism_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_outputs(run_sweep(SMALL), dir_a)
        write_outputs(run_sweep(SMALL), dir_b)
        assert (dir_a / "records.csv").read_bytes() == (dir_b / "records.csv").read_bytes()


class TestVerify:
    def test_all_checks_pass(self):
        code, lines = verify(SweepConfig())
        assert code == 0, "\n".join(lines)
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)

    def test_loose_tolerance_still_passes_with_degraded_bound(self):
        cfg = dataclasses.replace(SweepConfig(), rtol=1e-1, atol=1e-1)
        code, lines = verify(cfg)
        assert code == 0, "\n".join(lines)

    def test_beta_sign_flip_mutation_detected(self, monkeypatch):
        def flipped(state):
            pair = coefficients(state)
            return dataclasses.replace(pair, beta=-pair.beta)

        monkeypatch.setattr(pipeline, "coefficients", flipped)
        code, lines = verify(SweepConfig())
        assert code == 3
        assert any(line.startswith("FAIL wronskian-gamma") for line in lines)

    def test_beta_magnitude_mutation_seen_by_wronskian(self, monkeypatch):
        # a 1% error in |beta| breaks |alpha|^2 - |beta|^2 = 1; the residual
        # of the stored pair must see it on its own (2.0e-2 measured)
        alpha_beta = bogoliubov.alpha_beta

        def scaled(state):
            alpha, beta = alpha_beta(state)
            return alpha, 1.01 * beta

        monkeypatch.setattr(bogoliubov, "alpha_beta", scaled)
        code, lines = verify(SweepConfig())
        assert code == 3
        (line,) = [line for line in lines if line.startswith("FAIL wronskian-gamma")]
        residual = float(line.split("max wronskian residual ")[1].split(",")[0])
        assert residual > 1e-12


class TestCli:
    def test_show_config_roundtrips(self, capsys):
        assert cli_main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert parse_config(out) == SweepConfig()

    def test_show_config_with_overrides(self, capsys):
        assert cli_main(["show-config", "--k-points", "33", "--form", "closed-reference"]) == 0
        cfg = parse_config(capsys.readouterr().out)
        assert cfg.k_points == 33 and cfg.form == "closed-reference"

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k_points = 12\n")
        code = cli_main(
            ["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "records.csv").exists()
        assert "swept 12 modes" in capsys.readouterr().out

    def test_two_modes_report_the_fit_as_not_run(self, tmp_path, capsys):
        # k_points = 2 is valid, but the tilt fit needs 3 records
        out = tmp_path / "out"
        assert cli_main(["sweep", "--k-points", "2", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        summary = (out / "summary.txt").read_text()
        for text in (stdout, summary):
            assert "not fitted (needs 3 records, got 2)" in text
            assert "nan" not in text.lower()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("k_min = 2.0\nk_max = 1.0\n")
        assert cli_main(["sweep", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_transformed_form_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("form = transformed\nk_points = 4\n")
        assert cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error: form must be one of conformal, closed-reference; got 'transformed'" in err
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["show-config", "--form", "transformed"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'transformed'" in capsys.readouterr().err

    def test_seed_angle_past_half_double_range_exit_code(self, tmp_path, capsys):
        # 2 phi overflows: a config error, not a runtime math domain error
        bad = tmp_path / "bad.cfg"
        bad.write_text("init_phi = 1e308\nx_start = 5\ninit_r = 0.05\nk_points = 3\n")
        assert cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "config error: init_phi must lie within" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_s = nan\nk_points = 4\n")
        assert cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "config error: n_s must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("k_mni = 1\n")
        assert cli_main(["show-config", "--config", str(bad)]) == 1

    def test_removed_mu2_rate_key_exit_code(self, tmp_path, capsys):
        # mu2 = k/M_P is constant for every mode, so there is no mu2' knob
        bad = tmp_path / "bad.cfg"
        bad.write_text("mu2_rate = 0.0\n")
        assert cli_main(["show-config", "--config", str(bad)]) == 1
        assert "config error: line 1: unknown key 'mu2_rate'" in capsys.readouterr().err

    def test_removed_r_cap_key_exit_code(self, tmp_path, capsys):
        # r > 30 is flagged at a fixed threshold; there is no knob for it
        bad = tmp_path / "bad.cfg"
        bad.write_text("r_cap = 30\n")
        assert cli_main(["show-config", "--config", str(bad)]) == 1
        assert "config error: line 1: unknown key 'r_cap'" in capsys.readouterr().err

    def test_config_file_not_utf8(self, tmp_path):
        # a decode failure is a config error, not a traceback
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"k_points = 5\n\xff\xfe\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sqspec", "show-config", "--config", str(bad)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC), timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: cannot read config file")
        assert "Traceback" not in proc.stderr

    def test_seed_past_double_range_is_a_config_error(self, tmp_path, capsys):
        # cosh 2r of the seed itself overflows past r = 354.9: refused up front
        bad = tmp_path / "bad.cfg"
        bad.write_text("init_r = 400\nk_points = 3\n")
        code = cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "init_r must lie in [0, 354.8914]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_huge_x_start_is_a_config_error(self, tmp_path, capsys):
        # x_start^2/k overflows the engine's stage scale at every mode
        bad = tmp_path / "bad.cfg"
        bad.write_text("x_start = 1e170\nk_points = 3\n")
        code = cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error: x_start^2 / (k_min * unit_scale)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bd_power_past_double_range_is_a_config_error(self, tmp_path, capsys):
        # (1/0.05)^999 overflows at k = 1 and (1e-4/0.05)^999 underflows to 0
        bad = tmp_path / "bad.cfg"
        bad.write_text("k_points = 5\nn_s = 1000\n")
        code = cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "must give a finite positive BD power" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_internal_k_overflow_is_a_config_error(self, tmp_path, capsys):
        # k_max * unit_scale = 1e330 is past the double range
        bad = tmp_path / "bad.cfg"
        bad.write_text("k_max = 1e30\nunit_scale = 1e300\nk_points = 3\n")
        code = cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error: k_max * unit_scale must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_window_without_distinct_nodes_is_a_config_error(self, tmp_path, capsys):
        # one ulp between k_min and k_max leaves no room for a third node
        bad = tmp_path / "bad.cfg"
        bad.write_text("k_min = 1.0\nk_max = 1.0000000000000002\nk_points = 3\n")
        code = cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "holds no 3 distinct log-spaced wavenumbers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # r = 0 exactly sits on the angle singularity: every mode fails,
        # the run completes and reports exit code 2
        cfg = tmp_path / "singular.cfg"
        cfg.write_text("init_r = 0.0\nk_points = 3\n")
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "3 failures" in capsys.readouterr().out

    def test_sweep_without_records_says_so(self, tmp_path, capsys):
        # every mode fails at the r = 0 seed, so there is no maximum to report
        cfg = tmp_path / "singular.cfg"
        cfg.write_text("init_r = 0.0\nk_points = 3\n")
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "max |gamma - 1| = no records" in capsys.readouterr().out
        summary = (out / "summary.txt").read_text()
        for name in (
            "max |gamma - 1|",
            "max | |v_z/v_BD|^2 / gamma - 1 |",
            "max wronskian residual",
            "max occupation |beta|^2",
        ):
            assert f"{name}: no records" in summary
        assert "nan" not in summary
        assert summary.count("the seed r = 0 is the angle singularity") == 3

    def test_seed_near_double_range_reports_mode_ratio(self, tmp_path):
        # |v_z|^2 alone overflows a double at r = 354; the ratio to v_BD
        # is formed before it is squared
        cfg = tmp_path / "large.cfg"
        cfg.write_text("k_points = 3\nx_start = 1.0001\ninit_r = 354\n")
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        prefix = "max | |v_z/v_BD|^2 / gamma - 1 |: "
        (line,) = [ln for ln in (out / "summary.txt").read_text().splitlines()
                   if ln.startswith(prefix)]
        assert math.isfinite(float(line[len(prefix):]))

    def test_negative_r_fails_per_mode(self, tmp_path, capsys):
        # the closed form's dr/deta is finite at r = 0 and phi0 = 0 is its
        # repelling branch, so every mode walks into r = 0 and fails there
        # without aborting the sweep
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(
            "k_min = 100\nk_max = 1000\nk_points = 3\nx_start = 2.5\n"
            "init_phi = 0.0\nform = closed-reference\n"
            "coupling_power = hamiltonian-consistent\n"
        )
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "(3 failures)" in capsys.readouterr().out
        summary = (out / "summary.txt").read_text()
        assert summary.count("likely the r = 0 angle singularity") == 3
        assert len(list(out.iterdir())) == 7

    def test_failed_modes_keep_their_work(self, tmp_path):
        # the modes that walk into r = 0 still report the attempts they
        # made, and the summary's step totals count them
        cfg = SweepConfig(
            k_min=100.0, k_max=1000.0, k_points=3, x_start=2.5, init_phi=0.0,
            form="closed-reference", coupling_power="hamiltonian-consistent",
        )
        modes = evolve_grid(make_k_grid(cfg), cfg)
        assert [m.state is None for m in modes] == [True, True, True]
        failed = [m.stats for m in modes if m.state is None]
        assert all(st.status == "step-underflow" and st.n_steps > 0 for st in failed)
        write_outputs(run_sweep(cfg), tmp_path)
        steps = sum(m.stats.n_steps for m in modes)
        rejected = sum(m.stats.n_rejected for m in modes)
        slaved = sum(m.stats.n_slaved_steps for m in modes)
        assert (
            f"integrator steps: {steps} accepted ({slaved} slaved), {rejected} rejected"
            in (tmp_path / "summary.txt").read_text()
        )

    def test_double_range_overflow_fails_per_mode(self, tmp_path, capsys):
        # at k = 1 r grows past 354.9, where cosh 2r overflows: that mode
        # fails and names the overflow, the other three keep their records
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("x_end = 0.001\neval_point = super-horizon\nk_points = 4\n")
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "(1 failures)" in capsys.readouterr().out
        failed = (out / "summary.txt").read_text().split("failed k values:")[1]
        failed = failed.split("resolved configuration:")[0]
        assert "k=1.000000e+00" in failed and "double range" in failed
        assert "r = 0" not in failed
        assert len((out / "records.csv").read_text().splitlines()) == 1 + 3

    def test_verify_subcommand(self, capsys):
        assert cli_main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_verify_takes_only_config(self, tmp_path, capsys):
        # verify reads rtol and atol alone, so it takes none of the
        # per-run overrides; an override flag is a usage error
        for flag in ("--k-points", "--eval", "--form", "--coupling-power"):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(["verify", flag, "5"])
            assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_points = 2\nrtol = 1e-9\n")
        assert cli_main(["verify", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.count("PASS") == 4

    def test_exception_in_a_command_is_a_runtime_failure(self, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(pipeline, "run_sweep", broken)
        assert cli_main(["sweep", "--k-points", "3"]) == 2
        assert capsys.readouterr().err == "runtime failure: disk on fire\n"


_NO_NUMPY_RUN = """\
import sys
import sqspec
cfg = sqspec.parse_config(sqspec.serialize(sqspec.SweepConfig(k_points=5)))
sqspec.write_outputs(sqspec.run_sweep(cfg), sys.argv[1])
code, lines = sqspec.verify(cfg)
assert code == 0, lines
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_sqspec_runs_without_numpy(tmp_path):
    # a fresh interpreter imports, configures, sweeps, writes and verifies
    # on the standard library alone
    src = str(Path(sqspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RUN, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "out" / "records.csv").exists()
    assert elapsed <= 2.0


@pytest.mark.parametrize("module", [
    "sqspec", "sqspec.background", "sqspec.bogoliubov", "sqspec.config",
    "sqspec.krylov", "sqspec.pipeline", "sqspec.spectrum", "sqspec.squeeze_dynamics",
])
def test_every_all_entry_resolves(module):
    # `import *` raises AttributeError on an __all__ entry whose name is gone
    names = importlib.import_module(module).__all__
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= namespace.keys()



_SRC = str(Path(sqspec.__file__).resolve().parents[1])
_PRINT_MODULES = 'print(*sorted(m for m in sys.modules if m.split(".")[0] == "sqspec"))'


def _fresh(code: str, *argv: str) -> list[str]:
    """Output lines of code run in a fresh interpreter that imports sqspec from src."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=_SRC), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestLazyImports:
    def test_setup_loads_config_alone(self):
        from perfbench.run import _SETUP_CODE

        out = _fresh(_SETUP_CODE + _PRINT_MODULES, _SRC, serialize(SweepConfig()))
        assert out[-1].split() == ["sqspec", "sqspec.config"]

    def test_show_config_loads_no_engine(self):
        code = "import sys\nfrom sqspec.cli import main\nassert main(['show-config']) == 0\n"
        code += _PRINT_MODULES
        loaded = set(_fresh(code)[-1].split())
        assert "sqspec.config" in loaded
        assert not {"sqspec.squeeze_dynamics", "sqspec._integrators", "sqspec.pipeline"} & loaded

    def test_only_verify_loads_krylov(self, tmp_path):
        code = (
            "import sys, sqspec\n"
            "sqspec.write_outputs(sqspec.run_sweep(sqspec.SweepConfig(k_points=5)), sys.argv[1])\n"
            + _PRINT_MODULES + "\nsqspec.verify(sqspec.SweepConfig())\n" + _PRINT_MODULES
        )
        swept, verified = _fresh(code, str(tmp_path))
        assert "sqspec.pipeline" in swept.split() and "sqspec.krylov" not in swept.split()
        assert "sqspec.krylov" in verified.split()

    def test_submodule_attribute_resolves(self):
        code = "import sys, sqspec\nsqspec.krylov.otmss_amplitudes\n" + _PRINT_MODULES
        assert "sqspec.krylov" in _fresh(code)[-1].split()

    def test_every_export_is_in_its_home_all(self):
        # sqspec.__all__ is derived from _HOME, so each name must be exported
        # by the submodule it resolves from
        for name in sqspec.__all__:
            if name != "__version__":
                home = importlib.import_module(f"sqspec.{sqspec._HOME[name]}")
                assert name in home.__all__, (name, home.__name__)

    def test_dir_lists_every_export(self):
        assert set(sqspec.__all__) <= set(dir(sqspec))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sqspec.no_such_name

    def test_moved_names_are_one_object(self):
        from sqspec import config, spectrum, squeeze_dynamics

        assert pipeline.make_k_grid is config.make_k_grid is sqspec.make_k_grid
        assert config.bd_reference_power is sqspec.bd_reference_power
        assert not hasattr(spectrum, "bd_reference_power")
        assert squeeze_dynamics._geometric_nodes is config._geometric_nodes
        # the stats record lives beside the drivers that build it
        assert squeeze_dynamics.IntegratorStats is sqspec._integrators.IntegratorStats
        assert "IntegratorStats" not in squeeze_dynamics.__all__
        assert spectrum.alpha_beta is bogoliubov.alpha_beta
