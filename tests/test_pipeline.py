import dataclasses

import numpy as np
import pytest

from sqspec.cli import main as cli_main
from sqspec.config import SweepConfig, parse_config
from sqspec.pipeline import CSV_COLUMNS, make_k_grid, run_sweep, verify, write_outputs
from sqspec.squeeze_dynamics import evolve_grid

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
            assert np.min(np.abs(grid - 0.05)) / 0.05 < 0.005

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

    def test_config_echo_roundtrip(self, small_report):
        assert parse_config(small_report.config_echo) == SMALL

    def test_summary_fit_near_anchors(self, small_report):
        assert small_report.summary.tilt_fit == pytest.approx(0.9649, abs=1e-6)
        assert small_report.summary.amplitude_fit == pytest.approx(2.196e-9, rel=1e-6)

    def test_provenance_hash_is_config_hash(self, small_report):
        report2 = run_sweep(SMALL)
        assert report2.provenance.config_hash == small_report.provenance.config_hash

    def test_zero_coupling_debug_run(self):
        report = run_sweep(dataclasses.replace(SMALL, zero_coupling=True))
        assert all(rec.gamma == 1.0 for rec in report.records)
        assert all(rec.power_otmss == rec.power_bd for rec in report.records)
        assert report.summary.amplitude_fit == pytest.approx(2.196e-9, rel=1e-12)
        assert report.summary.tilt_fit == pytest.approx(0.9649, abs=1e-12)

    def test_capped_modes_count_up_to_the_evaluated_point(self):
        # r passes r_cap only after horizon crossing, so a crossing sweep
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

    def test_beta_sign_flip_mutation_detected(self):
        code, lines = verify(SweepConfig(), beta_sign_flip=True)
        assert code == 3
        assert any(line.startswith("FAIL wronskian-gamma") for line in lines)


class TestCli:
    def test_show_config_roundtrips(self, capsys):
        assert cli_main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert parse_config(out) == SweepConfig()

    def test_show_config_with_overrides(self, capsys):
        assert cli_main(["show-config", "--k-points", "33", "--form", "transformed"]) == 0
        cfg = parse_config(capsys.readouterr().out)
        assert cfg.k_points == 33 and cfg.form == "transformed"

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k_points = 12\n")
        code = cli_main(
            ["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "records.csv").exists()
        assert "swept 12 modes" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("k_min = 2.0\nk_max = 1.0\n")
        assert cli_main(["sweep", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

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

    def test_seed_past_double_range_is_a_config_error(self, tmp_path, capsys):
        # cosh 2r of the seed itself overflows past r = 354.9: refused up front
        bad = tmp_path / "bad.cfg"
        bad.write_text("init_r = 400\nk_points = 3\n")
        code = cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "init_r must lie in [0, 354.8914]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # r = 0 exactly sits on the angle singularity: every mode fails,
        # the run completes and reports exit code 2
        cfg = tmp_path / "singular.cfg"
        cfg.write_text("init_r = 0.0\nk_points = 3\n")
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "3 failures" in capsys.readouterr().out

    def test_negative_r_fails_per_mode(self, tmp_path, capsys):
        # the closed form's dr/deta is finite at r = 0, so an explicit step
        # would walk through the singularity to r < 0; such steps are
        # rejected and the modes fail at r = 0 without aborting the sweep
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(
            "k_min = 100\nk_max = 1000\nk_points = 3\nx_start = 2.5\n"
            "init_phi = 0.0\nform = closed-reference\n"
            "coupling_power = hamiltonian-consistent\n"
        )
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "(2 failures)" in capsys.readouterr().out
        summary = (out / "summary.txt").read_text()
        assert summary.count("likely the r = 0 angle singularity") == 2
        assert len(list(out.iterdir())) == 7

    @pytest.mark.parametrize("form", ["transformed", "conformal"])
    def test_double_range_overflow_fails_per_mode(self, tmp_path, capsys, form):
        # at k = 1 r grows past 354.9, where cosh 2r overflows: that mode
        # fails and names the overflow, the other three keep their records
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            f"x_end = 0.001\neval_point = super-horizon\nk_points = 4\nform = {form}\n"
        )
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
