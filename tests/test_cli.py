import time

import numpy as np
import pytest

from onebitlink import cli, dsp, optimizer, pipeline
from onebitlink.errors import ConfigurationError

FAST_CFG = "system.n_symbols = 2000\n"


def _write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRun:
    def test_writes_csv_with_exact_header(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, FAST_CFG)
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 0
        lines = (tmp_path / "r" / "run.csv").read_text().splitlines()
        assert lines[0] == ("system,ibo,b_bpf_over_b,mi_bits,r_over_b,"
                            "b_pa_over_b,p_pa,p_t,eta_p,eta_b,fom_norm")
        assert len(lines) == 2
        assert lines[1].startswith("sys2,0.1,0.9,")
        out = capsys.readouterr().out
        assert "fom_norm=" in out and "mi=" in out

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, FAST_CFG)
        cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "run.csv").read_bytes()
                == (tmp_path / "b" / "run.csv").read_bytes())

    def test_config_with_a_byte_order_mark_runs_as_without(self, tmp_path):
        plain = _write_cfg(tmp_path, FAST_CFG + "seed = 3\n")
        marked = tmp_path / "bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + (FAST_CFG + "seed = 3\n").encode())
        assert cli.main(["run", "--config", plain, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", "--config", str(marked), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "run.csv").read_bytes()
                == (tmp_path / "b" / "run.csv").read_bytes())

    def test_flag_overrides(self, tmp_path):
        cfg = _write_cfg(tmp_path, FAST_CFG)
        rc = cli.main(["run", "--config", cfg, "--system", "sys3", "--ibo", "1.0",
                       "--bbpf", "1.2", "--seed", "5", "--out", str(tmp_path / "o")])
        assert rc == 0
        row = (tmp_path / "o" / "run.csv").read_text().splitlines()[1]
        assert row.startswith("sys3,1,1.2,")

    def test_missing_config_exits_1_and_names_path(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "absent.cfg" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "bogus = 1\n")
        assert cli.main(["run", "--config", cfg]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_runtime_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic link failure")

        monkeypatch.setattr(pipeline, "run_link", boom)
        cfg = _write_cfg(tmp_path, FAST_CFG)
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "synthetic link failure" in capsys.readouterr().err


SWEEP_CFG = (FAST_CFG
             + "grid.ibo = 0.1, 1.0\n"
             + "grid.bbpf = 0.8, 0.9\n"
             + "grid.systems = sys2\n")


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfgfile = tmp / "exp.cfg"
    cfgfile.write_text(SWEEP_CFG)
    out = tmp / "out"
    rc = cli.main(["sweep", "--config", str(cfgfile), "--jobs", "1",
                   "--out", str(out)])
    assert rc == 0
    return out


class TestSweep:
    def test_grid_csv_sorted_and_complete(self, sweep_dir):
        lines = (sweep_dir / "grid.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 grid
        keys = [tuple(l.split(",")[:3]) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_failures_log_exists_and_empty(self, sweep_dir):
        assert (sweep_dir / "failures.log").read_text() == ""

    def test_curve_files(self, sweep_dir):
        headers = {
            "fig4.csv": "system,b_bpf_over_b,ibo,r_over_b",
            "fig5.csv": "system,b_bpf_over_b,ibo,p_pa_over_p_t,b_pa_over_b",
            "fig6.csv": "system,b_bpf_over_b,ibo,fom_norm",
            "fig7.csv": "system,ibo,b_bpf_over_b,fom_norm",
            "fig8.csv": "system,b_bpf_over_b,fom_norm",
        }
        for name, header in headers.items():
            lines = (sweep_dir / name).read_text().splitlines()
            assert lines[0] == header, name
            assert len(lines) > 1, name
        # fig8 keeps only the back-off closest to 0.1
        assert len((sweep_dir / "fig8.csv").read_text().splitlines()) == 3

    def test_argmax_summary_printed(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(SWEEP_CFG)
        rc = cli.main(["sweep", "--config", str(cfgfile), "--jobs", "1",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "argmax sys2:" in out
        assert "ibo_opt=" in out and "bbpf_opt=" in out

    def test_reports_the_workers_started(self, tmp_path, capsys, fake_pool):
        fake_pool(2)
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(SWEEP_CFG)
        rc = cli.main(["sweep", "--config", str(cfgfile), "--jobs", "64",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "(4 ok, 0 failed) with jobs=2\n" in capsys.readouterr().out

    def test_run_at_the_sweep_seed_reproduces_every_row(self, tmp_path):
        cfg = _write_cfg(tmp_path, FAST_CFG + "grid.ibo = 0.1, 1\ngrid.bbpf = 0.8, 1.2\n"
                         + "grid.systems = sys1, sys2, sys3\n")
        assert cli.main(["sweep", "--config", cfg, "--seed", "7", "--jobs", "1",
                         "--out", str(tmp_path / "s")]) == 0
        rows = (tmp_path / "s" / "grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 12
        for k, row in enumerate(rows):
            system, ibo, bbpf = row.split(",")[:3]
            out = tmp_path / f"r{k}"
            assert cli.main(["run", "--config", cfg, "--seed", "7", "--system", system,
                             "--ibo", ibo, "--bbpf", bbpf, "--out", str(out)]) == 0
            assert (out / "run.csv").read_text().splitlines()[1] == row

    def test_range_of_tiny_back_offs_runs_like_its_list(self, tmp_path, capsys):
        outputs = []
        for name, ibo in (("range", "1e-11:1e-11:3e-11"), ("list", "1e-11, 2e-11, 3e-11")):
            cfg = _write_cfg(tmp_path, FAST_CFG + f"grid.ibo = {ibo}\ngrid.bbpf = 0.9\n"
                             + "grid.systems = sys2\n", name=f"{name}.cfg")
            assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                             "--out", str(tmp_path / name)]) == 0
            out = capsys.readouterr().out.replace(str(tmp_path / name), "OUT")
            outputs.append((out, (tmp_path / name / "grid.csv").read_text()))
        assert outputs[0] == outputs[1]
        assert "(3 ok, 0 failed)" in outputs[0][0]

    def test_system_flag_restricts(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(FAST_CFG + "grid.ibo = 0.1\ngrid.bbpf = 0.9\n")
        rc = cli.main(["sweep", "--config", str(cfgfile), "--system", "sys3",
                       "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "grid.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("sys3,")


class TestBadInput:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        cfg = _write_cfg(tmp_path, FAST_CFG + "grid.ibo = 0.1\ngrid.bbpf = 0.9\n")
        rc = cli.main(["sweep", "--config", cfg, "--jobs", jobs, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("width", ["0", "-1"])
    def test_run_bandpass_width_not_positive_exits_1(self, tmp_path, capsys, width):
        rc = cli.main(["run", "--bbpf", width, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"bandpass width must be positive, got {width} B" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ibo", ["1e-160", "1e-162"])
    def test_run_back_off_below_the_float_range_exits_1(self, tmp_path, capsys, ibo):
        # At r_load 1 both power factors are ibo^2 below ibo 1, so under 1e-150
        # they fall below the 1e-300 floor that keeps eta_p (as ibo^-2) in range.
        rc = cli.main(["run", "--ibo", ibo, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"ibo={float(ibo):g} and r_load=1 put the power factors" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("r_load", ["1e306", "1e-320"])
    def test_run_load_outside_the_float_range_exits_1(self, tmp_path, capsys, r_load):
        # Both power factors go as min(ibo, 1)^2 / r_load: at 1e306 eta_p would
        # overflow, at 1e-320 the factors do.
        cfg = _write_cfg(tmp_path, FAST_CFG + f"pa.r_load = {r_load}\n")
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"ibo=0.1 and r_load={float(r_load):g} put the power factors" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_back_off_below_the_float_range_is_a_failed_sweep_point(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, FAST_CFG + "grid.ibo = 1e-160, 0.1\ngrid.bbpf = 0.9\n"
                         + "grid.systems = sys2\n")
        assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                         "--out", str(tmp_path / "o")]) == 0
        assert "(1 ok, 1 failed)" in capsys.readouterr().out
        failures = (tmp_path / "o" / "failures.log").read_text().splitlines()
        assert failures == ["sys2,1e-160,0.9,ConfigurationError: ibo=1e-160 and r_load=1 put "
                            "the power factors 9.99989e-321 (p_pa) and 9.99989e-321 (p_t) "
                            "outside [1e-300, 1e+300]"]

    def test_key_set_twice_exits_1(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, FAST_CFG + "seed = 1\nseed = 5\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "'seed' is already set on line 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--ibo", "--bbpf"])
    def test_run_non_finite_flag_exits_1(self, tmp_path, capsys, flag):
        rc = cli.main(["run", flag, "nan", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and flag in err
        assert "'nan' is not a finite number" in err

    # A malformed flag is a configuration error like a malformed key, not an
    # argparse usage exit (2, which the CLI reserves for runtime failures).
    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "abc"], ["run", "--system", "sys9"],
        ["sweep", "--jobs", "abc"], ["run", "--no-such-flag"], ["run", "--bbpf", "abc"],
    ], ids=["seed", "system", "jobs", "unknown", "bbpf"])
    def test_malformed_flag_exits_1(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and argv[1] in err
        assert "finite_float" not in err
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_non_finite_config_value_exits_1(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "channel.sinr_db = nan\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "channel.sinr_db" in capsys.readouterr().err

    def test_repeated_system_exits_1_without_output(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, FAST_CFG + "grid.ibo = 0.1\ngrid.bbpf = 0.9\n"
                         + "grid.systems = sys2, sys2\n")
        rc = cli.main(["sweep", "--config", cfg, "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "repeated" in capsys.readouterr().err
        assert not (tmp_path / "o" / "grid.csv").exists()

    def test_oversized_frame_exits_1_before_allocating(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "system.n_symbols = 1000000000\n")
        t0 = time.perf_counter()
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert time.perf_counter() - t0 < 1.0
        assert "frame limit" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["system.adc_sps", "system.rrc_sps", "system.mi_bins"])
    def test_removed_converter_rate_keys_exit_1(self, tmp_path, capsys, key):
        # The converter rate is the RRC's samples per symbol and the MI bins are
        # the variant's; neither has a config key.
        cfg = _write_cfg(tmp_path, FAST_CFG + f"{key} = 4\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err
        assert not (tmp_path / "o").exists()

    # -3200: 10^-320 is positive and finite, but the noise ratio
    # 1 / (3 * 10^-320) overflows.
    @pytest.mark.parametrize("sinr_db", ["4000", "-4000", "-3200"])
    def test_sinr_without_finite_linear_value_exits_1(self, tmp_path, capsys, sinr_db):
        cfg = _write_cfg(tmp_path, FAST_CFG + f"channel.sinr_db = {sinr_db}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "sinr_db" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("how", ["flag", "key"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, how):
        cfg = _write_cfg(tmp_path, FAST_CFG + ("seed = -1\n" if how == "key" else ""))
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "o")]
        assert cli.main(argv + (["--seed", "-1"] if how == "flag" else [])) == 1
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # Without the bound, an order of 100000 spends minutes in the filter design.
    @pytest.mark.parametrize("key", ["system.lpf_order", "pa.bpf_order"])
    def test_filter_order_above_bound_exits_1(self, tmp_path, capsys, key):
        cfg = _write_cfg(tmp_path, FAST_CFG + f"{key} = 100000\n")
        t0 = time.perf_counter()
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - t0 < 5.0
        assert "butterworth order must lie in [1, 16], got 100000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # The window of 40 - 2 * 8 = 24 symbols cannot hold one 32-symbol PSD segment.
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_window_shorter_than_psd_segment_exits_1(self, tmp_path, capsys, command):
        cfg = _write_cfg(tmp_path, "system.n_symbols = 40\nsystem.rrc_span = 8\n")
        t0 = time.perf_counter()
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert time.perf_counter() - t0 < 1.0
        assert "PSD segment" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # An empty directory name is not "unset": it exits 1 before any work and
    # writes nothing, not even into the default directory.
    @pytest.mark.parametrize("argv", [
        ["run", "--out", ""], ["sweep", "--jobs", "1", "--out", ""], ["amam", "--out", ""],
        ["run", "--config", "empty_out.cfg"],
    ], ids=["run", "sweep", "amam", "key"])
    def test_empty_output_directory_exits_1_without_output(self, tmp_path, monkeypatch,
                                                           capsys, argv):
        monkeypatch.chdir(tmp_path)
        _write_cfg(tmp_path, FAST_CFG + "out =\n", name="empty_out.cfg")
        t0 = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "configuration error" in err and "output directory must not be empty" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty_out.cfg"]

    def test_config_file_not_in_utf8_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(FAST_CFG.encode() + "# r\xe9glage\n".encode("latin-1"))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "cannot read config file" in err
        assert "latin1.cfg" in err
        assert not (tmp_path / "o").exists()

    def test_comment_after_value_exits_1_without_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = _write_cfg(tmp_path, FAST_CFG + "out = res  # note\n")
        assert cli.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "comment must be on its own line" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    # A --out that cannot be a directory exits 1 before any point is evaluated.
    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--jobs", "1"], ["amam"]],
                             ids=["run", "sweep", "amam"])
    def test_output_path_naming_a_file_exits_1_before_any_work(self, tmp_path, monkeypatch,
                                                               capsys, argv):
        calls = []
        monkeypatch.setattr(pipeline, "run_link", lambda *a, **k: calls.append(a))
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        cfg = _write_cfg(tmp_path, SWEEP_CFG)
        config = [] if argv[0] == "amam" else ["--config", cfg]
        assert cli.main(argv + config + ["--out", str(taken)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert calls == []
        assert taken.read_text() == "not a directory\n"

    def test_bandpass_above_nyquist_exits_1(self, tmp_path, capsys):
        # Carrier 50 B at 128 samples per symbol: a 30 B bandpass ends at 65 B > 64 B.
        cfg = _write_cfg(tmp_path, FAST_CFG + "system.fc_multiple = 50\n")
        assert cli.main(["run", "--config", cfg, "--bbpf", "30",
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "Nyquist" in err
        assert not (tmp_path / "o").exists()

    def test_carrier_inside_signal_band_exits_1(self, tmp_path, capsys):
        # Carrier 0.5 B below the signal bandwidth (1 + roll-off) B = 1.5 B.
        cfg = _write_cfg(tmp_path, FAST_CFG + "system.fc_multiple = 0.5\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "carrier" in err
        assert not (tmp_path / "o").exists()

    def test_bandpass_above_nyquist_is_a_failed_sweep_point(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, FAST_CFG + "system.fc_multiple = 50\ngrid.ibo = 0.1\n"
                         + "grid.bbpf = 0.9, 30\ngrid.systems = sys2\n")
        assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                         "--out", str(tmp_path / "o")]) == 0
        assert "(1 ok, 1 failed)" in capsys.readouterr().out
        failures = (tmp_path / "o" / "failures.log").read_text().splitlines()
        assert len(failures) == 1
        assert failures[0].startswith("sys2,0.1,30,ConfigurationError:")
        assert "Nyquist" in failures[0]

    def test_bandpass_of_twice_the_carrier_names_its_width(self, tmp_path, capsys):
        # 60 B around the 30 B carrier reaches 0 Hz; the sweep point fails with the same reason.
        cfg = _write_cfg(tmp_path, FAST_CFG + "grid.ibo = 0.1\ngrid.bbpf = 0.9, 60\n"
                         + "grid.systems = sys2\n")
        assert cli.main(["run", "--config", cfg, "--bbpf", "60",
                         "--out", str(tmp_path / "r")]) == 1
        reason = "bandpass of 60 B around the carrier 30"
        assert reason in capsys.readouterr().err
        assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                         "--out", str(tmp_path / "s")]) == 0
        failures = (tmp_path / "s" / "failures.log").read_text().splitlines()
        assert len(failures) == 1 and reason in failures[0]

    # The clipper's 3rd harmonic folds onto the carrier: 3 x 32 B = 96 B at 128
    # samples per symbol, and 3 x 30 B = 90 B at 120. The signal band fails at
    # config time, before any output.
    @pytest.mark.parametrize("setting,image", [("system.fc_multiple = 32", "fold to 32"),
                                               ("system.analog_sps = 120", "fold to 30")])
    def test_harmonic_folded_onto_the_carrier_exits_1(self, tmp_path, capsys, setting, image):
        cfg = _write_cfg(tmp_path, f"system.n_symbols = 4000\n{setting}\n")
        assert cli.main(["run", "--config", cfg, "--system", "sys1", "--ibo", "1",
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "configuration error: signal band" in err and "harmonic 3" in err and image in err
        assert not (tmp_path / "o").exists()

    def test_bandpass_holding_a_folded_harmonic_names_it(self, tmp_path, capsys):
        # 59.9 B around the 30 B carrier reaches 38 B, where 128 samples per
        # symbol fold the 3rd harmonic (90 B); the sweep point fails the same way.
        cfg = _write_cfg(tmp_path, "system.n_symbols = 600\npa.bpf_order = 12\n"
                         + "grid.ibo = 0.0316\ngrid.bbpf = 0.9, 59.9\ngrid.systems = sys2\n")
        assert cli.main(["run", "--config", cfg, "--ibo", "0.0316", "--bbpf", "59.9",
                         "--out", str(tmp_path / "r")]) == 1
        reason = "bandpass of 59.9 B around the carrier 30 takes in the clipper's harmonic 3"
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                         "--out", str(tmp_path / "s")]) == 0
        failures = (tmp_path / "s" / "failures.log").read_text().splitlines()
        assert len(failures) == 1
        assert failures[0].startswith("sys2,0.0316,59.9,ConfigurationError:")
        assert reason in failures[0]

    # A bandpass whose delay at the carrier, 1 / (pi W sin(pi / 2N)) symbols,
    # passes 0.65 x the 16-symbol rrc span puts the correlation peak past the
    # alignment window: unchecked, order 16 at 0.2 B fails in align and order 8
    # at 0.05 B runs misaligned (MI below 0.01); 1e-14 B at this carrier is
    # also an unstable design. Run exits 1, and a sweep point at that width fails.
    @pytest.mark.parametrize("setting,width,delay", [
        ("system.n_symbols = 2000\npa.bpf_order = 16", "0.2", "16.2"),
        ("system.n_symbols = 2000\npa.bpf_order = 8", "0.05", "32.6"),
        ("system.n_symbols = 600\nsystem.fc_multiple = 15.594269566389382", "1e-14", "8.32e+13"),
    ], ids=["order16", "order8", "1e-14"])
    def test_bandpass_delay_past_the_alignment_window_exits_1(self, tmp_path, capsys, setting,
                                                              width, delay):
        cfg = _write_cfg(tmp_path, f"{setting}\ngrid.ibo = 0.1\ngrid.bbpf = {width}, 0.9\n"
                         + "grid.systems = sys2\n")
        assert cli.main(["run", "--config", cfg, "--bbpf", width,
                         "--out", str(tmp_path / "r")]) == 1
        reason = f"bandpass of {width} B at order"
        err = capsys.readouterr().err
        assert reason in err and f"delays the carrier {delay} symbols" in err
        assert not (tmp_path / "r" / "run.csv").exists()
        assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                         "--out", str(tmp_path / "s")]) == 0
        failures = (tmp_path / "s" / "failures.log").read_text().splitlines()
        assert len(failures) == 1
        assert failures[0].startswith(f"sys2,0.1,{width},ConfigurationError: {reason}")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_power_ratio_above_the_float_range_exits_1(self, tmp_path, capsys, command):
        # p_pa / p_t = max(ibo, 1) mean|y| / mean(y^2): at ibo 1e308 the ratio
        # max(ibo, 1) leaves the range although both power factors are in it.
        cfg = _write_cfg(tmp_path, "system.n_symbols = 600\npa.ibo = 1e308\n"
                         + "pa.r_load = 1e9\npa.bbpf_over_b = 0.9\n"
                         + "grid.ibo = 1e308\ngrid.bbpf = 0.9\ngrid.systems = sys2\n")
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        assert cli.main(argv + (["--jobs", "1"] if command == "sweep" else [])) == 1
        assert "ibo=1e+308 puts the power factors' ratio max(ibo, 1) above 1e+300" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_every_point_failed_names_the_first_reason(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, FAST_CFG + "grid.ibo = 0.1\ngrid.bbpf = 61, 70\n"
                         + "grid.systems = sys2\n")
        assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "every grid point of sys2 failed" in err
        assert "first: ibo 0.1, b_bpf 61" in err and "Nyquist" in err
        # the files are written before the exit
        out = tmp_path / "o"
        assert len((out / "failures.log").read_text().splitlines()) == 2
        assert (out / "grid.csv").read_text().splitlines() == [cli.CSV_HEADER]
        assert all((out / f"fig{k}.csv").exists() for k in range(4, 9))

    def test_grid_above_the_point_bound_exits_1_before_any_work(self, tmp_path, monkeypatch,
                                                               capsys):
        # grid_search builds the task list and starts the pool; neither may run
        calls = []
        monkeypatch.setattr(optimizer, "grid_search", lambda *a, **k: calls.append("grid"))
        monkeypatch.setattr(pipeline, "run_link", lambda *a, **k: calls.append("link"))
        # each range is within its own cap; 2 x 10000 x 1 points are not
        cfg = _write_cfg(tmp_path, FAST_CFG + "grid.ibo = 0.001:0.001:10\ngrid.bbpf = 0.9\n"
                         + "grid.systems = sys1, sys2\n")
        rc = cli.main(["sweep", "--config", cfg, "--jobs", "2", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "20000 points" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_oversized_range_exits_1_quickly(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "grid.bbpf = 0.4:1e-12:2.0\n")
        t0 = time.perf_counter()
        rc = cli.main(["sweep", "--config", cfg, "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert time.perf_counter() - t0 < 1.0
        assert "grid.bbpf" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,reason", [
        ("grid.ibo = 1:2", "range form is lo:step:hi"),
        ("grid.bbpf = 2:0.1:1", "range needs step > 0 and hi >= lo"),
        ("grid.bbpf = 0.4:0:2", "range needs step > 0 and hi >= lo"),
    ])
    def test_malformed_range_exits_1_without_output(self, tmp_path, monkeypatch, capsys,
                                                    setting, reason):
        monkeypatch.chdir(tmp_path)
        cfg = _write_cfg(tmp_path, FAST_CFG + setting + "\n")
        assert cli.main(["sweep", "--config", cfg, "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and reason in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_bandpass_too_narrow_for_two_edges_exits_1(self, tmp_path, capsys):
        # 1e-320 B is positive, but fc -+ 0.5e-320 round to the same edge.
        rc = cli.main(["run", "--bbpf", "1e-320", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "cutoff_low < cutoff_high" in err
        assert not (tmp_path / "o").exists()

    def test_configuration_error_mid_run_exits_1(self, tmp_path, monkeypatch, capsys,
                                                 clear_run_caches):
        # Only the design finds an unstable bandpass; run_link passes its
        # ConfigurationError through, and the output directory is not created.
        # The caches are cleared first, so the bandpass is designed, not read
        # from the design cache.
        def unstable_bandpass(spec, fs, _fn=dsp.design_butterworth):
            if spec.cutoff_low is not None:
                raise ConfigurationError("unstable butterworth design: synthetic")
            return _fn(spec, fs)

        monkeypatch.setattr(dsp, "design_butterworth", unstable_bandpass)
        clear_run_caches()
        cfg = _write_cfg(tmp_path, FAST_CFG)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "unstable butterworth design: synthetic" in err
        assert not (tmp_path / "o").exists()

    def test_delay_on_the_last_alignment_lag_exits_1(self, tmp_path, capsys):
        # The delay rule counts the bandpass only, so two order-16 lowpasses
        # at a span of 8 put this link's delay on align's last lag. run exits
        # 1 without a directory; a sweep logs the point and runs the next width.
        cfg = _write_cfg(tmp_path, (
            "system.variant = sys3\nsystem.n_symbols = 300\nsystem.analog_sps = 64\n"
            "system.fc_multiple = 8\nsystem.rrc_rolloff = 1\nsystem.rrc_span = 8\n"
            "system.lpf_order = 16\npa.bpf_order = 5\npa.ibo = 1\n"
            "pa.bbpf_over_b = 0.30078125\nchannel.sinr_db = 60\n"
            "grid.ibo = 1\ngrid.bbpf = 0.30078125, 0.9\ngrid.systems = sys3\n"))
        assert cli.main(["run", "--config", cfg, "--seed", "0", "--out", str(tmp_path / "r")]) == 1
        reason = "the link's delay reaches the last lag 32 of the alignment window"
        err = capsys.readouterr().err
        assert "configuration error" in err and reason in err and "system.rrc_span" in err
        assert not (tmp_path / "r").exists()
        assert cli.main(["sweep", "--config", cfg, "--seed", "0", "--jobs", "1",
                         "--out", str(tmp_path / "s")]) == 0
        failures = (tmp_path / "s" / "failures.log").read_text().splitlines()
        assert len(failures) == 1
        assert failures[0].startswith(f"sys3,1,0.300781,ConfigurationError: {reason}")


class TestAmam:
    def test_curve_file(self, tmp_path):
        rc = cli.main(["amam", "--out", str(tmp_path / "a")])
        assert rc == 0
        lines = (tmp_path / "a" / "fig3.csv").read_text().splitlines()
        assert lines[0] == "a_over_vsat,f_over_vsat"
        assert len(lines) == 201
        a, f = np.loadtxt(lines[1:], delimiter=",", unpack=True)
        assert np.isclose(a[0], 0.01) and np.isclose(a[-1], 10.0)
        # linear through the origin region, then saturation toward 4/pi
        assert np.isclose(f[0], a[0], rtol=1e-6)
        assert np.all(np.diff(f) >= -1e-12)
        assert f[-1] <= 4.0 / np.pi
        assert f[-1] > 0.99 * 4.0 / np.pi
