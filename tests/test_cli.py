import time

import numpy as np
import pytest

from onebitlink import cli, pipeline

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

    # -3200: 10^-320 is positive and finite, but the noise calibration
    # factor alpha / (3 * 10^-320) overflows.
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

    # The window (40 - 2 * 8) * 128 = 3072 samples cannot hold one PSD segment.
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

    def test_oversized_range_exits_1_quickly(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "grid.bbpf = 0.4:1e-12:2.0\n")
        t0 = time.perf_counter()
        rc = cli.main(["sweep", "--config", cfg, "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert time.perf_counter() - t0 < 1.0
        assert "grid.bbpf" in capsys.readouterr().err


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
