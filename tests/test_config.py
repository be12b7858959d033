import os

import numpy as np
import pytest

from onebitlink.config import ExperimentConfig, load_config, parse_config_text
from onebitlink.errors import ConfigurationError


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.variant == "sys2"
    assert cfg.ibo == 0.1
    assert cfg.bbpf_over_b == 0.9
    assert cfg.seed == 1
    assert cfg.grid_ibo == (0.0316, 0.1, 1.0, 10.0)
    assert len(cfg.grid_bbpf) == 17
    assert np.isclose(cfg.grid_bbpf[0], 0.4) and np.isclose(cfg.grid_bbpf[-1], 2.0)
    assert cfg.grid_systems == ("sys1", "sys2", "sys3")


def test_parse_overrides():
    text = """
    # experiment
    seed = 9
    out = alt_results

    system.variant = sys3
    system.n_symbols = 5000
    pa.ibo = 0.5
    pa.bbpf_over_b = 1.2
    channel.sinr_db = 6.0
    """
    cfg = parse_config_text(text)
    assert cfg.seed == 9
    assert cfg.out_dir == "alt_results"
    assert cfg.variant == "sys3"
    assert cfg.system_config().n_symbols == 5000
    assert cfg.ibo == 0.5
    assert cfg.bbpf_over_b == 1.2
    assert cfg.channel_config().sinr_db == 6.0


def test_parse_grid_lists_and_ranges():
    cfg = parse_config_text("grid.ibo = 0.1, 1\ngrid.bbpf = 0.8:0.1:1.0\n"
                            "grid.systems = sys2, sys3\n")
    assert cfg.grid_ibo == (0.1, 1.0)
    np.testing.assert_allclose(cfg.grid_bbpf, (0.8, 0.9, 1.0))
    assert cfg.grid_systems == ("sys2", "sys3")


def test_range_is_inclusive_of_endpoint():
    cfg = parse_config_text("grid.bbpf = 0.4:0.2:2.0\n")
    np.testing.assert_allclose(cfg.grid_bbpf, np.arange(0.4, 2.01, 0.2))


def test_range_of_tiny_values_keeps_them_apart():
    cfg = parse_config_text("grid.ibo = 1e-11:1e-11:3e-11\n")
    assert cfg.grid_ibo == (1e-11, 2e-11, 3e-11)


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config_text("seed = 1\nnot.a.key = 3\n")


def test_key_set_twice_rejected_with_both_line_numbers():
    with pytest.raises(ConfigurationError, match="line 3: key 'seed' is already set on line 1"):
        parse_config_text("seed = 1\n# later\nseed = 5\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigurationError, match="system.n_symbols"):
        parse_config_text("system.n_symbols = many\n")


@pytest.mark.parametrize("line", ["out = res  # note", "seed = 3 #", "pa.ibo = #0.1"])
def test_comment_after_value_rejected_with_line_number(line):
    with pytest.raises(ConfigurationError,
                       match="line 2: a comment must be on its own line"):
        parse_config_text(f"# a comment line is fine\n{line}\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigurationError):
        parse_config_text("seed 1\n")


def test_load_config_missing_file_names_path():
    with pytest.raises(ConfigurationError, match="no/such/file.cfg"):
        load_config("no/such/file.cfg")


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("pa.ibo = 2.5\n")
    assert load_config(str(p)).ibo == 2.5


def test_load_config_reads_past_a_byte_order_mark(tmp_path):
    # Some editors start a UTF-8 file with the mark EF BB BF; it is not part
    # of the first key.
    p = tmp_path / "bom.cfg"
    p.write_bytes(b"\xef\xbb\xbfseed = 3\n")
    assert load_config(str(p)).seed == 3


def test_builders_are_consistent():
    cfg = parse_config_text("pa.bbpf_over_b = 1.1\nsystem.variant = sys1\n")
    sys_cfg = cfg.system_config()
    assert sys_cfg.variant == "sys1"
    pa_cfg = cfg.pa_config()
    assert np.isclose(pa_cfg.bpf.cutoff_high - pa_cfg.bpf.cutoff_low, 1.1)
    assert np.isclose(0.5 * (pa_cfg.bpf.cutoff_high + pa_cfg.bpf.cutoff_low),
                      sys_cfg.fc())
    assert cfg.grid_spec().systems == ("sys1", "sys2", "sys3")
    cfg.grid_systems = ("sys2",)
    assert cfg.grid_spec().systems == ("sys2",)


def test_builder_width_override():
    cfg = ExperimentConfig()
    cfg.bbpf_over_b = 2.0
    pa_cfg = cfg.pa_config()
    assert np.isclose(pa_cfg.bpf.cutoff_high - pa_cfg.bpf.cutoff_low, 2.0)


def test_invalid_built_config_surfaces_as_configuration_error():
    cfg = parse_config_text("system.variant = sys2\nsystem.analog_sps = 127\n")
    with pytest.raises(ConfigurationError):
        cfg.system_config()


def test_default_range_text_gives_the_default_grid():
    cfg = parse_config_text("grid.bbpf = 0.4:0.1:2.0\n")
    assert cfg.grid_bbpf == ExperimentConfig().grid_bbpf
    assert len(cfg.grid_bbpf) == 17


@pytest.mark.parametrize("line", [
    "channel.sinr_db = nan",
    "pa.ibo = inf",
    "channel.alpha = -inf",
    "grid.ibo = 0.1, nan",
    "grid.bbpf = 0.4:nan:2.0",
])
def test_non_finite_value_rejected_with_key(line):
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigurationError, match=f"{key}.*not a finite number"):
        parse_config_text(line + "\n")


def test_range_with_too_many_values_rejected():
    with pytest.raises(ConfigurationError, match="grid.bbpf.*more than 10000 values"):
        parse_config_text("grid.bbpf = 0.4:1e-12:2.0\n")
    # the largest accepted range stays well inside the bound
    assert len(parse_config_text("grid.ibo = 1:1:9999\n").grid_ibo) == 9999


def test_readme_example_parses_to_the_owners_defaults():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    example = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg, default = parse_config_text(example), ExperimentConfig()
    for build in ("system_config", "pa_config", "channel_config", "grid_spec"):
        assert getattr(cfg, build)() == getattr(default, build)(), build
    assert (cfg.seed, cfg.out_dir) == (default.seed, default.out_dir)
