import numpy as np
import pytest

from onebitlink.channel import ChannelConfig, add_awgn
from onebitlink.errors import ConfigurationError
from onebitlink.pa import PaConfig
from onebitlink.pipeline import SystemConfig, bpf_spec_for, run_link


def test_default_calibration_is_p_t_over_30():
    # alpha=1, 10 dB target, interference booked at twice the noise power:
    # sigma_n^2 = p_t / ((1+2) * 10)
    cfg = ChannelConfig()
    assert np.isclose(cfg.alpha * 0.6 * cfg.noise_ratio(), 0.02)


def test_calibration_scales():
    cfg = ChannelConfig(alpha=2.0, sinr_db=0.0, interference_ratio=0.0)
    assert np.isclose(cfg.alpha * 0.5 * cfg.noise_ratio(), 1.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChannelConfig(alpha=0.0)
    with pytest.raises(ConfigurationError):
        ChannelConfig(interference_ratio=-0.5)
    # Settings whose noise ratio 1 / ((1 + ratio) 10^(sinr_db/10)) leaves its
    # range, or overflows to inf or to 0.
    for kwargs in (dict(sinr_db=-3200.0), dict(sinr_db=-2950.0), dict(sinr_db=4000.0),
                   dict(interference_ratio=1e308)):
        with pytest.raises(ConfigurationError, match="noise ratio"):
            ChannelConfig(**kwargs)
    # The path gain enters no arithmetic, so no size of it overflows a run.
    sys_cfg = SystemConfig(n_symbols=600)
    m = run_link(sys_cfg, PaConfig(bpf=bpf_spec_for(0.9, sys_cfg, 4)),
                 ChannelConfig(alpha=1e308, sinr_db=-10.0))
    assert np.isfinite(m.fom_normalized)


def test_zero_noise_is_identity():
    x = np.arange(16.0)
    y = add_awgn(x, 0.0, b=1.0, fs=128.0, rng=0)
    np.testing.assert_array_equal(y, x)


def test_negative_noise_power_rejected():
    # Its root would be nan: the waveform would come back all nan.
    with pytest.raises(ValueError, match="noise power must be nonnegative, got -0.1"):
        add_awgn(np.zeros(16), -0.1, b=1.0, fs=128.0, rng=0)


def test_per_sample_variance():
    rng = np.random.default_rng(11)
    y = add_awgn(np.zeros(200000), sigma_n2=0.02, b=1.0, fs=128.0, rng=rng)
    assert np.isrealobj(y)
    assert np.isclose(np.var(y), 0.02 * 64.0, rtol=0.02)


def test_seed_reproducibility():
    x = np.zeros(64)
    y1 = add_awgn(x, 0.1, b=1.0, fs=128.0, rng=42)
    y2 = add_awgn(x, 0.1, b=1.0, fs=128.0, rng=42)
    np.testing.assert_array_equal(y1, y2)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        add_awgn(np.zeros(4), -1e-9, b=1.0, fs=128.0, rng=0)
