import numpy as np
import pytest

from onebitlink.dsp import ButterworthSpec, design_butterworth
from onebitlink.errors import ConfigurationError
from onebitlink.pa import (HARMONIC_BOUND, PaConfig, am_am_curve,
                           bandpass_reconstruct, clip, pa_power, transmit_power)

# first harmonic of a clipped unit cosine, (2/pi)(asin r + r sqrt(1-r^2))
FIRST_HARMONIC_AT_HALF = 0.6089977810442294
FIRST_HARMONIC_AT_DOUBLE = 1.2179955620884588
TWO_OVER_PI = 0.6366197723675814


def test_harmonic_bound_constant():
    assert np.isclose(HARMONIC_BOUND, 1.2732395447351628, rtol=0, atol=1e-15)


def test_clip_bound_is_exact():
    rng = np.random.default_rng(2)
    x = 3.0 * rng.standard_normal(10000)
    y = clip(x, 0.7)
    assert np.max(np.abs(y)) <= 0.7
    inside = np.abs(x) <= 0.7
    np.testing.assert_allclose(y[inside], x[inside])


def test_first_harmonic_oracle_values():
    np.testing.assert_allclose(am_am_curve(0.5, np.array([1.0]))[0],
                               FIRST_HARMONIC_AT_HALF, rtol=1e-5)
    np.testing.assert_allclose(am_am_curve(1.0, np.array([2.0]))[0],
                               FIRST_HARMONIC_AT_DOUBLE, rtol=1e-5)


def test_first_harmonic_linear_region():
    amps = np.array([0.2, 0.5, 0.99])
    np.testing.assert_allclose(am_am_curve(1.0, amps), amps, rtol=1e-6)


def test_first_harmonic_saturates_at_bound():
    deep = am_am_curve(1.0, np.array([1000.0]))[0]
    assert np.isclose(deep, HARMONIC_BOUND, rtol=1e-4)
    assert deep <= HARMONIC_BOUND


def test_pa_power_of_sinusoid():
    # mean rectified sinusoid is (2/pi) A, so p_pa = v_sat * (2/pi) A
    n = 4096 * 8
    y_p = 0.3 * np.cos(2 * np.pi * np.arange(n) / 4096.0)
    assert np.isclose(pa_power(y_p, v_sat=0.5, r_load=1.0, window=slice(None)),
                      0.5 * TWO_OVER_PI * 0.3, rtol=1e-5)


def test_transmit_power_mean_product():
    y = np.array([1.0, -1.0, 2.0])
    i = y / 2.0  # load current into 2 ohms
    assert np.isclose(transmit_power(y, 2.0, slice(None)), np.mean(i * y))


def test_powers_are_unit_load_values_over_r_load():
    rng = np.random.default_rng(6)
    y = rng.standard_normal(5000)
    window = slice(100, 4900)
    p_pa, p_t = pa_power(y, 0.3, 1.0, window), transmit_power(y, 1.0, window)
    assert p_pa == 0.3 * np.mean(np.abs(y[window]))
    assert p_t == np.mean(y[window] * y[window])
    for r_load in (0.5, 50.0):
        assert np.isclose(pa_power(y, 0.3, r_load, window), p_pa / r_load, rtol=1e-15)
        assert np.isclose(transmit_power(y, r_load, window), p_t / r_load, rtol=1e-15)


def test_clipped_sine_chain_respects_harmonic_bound():
    # full stage on a pure tone: clip, bandpass, both powers, bound holds
    fs, fc = 128.0, 30.0
    n = 8192
    x = np.sqrt(2.0) * np.cos(2 * np.pi * fc * np.arange(n) / fs)  # unit RMS
    v_sat = 0.1 * np.sqrt(np.mean(np.square(x)))  # back-off 0.1
    v_t = clip(x, v_sat)
    sos = design_butterworth(ButterworthSpec(order=4, kind="bandpass",
                                             cutoff_low=fc - 0.45,
                                             cutoff_high=fc + 0.45), fs=fs)
    y_p = bandpass_reconstruct(v_t, sos)
    settle = slice(2048, n)
    p_pa = pa_power(y_p, v_sat, 1.0, settle)
    p_t = transmit_power(y_p, 1.0, settle)
    assert p_t <= HARMONIC_BOUND * p_pa * (1 + 1e-9)
    # hard-driven tone: fundamental amplitude approaches (4/pi) v_sat
    amp = np.sqrt(2.0 * p_t)
    assert np.isclose(amp, HARMONIC_BOUND * v_sat, rtol=0.02)


def test_pa_config_validation():
    bpf = ButterworthSpec(order=4, kind="bandpass", cutoff_low=29.55, cutoff_high=30.45)
    with pytest.raises(ConfigurationError):
        PaConfig(bpf=bpf, ibo=0.0)
    with pytest.raises(ConfigurationError):
        PaConfig(bpf=bpf, r_load=-1.0)
    with pytest.raises(ConfigurationError):
        PaConfig(bpf=ButterworthSpec(order=4, kind="lowpass", cutoff_high=1.0))
