import re

import numpy as np
import pytest
from scipy import signal as sig

from onebitlink.dsp import ButterworthSpec, design_butterworth
from onebitlink.errors import ConfigurationError
from onebitlink.pa import (_BLOCK, HARMONIC_BOUND, PaConfig, am_am_curve,
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
    y = clip(x.copy(), 0.7)
    assert np.max(np.abs(y)) <= 0.7
    inside = np.abs(x) <= 0.7
    np.testing.assert_allclose(y[inside], x[inside])


@pytest.mark.parametrize("v_sat", [0.0, -0.7])
def test_clip_rejects_a_saturation_level_not_above_zero(v_sat):
    # np.clip would return a zero frame for 0, and a frame of -v_sat for v_sat < 0.
    x = np.array([0.5, -2.0])
    with pytest.raises(ValueError, match=f"v_sat must be positive, got {v_sat}"):
        clip(x, v_sat)
    assert np.array_equal(x, [0.5, -2.0])


def test_clip_and_bandpass_work_in_place():
    x = 3.0 * np.random.default_rng(3).standard_normal(1000)
    sos = design_butterworth(ButterworthSpec(order=4, cutoff_low=29.55, cutoff_high=30.45),
                             fs=128.0)
    assert clip(x, 0.7) is x and np.max(np.abs(x)) <= 0.7
    assert bandpass_reconstruct(x, sos) is x


@pytest.mark.parametrize("order", [4, 16])
def test_blockwise_bandpass_has_the_bits_of_one_sosfilt_call(order):
    # Two whole blocks and a partial one: the section state crosses each seam.
    x = np.random.default_rng(order).standard_normal(2 * _BLOCK + 12345)
    sos = design_butterworth(ButterworthSpec(order=order, cutoff_low=29.55,
                                             cutoff_high=30.45), fs=128.0)
    expected = sig.sosfilt(sos, x)
    assert np.array_equal(bandpass_reconstruct(x, sos), expected)


@pytest.mark.parametrize("n", [_BLOCK + 1, 3 * _BLOCK + 13, 1275904])
def test_blockwise_powers_match_whole_frame_means(n):
    y = np.random.default_rng(n).standard_normal(n + 5)[5:]
    window = slice(1000, n - 999)
    np.testing.assert_allclose(pa_power(y, window), np.mean(np.abs(y[window])),
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(transmit_power(y, window), np.mean(y[window] * y[window]),
                               rtol=1e-13, atol=0)


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


def test_first_harmonic_of_a_sign_flipped_or_zero_tone():
    # A tone of amplitude -a is the same tone half a period later: the same f(a).
    amps = np.array([0.5, 2.0])
    assert np.array_equal(am_am_curve(1.0, -amps), am_am_curve(1.0, amps))
    assert am_am_curve(1.0, np.array([0.0]))[0] == 0.0


def test_pa_power_of_sinusoid():
    # mean rectified sinusoid is (2/pi) A, so p_pa = v_sat * (2/pi) A
    n = 4096 * 8
    y_p = 0.3 * np.cos(2 * np.pi * np.arange(n) / 4096.0)
    bpf = ButterworthSpec(order=4, cutoff_low=29.55, cutoff_high=30.45)
    s, f_pa, _ = PaConfig(bpf=bpf, ibo=0.5).power_factors()
    assert np.isclose(f_pa * pa_power(y_p / s, window=slice(None)),
                      0.5 * TWO_OVER_PI * 0.3, rtol=1e-5)


def test_transmit_power_mean_product():
    y = np.array([1.0, -1.0, 2.0])
    i = y / 2.0  # load current into 2 ohms
    bpf = ButterworthSpec(order=4, cutoff_low=29.55, cutoff_high=30.45)
    _, _, f_t = PaConfig(bpf=bpf, ibo=2.0, r_load=2.0).power_factors()
    assert np.isclose(f_t * transmit_power(y, slice(None)), np.mean(i * y))


def test_powers_are_unit_load_values_over_r_load():
    bpf = ButterworthSpec(order=4, cutoff_low=29.55, cutoff_high=30.45)
    for ibo, s in ((0.3, 0.3), (1.0, 1.0), (4.0, 1.0)):
        assert PaConfig(bpf=bpf, ibo=ibo).power_factors() == (s, ibo * s, s * s)
        for r_load in (0.5, 50.0):
            _, f_pa, f_t = PaConfig(bpf=bpf, ibo=ibo, r_load=r_load).power_factors()
            assert np.isclose(f_pa, ibo * s / r_load, rtol=1e-15)
            assert np.isclose(f_t, s * s / r_load, rtol=1e-15)


def test_clipped_sine_chain_respects_harmonic_bound():
    # full stage on a pure tone: clip, bandpass, both powers, bound holds
    fs, fc = 128.0, 30.0
    n = 8192
    x = np.sqrt(2.0) * np.cos(2 * np.pi * fc * np.arange(n) / fs)  # unit RMS
    v_sat = 0.1 * np.sqrt(np.mean(np.square(x)))  # back-off 0.1
    v_t = clip(x, v_sat)
    sos = design_butterworth(ButterworthSpec(order=4, cutoff_low=fc - 0.45,
                                             cutoff_high=fc + 0.45), fs=fs)
    y_p = bandpass_reconstruct(v_t, sos)
    settle = slice(2048, n)
    p_pa = v_sat * pa_power(y_p, settle)
    p_t = transmit_power(y_p, settle)
    assert p_t <= HARMONIC_BOUND * p_pa * (1 + 1e-9)
    # hard-driven tone: fundamental amplitude approaches (4/pi) v_sat
    amp = np.sqrt(2.0 * p_t)
    assert np.isclose(amp, HARMONIC_BOUND * v_sat, rtol=0.02)


def test_pa_config_validation():
    bpf = ButterworthSpec(order=4, cutoff_low=29.55, cutoff_high=30.45)
    with pytest.raises(ConfigurationError):
        PaConfig(bpf=bpf, ibo=0.0)
    # At r_load 1 the factors' floor 1e-300 is the back-off floor 1e-150.
    with pytest.raises(ConfigurationError, match=re.escape("ibo=5e-151 and r_load=1 put")):
        PaConfig(bpf=bpf, ibo=0.5e-150)
    assert PaConfig(bpf=bpf, ibo=1e-150).ibo == 1e-150
    with pytest.raises(ConfigurationError):
        PaConfig(bpf=bpf, r_load=-1.0)
    for r_load in (1e306, 1e-320):
        with pytest.raises(ConfigurationError, match=re.escape(f"ibo=0.1 and r_load={r_load:g}")):
            PaConfig(bpf=bpf, ibo=0.1, r_load=r_load)
    # The floor is on ibo^2 / r_load, so the smallest back-off rises with the load.
    for r_load, smallest in ((1e-3, 1e-150), (1.0, 1e-150), (1e3, 1e-148)):
        for ibo in (smallest, 0.1, 10.0):
            assert PaConfig(bpf=bpf, ibo=ibo, r_load=r_load).r_load == r_load
    with pytest.raises(ConfigurationError, match="power factors"):
        PaConfig(bpf=bpf, ibo=1e-150, r_load=1e3)
    # p_pa / p_t goes as f_pa / f_t = max(ibo, 1), which the same ceiling bounds.
    assert PaConfig(bpf=bpf, ibo=1e300, r_load=1e9).ibo == 1e300
    with pytest.raises(ConfigurationError, match=re.escape("ratio max(ibo, 1) above 1e+300")):
        PaConfig(bpf=bpf, ibo=1.01e300, r_load=1e9)
    with pytest.raises(ConfigurationError, match="must be a bandpass design"):
        PaConfig(bpf=ButterworthSpec(order=4, cutoff_high=1.0))
