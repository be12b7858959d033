import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import signal as sig

from onebitlink.metrics import (PSD_SEGMENT_SYMBOLS, LinkMetrics, PsdEstimate,
                                mutual_information, occupied_bandwidth,
                                plugin_mi_bias, welch_psd)

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

# 2*(1 - h2(0.1)) bits: QPSK with each rail flipped independently at p=0.1
BSC_MI = 1.0620088128214376


def _symbols(n, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(QPSK, size=n)


class TestMutualInformation:
    def test_noiseless_identity_reaches_two_bits(self):
        tx = _symbols(50000, 0)
        for bins in (2, 8):
            mi = mutual_information(tx, tx, bins_per_dim=bins)
            assert abs(mi - 2.0) < 0.01

    def test_bsc_oracle(self):
        rng = np.random.default_rng(1)
        tx = _symbols(200000, 2)
        flip_re = rng.random(len(tx)) < 0.1
        flip_im = rng.random(len(tx)) < 0.1
        rx = np.where(flip_re, -tx.real, tx.real) + 1j * np.where(flip_im, -tx.imag, tx.imag)
        mi = mutual_information(tx, rx, bins_per_dim=2)
        assert abs(mi - BSC_MI) < 0.03

    def test_independent_streams_carry_no_information(self):
        tx = _symbols(100000, 3)
        rx = _symbols(100000, 4)
        assert mutual_information(tx, rx, bins_per_dim=2) < 0.001

    def test_range_and_bias_behavior(self):
        tx = _symbols(3000, 5)
        rng = np.random.default_rng(6)
        rx = tx + 0.5 * (rng.standard_normal(len(tx)) + 1j * rng.standard_normal(len(tx)))
        mi = mutual_information(tx, rx, bins_per_dim=8)
        assert 0.0 <= mi <= 2.0

    @pytest.mark.parametrize("bins", [2, 8])
    @pytest.mark.parametrize("level", [0.0, 0.5 - 0.25j])
    def test_constant_receive_stream_carries_no_information(self, bins, level):
        # A zero spread would put every value at +-inf or nan in the bins; a
        # constant stream falls in one cell instead.
        tx = _symbols(1000, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert mutual_information(tx, np.full(len(tx), level, dtype=complex), bins) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mutual_information(QPSK[:0], QPSK[:0], 8)
        with pytest.raises(ValueError):
            mutual_information(QPSK, QPSK[:2], 8)


def test_plugin_bias_formula():
    # (4 * bins^2 - 1) / (2 n ln 2)
    assert np.isclose(plugin_mi_bias(8, 10000), 255.0 / (20000.0 * np.log(2.0)))
    assert np.isclose(plugin_mi_bias(2, 10000), 15.0 / (20000.0 * np.log(2.0)))


# The Welch segment in samples at 128 samples per symbol: 32 x 128 = 4096.
PSD_SEGMENT_LEN = PSD_SEGMENT_SYMBOLS * 128


class TestPsd:
    def test_parseval(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(131072)
        psd = welch_psd(x, fs=128.0)
        assert np.isclose(psd.total_power, np.mean(x ** 2), rtol=0.01)

    def test_tone_frequency(self):
        fs = 128.0
        t = np.arange(65536) / fs
        x = np.cos(2 * np.pi * 30.0 * t)
        psd = welch_psd(x, fs=fs)
        assert np.isclose(psd.freqs[np.argmax(psd.values)], 30.0, atol=0.05)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.zeros(PSD_SEGMENT_LEN - 1), fs=128.0)

    # Paper frame's metrics window: (10 000 - 2 * 16 trimmed symbols) * 128 samples.
    PAPER_WINDOW = 1_275_904

    @pytest.mark.parametrize("n", [PSD_SEGMENT_LEN, PSD_SEGMENT_LEN + 1,
                                   3 * PSD_SEGMENT_LEN // 2 - 1, 3 * PSD_SEGMENT_LEN // 2,
                                   10_000, PAPER_WINDOW])
    def test_matches_scipy_welch(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + np.cos(2 * np.pi * 30.0 * np.arange(n) / 128.0)
        freqs, values = sig.welch(x, 128.0, "hann", nperseg=PSD_SEGMENT_LEN,
                                  noverlap=PSD_SEGMENT_LEN // 2, detrend=False,
                                  scaling="density")
        psd = welch_psd(x, fs=128.0)
        np.testing.assert_array_equal(psd.freqs, freqs)
        np.testing.assert_allclose(psd.values, values, rtol=1e-12, atol=0.0)
        assert np.isclose(psd.total_power, np.sum(values) * (freqs[1] - freqs[0]),
                          rtol=1e-12, atol=0.0)

    # 32 symbols at any rate: 2048, 8192 and (odd) 4095 samples, whose last
    # bin is not at Nyquist and is doubled like the others.
    @pytest.mark.parametrize("fs", [64.0, 256.0, 127.97])
    def test_segment_is_32_symbols_at_any_rate(self, fs):
        seg = round(PSD_SEGMENT_SYMBOLS * fs)
        n = 5 * seg + 17
        x = np.random.default_rng(3).standard_normal(n)
        freqs, values = sig.welch(x, fs, "hann", nperseg=seg, noverlap=seg // 2,
                                  detrend=False, scaling="density")
        psd = welch_psd(x, fs=fs)
        assert np.isclose(psd.freqs[1], 1.0 / PSD_SEGMENT_SYMBOLS, rtol=1e-3)
        np.testing.assert_array_equal(psd.freqs, freqs)
        np.testing.assert_allclose(psd.values, values, rtol=1e-12, atol=0.0)

    def test_paper_frame_peak_memory(self):
        # The segments are a strided view, transformed a block at a time: no
        # copy of the frame and no all-segment spectrogram.
        x = np.random.default_rng(8).standard_normal(self.PAPER_WINDOW)
        tracemalloc.start()
        try:
            welch_psd(x, fs=128.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


class TestOccupiedBandwidth:
    def test_rectangular_spectrum(self):
        # flat band of width 2 centered on fc: the 93.75% occupied width is
        # 0.9375 * 2 by construction
        freqs = np.linspace(0.0, 64.0, 65536)
        values = np.where(np.abs(freqs - 30.0) <= 1.0, 1.0, 0.0)
        total = np.trapezoid(values, freqs)
        psd = PsdEstimate(freqs=freqs, values=values, total_power=total)
        width = occupied_bandwidth(psd, fc=30.0)
        assert np.isclose(width, 0.9375 * 2.0, rtol=1e-3)

    def test_width_holds_the_target_power_exactly(self):
        # The band power of the bin-wise integral, interpolated at the band
        # edges, reaches 93.75% of the total at the returned width, not before.
        freqs = np.linspace(0.0, 64.0, 2049)
        values = np.random.default_rng(3).random(len(freqs)) * np.exp(-np.abs(freqs - 30.0))
        df = freqs[1] - freqs[0]
        psd = PsdEstimate(freqs=freqs, values=values, total_power=float(np.sum(values) * df))
        edges = np.concatenate([[0.0], freqs[1:] - df / 2.0, [freqs[-1] + df / 2.0]])
        cum = np.concatenate([[0.0], np.cumsum(values) * df])

        def band_power(width):
            return np.interp(30.0 + width / 2, edges, cum) - np.interp(30.0 - width / 2, edges, cum)

        width = occupied_bandwidth(psd, fc=30.0)
        assert band_power(width) == pytest.approx(0.9375 * psd.total_power, rel=1e-12)
        assert band_power(width * (1.0 - 1e-9)) < 0.9375 * psd.total_power

    def test_zero_power_psd_rejected(self):
        freqs = np.linspace(0.0, 64.0, 1024)
        psd = PsdEstimate(freqs=freqs, values=np.zeros_like(freqs), total_power=0.0)
        with pytest.raises(ValueError, match="zero-power PSD is undefined"):
            occupied_bandwidth(psd, fc=30.0)

    def test_carrier_outside_psd_rejected(self):
        freqs = np.linspace(0.0, 64.0, 1024)
        psd = PsdEstimate(freqs=freqs, values=np.ones_like(freqs), total_power=64.0)
        with pytest.raises(ValueError):
            occupied_bandwidth(psd, fc=200.0)


class TestEfficiencies:
    """LinkMetrics.from_measurements, the one place the efficiencies and the FOM are computed."""

    def test_values_and_fom(self):
        m = LinkMetrics.from_measurements(mi=2.0, rate_r=2.0, b_pa=1.0, p_pa=0.5, p_t=0.5,
                                          noise_ratio=0.02)
        assert np.isclose(m.eta_p, 4.0)
        assert np.isclose(m.eta_b, 2.0)
        assert np.isclose(m.fom, 8.0)
        assert np.isclose(m.fom_normalized, 0.08)

    def test_rejects_nonpositive_denominators(self):
        with pytest.raises(ValueError, match="p_pa must be positive"):
            LinkMetrics.from_measurements(1.0, 1.0, 1.0, 0.0, 0.0, 0.01)
        with pytest.raises(ValueError, match="b_pa must be positive"):
            LinkMetrics.from_measurements(1.0, 1.0, -1.0, 1.0, 1.0, 0.01)


def _link_metrics(**changes):
    fields = dict(mi=1.5, rate_r=1.5, b_pa=1.0, p_pa=1.0, p_t=1.0,
                  eta_p=1.5, eta_b=1.5, fom=2.25, fom_normalized=0.1)
    fields.update(changes)
    return LinkMetrics(**fields)


def test_link_metrics_mi_range_guard():
    with pytest.raises(ValueError):
        _link_metrics(mi=2.5, rate_r=2.5)


def test_link_metrics_power_invariants():
    # p_t above the clipped-harmonic bound (4/pi) p_pa, and a negative power
    with pytest.raises(ValueError, match="harmonic bound"):
        _link_metrics(p_pa=1.0, p_t=1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        _link_metrics(p_pa=-0.1, p_t=0.0)
    _link_metrics(p_pa=1.0, p_t=4.0 / np.pi)  # the bound itself is allowed


@pytest.mark.parametrize("name", ["mi", "rate_r", "b_pa", "p_pa", "p_t", "eta_p",
                                  "eta_b", "fom", "fom_normalized"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_link_metrics_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="non-finite"):
        _link_metrics(**{name: value})
