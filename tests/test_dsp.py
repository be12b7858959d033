import tracemalloc

import numpy as np
import pytest
from reference_link import align_loop
from scipy import signal as sig

from onebitlink import dsp
from onebitlink.dsp import (AlignmentAmbiguityWarning, ButterworthSpec, RrcSpec,
                            align, design_butterworth, design_rrc, downconvert,
                            fir_filter, iir_filter, upconvert,
                            upsample_zero_insert, zoh_hold)
from onebitlink.errors import ConfigurationError


def _freqz_sos(sos, f, fs):
    _, h = sig.sosfreqz(sos, worN=[2 * np.pi * f / fs])
    return np.abs(h[0])


# The unfused mixers, the references for the block-rate kernels: each
# computes the closed-form carrier product on the whole frame.
def _mix_up(x_bb, fc, fs):
    if fs <= 2.0 * fc:
        raise ConfigurationError(f"sample rate {fs} cannot carry fc={fc} (needs fs > 2 fc)")
    x_bb = np.asarray(x_bb)
    return np.real(x_bb * np.exp(2j * np.pi * fc * np.arange(len(x_bb)) / fs))


def _mix_down(x_p, fc, fs):
    x_p = np.asarray(x_p)
    return 2.0 * x_p * np.conj(np.exp(2j * np.pi * fc * np.arange(len(x_p)) / fs))


def _rrc_loop(spec):
    """The closed form one tap at a time, the reference for design_rrc's array form."""
    rho, sps = spec.roll_off, spec.samples_per_symbol
    half = spec.span * sps // 2
    h = np.zeros(2 * half + 1)
    for i, n in enumerate(range(-half, half + 1)):
        t = n / sps
        if abs(t) < 1e-12:
            h[i] = 1.0 - rho + 4.0 * rho / np.pi
        elif rho > 0 and abs(abs(4.0 * rho * t) - 1.0) < 1e-9:
            h[i] = (rho / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * rho))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * rho)))
        else:
            num = np.sin(np.pi * t * (1.0 - rho)) + 4.0 * rho * t * np.cos(np.pi * t * (1.0 + rho))
            h[i] = num / (np.pi * t * (1.0 - (4.0 * rho * t) ** 2))
    return h / np.sqrt(np.sum(h * h))


class TestRrc:
    # Roll-off 0.25, 0.5 and 1 put taps on |4 rho t| = 1 at these rates.
    @pytest.mark.parametrize("sps", [4, 8])
    @pytest.mark.parametrize("span", [8, 16, 17])
    @pytest.mark.parametrize("roll_off", [0.0, 0.25, 0.5, 1.0])
    def test_matches_the_tap_by_tap_closed_form(self, roll_off, span, sps):
        spec = RrcSpec(roll_off=roll_off, span=span, samples_per_symbol=sps)
        np.testing.assert_array_equal(design_rrc(spec), _rrc_loop(spec))

    def test_unit_energy(self):
        taps = design_rrc(RrcSpec())
        assert np.isclose(np.sum(taps ** 2), 1.0, rtol=1e-12)

    def test_length_and_symmetry(self):
        spec = RrcSpec(roll_off=0.5, span=16, samples_per_symbol=4)
        taps = design_rrc(spec)
        assert len(taps) == 16 * 4 + 1
        np.testing.assert_allclose(taps, taps[::-1], rtol=0, atol=1e-15)

    def test_cascade_is_nyquist(self):
        # matched-filter cascade sampled at the symbol spacing: the center tap
        # carries the energy, every other symbol-spaced tap is near zero
        spec = RrcSpec()
        taps = design_rrc(spec)
        rc = np.convolve(taps, taps)
        center = len(rc) // 2
        sym = rc[center::spec.samples_per_symbol]
        assert np.isclose(sym[0], 1.0, rtol=1e-6)
        assert np.max(np.abs(sym[1:])) < 1e-2 * sym[0]

    def test_rolloff_zero_is_sinc(self):
        taps = design_rrc(RrcSpec(roll_off=0.0, span=16, samples_per_symbol=4))
        assert np.isfinite(taps).all()
        assert taps[len(taps) // 2] == np.max(taps)

    @pytest.mark.parametrize("kwargs", [
        dict(roll_off=-0.1), dict(roll_off=1.5), dict(span=4),
        dict(samples_per_symbol=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RrcSpec(**kwargs)


class TestButterworth:
    def test_lowpass_skirt_anchor(self):
        # order-4 magnitude at twice the cutoff: 1/(1 + 2^8) of the power
        sos = design_butterworth(ButterworthSpec(order=4, cutoff_high=1.0), fs=128.0)
        mag2 = _freqz_sos(sos, 2.0, 128.0) ** 2
        # digital design tracks the analog magnitude to well under 1% here
        assert np.isclose(mag2, 1.0 / 257.0, rtol=0.01)

    def test_lowpass_pole_count(self):
        sos = design_butterworth(ButterworthSpec(order=4, cutoff_high=1.0), fs=128.0)
        assert sos.shape[0] == 2  # 4 poles, two biquads

    def test_bandpass_pole_count(self):
        spec = ButterworthSpec(order=4, cutoff_low=29.55, cutoff_high=30.45)
        sos = design_butterworth(spec, fs=128.0)
        assert sos.shape[0] == 4  # prototype order 4 doubles to 8 poles

    def test_bandpass_response(self):
        spec = ButterworthSpec(order=4, cutoff_low=29.55, cutoff_high=30.45)
        sos = design_butterworth(spec, fs=128.0)
        assert np.isclose(_freqz_sos(sos, 30.0, 128.0), 1.0, atol=5e-3)
        for edge in (29.55, 30.45):
            assert np.isclose(_freqz_sos(sos, edge, 128.0), np.sqrt(0.5), atol=2e-2)

    def test_unstable_design_raises(self):
        # A 1e-14 B bandpass at this carrier puts a pole on the unit circle,
        # which only the design itself can find.
        fc, half = 15.594269566389382, 0.5e-14
        spec = ButterworthSpec(order=4, cutoff_low=fc - half, cutoff_high=fc + half)
        with pytest.raises(ConfigurationError, match="unstable butterworth design"):
            design_butterworth(spec, fs=128.0)

    def test_rejects_cutoff_at_nyquist(self):
        # scipy's own check; SystemConfig.require_band keeps the link below it
        with pytest.raises(ValueError):
            design_butterworth(ButterworthSpec(order=4, cutoff_high=64.0), fs=128.0)

    # The spec checks no edge's sign: bpf_spec_for and SystemConfig.require_band
    # keep the link's edges inside (0, fs/2), and scipy rejects a direct call's.
    @pytest.mark.parametrize("edges", [dict(cutoff_high=0.0), dict(cutoff_high=-1.0),
                                       dict(cutoff_low=0.0, cutoff_high=1.0),
                                       dict(cutoff_low=-1.0, cutoff_high=1.0)])
    def test_rejects_an_edge_at_or_below_zero(self, edges):
        with pytest.raises(ValueError, match="critical frequencies must be greater than 0"):
            design_butterworth(ButterworthSpec(order=4, **edges), fs=128.0)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ButterworthSpec(order=0)
        with pytest.raises(ConfigurationError):
            ButterworthSpec(order=dsp.MAX_BUTTERWORTH_ORDER + 1)
        with pytest.raises(ConfigurationError):
            ButterworthSpec(cutoff_low=2.0, cutoff_high=1.0)


class TestFilters:
    def test_fir_filter_is_delay_compensated(self):
        # For odd taps and len(x) >= len(taps) this is numpy's "same"
        # convolution bit for bit.
        rng = np.random.default_rng(5)
        for n_x, n_taps in [(3, 3), (200, 65), (1000, 129)]:
            x = rng.standard_normal(n_x) + 1j * rng.standard_normal(n_x)
            taps = rng.standard_normal(n_taps)
            same = np.convolve(x, taps, mode="same")
            assert np.array_equal(fir_filter(x, taps).view(np.uint64), same.view(np.uint64))
        # A shorter x still gets len(x) samples, from the delay (4 for 9 taps) on.
        x = np.zeros(5)
        x[0] = 1.0
        taps = np.arange(1.0, 10.0)
        np.testing.assert_array_equal(fir_filter(x, taps), taps[4:9])

    def test_fir_filter_empty_taps(self):
        with pytest.raises(ValueError):
            fir_filter(np.ones(4), np.array([]))

    def test_iir_matches_sosfilt(self):
        sos = design_butterworth(ButterworthSpec(), fs=128.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256)
        np.testing.assert_allclose(iir_filter(x, sos), sig.sosfilt(sos, x))


class TestRateChanges:
    def test_zero_insert(self):
        y = upsample_zero_insert(np.array([1.0 + 1j, -2.0]), 4)
        np.testing.assert_allclose(y, [1 + 1j, 0, 0, 0, -2, 0, 0, 0])

    def test_zoh(self):
        np.testing.assert_allclose(zoh_hold(np.array([1.0, 2.0]), 3),
                                   [1, 1, 1, 2, 2, 2])

    @pytest.mark.parametrize("hold", [0, -1])
    def test_zoh_rejects_a_hold_below_one(self, hold):
        # np.repeat would return an empty frame for 0 and raise its own error for -1.
        with pytest.raises(ValueError, match=f"hold factor must be >= 1, got {hold}"):
            zoh_hold(np.array([1.0, 2.0]), hold)


class TestBlockRateLowpass:
    """upconvert and downconvert, the look-ahead kernels with the carrier folded
    in, reproduce the reference mixers and sosfilt to within 1e-10 of the output RMS.

    The frames stay short: the references' carrier exp(j 2 pi fc k / fs) loses
    phase accuracy as k grows, and the bound is meant for the kernels.
    """

    FC, FS = 30.0, 128.0
    # The paper frame: 10^4 symbols at 128 samples per symbol. Mixing a
    # complex frame, as the reference mixers do, peaks at 3-6 real frames.
    PAPER_FRAME = 10_000 * 128

    @staticmethod
    def _signal(n, complex_input, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        return x + 1j * rng.standard_normal(n) if complex_input else x

    @staticmethod
    def _assert_close(got, ref):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.sqrt(np.mean(np.abs(ref) ** 2))

    def _assert_transmit(self, u, hold, sos, fc, fs):
        self._assert_close(upconvert(u, sos, hold, fc, fs),
                           _mix_up(sig.sosfilt(sos, zoh_hold(u, hold)), fc, fs))

    def _assert_receive(self, x, sos, step, fc, fs):
        self._assert_close(downconvert(x, sos, step, fc, fs),
                           sig.sosfilt(sos, _mix_down(x, fc, fs))[::step])

    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("hold", [1, 4, 32, 128])
    @pytest.mark.parametrize("order", [1, 4, 5, 16])
    def test_held_matches_sosfilt_of_the_held_frame(self, order, hold, complex_input):
        sos = design_butterworth(ButterworthSpec(order=order), fs=self.FS)
        u = self._signal(257, complex_input, seed=order * hold)
        self._assert_transmit(u, hold, sos, self.FC, self.FS)

    # "real" feeds a white real frame, "complex" the passband of a complex
    # baseband frame, the receiver's own kind of input. A frame one sample
    # off whole blocks fails numpy's reshape (unless step is 1); its whole
    # blocks match.
    @pytest.mark.parametrize("extra", [0, 1, -1], ids=["whole", "plus1", "minus1"])
    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("step", [1, 4, 32, 128])
    @pytest.mark.parametrize("order", [1, 4, 5, 16])
    def test_decimated_matches_sosfilt_then_every_step(self, order, step, complex_input, extra):
        sos = design_butterworth(ButterworthSpec(order=order), fs=self.FS)
        x = self._signal(200 * step + extra, complex_input, seed=order * step)
        if complex_input:
            x = _mix_up(x, self.FC, self.FS)
        whole = len(x) - len(x) % step
        if whole < len(x):
            with pytest.raises(ValueError, match="cannot reshape"):
                downconvert(x, sos, step, self.FC, self.FS)
        self._assert_receive(x[:whole], sos, step, self.FC, self.FS)

    def test_other_analog_rate(self):
        # 256 samples per symbol: the transmit hold and receive step are 64.
        sos = design_butterworth(ButterworthSpec(order=4), fs=256.0)
        self._assert_transmit(self._signal(500, True, seed=3), 64, sos, self.FC, 256.0)
        self._assert_receive(self._signal(500 * 64, False, seed=4), sos, 64, self.FC, 256.0)

    def test_block_carrier_off_the_real_axis(self):
        # fc * factor / fs = 1.73 turns: the block phasor w is not +-1.
        sos = design_butterworth(ButterworthSpec(order=4), fs=100.0)
        self._assert_transmit(self._signal(300, True, seed=5), 10, sos, 17.3, 100.0)
        self._assert_receive(self._signal(3000, False, seed=6), sos, 10, 17.3, 100.0)

    def test_blocked_product_tiles_every_dimension(self, monkeypatch):
        # A budget of 7 multiply-adds splits rows, columns and the inner sum.
        monkeypatch.setattr(dsp, "_BLAS_BLOCK", 7)
        a = self._signal(5 * 13, False, seed=1).reshape(5, 13)
        b = self._signal(13 * 4, False, seed=2).reshape(13, 4)
        np.testing.assert_allclose(dsp._matmul(a, b), a @ b, rtol=1e-13, atol=1e-13)

    @staticmethod
    def _traced_peak(kernel, *args):
        tracemalloc.start()
        try:
            kernel(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("hold", [32, 128])
    def test_transmit_peak_is_about_its_real_output(self, hold):
        sos = design_butterworth(ButterworthSpec(), fs=self.FS)
        u = self._signal(self.PAPER_FRAME // hold, True, seed=7)
        peak = self._traced_peak(upconvert, u, sos, hold, self.FC, self.FS)
        frame = 8 * self.PAPER_FRAME
        assert peak <= 1.5 * frame, f"peak {peak / frame:.2f} real frames"

    def test_receive_peak_stays_below_one_frame(self):
        sos = design_butterworth(ButterworthSpec(), fs=self.FS)
        x = self._signal(self.PAPER_FRAME, False, seed=8)
        peak = self._traced_peak(downconvert, x, sos, 32, self.FC, self.FS)
        frame = 8 * self.PAPER_FRAME
        assert peak <= 0.6 * frame, f"peak {peak / frame:.2f} real frames"


class TestAlign:
    # (rx_soft dtype, stride, delay, len(rx_soft) as a multiple of len(tx) * stride, plus extra)
    @pytest.mark.parametrize("kind,stride,delay,frames,extra", [
        ("complex", 4, 27, 1, 0),   # the link's layout, len(rx_soft) = len(tx) * stride
        ("complex", 4, 13, 1, 3),   # a partial last block
        ("real", 3, 20, 1, 2),
        ("complex", 1, 5, 1, 0),
        ("complex", 3, 25, 0.5, 1),  # rx_soft ends first: every lag has its own pair count
        ("real", 4, 9, 2, 0),       # rx runs well past the lag window
    ])
    def test_matches_the_lag_by_lag_search(self, kind, stride, delay, frames, extra):
        rng = np.random.default_rng(delay)
        n = 300
        if kind == "real":
            tx, gain = rng.choice([-1.0, 1.0], size=n), 0.7
        else:
            tx = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=n) / np.sqrt(2)
            gain = 0.7 * np.exp(1j * np.pi / 7)
        rx = 0.1 * rng.standard_normal(int(frames * n * stride) + extra).astype(tx.dtype)
        k = len(rx[delay::stride][:n])
        rx[delay::stride][:k] += gain * tx[:k]
        got = align(tx, rx, trim=10, stride=stride)
        expected = align_loop(tx, rx, trim=10, stride=stride)
        assert got[0] == expected[0] == delay
        assert got[1] == expected[1]
        np.testing.assert_array_equal(got[2], expected[2])
        np.testing.assert_array_equal(got[3], expected[3])

    def test_ambiguity_matches_the_lag_by_lag_search(self):
        # Lag 37 has 388 pairs to lag 7's 398: only per-lag pair counts put its
        # metric (0.995 of lag 7's) within 1% of the peak.
        rng = np.random.default_rng(9)
        tx = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=400) / np.sqrt(2)
        rx = np.zeros(3 * 400, dtype=complex)
        rx[7::3] += tx[:398]
        rx[37::3] += 0.995 * tx[:388]
        with pytest.warns(AlignmentAmbiguityWarning, match=r"lags \[7, 37\]"):
            got = align(tx, rx, trim=16, stride=3)
        expected = align_loop(tx, rx, trim=16, stride=3)
        assert got[0] == expected[0] == 7
        assert got[1] == expected[1]
        np.testing.assert_array_equal(got[3], expected[3])

    def test_pairing_stops_at_the_end_of_rx(self):
        rng = np.random.default_rng(2)
        tx = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=60) / np.sqrt(2)
        # rx[5 + 4n] = 2 tx[n] ends after n = 49, before tx does
        rx = np.zeros(5 + 4 * 49 + 1, dtype=complex)
        rx[5::4] = 2.0 * tx[:50]
        lag, c, t, r = align(tx, rx, trim=2, stride=4)
        assert lag == 5
        assert np.isclose(c, 0.5, atol=1e-12)
        # the 50 pairs less 2 symbols at each end
        np.testing.assert_array_equal(t, tx[2:48])
        np.testing.assert_allclose(r, tx[2:48], atol=1e-12)

    def test_integer_delay(self):
        rng = np.random.default_rng(3)
        tx = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=200) / np.sqrt(2)
        rx = np.concatenate([np.zeros(7, dtype=complex), tx])
        lag, c, _, _ = align(tx, rx, trim=8, stride=1)
        assert lag == 7
        assert np.isclose(c, 1.0, atol=1e-12)

    def test_rotation_only(self):
        rng = np.random.default_rng(4)
        tx = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=200) / np.sqrt(2)
        lag, c, _, _ = align(tx, 1j * tx, trim=4, stride=1)
        assert lag == 0
        assert np.isclose(c, -1j, atol=1e-12)

    def test_gain_rotation_delay(self):
        rng = np.random.default_rng(5)
        tx = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=300) / np.sqrt(2)
        rx = 0.5 * np.exp(1j * np.pi / 5) * np.concatenate(
            [np.zeros(3, dtype=complex), tx])
        lag, c, t, r = align(tx, rx, trim=4, stride=1)
        assert lag == 3
        assert abs(c - 2.0 * np.exp(-1j * np.pi / 5)) < 1e-3
        np.testing.assert_allclose(r, t, atol=1e-3)

    def test_ambiguity_warns_and_takes_smaller_lag(self):
        rng = np.random.default_rng(6)
        tx = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=400) / np.sqrt(2)
        rx = np.zeros(420, dtype=complex)
        rx[3:3 + 400] += tx
        rx[4:4 + 400] += 0.999 * tx
        with pytest.warns(AlignmentAmbiguityWarning):
            lag, _, _, _ = align(tx, rx, trim=8, stride=1)
        assert lag == 3

    def test_peak_on_the_last_lag_raises(self):
        # The true delay might lie past the window, so no lag is returned.
        rng = np.random.default_rng(7)
        tx = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=200) / np.sqrt(2)
        rx = np.concatenate([np.zeros(7, dtype=complex), tx])
        with pytest.raises(ValueError, match="last lag 7"):
            align(tx, rx, trim=7, stride=1)

    def test_no_overlap(self):
        with pytest.raises(ValueError):
            align(np.ones(4, dtype=complex), np.zeros(4, dtype=complex),
                  trim=2, stride=1)
