"""The link in its plainest form: a reference for run_link.

Every step is the textbook operation on the whole analog-rate frame, with no
cache, block-rate kernel, blocked sum or in-place buffer. The transmit half:
zero insertion and an `np.convolve` RRC, the 1-bit DAC, an `np.repeat` hold,
a `sosfilt` lowpass, an explicit `np.exp` mixer, the RMS scaling over the
measurement window, `np.clip`, a `sosfilt` bandpass and the two power means.
b_pa is read, as in the chain, from the bandpass's |H|^2 times a Welch PSD of
the clipped drive, here `scipy.signal.welch`'s. The receive half, without
noise: an explicit `np.exp` mix-down, a `sosfilt` lowpass, every step-th
sample, the 1-bit ADC, an `np.convolve` matched filter, the lag-by-lag search
align_loop and the MI. From the package it takes only the filter designs, the
measurement window, the power factors and, for b_pa and the MI,
`metrics.filtered_psd`, `metrics.occupied_bandwidth` and
`metrics.mutual_information`.
"""

import numpy as np
from scipy import signal as sig

from onebitlink import dsp, metrics

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
RAIL = 1.0 / np.sqrt(2.0)


def _one_bit(x):
    """The converters' rule: RAIL times the sign of each rail, sign(0) := +1.

    The RRC's zero crossings, which np.convolve leaves as +-3e-17, are 0: a
    rail within 16 eps of the peak counts as 0.
    """
    zero = 16.0 * np.finfo(np.float64).eps * np.max(np.abs(x))
    return RAIL * (np.where(x.real >= -zero, 1.0, -1.0) + 1j * np.where(x.imag >= -zero, 1.0, -1.0))


def _rrc(x, taps):
    """x through the RRC taps, less the taps' group delay: len(x) samples."""
    delay = (len(taps) - 1) // 2
    return np.convolve(x, taps)[delay:delay + len(x)]


def transmit(sys_cfg, pa_cfg):
    """(symbols, y, (p_pa, p_t, b_pa)) of the operating point (sys_cfg, pa_cfg),
    computed directly: y is the whole bandpass output frame."""
    fs, fc, window = sys_cfg.fs(), sys_cfg.fc(), sys_cfg.window
    n_frame = sys_cfg.n_symbols * sys_cfg.analog_sps
    # run_link's seed rule: the symbols come from the first child of SeedSequence(seed).
    rng = np.random.default_rng(np.random.SeedSequence(sys_cfg.seed).spawn(2)[0])
    symbols = x = QPSK[rng.integers(0, 4, sys_cfg.n_symbols)]
    if sys_cfg.shaped:
        up = np.zeros(sys_cfg.n_symbols * sys_cfg.adc_sps, dtype=complex)
        up[::sys_cfg.adc_sps] = x
        x = _rrc(up, dsp.design_rrc(sys_cfg.rrc))
    if sys_cfg.one_bit:
        x = _one_bit(x)
    held = np.repeat(x, n_frame // len(x))
    baseband = sig.sosfilt(dsp.design_butterworth(sys_cfg.lpf, fs), held)
    drive = (baseband * np.exp(2j * np.pi * fc * np.arange(n_frame) / fs)).real

    s, f_pa, f_t = pa_cfg.power_factors()
    drive = drive / (np.sqrt(np.mean(drive[window] ** 2)) * s)
    v = np.clip(drive, -pa_cfg.ibo / s, pa_cfg.ibo / s)
    bpf_sos = dsp.design_butterworth(pa_cfg.bpf, fs)
    y = sig.sosfilt(bpf_sos, v)
    p_pa = f_pa * np.mean(np.abs(y[window]))
    p_t = f_t * np.mean(y[window] ** 2)

    seg = round(metrics.PSD_SEGMENT_SYMBOLS * fs)
    freqs, values = sig.welch(v[window], fs=fs, window="hann", nperseg=seg,
                              noverlap=seg // 2, detrend=False)
    drive_psd = metrics.PsdEstimate(freqs, values, float(np.sum(values) * (freqs[1] - freqs[0])))
    b_pa = metrics.occupied_bandwidth(metrics.filtered_psd(drive_psd, bpf_sos, fs), fc)
    return symbols, y, (p_pa, p_t, b_pa)


def adc_input(sys_cfg, y):
    """The ADC's input without noise: 2 y exp(-j 2 pi fc n / fs) through the
    lowpass, every step-th sample."""
    fs, step = sys_cfg.fs(), sys_cfg.analog_sps // sys_cfg.adc_sps
    mixed = 2.0 * y * np.exp(-2j * np.pi * sys_cfg.fc() * np.arange(len(y)) / fs)
    return sig.sosfilt(dsp.design_butterworth(sys_cfg.lpf, fs), mixed)[::step].copy()


def near_zero(r):
    """The rails of r within 1e-9 of 0, as indices into r.view(np.float64): the
    1-bit ADC's decisions that rounding may take either way."""
    return np.flatnonzero(np.abs(r.view(np.float64)) <= 1e-9)


def detect(sys_cfg, symbols, r, flip=()):
    """(lag, mi) from the ADC input r: the 1-bit ADC, if the variant has one,
    with the rails `flip` (near_zero's indices) decided the other way; the
    matched filter; align_loop over the trimmed lag window; the MI."""
    if sys_cfg.one_bit:
        r = _one_bit(r)
        r.view(np.float64)[np.asarray(flip, dtype=int)] *= -1.0
    rx = _rrc(r, dsp.design_rrc(sys_cfg.rrc))
    lag, _, tx_kept, rx_kept = align_loop(symbols, rx, sys_cfg.rrc.span, sys_cfg.adc_sps)
    return lag, metrics.mutual_information(tx_kept, rx_kept, sys_cfg.mi_bins)


def align_loop(tx, rx_soft, trim, stride):
    """dsp.align's lag search one np.vdot per lag, without its warning or its
    last-lag check: (lag, c, tx_kept, rx_kept)."""
    metric = np.full(trim * stride + 1, -1.0)
    for lag in range(len(metric)):
        r = rx_soft[lag::stride][:len(tx)]
        if len(r):
            metric[lag] = np.abs(np.vdot(tx[:len(r)], r)) / len(r)
    lag = int(np.flatnonzero(metric >= 0.99 * metric.max()).min())
    r = rx_soft[lag::stride][:len(tx)]
    t = tx[:len(r)]
    c = np.vdot(r, t) / np.vdot(r, r)
    return lag, c, t[trim:len(t) - trim], c * r[trim:len(t) - trim]
