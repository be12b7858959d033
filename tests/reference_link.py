"""The link's transmit half in its plainest form: a reference for run_link.

Every step is the textbook operation on the whole analog-rate frame, with no
cache, block-rate kernel, blocked sum or in-place buffer: zero insertion and
an `np.convolve` RRC, the 1-bit DAC, an `np.repeat` hold, a `sosfilt` lowpass,
an explicit `np.exp` mixer, the RMS scaling over the measurement window,
`np.clip`, a `sosfilt` bandpass and the two power means. b_pa is read, as in
the chain, from the bandpass's |H|^2 times a Welch PSD of the clipped drive,
here `scipy.signal.welch`'s. From the package it takes only the filter
designs, the measurement window, the power factors and, for b_pa,
`metrics.filtered_psd` and `metrics.occupied_bandwidth`.
"""

import numpy as np
from scipy import signal as sig

from onebitlink import dsp, metrics

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
RAIL = 1.0 / np.sqrt(2.0)


def transmit(sys_cfg, pa_cfg):
    """(p_pa, p_t, b_pa) of the operating point (sys_cfg, pa_cfg), computed directly."""
    fs, fc, window = sys_cfg.fs(), sys_cfg.fc(), sys_cfg.window
    n_frame = sys_cfg.n_symbols * sys_cfg.analog_sps
    # run_link's seed rule: the symbols come from the first child of SeedSequence(seed).
    rng = np.random.default_rng(np.random.SeedSequence(sys_cfg.seed).spawn(2)[0])
    x = QPSK[rng.integers(0, 4, sys_cfg.n_symbols)]
    if sys_cfg.shaped:
        up = np.zeros(sys_cfg.n_symbols * sys_cfg.adc_sps, dtype=complex)
        up[::sys_cfg.adc_sps] = x
        taps = dsp.design_rrc(sys_cfg.rrc)
        delay = (len(taps) - 1) // 2
        x = np.convolve(up, taps)[delay:delay + len(up)]
    if sys_cfg.one_bit:
        # sign(0) := +1, and the RRC's zero crossings, which np.convolve leaves
        # as +-3e-17, are 0: the converter's rule, 16 eps of the peak.
        zero = 16.0 * np.finfo(np.float64).eps * np.max(np.abs(x))
        x = RAIL * (np.where(x.real >= -zero, 1.0, -1.0)
                    + 1j * np.where(x.imag >= -zero, 1.0, -1.0))
    held = np.repeat(x, n_frame // len(x))
    baseband = sig.sosfilt(dsp.design_butterworth(sys_cfg.lpf, fs), held)
    drive = (baseband * np.exp(2j * np.pi * fc * np.arange(n_frame) / fs)).real

    s, f_pa, f_t = pa_cfg.power_factors()
    drive = drive / (np.sqrt(np.mean(drive[window] ** 2)) * s)
    v = np.clip(drive, -pa_cfg.ibo / s, pa_cfg.ibo / s)
    bpf_sos = dsp.design_butterworth(pa_cfg.bpf, fs)
    y = sig.sosfilt(bpf_sos, v)[window]
    p_pa = f_pa * np.mean(np.abs(y))
    p_t = f_t * np.mean(y ** 2)

    seg = round(metrics.PSD_SEGMENT_SYMBOLS * fs)
    freqs, values = sig.welch(v[window], fs=fs, window="hann", nperseg=seg,
                              noverlap=seg // 2, detrend=False)
    drive_psd = metrics.PsdEstimate(freqs, values, float(np.sum(values) * (freqs[1] - freqs[0])))
    b_pa = metrics.occupied_bandwidth(metrics.filtered_psd(drive_psd, bpf_sos, fs), fc)
    return p_pa, p_t, b_pa
