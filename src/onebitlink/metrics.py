"""Measurement suite: mutual information, PSD, occupied bandwidth, and the
LinkMetrics row, the one place the efficiencies and the FOM are computed.
The PSD segment is 32 symbols at any sample rate, so b_pa does not depend on it.
b_pa is read from the amplifier's clipped drive through the bandpass: a Welch
PSD of the drive, taken once per (system, back-off), times the bandpass's
|H|^2 (filtered_psd), since a stationary input's filtered PSD is |H|^2 S_x.

Mutual information uses a plug-in joint-histogram estimator. For receivers
that keep soft values, each real dimension of the aligned output is uniformly
binned over +-4 standard deviations (outliers clamp to the edge bins); for
1-bit receivers two bins per dimension recover the exact 4-point sign-alphabet
pmf sums. The estimator's positive bias is approximately
(n_cells - 1) / (2 N ln 2) and is exposed via plugin_mi_bias so reports can
quote it next to the estimate.
"""

from dataclasses import astuple, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import signal as sig

from . import dsp
from .pa import HARMONIC_BOUND

# Welch segment length in symbol periods, so the bin width is B/32 at any rate.
PSD_SEGMENT_SYMBOLS = 32
# Samples per batched rfft: about 4 MB of temporaries at any length and rate.
_PSD_BLOCK_SAMPLES = 2 ** 18


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided power spectral density: frequency grid, density values, total power."""

    freqs: np.ndarray
    values: np.ndarray
    total_power: float


@dataclass(frozen=True)
class LinkMetrics:
    """Per-operating-point results of one end-to-end link evaluation.

    Construction rejects non-finite values, negative powers, p_t > (4/pi) p_pa
    and MI outside [0, 2] bits.
    """

    mi: float
    rate_r: float
    b_pa: float
    p_pa: float
    p_t: float
    eta_p: float
    eta_b: float
    fom: float
    fom_normalized: float

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError(f"non-finite link metrics: {self}")
        if self.p_pa < 0 or self.p_t < 0:
            raise ValueError(f"powers must be nonnegative, got p_pa={self.p_pa}, p_t={self.p_t}")
        if self.p_t > HARMONIC_BOUND * self.p_pa * (1.0 + 1e-9):
            raise ValueError(
                f"p_t={self.p_t} exceeds the clipped-harmonic bound (4/pi)*p_pa={HARMONIC_BOUND * self.p_pa}")
        if not -1e-9 <= self.mi <= 2.0 + 1e-9:
            raise ValueError(f"mutual information {self.mi} outside [0, 2]")

    @classmethod
    def from_measurements(cls, mi, rate_r, b_pa, p_pa, p_t, noise_ratio):
        """The row with its efficiencies: eta_p = R/p_pa, eta_b = R/b_pa,
        fom = eta_p * eta_b and fom_normalized = fom * n0 / alpha, where the
        noise density per unit of received power is noise_ratio = n0 / (alpha * p_t)."""
        if p_pa <= 0:
            raise ValueError(f"p_pa must be positive, got {p_pa}")
        if b_pa <= 0:
            raise ValueError(f"b_pa must be positive, got {b_pa}")
        eta_p = rate_r / p_pa
        eta_b = rate_r / b_pa
        fom = eta_p * eta_b
        return cls(mi=mi, rate_r=rate_r, b_pa=b_pa, p_pa=p_pa, p_t=p_t, eta_p=eta_p,
                   eta_b=eta_b, fom=fom, fom_normalized=fom * p_t * noise_ratio)


def mutual_information(tx, rx_aligned, bins_per_dim):
    """Plug-in mutual information (bits) between QPSK symbols and aligned receive values.

    Empty cells contribute zero to the sum. bins_per_dim=2 reduces to the
    discrete sign-alphabet estimate used for 1-bit receivers.
    """
    tx = np.asarray(tx)
    rx = np.asarray(rx_aligned)
    if len(tx) == 0:
        raise ValueError("empty symbol stream")
    if len(tx) != len(rx):
        raise ValueError(f"length mismatch: {len(tx)} tx symbols vs {len(rx)} rx values")
    tx_idx = (tx.real < 0).astype(np.int64) * 2 + (tx.imag < 0).astype(np.int64)
    cell = (_bin_indices(rx.real, bins_per_dim) * bins_per_dim
            + _bin_indices(rx.imag, bins_per_dim))
    n_cells = bins_per_dim * bins_per_dim
    joint = np.bincount(tx_idx * n_cells + cell, minlength=4 * n_cells)
    pxy = joint.reshape(4, n_cells).astype(float) / len(tx)
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    return float(np.sum(pxy[mask] * np.log2(pxy[mask] / (px @ py)[mask])))


def _bin_indices(values, bins_per_dim):
    """Uniform bins over +-4 std of `values`; outliers clamp to the edge bins."""
    scale = np.std(values)
    if scale == 0.0:
        scale = 1.0
    pos = (values / (4.0 * scale) + 1.0) / 2.0 * bins_per_dim
    return np.clip(np.floor(pos).astype(np.int64), 0, bins_per_dim - 1)


def plugin_mi_bias(bins_per_dim, n):
    """Approximate positive bias of the plug-in estimate at sample size n."""
    n_cells = 4 * bins_per_dim * bins_per_dim
    return (n_cells - 1) / (2.0 * n * np.log(2.0))


def welch_psd(x, fs):
    """Averaged-periodogram PSD of x at fs samples per symbol (Hann window, segments
    of PSD_SEGMENT_SYMBOLS symbols, round(32 * fs) samples, half overlap, one-sided density).

    Normalization is Parseval-consistent: sum(values) * df equals the mean
    power of `x` up to windowing leakage. The estimate is that of
    scipy.signal.welch with detrend=False, to rounding.
    """
    x = np.asarray(x)
    seg = round(PSD_SEGMENT_SYMBOLS * fs)
    # scipy.signal.welch's segments as a read-only strided view: the frame is never copied.
    hop = seg - seg // 2
    n_seg = (len(x) - seg) // hop + 1
    segments = sliding_window_view(x, seg)[::hop][:n_seg]
    window = sig.get_window("hann", seg)
    values = np.zeros(seg // 2 + 1)
    block = max(1, _PSD_BLOCK_SAMPLES // seg)
    for start in range(0, n_seg, block):
        spec = sp_fft.rfft(segments[start:start + block] * window, axis=-1)
        power = np.square(spec.real)
        power += np.square(spec.imag, out=spec.imag)
        values += np.sum(power, axis=0)
        del spec, power  # before the next block's transform allocates its own
    values /= fs * np.sum(window ** 2) * n_seg
    values[1:(seg + 1) // 2] *= 2.0  # one-sided; an even segment's Nyquist bin stays single
    freqs = np.fft.rfftfreq(seg, 1.0 / fs)
    total = float(np.sum(values) * (freqs[1] - freqs[0]))
    return PsdEstimate(freqs=freqs, values=values, total_power=total)


def filtered_psd(psd, sos, fs):
    """The PSD after the filter `sos` at fs: S_y = |H(e^{j 2 pi f / fs})|^2 S_x on psd's grid."""
    values = dsp.power_response(psd.values, sos, psd.freqs, fs)
    total = float(np.sum(values) * (psd.freqs[1] - psd.freqs[0]))
    return PsdEstimate(freqs=psd.freqs, values=values, total_power=total)


def occupied_bandwidth(psd, fc):
    """Smallest bandwidth around fc containing 93.75% of the total power (the b_pa definition).

    The PSD is integrated bin-wise with linear interpolation at the band
    edges, so the power within +-d of fc is linear in d between the knots
    where fc +- d meets a bin edge: the width is read off the knot powers
    exactly, with one interpolation.
    """
    if psd.total_power <= 0.0:
        raise ValueError("occupied bandwidth of a zero-power PSD is undefined")
    f = psd.freqs
    if not f[0] <= fc <= f[-1]:
        raise ValueError(f"carrier {fc} lies outside the PSD grid [{f[0]}, {f[-1]}]")
    df = f[1] - f[0]
    edges = np.concatenate([f - df / 2.0, [f[-1] + df / 2.0]])
    edges[0] = max(edges[0], 0.0)
    cum = np.concatenate([[0.0], np.cumsum(psd.values) * df])
    d = np.unique(np.concatenate([[0.0], np.abs(edges - fc)]))  # the knots, sorted
    power = np.interp(fc + d, edges, cum) - np.interp(fc - d, edges, cum)
    target = 0.9375 * psd.total_power
    k = np.searchsorted(power, target)  # power[k - 1] < target <= power[k]
    return 2.0 * (d[k - 1] + (d[k] - d[k - 1]) * (target - power[k - 1])
                  / (power[k] - power[k - 1]))
