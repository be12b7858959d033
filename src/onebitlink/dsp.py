"""Filter design, rate conversion, frequency translation, and alignment primitives.

Signals are plain numpy arrays; sample rates and carrier frequencies travel as
explicit arguments, normalized so the symbol rate is 1 (all frequencies are in
multiples of the baud rate B).
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sig

from .errors import ConfigurationError


class AlignmentAmbiguityWarning(UserWarning):
    """Two correlation lags are within 1% of the peak; the smaller one was used."""


@dataclass(frozen=True)
class RrcSpec:
    """Root-raised-cosine pulse shaper parameters.

    roll_off is the excess-bandwidth factor in [0, 1], span the filter length
    in symbols (the impulse response covers span+ symbol periods), and
    samples_per_symbol the tap rate relative to the baud rate.
    """

    roll_off: float = 0.5
    span: int = 16
    samples_per_symbol: int = 4

    def __post_init__(self):
        if not 0.0 <= self.roll_off <= 1.0:
            raise ConfigurationError(f"rrc roll_off must lie in [0, 1], got {self.roll_off}")
        if self.span < 8:
            raise ConfigurationError(f"rrc span must be >= 8 symbols, got {self.span}")
        if self.samples_per_symbol < 1:
            raise ConfigurationError(f"rrc samples_per_symbol must be >= 1, got {self.samples_per_symbol}")


# Largest Butterworth prototype order: the block-rate lowpass kernels are
# checked against sosfilt up to it, and their FIR grows as order x hold.
MAX_BUTTERWORTH_ORDER = 16


@dataclass(frozen=True)
class ButterworthSpec:
    """Butterworth filter prototype.

    order is the analog prototype order N (scipy convention), at most
    MAX_BUTTERWORTH_ORDER: a lowpass design has N poles, a bandpass design 2N
    poles. cutoff_low/cutoff_high are the 3-dB edges in multiples of the baud
    rate B; a spec with a cutoff_low is a bandpass, one without a lowpass.
    """

    order: int = 4
    cutoff_low: float | None = None
    cutoff_high: float = 1.0

    def __post_init__(self):
        if not 1 <= self.order <= MAX_BUTTERWORTH_ORDER:
            raise ConfigurationError(
                f"butterworth order must lie in [1, {MAX_BUTTERWORTH_ORDER}], got {self.order}")
        if self.cutoff_low is not None and self.cutoff_low >= self.cutoff_high:
            raise ConfigurationError(
                f"bandpass edges must satisfy cutoff_low < cutoff_high, got "
                f"[{self.cutoff_low}, {self.cutoff_high}]")


def design_rrc(spec):
    """Return the unit-energy root-raised-cosine taps for `spec`.

    The returned FIR is odd-length and even-symmetric, covering spec.span
    symbol periods at spec.samples_per_symbol taps per symbol.
    """
    rho = spec.roll_off
    half = spec.span * spec.samples_per_symbol // 2
    t = np.arange(-half, half + 1) / spec.samples_per_symbol
    with np.errstate(divide="ignore", invalid="ignore"):  # the special points, set below
        h = (np.sin(np.pi * t * (1.0 - rho)) + 4.0 * rho * t * np.cos(np.pi * t * (1.0 + rho))) / (
            np.pi * t * (1.0 - (4.0 * rho * t) ** 2))
    h[np.abs(t) < 1e-12] = 1.0 - rho + 4.0 * rho / np.pi
    if rho > 0:
        h[np.abs(np.abs(4.0 * rho * t) - 1.0) < 1e-9] = (rho / np.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * rho))
            + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * rho)))
    return h / np.sqrt(np.sum(h * h))


def design_butterworth(spec, fs):
    """Design `spec` at sample rate `fs` and return second-order sections.

    A spec with a cutoff_low is a bandpass, one without a lowpass. The digital
    design is prewarped so the magnitude is exactly -3 dB at the specified
    edge frequencies. scipy raises ValueError for an edge outside (0, fs/2);
    SystemConfig.require_band keeps the link's filters inside it.
    """
    btype = "lowpass" if spec.cutoff_low is None else "bandpass"
    edges = spec.cutoff_high if spec.cutoff_low is None else [spec.cutoff_low, spec.cutoff_high]
    sos = sig.butter(spec.order, edges, btype=btype, fs=fs, output="sos")
    for section in sos:
        poles = np.roots(section[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise ConfigurationError(
                f"unstable butterworth design: {btype} order {spec.order} at fs={fs}")
    return sos


def fir_filter(x, taps):
    """Convolve `x` with linear-phase `taps`, delay-compensated: len(x) samples.

    Output n is full-convolution sample n + (len(taps)-1)//2, the taps' group delay.
    """
    delay = (len(taps) - 1) // 2
    return np.convolve(np.asarray(x), taps)[delay:delay + len(x)]


def iir_filter(x, sos):
    """Apply second-order sections from design_butterworth (which checks stability) to `x`."""
    return sig.sosfilt(sos, np.asarray(x))


def upsample_zero_insert(symbols, L):
    """Insert L-1 zeros after every symbol; output length is L*len(symbols)."""
    symbols = np.asarray(symbols)
    out = np.zeros(L * len(symbols), dtype=symbols.dtype)
    out[::L] = symbols
    return out


def zoh_hold(x, M):
    """Repeat each sample M times (zero-order hold reconstruction)."""
    if M < 1:
        raise ValueError(f"hold factor must be >= 1, got {M}")
    return np.repeat(np.asarray(x), M)


# Multiply-adds per matrix-product block: OpenBLAS runs a product of at most
# 65536 x 4 on the calling thread, so the --jobs workers stay the only parallelism.
_BLAS_BLOCK = 2 ** 18


def _matmul(a, b):
    """a @ b for real a and b, in blocks of at most _BLAS_BLOCK multiply-adds."""
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n))
    kt = min(k, _BLAS_BLOCK)
    nt = min(n, max(1, _BLAS_BLOCK // kt))
    mt = max(1, _BLAS_BLOCK // (kt * nt))
    for p in range(0, k, kt):
        for j in range(0, n, nt):
            for i in range(0, m, mt):
                part = a[i:i + mt, p:p + kt] @ b[p:p + kt, j:j + nt]
                if p:
                    out[i:i + mt, j:j + nt] += part
                else:
                    out[i:i + mt, j:j + nt] = part
    return out


def _look_ahead(sos, M):
    """Split H(z) = B(z)/A(z) into F(z) / D(z^M) (scattered look-ahead).

    D raises every pole p of `sos` to p^M and is returned as sections that
    run at the block rate fs/M. F(z) = H(z) D(z^M) is an FIR of (L-1)M + 1
    taps, L = 2 * len(sos) + 1, returned zero-padded to L*M taps. F is
    computed in long double: the block-rate recursion can run 40x above its
    output (order 16 at 256 samples per symbol), which magnifies F's rounding.
    """
    sos_x = sos.astype(np.longdouble)
    a1, a2 = sos_x[:, 4], sos_x[:, 5]
    root = np.sqrt(a1 * a1 - 4 * a2 + 0j)
    d = np.zeros_like(sos)
    d[:, 0] = d[:, 3] = 1.0
    d[:, 4] = -(((-a1 + root) / 2) ** M + ((-a1 - root) / 2) ** M).real
    d[:, 5] = a2 ** M
    # One section at a time (the product polynomial D(w) is ill-conditioned):
    # multiply by d_s(z^M), then divide by a_s(z), which d_s(z^M) contains.
    f = np.zeros((2 * len(sos) + 1) * M, dtype=np.longdouble)
    f[0] = 1
    for section, (d1, d2) in zip(sos_x, d[:, 4:]):
        prev = f.copy()
        f[M:] += d1 * prev[:-M]
        f[2 * M:] += d2 * prev[:-2 * M]
        f = sig.lfilter(section[:3], section[3:], f)
    f[len(f) - M + 1:] = 0  # past the FIR's end only rounding is left
    return f, d


def _phasors(turn, n):
    """exp(j 2 pi turn k) for k < n: the carrier phasors of upconvert and downconvert.

    The phase is reduced to a fraction of a turn before it is scaled by 2 pi,
    so it stays exact for large k instead of growing with the index.
    """
    phase = turn % 1.0 * np.arange(n)
    angle = 2.0 * np.pi * (phase - np.floor(phase))
    return np.cos(angle) + 1j * np.sin(angle)


def upconvert(u, sos, hold, fc, fs):
    """Re{sosfilt(sos, repeat(u, hold))[n] exp(j 2 pi fc n / fs)} without the held frame.

    With H = F(z) / D(z^hold), the D sections run on u itself; the held,
    filtered baseband is then G(z) = F(z) (1 + z^-1 + ... + z^-(hold-1))
    applied polyphase: output block n is sum over lags l of v[n-l] G[l, :].
    Sample c of block n sees the carrier w^(n-l) exp(j 2 pi fc (l hold + c) / fs),
    w = exp(j 2 pi fc hold / fs), so with v[m] w^m in the lag matrix and the
    carrier folded into G the real passband is one real product of the rows
    [Re, Im] of the lags with the rows [Re, -Im] of the modulated taps.
    SystemConfig guarantees hold >= 1 and fs > 2 fc.
    """
    f, d = _look_ahead(sos, hold)
    g = np.cumsum(f)
    g[hold:] -= g[:-hold].copy()
    g = g.astype(np.float64) * _phasors(fc / fs, len(g))
    v = sig.sosfilt(d, np.asarray(u)) * _phasors(fc * hold / fs, len(u))
    n_lags = len(g) // hold
    # lags[n, l] = v[n - l], zero before the frame: windows of the zero-led v, reversed.
    padded = np.concatenate([np.zeros(n_lags - 1), v])
    lags = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, n_lags)[:, ::-1])
    taps = np.empty((2 * n_lags, hold))
    taps[0::2] = g.real.reshape(n_lags, hold)
    taps[1::2] = -g.imag.reshape(n_lags, hold)
    return _matmul(lags.view(np.float64), taps).reshape(-1)


def downconvert(x_p, sos, step, fc, fs):
    """sosfilt(sos, 2 x_p[n] exp(-j 2 pi fc n / fs))[::step] without the full-rate output.

    With H = F(z) / D(z^step), the kept outputs need F only at multiples of
    step: one product of the (K x step) reshaped frame with a (step x L) tap
    matrix, L-1 shifted adds, then the D sections on K samples. Mixing then
    filtering equals filtering with the modulated taps 2 f[k] exp(j 2 pi fc k / fs)
    and mixing output n by conj(w)^n, w = exp(j 2 pi fc step / fs): the real
    frame meets complex taps in one real product, and no baseband frame is built.
    x_p must be whole blocks of step samples (reshape raises ValueError on a
    partial block); SystemConfig guarantees that of the link's frame, step >= 1
    and fs > 2 fc.
    """
    x = np.asarray(x_p, dtype=np.float64)
    f, d = _look_ahead(sos, step)
    n_out = len(x) // step
    n_taps = len(f) - step + 1  # the rest of f is zero padding
    f = 2.0 * f[:n_taps].astype(np.float64) * _phasors(fc / fs, n_taps)
    # taps[c, l] = f[l*step - c]: sample c of block n-l feeds output n.
    padded = np.concatenate([np.zeros(step - 1), f])
    taps = np.ascontiguousarray(padded.reshape(-1, step)[:, ::-1].T)
    mix = _phasors(fc * step / fs, n_out).conj()
    parts = _matmul(x.reshape(n_out, step), taps.view(np.float64)).view(np.complex128)
    w = parts[:, 0].copy()
    for lag in range(1, parts.shape[1]):
        w[lag:] += parts[:n_out - lag, lag]
    w *= mix
    return sig.sosfilt(d, w)


def power_response(values, sos, freqs, fs):
    """values times |H(e^{j 2 pi f / fs})|^2, H the filter `sos`, at the frequencies freqs.

    |H|^2 is the product over the second-order sections of |b(u)|^2 / |a(u)|^2,
    u = e^{-j 2 pi f / fs}, applied to a copy of values one section at a time,
    elementwise (the bits depend on no BLAS kernel).
    """
    u = np.exp(-2j * np.pi * freqs / fs)
    values = values.copy()
    for b0, b1, b2, a0, a1, a2 in sos:
        values *= np.abs((b2 * u + b1) * u + b0) ** 2 / np.abs((a2 * u + a1) * u + a0) ** 2
    return values


def receive_noise_root(sos, step, k):
    """sqrt(S / 4k) on the 2k frequencies m / 2k: the root of k ADC samples of receiver noise.

    Unit white noise through the mixer 2 exp(-j 2 pi fc n / fs), the lowpass
    H = `sos` and every step-th sample is proper at any carrier (its
    pseudo-covariance is left out), of spectrum S(nu) = 4 sum_i |H|^2 / step
    at the step images (nu + i) / step. With H = F(z) / D(z^step) the kept
    samples are a block-rate moving average, of autocovariance
    4 sum_n f[n] f[n + q step] for |q| < L, through 1 / D: S is that
    autocovariance's spectrum over |D|^2. fft(root * z)[:k], z of 2k complex
    normals (E|z|^2 = 2), is then a proper complex Gaussian frame with S's
    autocovariance aliased at 2k lags (circulant embedding: Davies & Harte,
    Biometrika 1987). Rounding below 0 is taken as 0.
    """
    f, d = _look_ahead(sos, step)
    n_ma = len(f) // step  # L
    ma = [4.0 * float(np.dot(f[q * step:], f[:len(f) - q * step])) for q in range(n_ma)]
    lags = np.zeros(2 * k)  # lags 0 .. 2k - 1, the negative ones wrapped to the end
    lags[:n_ma] = ma
    lags[2 * k - n_ma + 1:] = ma[:0:-1]
    s = power_response(sp_fft.rfft(lags).real, d, np.arange(k + 1), 2 * k)
    return np.sqrt(np.maximum(np.concatenate([s, s[-2:0:-1]]), 0.0) / (4 * k))


def align(tx, rx_soft, trim, stride):
    """Pair rx_soft with the tx symbols: return (lag, c, tx_kept, rx_kept).

    The lag in [0, trim * stride] that maximizes the normalized cross-correlation
    of tx[n] with rx_soft[lag + stride*n] is chosen, by one correlation of tx with
    each converter phase rx_soft[p::stride] (lags p, p + stride, ...), and c is the
    least-squares fit tx ~ c * rx there: it undoes delay, rotation and gain in one
    step. The pair is tx[n] and c * rx_soft[lag + stride*n], less trim symbols at
    each end, so the window spans only delays that the trim discards. A second lag
    within 1% of the peak issues an AlignmentAmbiguityWarning and the smallest
    qualifying lag wins. A peak on the last lag may lie beyond the window, which
    the settings size, so it raises ConfigurationError.
    """
    tx, rx_soft = np.asarray(tx), np.asarray(rx_soft)
    max_lag = trim * stride
    rows = len(tx) + trim  # entry q of row p is lag q*stride + p, up to trim*stride
    padded = np.zeros(rows * stride, dtype=rx_soft.dtype)
    padded[:len(rx_soft)] = rx_soft[:len(padded)]
    sums = np.array([np.correlate(row, tx, "valid") for row in padded.reshape(rows, stride).T])
    # Pairs per lag, min(len(tx), len(rx_soft[lag::stride])); none leaves the metric -1.
    pairs = np.minimum(len(tx), -((np.arange(max_lag + 1) - len(rx_soft)) // stride))
    metric = np.where(pairs > 0, np.abs(sums.T.ravel()[:max_lag + 1]) / np.maximum(pairs, 1), -1.0)
    peak = metric.max()
    if peak <= 0.0:
        raise ValueError("no overlap between tx and rx_soft within the lag window")
    if metric.argmax() == max_lag:
        raise ConfigurationError(
            f"the link's delay reaches the last lag {max_lag} of the alignment window, rrc_span "
            f"x adc_sps = {trim} x {stride} ADC samples; a longer system.rrc_span widens it")
    qualifying = np.flatnonzero(metric >= 0.99 * peak)  # always holds the argmax
    if len(qualifying) > 1:
        warnings.warn(
            f"correlation peak is ambiguous across lags {qualifying.tolist()}; "
            f"using the smallest", AlignmentAmbiguityWarning)
    lag = int(qualifying.min())
    r = rx_soft[lag::stride][:len(tx)]
    t = tx[:len(r)]
    c = np.vdot(r, t) / np.vdot(r, r)
    keep = slice(trim, len(t) - trim)
    return lag, c, t[keep], c * r[keep]
