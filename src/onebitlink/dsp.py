"""Filter design, rate conversion, frequency translation, and alignment primitives.

Signals are plain numpy arrays; sample rates and carrier frequencies travel as
explicit arguments, normalized so the symbol rate is 1 (all frequencies are in
multiples of the baud rate B).
"""

import warnings
from dataclasses import dataclass

import numpy as np
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
    poles. cutoff_low/cutoff_high are the 3-dB edges in Hz; lowpass designs
    use cutoff_high only.
    """

    order: int = 4
    kind: str = "lowpass"
    cutoff_low: float | None = None
    cutoff_high: float = 1.0

    def __post_init__(self):
        if not 1 <= self.order <= MAX_BUTTERWORTH_ORDER:
            raise ConfigurationError(
                f"butterworth order must lie in [1, {MAX_BUTTERWORTH_ORDER}], got {self.order}")
        if self.kind not in ("lowpass", "bandpass"):
            raise ConfigurationError(f"butterworth kind must be lowpass or bandpass, got {self.kind!r}")
        if self.cutoff_high <= 0:
            raise ConfigurationError(f"cutoff_high must be positive, got {self.cutoff_high}")
        if self.kind == "bandpass":
            if self.cutoff_low is None or self.cutoff_low <= 0:
                raise ConfigurationError("bandpass design needs a positive cutoff_low")
            if self.cutoff_low >= self.cutoff_high:
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

    The digital design is prewarped so the magnitude is exactly -3 dB at the
    specified edge frequencies. scipy raises ValueError for an edge at or
    above fs/2; SystemConfig.require_band keeps the link's filters below it.
    """
    edges = spec.cutoff_high if spec.kind == "lowpass" else [spec.cutoff_low, spec.cutoff_high]
    sos = sig.butter(spec.order, edges, btype=spec.kind, fs=fs, output="sos")
    for section in sos:
        poles = np.roots(section[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise ConfigurationError(
                f"unstable butterworth design: {spec.kind} order {spec.order} at fs={fs}")
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


# Multiply-adds per matrix-product block: OpenBLAS runs a product this small on
# the calling thread, so the --jobs worker processes stay the only parallelism.
_BLAS_BLOCK = 2 ** 16


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
    x_p must be whole blocks of step samples (a partial block raises
    ValueError); SystemConfig guarantees step >= 1 and fs > 2 fc.
    """
    x = np.asarray(x_p, dtype=np.float64)
    if len(x) % step:
        raise ValueError(f"frame of {len(x)} samples is not whole blocks of {step}")
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


def _paired_at_lag(tx, rx, lag, stride):
    """tx[n] and rx[lag + stride*n] over all valid n (lag >= 0), as equal-length views."""
    r = rx[lag::stride][:len(tx)]
    return tx[:len(r)], r


def align(tx, rx_soft, trim, stride):
    """Pair rx_soft with the tx symbols: return (lag, c, tx_kept, rx_kept).

    The lag in [0, trim * stride] that maximizes the normalized cross-correlation
    of tx[n] with rx_soft[lag + stride*n] is chosen, and c is the least-squares
    fit tx ~ c * rx there: it undoes delay, rotation and gain in one step. The
    pair is tx[n] and c * rx_soft[lag + stride*n], less trim symbols at each
    end, so the window spans only delays that the trim discards. A second lag
    within 1% of the peak issues an AlignmentAmbiguityWarning and the smallest
    qualifying lag wins; a peak on the last lag may lie beyond the window, so
    it raises ValueError.
    """
    tx = np.asarray(tx)
    rx_soft = np.asarray(rx_soft)
    max_lag = trim * stride
    lags = np.arange(max_lag + 1)
    metric = np.full(len(lags), -1.0)
    for k, lag in enumerate(lags):
        t, r = _paired_at_lag(tx, rx_soft, int(lag), stride)
        if len(t) == 0:
            continue
        metric[k] = np.abs(np.vdot(t, r)) / len(t)
    peak = metric.max()
    if peak <= 0.0:
        raise ValueError("no overlap between tx and rx_soft within the lag window")
    if metric.argmax() == max_lag:
        raise ValueError(f"correlation peaks on the last lag {max_lag} of the window")
    qualifying = lags[metric >= 0.99 * peak]  # always holds the argmax
    if len(qualifying) > 1:
        warnings.warn(
            f"correlation peak is ambiguous across lags {qualifying.tolist()}; "
            f"using the smallest", AlignmentAmbiguityWarning)
    lag = int(qualifying.min())
    t, r = _paired_at_lag(tx, rx_soft, lag, stride)
    c = np.vdot(r, t) / np.vdot(r, r)
    keep = slice(trim, len(t) - trim)
    return lag, c, t[keep], c * r[keep]
