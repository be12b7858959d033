"""Filter design, rate conversion, frequency translation, and alignment primitives.

Signals are plain numpy arrays; sample rates and carrier frequencies travel as
explicit arguments, normalized so the symbol rate is 1 (all frequencies are in
multiples of the baud rate B).
"""

import warnings
from collections.abc import Iterator
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
# the calling thread and starts no threads of its own. The parallelism is the
# --jobs worker processes and run_link's one receiver-noise helper thread.
_BLAS_BLOCK = 2 ** 16


def _tiles(k, n):
    """(mt, kt, nt): _matmul's row, inner and column tiles for a (m x k) by (k x n) product."""
    kt = min(k, _BLAS_BLOCK)
    nt = min(n, max(1, _BLAS_BLOCK // kt))
    return max(1, _BLAS_BLOCK // (kt * nt)), kt, nt


def _matmul(a, b):
    """a @ b for real a and b, in blocks of at most _BLAS_BLOCK multiply-adds.

    BLAS kernels may round a row differently at another place in its block, so
    a row's result is fixed only by the row tiles mt: runs of whole tiles give
    the rows of the whole product bit for bit.
    """
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n))
    mt, kt, nt = _tiles(k, n)
    for p in range(0, k, kt):
        for j in range(0, n, nt):
            for i in range(0, m, mt):
                part = a[i:i + mt, p:p + kt] @ b[p:p + kt, j:j + nt]
                if p:
                    out[i:i + mt, j:j + nt] += part
                else:
                    out[i:i + mt, j:j + nt] = part
    return out


def _whole_tiles(pieces, size):
    """A frame's consecutive pieces regrouped as runs of whole size-sample tiles, then the rest."""
    rest = np.empty(0)
    for piece in pieces:
        x = np.concatenate([rest, piece]) if len(rest) else np.asarray(piece, dtype=np.float64)
        del piece
        cut = len(x) - len(x) % size
        rest = x[cut:].copy()
        if cut:
            yield x[:cut]
        del x
    if len(rest):
        yield rest


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


def _phasors(turn, k):
    """exp(j 2 pi turn k) at the sample indices k: the carriers of upconvert and downconvert.

    The phase is reduced to a fraction of a turn before it is scaled by 2 pi,
    so it stays exact for large k instead of growing with the index.
    """
    phase = turn % 1.0 * k
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
    g = g.astype(np.float64) * _phasors(fc / fs, np.arange(len(g)))
    v = sig.sosfilt(d, np.asarray(u)) * _phasors(fc * hold / fs, np.arange(len(u)))
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
    x_p is the frame as one array, or as an iterator over its consecutive
    pieces of any length. Pieces are regrouped into runs of whole row tiles
    of the product (a BLAS kernel may round a row by its place in a tile),
    and each run goes through the product, the shifted adds and the mixer
    while it is in cache, carrying its last L-1 product rows to the next; the
    D sections then filter the mixed output once. So the output equals the
    array call's bit for bit, and no frame is held. The frame must be whole
    blocks of step samples (a partial block raises ValueError); SystemConfig
    guarantees step >= 1 and fs > 2 fc.
    """
    f, d = _look_ahead(sos, step)
    n_taps = len(f) - step + 1  # the rest of f is zero padding
    f = 2.0 * f[:n_taps].astype(np.float64) * _phasors(fc / fs, np.arange(n_taps))
    # taps[c, l] = f[l*step - c]: sample c of block n-l feeds output n.
    padded = np.concatenate([np.zeros(step - 1), f])
    taps = np.ascontiguousarray(padded.reshape(-1, step)[:, ::-1].T).view(np.float64)
    n_lags = taps.shape[1] // 2
    runs = _whole_tiles(x_p, _tiles(*taps.shape)[0] * step) if isinstance(x_p, Iterator) else [x_p]
    tail = np.empty((0, n_lags), dtype=np.complex128)  # the frame's last product rows so far
    mixed, start = [], 0
    for run in runs:
        x = np.asarray(run, dtype=np.float64)
        n, t = len(x) // step, len(tail)
        if len(x) % step:
            raise ValueError(
                f"frame of {start * step + len(x)} samples is not whole blocks of {step}")
        mix = _phasors(fc * step / fs, np.arange(start, start + n)).conj()
        parts = _matmul(x.reshape(n, step), taps).view(np.complex128)
        del run, x  # the samples go before the next piece is drawn
        if t:
            parts = np.concatenate([tail, parts])
        # Output i sums parts[t + i - lag, lag] over the lags in order, back to the frame's start.
        w = parts[t:, 0].copy()
        for lag in range(1, min(n_lags, t + n)):
            w[max(lag - t, 0):] += parts[max(t - lag, 0):t + n - lag, lag]
        w *= mix
        mixed.append(w)
        tail = parts[max(len(parts) - n_lags + 1, 0):].copy()
        start += n
    w = mixed[0] if len(mixed) == 1 else np.concatenate(mixed)
    del mixed
    return sig.sosfilt(d, w)


def align(tx, rx_soft, trim, stride):
    """Pair rx_soft with the tx symbols: return (lag, c, tx_kept, rx_kept).

    The lag in [0, trim * stride] that maximizes the normalized cross-correlation
    of tx[n] with rx_soft[lag + stride*n] is chosen, by one correlation of tx with
    each converter phase rx_soft[p::stride] (lags p, p + stride, ...), and c is the
    least-squares fit tx ~ c * rx there: it undoes delay, rotation and gain in one
    step. The pair is tx[n] and c * rx_soft[lag + stride*n], less trim symbols at
    each end, so the window spans only delays that the trim discards. A second lag
    within 1% of the peak issues an AlignmentAmbiguityWarning and the smallest
    qualifying lag wins; a peak on the last lag may lie beyond the window, so it
    raises ValueError.
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
        raise ValueError(f"correlation peaks on the last lag {max_lag} of the window")
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
