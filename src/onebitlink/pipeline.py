"""End-to-end link execution for the three system variants.

sys1: pulse-shaped transmit chain, ideal converters on both ends.
sys2: the same chain with 1-bit DACs and ADCs.
sys3: 1-bit converters and no transmit pulse shaping or upsampling; the DAC
      runs at the symbol rate and the transmit lowpass plus the amplifier's
      bandpass do the pulse shaping.

One run_link call evaluates a single (variant, ibo, b_bpf) operating point
and returns the full LinkMetrics row.
"""

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft

from . import channel as channel_mod
from . import dsp
from . import metrics as metrics_mod
from . import pa as pa_mod
from . import quantizers
from .errors import ConfigurationError, StageError

QPSK_ALPHABET = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

# variant -> (RRC pulse shaping at the transmitter, 1-bit converters, MI bins
# per dimension). The pulse-shaped variants feed the DAC at the RRC rate, the
# shaper-free variant converts raw symbols directly.
_VARIANT_TABLE = {"sys1": (True, False, 8), "sys2": (True, True, 2), "sys3": (False, True, 2)}
VARIANTS = tuple(_VARIANT_TABLE)

# Largest analog-rate frame (n_symbols * analog_sps), 13x the default frame: a
# run's traced peak is about 0.8 complex frames (0.83-0.86 for sys1-3 at the
# default frame with the caches cleared, 0.76 warm).
MAX_FRAME_SAMPLES = 2 ** 24


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one link variant; all rates are multiples of the baud rate.

    rrc.samples_per_symbol is the converter rate (adc_sps, and the DAC's if shaped)."""

    b = 1.0  # baud rate (class constant, not a field): frequencies are in units of B
    variant: str = "sys2"
    fc_multiple: float = 30.0
    analog_sps: int = 128
    n_symbols: int = 10_000
    rrc: dsp.RrcSpec = field(default_factory=dsp.RrcSpec)
    lpf: dsp.ButterworthSpec = field(default_factory=dsp.ButterworthSpec)
    seed: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown system variant {self.variant!r}")
        if self.seed < 0:  # np.random.SeedSequence takes only nonnegative integers
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.n_symbols * self.analog_sps > MAX_FRAME_SAMPLES:
            raise ConfigurationError(
                f"n_symbols * analog_sps = {self.n_symbols * self.analog_sps} exceeds the "
                f"{MAX_FRAME_SAMPLES}-sample frame limit")
        window = self.n_symbols - 2 * self.rrc.span
        if window < max(metrics_mod.PSD_SEGMENT_SYMBOLS, 2 * self.rrc.span + 1):
            raise ConfigurationError(
                f"measurement window n_symbols - 2 * rrc_span = {window} symbols must hold the "
                f"{metrics_mod.PSD_SEGMENT_SYMBOLS}-symbol PSD segment and exceed 2 * rrc_span")
        if self.analog_sps % self.adc_sps:
            raise ConfigurationError(
                f"analog_sps={self.analog_sps} must be divisible by the converter rate "
                f"rrc.samples_per_symbol={self.adc_sps}")
        self.require_band("signal band", self.b * (1.0 + self.rrc.roll_off))

    @property
    def window(self):
        """The analog-rate measurement slice: the first and last rrc.span
        symbols carry filter transients and are excluded from every statistic."""
        trim = self.rrc.span * self.analog_sps
        return slice(trim, self.n_symbols * self.analog_sps - trim)

    @property
    def adc_sps(self):
        return self.rrc.samples_per_symbol

    @property
    def shaped(self):
        return _VARIANT_TABLE[self.variant][0]

    @property
    def one_bit(self):
        return _VARIANT_TABLE[self.variant][1]

    def convert(self, x):  # x through the variant's converter: its 1-bit rails, or x itself
        return quantizers.one_bit_quantize(x) if self.one_bit else x

    @property
    def mi_bins(self):
        """MI histogram bins per dimension."""
        return _VARIANT_TABLE[self.variant][2]

    def fc(self):
        return self.fc_multiple * self.b

    def require_band(self, name, half):
        """Raise unless half > 0, the band fc +- half lies inside (0, fs/2), and
        sampling at fs folds neither the clipper's 3rd nor its 5th harmonic into it."""
        if half <= 0:
            raise ConfigurationError(f"{name} width must be positive, got {2.0 * half:g} B")
        fs, fc = self.fs(), self.fc()
        if not (0.0 < fc - half and fc + half < fs / 2.0):
            raise ConfigurationError(
                f"{name} of {2.0 * half:g} B around the carrier {fc:g} must lie "
                f"between 0 and the Nyquist rate {fs / 2.0:g}")
        for k in (3, 5):
            image = abs((k * fc + fs / 2.0) % fs - fs / 2.0)
            if abs(image - fc) <= half:
                raise ConfigurationError(
                    f"{name} of {2.0 * half:g} B around the carrier {fc:g} takes in the "
                    f"clipper's harmonic {k} at {k * fc:g}, which {fs:g} samples per symbol "
                    f"fold to {image:g}")

    def fs(self):
        return self.analog_sps * self.b


def draw_symbols(n, rng):
    """Draw n uniform QPSK symbols."""
    return QPSK_ALPHABET[rng.integers(0, 4, n)]


@contextmanager
def _stage(name):
    try:
        yield
    except ConfigurationError:  # found bad mid-run: an unstable filter, a delay on align's last lag
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


# What run_link keeps between points, one entry a kind: kind -> (key, value).
# Each key holds every input of its value, so a warm run gives a cold one's bits.
_kept = {}


def _keep(kind, key, make):
    """The value of kind kept under key, or else make()'s, kept in its place
    with every array in it read-only. The old value is dropped before make()
    runs, so the two are never held at once."""
    if kind in _kept and _kept[kind][0] == key:
        return _kept[kind][1]
    _kept.pop(kind, None)
    value = make()
    for part in value if isinstance(value, tuple) else (value,):
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    _kept[kind] = key, value
    return value


def _receiver_noise(seed, root, k):
    """Unit channel noise of k ADC samples after the receive front end whose
    dsp.receive_noise_root is root. It is drawn at the ADC rate by circulant
    embedding, fft(root * z) with z from the second child of
    SeedSequence(seed); it is proper, so the carrier does not enter."""
    z = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1]).standard_normal(4 * k)
    return sp_fft.fft(root * z.view(np.complex128))[:k].copy()


@functools.lru_cache(maxsize=32)
def _bandpass(spec, fs):
    """The bandpass sections of spec at fs, by dsp.design_butterworth as it is
    at the call. Every row of a sweep repeats its widths, and the entries hold
    the default grid's 17. The sections stay writable, since
    scipy.signal.sosfilt rejects read-only ones; no stage writes to them."""
    return dsp.design_butterworth(spec, fs)


def run_link(sys_cfg, pa_cfg, ch_cfg):
    """Run the full chain once and return LinkMetrics.

    The configured seed feeds a SeedSequence whose two children drive the
    symbol source and the channel noise. What later points can reuse is kept
    through _keep, one entry a kind, made in the stage that first needs it:
    by sys_cfg, the DAC's output at its rate ("dac") and the drive's RMS over
    the window ("rms"); by (lpf, fs, step, k), the lowpass both ends use and
    the receiver noise's root ("front end"); by (seed, lpf, fs, step, k), the
    noise at the ADC rate ("noise"); by (sys_cfg, ibo), the clipped drive's
    Welch PSD ("drive psd"), from which b_pa is read as |H|^2 S_v for each
    bandpass (designs cached by _bandpass). A point still draws its symbols,
    designs its RRC taps, and upconverts, scales, clips and filters its own
    drive. Identical configurations give bit-identical metrics; each
    frame-length intermediate is freed after its last use.
    """
    fs = sys_cfg.fs()
    n_frame = sys_cfg.n_symbols * sys_cfg.analog_sps
    step = sys_cfg.analog_sps // sys_cfg.adc_sps
    k = sys_cfg.n_symbols * sys_cfg.adc_sps
    front_key = (sys_cfg.lpf, fs, step, k)

    with _stage("source"):
        tx = draw_symbols(sys_cfg.n_symbols, np.random.default_rng(
            np.random.SeedSequence(sys_cfg.seed).spawn(2)[0]))
        # The lowpass both ends use, and the channel noise after the receive front
        # end, drawn before any frame-length buffer exists to keep the peak low.
        lpf_sos, root = _keep("front end", front_key, lambda: (
            sos := dsp.design_butterworth(sys_cfg.lpf, fs), dsp.receive_noise_root(sos, step, k)))
        noise = _keep("noise", (sys_cfg.seed, *front_key),
                      lambda: _receiver_noise(sys_cfg.seed, root, k))

    with _stage("tx-shaping"):
        # One RRC design serves the transmit shaper and the receive matched filter.
        taps = dsp.design_rrc(sys_cfg.rrc)
        dac = _keep("dac", sys_cfg, lambda: sys_cfg.convert(dsp.fir_filter(
            dsp.upsample_zero_insert(tx, sys_cfg.adc_sps), taps) if sys_cfg.shaped else tx))

    with _stage("dac"):
        # The DAC's output sets its rate; the hold fills the analog frame.
        wave = dsp.upconvert(dac, lpf_sos, n_frame // len(dac), sys_cfg.fc(), fs)

    with _stage("pa"):
        s, f_pa, f_t = pa_cfg.power_factors()
        rms = _keep("rms", sys_cfg,
                    lambda: np.sqrt(pa_mod.mean_of(np.square, wave[sys_cfg.window])))
        bpf_sos = _bandpass(pa_cfg.bpf, fs)
        # x_p at unit RMS (so v_sat is ibo), divided by s, clipped and filtered
        # in place: y is the drive's own buffer, so the drive's PSD is taken
        # between the two. Below s ~ 1e-308 peaks overflow to inf, which the
        # clip takes to ibo / s like the rest. The drive does not depend on the
        # bandpass, r_load or the channel, so a sweep row shares its PSD.
        v = pa_mod.clip(wave, pa_cfg.ibo / s, rms * s)
        drive_psd = _keep("drive psd", (sys_cfg, pa_cfg.ibo),
                          lambda: metrics_mod.welch_psd(v[sys_cfg.window], fs))
        y = pa_mod.bandpass_reconstruct(v, bpf_sos)
        mean_square = pa_mod.transmit_power(y[sys_cfg.window])
        p_pa = f_pa * pa_mod.pa_power(y[sys_cfg.window])
        p_t = f_t * mean_square

    with _stage("channel"):
        # The noise that realizes the SINR is noise_ratio times the received
        # power alpha * p_t, whatever alpha and r_load: on y, times mean(y^2).
        noise_ratio = ch_cfg.noise_ratio()
        scale = channel_mod.noise_scale(noise_ratio * mean_square, sys_cfg.b, fs)

    with _stage("rx"):
        # Mixer and lowpass in one block-rate kernel: no frame-length baseband.
        # The kernel is linear, so the noise joins at its output and the
        # received frame y + noise is never built.
        rx = dsp.downconvert(y, lpf_sos, step, sys_cfg.fc(), fs) + scale * noise
        rx = dsp.fir_filter(sys_cfg.convert(rx), taps)  # the ADC, then the matched filter

    with _stage("align"):
        _, _, tx_kept, rx_kept = dsp.align(tx, rx, sys_cfg.rrc.span, stride=sys_cfg.adc_sps)

    with _stage("metrics"):
        mi = metrics_mod.mutual_information(tx_kept, rx_kept, sys_cfg.mi_bins)
        rate_r = sys_cfg.b * mi
        psd = metrics_mod.filtered_psd(drive_psd, bpf_sos, fs)
        b_pa = metrics_mod.occupied_bandwidth(psd, sys_cfg.fc())
        return metrics_mod.LinkMetrics.from_measurements(
            mi, rate_r, b_pa, p_pa, p_t, noise_ratio / sys_cfg.b)


def bpf_spec_for(bbpf_over_b, sys_cfg, order):
    """Bandpass prototype of width W = bbpf_over_b * B centered on the carrier. dsp.align
    finds its delay, 1 / (pi W sin(pi / 2N)) symbols at order N, only up to 0.65 rrc.span."""
    half = bbpf_over_b * sys_cfg.b / 2.0
    sys_cfg.require_band("bandpass", half)
    spec = dsp.ButterworthSpec(order=order, cutoff_low=sys_cfg.fc() - half,
                               cutoff_high=sys_cfg.fc() + half)
    delay = 1.0 / (math.pi * bbpf_over_b * math.sin(math.pi / (2 * order)))
    if delay > 0.65 * sys_cfg.rrc.span:
        raise ConfigurationError(
            f"bandpass of {bbpf_over_b:g} B at order {order} delays the carrier {delay:.3g} "
            f"symbols, past 0.65 x the rrc span of {sys_cfg.rrc.span} symbols")
    return spec

