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
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

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
# run's traced peak is about 1.1 complex frames (1.05-1.10 for sys1-3 at the
# default frame with the receiver noise cache cleared).
MAX_FRAME_SAMPLES = 2 ** 24


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one link variant; all rates are multiples of the baud rate.

    rrc.samples_per_symbol is the converter rate (adc_sps, and dac_sps if shaped)."""

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
        if self.n_symbols <= 4 * self.rrc.span:
            raise ConfigurationError(
                f"n_symbols={self.n_symbols} leaves no samples after edge trimming")
        if self.n_symbols * self.analog_sps > MAX_FRAME_SAMPLES:
            raise ConfigurationError(
                f"n_symbols * analog_sps = {self.n_symbols * self.analog_sps} exceeds the "
                f"{MAX_FRAME_SAMPLES}-sample frame limit")
        window = (self.n_symbols - 2 * self.rrc.span) * self.analog_sps  # see run_link
        if window < metrics_mod.PSD_SEGMENT_LEN:
            raise ConfigurationError(
                f"measurement window (n_symbols - 2 * rrc_span) * analog_sps = {window} is "
                f"shorter than the {metrics_mod.PSD_SEGMENT_LEN}-sample PSD segment")
        if self.analog_sps % self.adc_sps:
            raise ConfigurationError(
                f"analog_sps={self.analog_sps} must be divisible by the converter rate "
                f"rrc.samples_per_symbol={self.adc_sps}")
        self.require_band("signal band", self.b * (1.0 + self.rrc.roll_off))

    @property
    def adc_sps(self):
        return self.rrc.samples_per_symbol

    @property
    def shaped(self):
        return _VARIANT_TABLE[self.variant][0]

    @property
    def dac_sps(self):
        return self.adc_sps if self.shaped else 1

    @property
    def one_bit(self):
        return _VARIANT_TABLE[self.variant][1]

    @property
    def mi_bins(self):
        """MI histogram bins per dimension."""
        return _VARIANT_TABLE[self.variant][2]

    def fc(self):
        return self.fc_multiple * self.b

    def require_band(self, name, half):
        """Raise unless half > 0 and the band fc +- half lies inside (0, fs/2)."""
        if half <= 0:
            raise ConfigurationError(f"{name} width must be positive, got {2.0 * half:g} B")
        nyquist = self.fs() / 2.0
        if not (0.0 < self.fc() - half and self.fc() + half < nyquist):
            raise ConfigurationError(
                f"{name} of {2.0 * half:g} B around the carrier {self.fc():g} must lie "
                f"between 0 and the Nyquist rate {nyquist:g}")

    def fs(self):
        return self.analog_sps * self.b


def draw_symbols(n, rng):
    """Draw n uniform QPSK symbols."""
    return QPSK_ALPHABET[rng.integers(0, 4, n)]


@contextmanager
def _stage(name):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _transmit(dac_in, sys_cfg, pa_cfg, window):
    """The dac and pa stages: DAC input samples to amplifier output.

    Returns the transmit lowpass (the receiver reuses it), the amplifier
    output y_p and the powers p_pa and p_t. Each frame-length intermediate is
    rebound or deleted once its successor exists, so it is freed after its last use.
    """
    fs = sys_cfg.fs()
    with _stage("dac"):
        if sys_cfg.one_bit:
            dac_in = quantizers.one_bit_quantize(dac_in)
        lpf_sos = dsp.design_butterworth(sys_cfg.lpf, fs)
        wave = dsp.upconvert(dac_in, lpf_sos, sys_cfg.analog_sps // sys_cfg.dac_sps,
                             sys_cfg.fc(), fs)

    with _stage("pa"):
        wave /= np.sqrt(np.mean(np.square(wave[window])))  # x_p, unit RMS
        v_sat = pa_cfg.ibo  # so the saturation voltage is the back-off itself
        wave = pa_mod.clip(wave, v_sat)  # v_t
        bpf_sos = dsp.design_butterworth(pa_cfg.bpf, fs)
        y_p = pa_mod.bandpass_reconstruct(wave, bpf_sos)
        del wave
        p_pa = pa_mod.pa_power(y_p, v_sat, pa_cfg.r_load, window)
        p_t = pa_mod.transmit_power(y_p, pa_cfg.r_load, window)
    return lpf_sos, y_p, p_pa, p_t


@functools.lru_cache(maxsize=1)
def _rx_noise(seed, n, lpf, step, fc, fs):
    """The receive front end's output for unit-variance channel noise, read-only.

    Draws n samples from the second child of SeedSequence(seed) and runs
    dsp.downconvert on them. Every point of a sweep runs at the sweep's seed,
    so one entry serves the whole sweep; it holds n / step complex samples.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    noise = dsp.downconvert(rng.standard_normal(n), dsp.design_butterworth(lpf, fs), step, fc, fs)
    noise.flags.writeable = False
    return noise


def run_link(sys_cfg, pa_cfg, ch_cfg):
    """Run the full chain once and return LinkMetrics.

    The configured seed feeds a SeedSequence whose two children drive the
    symbol source and the channel noise; the noise child feeds the cached
    receiver noise (_rx_noise). Identical configurations reproduce
    bit-identical metrics.
    """
    fs = sys_cfg.fs()
    span = sys_cfg.rrc.span
    step = sys_cfg.analog_sps // sys_cfg.adc_sps
    sym_rng = np.random.default_rng(np.random.SeedSequence(sys_cfg.seed).spawn(2)[0])

    with _stage("source"):
        tx = draw_symbols(sys_cfg.n_symbols, sym_rng)
        # The channel noise, already through the receive front end. It is drawn
        # before any frame-length buffer exists, so a cache miss adds little
        # to the run's peak.
        noise = _rx_noise(sys_cfg.seed, sys_cfg.n_symbols * sys_cfg.analog_sps, sys_cfg.lpf,
                          step, sys_cfg.fc(), fs)

    with _stage("tx-shaping"):
        # One RRC design serves the transmit shaper and the receive matched filter.
        taps = dsp.design_rrc(sys_cfg.rrc)
        if sys_cfg.shaped:
            dac_in = dsp.fir_filter(dsp.upsample_zero_insert(tx, sys_cfg.dac_sps), taps)
        else:
            dac_in = tx

    # Edge-trim window at the analog rate: the first and last span-many
    # symbols carry filter transients and are excluded from every statistic.
    trim = span * sys_cfg.analog_sps
    window = slice(trim, sys_cfg.n_symbols * sys_cfg.analog_sps - trim)

    lpf_sos, y_p, p_pa, p_t = _transmit(dac_in, sys_cfg, pa_cfg, window)

    with _stage("channel"):
        sigma_n2 = channel_mod.calibrate_noise(p_t, ch_cfg)
        # sigma_n2 is a power and the receiver sees alpha * p_t; the noise adds
        # to the voltage y_p, whose mean square is r_load * p_t.
        scale = channel_mod.noise_scale(sigma_n2 * pa_cfg.r_load / ch_cfg.alpha, sys_cfg.b, fs)

    with _stage("rx"):
        # Mixer and lowpass in one block-rate kernel: no frame-length baseband.
        # The kernel is linear, so the noise joins at its output and the
        # received frame y_p + noise is never built.
        rx = dsp.downconvert(y_p, lpf_sos, step, sys_cfg.fc(), fs) + scale * noise
        if sys_cfg.one_bit:
            rx = quantizers.one_bit_quantize(rx)
        rx = dsp.fir_filter(rx, taps)  # matched filter, at adc_sps

    with _stage("align"):
        # Lags up to the span-many symbols that the keep slice trims anyway.
        lag, c = dsp.align(tx, rx, span * sys_cfg.adc_sps, stride=sys_cfg.adc_sps)
        tx_used, rx_used = dsp.paired_at_lag(tx, rx, lag, sys_cfg.adc_sps)
        rx_hat = c * rx_used
        keep = slice(span, len(tx_used) - span)

    with _stage("metrics"):
        mi = metrics_mod.mutual_information(tx_used[keep], rx_hat[keep], sys_cfg.mi_bins)
        rate_r = sys_cfg.b * mi
        psd = metrics_mod.welch_psd(y_p[window], fs)
        b_pa = metrics_mod.occupied_bandwidth(psd, sys_cfg.fc())
        return metrics_mod.LinkMetrics.from_measurements(
            mi, rate_r, b_pa, p_pa, p_t, sigma_n2 / sys_cfg.b, ch_cfg.alpha)


def bpf_spec_for(bbpf_over_b, sys_cfg, order):
    """Bandpass prototype of width bbpf_over_b * B centered on the carrier."""
    half = bbpf_over_b * sys_cfg.b / 2.0
    sys_cfg.require_band("bandpass", half)
    return dsp.ButterworthSpec(order=order, kind="bandpass",
                               cutoff_low=sys_cfg.fc() - half, cutoff_high=sys_cfg.fc() + half)

