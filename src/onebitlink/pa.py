"""Behavioral clipping power amplifier.

The amplifier is a memoryless hard clipper on the passband waveform followed
by a bandpass reconstruction filter. Battery draw is computed from the load
current i_L = y_p / r_load as v_sat * mean|i_L|, transmit power as mean(i_L * y_p).
The chain runs the amplifier on y = y_p / min(ibo, 1), of order 1 at every
back-off, so the back-off's size and r_load enter only PaConfig.power_factors.
The stage works on its frame in place: clip divides the drive by its scale
and clips it, and bandpass_reconstruct filters it a block at a time. So the
stage holds one frame: the drive's buffer becomes y. pa_power and
transmit_power are blocked means of the y they are given (mean_of).
"""

from dataclasses import dataclass

import numpy as np
from scipy import signal as sig

from .dsp import ButterworthSpec
from .errors import ConfigurationError

# First-harmonic ceiling of a hard limiter: a fully clipped tone of saturation
# level V carries at most (4/pi) V of fundamental amplitude, which bounds the
# transmit-to-battery power ratio p_t/p_pa by 4/pi.
HARMONIC_BOUND = 4.0 / np.pi

# Range of both power factors and of their ratio max(ibo, 1). p_pa and p_t are
# the factors times means of order 1, and eta_p (so the FOM) goes as the
# inverse of p_pa; the range leaves eight decades for each. At r_load 1 its
# floor is ibo^2 >= 1e-300. p_pa / p_t = max(ibo, 1) mean|y| / mean(y^2) is at
# most max(ibo, 1) / rms(y), so eight decades are left for 1 / rms(y), which
# the bandpass delay rule bounds: rms(y) >= 0.17 at the narrowest accepted
# width (pipeline.bpf_spec_for; orders 1-16, sys1-sys3, 600 symbols).
POWER_FACTOR_RANGE = (1e-300, 1e300)

# Samples per block of the bandpass and of mean_of: a block and its filtered
# copy, or its |y| or y^2, stay in a core's cache.
_BLOCK = 2 ** 16


@dataclass(frozen=True)
class PaConfig:
    """Operating point of the amplifier stage.

    bpf is the reconstruction filter prototype (see pipeline.bpf_spec_for), ibo
    the input back-off v_sat/sigma_x (small ibo clips hard), r_load the load in ohms.
    The chain drives the amplifier at unit RMS, so v_sat is ibo itself.
    """

    bpf: ButterworthSpec
    ibo: float = 0.1
    r_load: float = 1.0

    def __post_init__(self):
        if not (self.ibo > 0 and self.r_load > 0):
            raise ConfigurationError(f"ibo and r_load must be positive: {self.ibo}, {self.r_load}")
        low, high = POWER_FACTOR_RANGE
        _, f_pa, f_t = self.power_factors()
        if not (low <= f_pa <= high and low <= f_t <= high):
            raise ConfigurationError(
                f"ibo={self.ibo:g} and r_load={self.r_load:g} put the power factors "
                f"{f_pa:g} (p_pa) and {f_t:g} (p_t) outside [{low:g}, {high:g}]")
        if self.ibo > high:
            raise ConfigurationError(
                f"ibo={self.ibo:g} puts the power factors' ratio max(ibo, 1) above {high:g}")
        if self.bpf.cutoff_low is None:
            raise ConfigurationError("pa reconstruction filter must be a bandpass design")

    def power_factors(self):
        """(s, f_pa, f_t): the chain divides its unit-RMS drive by s = min(ibo, 1) and clips
        it at ibo / s, so y = y_p / s, p_pa = f_pa * mean|y| and p_t = f_t * mean(y^2)."""
        s = min(self.ibo, 1.0)
        return s, self.ibo / self.r_load * s, s / self.r_load * s


def clip(x_p, v_sat, divisor):
    """Divide the float array x_p by divisor and hard-limit it to [-v_sat, +v_sat],
    in place, and return it. A quotient that overflows is inf, which the clip
    takes to +-v_sat like the rest."""
    if v_sat <= 0:
        raise ValueError(f"v_sat must be positive, got {v_sat}")
    with np.errstate(over="ignore"):
        x_p /= divisor
        np.clip(x_p, -v_sat, v_sat, out=x_p)
    return x_p


def bandpass_reconstruct(v_t, sos):
    """Bandpass-filter the float array v_t in place and return it as y.

    sos are second-order sections from design_butterworth. The frame is
    filtered a _BLOCK at a time with the sections' state carried from block
    to block, so y has the bits of one scipy.signal.sosfilt call on it.
    """
    state = np.zeros((len(sos), 2))
    for i in range(0, len(v_t), _BLOCK):
        block = v_t[i:i + _BLOCK]
        block[:], state = sig.sosfilt(sos, block, zi=state)
    return v_t


def mean_of(fn, x):
    """The mean of fn(x) for an elementwise fn, summed a _BLOCK at a time: no len(x) temporary."""
    return sum(np.add.reduce(fn(x[i:i + _BLOCK])) for i in range(0, len(x), _BLOCK)) / len(x)


def pa_power(y):
    """mean|y|; p_pa is f_pa times it (PaConfig.power_factors)."""
    return mean_of(np.abs, y)


def transmit_power(y):
    """mean(y^2); p_t is f_t times it (PaConfig.power_factors)."""
    return mean_of(np.square, y)


def am_am_curve(v_sat, amplitudes):
    """First-harmonic transfer f(A) of the clipper, probed with pure tones.

    Each amplitude drives a sinusoid through the clipper and the fundamental
    is read back with a single-bin DFT over 8 cycles of 4096 samples. The
    dense phase grid keeps harmonic aliasing negligible (< 1e-6 relative).
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    phase = 2.0 * np.pi * np.arange(8 * 4096) / 4096
    probe = np.exp(-1j * phase)
    tone = np.cos(phase)
    out = np.empty(len(amplitudes))
    for i, a in enumerate(amplitudes):
        v_t = clip(a * tone, v_sat, 1.0)
        out[i] = 2.0 * np.abs(np.mean(v_t * probe))
    return out
