"""Behavioral clipping power amplifier.

The amplifier is a memoryless hard clipper on the passband waveform followed
by a bandpass reconstruction filter. Battery draw is computed from the load
current i_L = y_p / r_load as v_sat * mean|i_L|, transmit power as mean(i_L * y_p).
The clipper and the filter work in place and the powers are summed a block at
a time, so the stage holds one frame: the drive's buffer becomes y_p.
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

# Smallest back-off. The clipped waveform is of size ibo, so its squares (p_t)
# leave the normal floats near ibo 1e-154 and are 0 at 1e-162.
MIN_IBO = 1e-150

# Range of the power scale min(ibo, 1)^2 / r_load. p_t is about that scale and,
# up to ibo 1, so is p_pa, while eta_p (so the FOM) goes as its inverse: at
# ibo 0.1, r_load 1e306 (scale 1e-308) overflows eta_p, and r_load 1e-320
# overflows the scale itself.
POWER_SCALE_RANGE = (1e-304, 1e304)

# Samples per block of the in-place bandpass and of the power sums.
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
        if self.ibo < MIN_IBO:
            raise ConfigurationError(f"ibo must be at least {MIN_IBO:g}, got {self.ibo}")
        if self.r_load <= 0:
            raise ConfigurationError(f"r_load must be positive, got {self.r_load}")
        low, high = POWER_SCALE_RANGE
        scale = min(self.ibo, 1.0) ** 2 / self.r_load
        if not low <= scale <= high:
            raise ConfigurationError(
                f"r_load={self.r_load:g} at ibo {self.ibo:g} puts the power scale "
                f"min(ibo, 1)^2 / r_load = {scale:g} outside [{low:g}, {high:g}]")
        if self.bpf.kind != "bandpass":
            raise ConfigurationError("pa reconstruction filter must be a bandpass design")


def clip(x_p, v_sat):
    """Hard-limit the float array x_p to [-v_sat, +v_sat] in place and return it."""
    if v_sat <= 0:
        raise ValueError(f"v_sat must be positive, got {v_sat}")
    return np.clip(x_p, -v_sat, v_sat, out=x_p)


def bandpass_reconstruct(v_t, sos):
    """Bandpass-filter the float array v_t in place and return it.

    sos are second-order sections from design_butterworth. The sections'
    state carries from block to block, so the result has the bits of one
    scipy.signal.sosfilt call on the whole waveform.
    """
    state = np.zeros((len(sos), 2))
    for start in range(0, len(v_t), _BLOCK):
        block = v_t[start:start + _BLOCK]
        block[:], state = sig.sosfilt(sos, block, zi=state)
    return v_t


def mean_of(fn, x):
    """np.mean(fn(x)) for an elementwise fn, to the bit, without a len(x) temporary.

    numpy sums a contiguous array pairwise: it halves the length (rounded
    down to a multiple of 8) until a piece fits its unrolled loop. Splitting
    the same way down to _BLOCK samples and summing each piece with numpy
    repeats that tree, so only the additions' grouping into calls changes.
    """
    def total(piece):
        n = len(piece)
        if n <= _BLOCK:
            return np.add.reduce(fn(piece))
        half = n // 2 - n // 2 % 8
        return total(piece[:half]) + total(piece[half:])

    return total(x) / len(x)


def pa_power(y_p, v_sat, r_load, window):
    """Battery draw p_pa = v_sat * mean|i_L|, i_L = y_p / r_load, over the measurement window."""
    return v_sat * mean_of(np.abs, y_p[window]) / r_load


def transmit_power(y_p, r_load, window):
    """Average delivered power p_t = mean(i_L * y_p) = mean(y_p^2) / r_load over the window."""
    return mean_of(np.square, y_p[window]) / r_load


def am_am_curve(v_sat, amplitudes):
    """First-harmonic transfer f(A) of the clipper, probed with pure tones.

    Each amplitude drives a sinusoid through the clipper and the fundamental
    is read back with a single-bin DFT over 8 cycles of 4096 samples. The
    dense phase grid keeps harmonic aliasing negligible (< 1e-6 relative).
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if np.any(amplitudes <= 0):
        raise ValueError("probe amplitudes must be positive")
    phase = 2.0 * np.pi * np.arange(8 * 4096) / 4096
    probe = np.exp(-1j * phase)
    tone = np.cos(phase)
    out = np.empty(len(amplitudes))
    for i, a in enumerate(amplitudes):
        v_t = clip(a * tone, v_sat)
        out[i] = 2.0 * np.abs(np.mean(v_t * probe))
    return out
