"""Behavioral clipping power amplifier.

The amplifier is a memoryless hard clipper on the passband waveform followed
by a bandpass reconstruction filter. Battery draw is computed from the load
current i_L = y_p / r_load as v_sat * mean|i_L|, transmit power as mean(i_L * y_p).
"""

from dataclasses import dataclass

import numpy as np

from .dsp import ButterworthSpec, iir_filter
from .errors import ConfigurationError

# First-harmonic ceiling of a hard limiter: a fully clipped tone of saturation
# level V carries at most (4/pi) V of fundamental amplitude, which bounds the
# transmit-to-battery power ratio p_t/p_pa by 4/pi.
HARMONIC_BOUND = 4.0 / np.pi


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
        if self.ibo <= 0:
            raise ConfigurationError(f"ibo must be positive, got {self.ibo}")
        if self.r_load <= 0:
            raise ConfigurationError(f"r_load must be positive, got {self.r_load}")
        if self.bpf.kind != "bandpass":
            raise ConfigurationError("pa reconstruction filter must be a bandpass design")


def clip(x_p, v_sat):
    """Hard-limit the passband waveform to [-v_sat, +v_sat]."""
    if v_sat <= 0:
        raise ValueError(f"v_sat must be positive, got {v_sat}")
    return np.clip(np.asarray(x_p), -v_sat, v_sat)


def bandpass_reconstruct(v_t, sos):
    """Bandpass-filter the clipped waveform (second-order sections from design_butterworth)."""
    return iir_filter(v_t, sos)


def pa_power(y_p, v_sat, r_load, window):
    """Battery draw p_pa = v_sat * mean|i_L|, i_L = y_p / r_load, over the measurement window."""
    return v_sat * np.mean(np.abs(np.asarray(y_p)[window])) / r_load


def transmit_power(y_p, r_load, window):
    """Average delivered power p_t = mean(i_L * y_p) = mean(y_p^2) / r_load over the window."""
    y = np.asarray(y_p)[window]
    return np.mean(y * y) / r_load


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
