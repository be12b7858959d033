"""AWGN channel with noise power calibrated from a target SINR.

The receiver-side interference of adjacent channels is bookkept as a fixed
multiple of the thermal noise power (interference_ratio), so the calibration
solves alpha * p_t / ((1 + ratio) * sigma_n^2) = 10^(sinr_db/10) for sigma_n^2.
Only the thermal term is injected into the waveform; the interferers exist in
the budget, not in the simulation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class ChannelConfig:
    alpha: float = 1.0
    sinr_db: float = 10.0
    interference_ratio: float = 2.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigurationError(f"channel gain alpha must be positive, got {self.alpha}")
        if self.interference_ratio < 0:
            raise ConfigurationError(
                f"interference_ratio must be nonnegative, got {self.interference_ratio}")
        # calibrate_noise scales p_t by this factor; it must stay a usable number.
        try:
            factor = self.alpha / ((1.0 + self.interference_ratio) * 10.0 ** (self.sinr_db / 10.0))
        except (OverflowError, ZeroDivisionError):  # 10**x overflowed, or underflowed to 0
            factor = math.inf
        if not 0.0 < factor < math.inf:
            raise ConfigurationError(
                f"alpha={self.alpha}, interference_ratio={self.interference_ratio} and "
                f"sinr_db={self.sinr_db} give no positive finite noise calibration factor")


def calibrate_noise(p_t, cfg):
    """In-band noise power sigma_n^2 that realizes cfg.sinr_db for transmit power p_t."""
    if p_t <= 0:
        raise ValueError(f"transmit power must be positive, got {p_t}")
    return cfg.alpha * p_t / ((1.0 + cfg.interference_ratio) * 10.0 ** (cfg.sinr_db / 10.0))


def noise_scale(sigma_n2, b, fs):
    """Per-sample RMS of real white noise at rate `fs` whose band of width `b` has power sigma_n2.

    The variance sigma_n2 * (fs/2) / b is a flat one-sided density of
    sigma_n2 / b over [0, fs/2].
    """
    return np.sqrt(sigma_n2 * (fs / 2.0) / b)


def add_awgn(x, sigma_n2, b, fs, rng):
    """Add white Gaussian noise to the real waveform `x`; a band of width `b` gets power sigma_n2.

    The per-sample RMS is noise_scale(sigma_n2, b, fs). `rng` is an integer seed or a
    numpy Generator; generation uses numpy's default PCG64 bit stream, so a
    fixed seed reproduces the identical waveform.
    """
    if sigma_n2 < 0:
        raise ValueError(f"noise power must be nonnegative, got {sigma_n2}")
    x = np.asarray(x)
    if sigma_n2 == 0.0:
        return x
    gen = np.random.default_rng(rng)
    noise = gen.standard_normal(len(x))
    noise *= noise_scale(sigma_n2, b, fs)
    noise += x
    return noise
