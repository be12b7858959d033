"""AWGN channel with noise power calibrated from a target SINR.

The receiver-side interference of adjacent channels is bookkept as a fixed
multiple of the thermal noise power (interference_ratio), so the calibration
solves alpha * p_t / ((1 + ratio) * sigma_n^2) = 10^(sinr_db/10) for sigma_n^2.
The solution is the received power alpha * p_t times ChannelConfig.noise_ratio.
Only the thermal term is injected into the waveform; the interferers exist in
the budget, not in the simulation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Range of the noise ratio, +-2900 dB of SINR at interference_ratio 0. A noise
# sample's square is about the ratio times fs / 2B (below 2^23 within the frame
# limit), and the receiver sums such squares over up to 2^24 samples.
NOISE_RATIO_RANGE = (1e-290, 1e290)


@dataclass(frozen=True)
class ChannelConfig:
    alpha: float = 1.0
    sinr_db: float = 10.0
    interference_ratio: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigurationError(f"channel gain alpha must be positive, got {self.alpha}")
        if self.interference_ratio < 0:
            raise ConfigurationError(
                f"interference_ratio must be nonnegative, got {self.interference_ratio}")
        low, high = NOISE_RATIO_RANGE
        try:
            ratio = self.noise_ratio()
        except (OverflowError, ZeroDivisionError):  # 10**x overflowed, or underflowed to 0
            ratio = float("nan")
        if not low <= ratio <= high:
            raise ConfigurationError(
                f"interference_ratio={self.interference_ratio} and sinr_db={self.sinr_db} put "
                f"the noise ratio 1 / ((1 + interference_ratio) 10^(sinr_db/10)) outside "
                f"[{low:g}, {high:g}]")

    def noise_ratio(self):
        """sigma_n^2 / (alpha p_t): the noise power realizing sinr_db per unit received power."""
        return 1.0 / ((1.0 + self.interference_ratio) * 10.0 ** (self.sinr_db / 10.0))


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
