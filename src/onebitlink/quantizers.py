"""Converter model: 1-bit per rail. Ideal converters pass samples through unchanged."""

import numpy as np

# Rail level: 1-bit outputs (+-a +-ja) then have unit symbol energy,
# matching the unit-energy QPSK source. Downstream RMS normalization makes the
# exact value immaterial to the reported metrics.
RAIL_LEVEL = 1.0 / np.sqrt(2.0)


def one_bit_quantize(x):
    """Per-rail sign quantizer: a*sign(Re x) + j*a*sign(Im x) with a = RAIL_LEVEL, sign(0) := +1."""
    x = np.asarray(x)
    re = np.where(x.real >= 0.0, RAIL_LEVEL, -RAIL_LEVEL)
    im = np.where(x.imag >= 0.0, RAIL_LEVEL, -RAIL_LEVEL)
    return re + 1j * im
