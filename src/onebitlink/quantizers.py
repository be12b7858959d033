"""Converter model: 1-bit per rail, with rounding residue read as 0; ideal ones pass samples on."""

import numpy as np

# Rail level: 1-bit outputs (+-a +-ja) then have unit symbol energy,
# matching the unit-energy QPSK source. Downstream RMS normalization makes the
# exact value immaterial to the reported metrics.
RAIL_LEVEL = 1.0 / np.sqrt(2.0)


def one_bit_quantize(x):
    """Per-rail sign quantizer: a*sign(Re x) + j*a*sign(Im x) with a = RAIL_LEVEL, sign(0) := +1,
    where a rail within 16 eps max|x| of 0 is 0 (a BLAS kernel sums an exact 0 to +-1e-17)."""
    x = np.asarray(x)
    zero = 16.0 * np.finfo(np.float64).eps * np.max(np.abs(x), initial=0.0)
    rails = np.where(x.real >= -zero, RAIL_LEVEL, -RAIL_LEVEL).astype(np.complex128)
    rails.imag = np.where(x.imag >= -zero, RAIL_LEVEL, -RAIL_LEVEL)  # in place: no 1j * im
    return rails
