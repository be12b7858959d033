import numpy as np
import pytest
from scipy import signal as sig

from onebitlink.dsp import RrcSpec, design_rrc, fir_filter, upsample_zero_insert
from onebitlink.pipeline import draw_symbols
from onebitlink.quantizers import RAIL_LEVEL, one_bit_quantize


def test_rail_level():
    assert RAIL_LEVEL == 1.0 / np.sqrt(2.0)


def test_quadrant_mapping():
    x = np.array([3 + 4j, -0.1 + 2j, -5 - 5j, 0.2 - 9j])
    y = one_bit_quantize(x)
    a = RAIL_LEVEL
    np.testing.assert_allclose(y, [a + a * 1j, -a + a * 1j, -a - a * 1j, a - a * 1j])


def test_unit_envelope():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    y = one_bit_quantize(x)
    np.testing.assert_allclose(np.abs(y), 1.0, rtol=1e-12)


def test_zero_maps_to_positive_rail():
    y = one_bit_quantize(np.array([0.0 + 0.0j]))
    np.testing.assert_allclose(y, [RAIL_LEVEL * (1 + 1j)])


def test_rounding_residue_below_zero_maps_to_positive_rail():
    # 16 eps max|x| is 5.0e-15 here: -1e-15 is a residue of an exact 0.
    y = one_bit_quantize(np.array([1.0 + 1.0j, -1e-15 - 1e-15j]))
    np.testing.assert_allclose(y[1], RAIL_LEVEL * (1 + 1j))


def test_small_genuine_negative_maps_to_negative_rail():
    x = np.array([0.7 - 1.3j, -1e-6 + 1e-6j, 2.0 - 1e-6j])
    y = one_bit_quantize(x)
    a = RAIL_LEVEL
    np.testing.assert_allclose(y, [a - a * 1j, -a + a * 1j, a - a * 1j])


@pytest.mark.parametrize("span", [8, 16])
def test_decisions_do_not_depend_on_the_summation_order(span):
    # At the half-symbol phase the shaped QPSK is exactly 0 wherever the
    # symbols around that instant are antisymmetric. Zero insertion then
    # convolution and upfirdn sum those samples in different orders, so each
    # leaves its own rounding residue there, of either sign.
    rng = np.random.default_rng(span)
    tx = draw_symbols(2000, rng)
    taps = design_rrc(RrcSpec(span=span))
    by_zero_insertion = fir_filter(upsample_zero_insert(tx, 4), taps)
    delay = (len(taps) - 1) // 2
    by_upfirdn = sig.upfirdn(taps, tx, up=4)[delay:delay + 4 * len(tx)]
    assert np.any(np.abs(by_zero_insertion.real) < 1e-12)  # the exact zeros are there
    np.testing.assert_array_equal(one_bit_quantize(by_zero_insertion),
                                  one_bit_quantize(by_upfirdn))
