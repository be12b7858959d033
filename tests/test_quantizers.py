import numpy as np

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

