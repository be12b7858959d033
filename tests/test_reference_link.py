"""run_link against tests/reference_link.py, its plainest form, without noise.

The chain's block-rate kernels, in-place clip and bandpass, blocked power
sums and cached drive PSD must give the reference's p_pa, p_t and b_pa to
rounding, and its lag and MI. Each bound was fixed before the first run:
- p_pa, p_t and b_pa within 1e-9 relative (the largest error read was 9.6e-13);
- the same lag;
- the MI within 1e-9 of the reference's, with each 1-bit ADC decision that
  rounding may take either way (a rail within 1e-9 of 0) taken either way,
  and at most 4 such rails a point.
"""

import functools
import itertools

import pytest

import reference_link
from onebitlink import channel, dsp
from onebitlink.channel import ChannelConfig
from onebitlink.pa import PaConfig
from onebitlink.pipeline import VARIANTS, SystemConfig, bpf_spec_for, run_link

# (ibo, width in B): hard clipping at a narrow bandpass, moderate clipping,
# the clipper's knee at a wide bandpass, and no clipping.
CASES = pytest.mark.parametrize("ibo,bbpf", [(0.0316, 0.4), (0.1, 0.9), (1.0, 2.0), (10.0, 0.9)])
ON_EACH_VARIANT = pytest.mark.parametrize("variant", VARIANTS)


@functools.cache
def _point(variant, ibo, bbpf):
    """The chain at one point with channel.noise_scale at 0, and the reference there:
    (sys_cfg, the chain's metrics and lag, the symbols, the reference's ADC input
    and its (p_pa, p_t, b_pa)). Cached, so each test of a point runs it once."""
    sys_cfg = SystemConfig(variant=variant, n_symbols=2000)
    pa_cfg = PaConfig(ibo=ibo, bpf=bpf_spec_for(bbpf, sys_cfg, 4))
    lags = []

    def recorded(*args, _fn=dsp.align, **kwargs):
        out = _fn(*args, **kwargs)
        lags.append(out[0])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "noise_scale", lambda *args: 0.0)
        mp.setattr(dsp, "align", recorded)
        m = run_link(sys_cfg, pa_cfg, ChannelConfig())
    symbols, y, powers = reference_link.transmit(sys_cfg, pa_cfg)
    return sys_cfg, m, lags, symbols, reference_link.adc_input(sys_cfg, y), powers


@CASES
@ON_EACH_VARIANT
def test_transmit_half_matches_the_reference(variant, ibo, bbpf):
    _, m, _, _, _, powers = _point(variant, ibo, bbpf)
    assert (m.p_pa, m.p_t, m.b_pa) == pytest.approx(powers, rel=1e-9, abs=0)


@CASES
@ON_EACH_VARIANT
def test_receive_half_matches_the_reference(variant, ibo, bbpf):
    sys_cfg, m, lags, symbols, r, _ = _point(variant, ibo, bbpf)
    near = reference_link.near_zero(r) if sys_cfg.one_bit else []
    assert len(near) <= 4, f"{len(near)} ADC rails within 1e-9 of 0"
    lag, mi = reference_link.detect(sys_cfg, symbols, r)
    assert lags == [lag]
    flips = itertools.chain.from_iterable(
        itertools.combinations(near, k) for k in range(1, len(near) + 1))
    alternatives = [mi] + [reference_link.detect(sys_cfg, symbols, r, f)[1] for f in flips]
    assert any(m.mi == pytest.approx(v, rel=0, abs=1e-9) for v in alternatives), (
        m.mi, alternatives)
