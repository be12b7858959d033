"""run_link against tests/reference_link.py, its plainest form, without noise.

The chain's block-rate kernels, in-place clip and bandpass, blocked power
sums and cached transmit input, bandpass design and drive PSD must give the
reference's p_pa, p_t and b_pa to rounding, and its lag and MI. Each bound
was fixed before the first run:
- p_pa, p_t and b_pa within 1e-9 relative (the largest error read was 9.6e-13);
- the same lag;
- the MI within 1e-9 of the reference's, with each 1-bit ADC decision that
  rounding may take either way (a rail within 1e-9 of 0) taken either way,
  and at most 4 such rails a point.
They hold at 12 points of the default link and at settings drawn over the
accepted rates, carriers, frame lengths, pulse shapes and filter orders.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_link
from onebitlink import channel, dsp, quantizers
from onebitlink.channel import ChannelConfig
from onebitlink.errors import ConfigurationError, StageError
from onebitlink.pa import PaConfig
from onebitlink.pipeline import VARIANTS, SystemConfig, bpf_spec_for, run_link

# (ibo, width in B): hard clipping at a narrow bandpass, moderate clipping,
# the clipper's knee at a wide bandpass, and no clipping.
CASES = pytest.mark.parametrize("ibo,bbpf", [(0.0316, 0.4), (0.1, 0.9), (1.0, 2.0), (10.0, 0.9)])
ON_EACH_VARIANT = pytest.mark.parametrize("variant", VARIANTS)


@functools.cache
def _point(variant, ibo, bbpf):
    """_run_both at one point of the default link at 2000 symbols. Cached, so
    each test of a point runs it once."""
    sys_cfg = SystemConfig(variant=variant, n_symbols=2000)
    return _run_both(sys_cfg, PaConfig(ibo=ibo, bpf=bpf_spec_for(bbpf, sys_cfg, 4)))


def _run_both(sys_cfg, pa_cfg):
    """The chain at (sys_cfg, pa_cfg) with channel.noise_scale at 0, and the
    reference there: (sys_cfg, the chain's metrics, None if its align stage
    refused, the lags its align found and its ADC input, the symbols, and the
    reference's ADC input and (p_pa, p_t, b_pa))."""
    lags, quantized = [], []

    def recorded(*args, _fn=dsp.align, **kwargs):
        out = _fn(*args, **kwargs)
        lags.append(out[0])
        return out

    def recorded_quantize(x, _fn=quantizers.one_bit_quantize):
        quantized.append(x)
        return _fn(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "noise_scale", lambda *args: 0.0)
        mp.setattr(dsp, "align", recorded)
        mp.setattr(quantizers, "one_bit_quantize", recorded_quantize)
        try:
            m = run_link(sys_cfg, pa_cfg, ChannelConfig())
        except StageError as exc:
            if exc.stage != "align":
                raise
            m = None
    # The ADC's is the last quantizer call, after the DAC's.
    chain_r = quantized[-1] if sys_cfg.one_bit else None
    symbols, y, powers = reference_link.transmit(sys_cfg, pa_cfg)
    return (sys_cfg, m, lags, chain_r, symbols, reference_link.adc_input(sys_cfg, y), powers)


def _check_transmit_half(point):
    _, m, _, _, _, _, powers = point
    assert (m.p_pa, m.p_t, m.b_pa) == pytest.approx(powers, rel=1e-9, abs=0)


def _check_receive_half(point):
    """The chain's lag and MI are the reference's, with the reference's ADC
    deciding each rail the chain's ADC decided the other way; each such rail
    must be within 1e-9 of 0. Where the chain's align refused, the reference's
    lag search must peak on the window's last lag."""
    sys_cfg, m, lags, chain_r, symbols, r, _ = point
    flips = []
    if sys_cfg.one_bit:
        chain, ref = (reference_link.one_bit(x).view(np.float64) for x in (chain_r, r))
        flips = np.flatnonzero(chain != ref)
        assert set(flips) <= set(reference_link.near_zero(r)), flips
    lag, mi = reference_link.detect(sys_cfg, symbols, r, flips)
    if m is None:
        assert lag is None
        return
    assert lags == [lag]
    assert m.mi == pytest.approx(mi, rel=0, abs=1e-9)


@CASES
@ON_EACH_VARIANT
def test_transmit_half_matches_the_reference(variant, ibo, bbpf):
    _check_transmit_half(_point(variant, ibo, bbpf))


@CASES
@ON_EACH_VARIANT
def test_receive_half_matches_the_reference(variant, ibo, bbpf):
    point = _point(variant, ibo, bbpf)
    sys_cfg, m, r = point[0], point[1], point[5]
    near = reference_link.near_zero(r) if sys_cfg.one_bit else []
    assert len(near) <= 4, f"{len(near)} ADC rails within 1e-9 of 0"
    assert m is not None
    _check_receive_half(point)


@st.composite
def _settings(draw):
    """(sys_cfg, pa_cfg) over the accepted inputs; a draw the config rules reject
    is discarded. The frame lengths are rarely whole pa blocks."""
    order = draw(st.integers(1, 16))
    try:
        sys_cfg = SystemConfig(
            variant=draw(st.sampled_from(VARIANTS)),
            analog_sps=draw(st.sampled_from([64, 96, 128, 192, 256])),
            fc_multiple=draw(st.floats(8.0, 40.0)),
            n_symbols=draw(st.integers(300, 900)),
            rrc=dsp.RrcSpec(roll_off=draw(st.floats(0.05, 1.0)), span=draw(st.integers(8, 24))),
            lpf=dsp.ButterworthSpec(order=draw(st.integers(1, 16))),
            seed=draw(st.integers(0, 2 ** 32)))
        pa_cfg = PaConfig(ibo=draw(st.floats(0.01, 20.0)),
                          bpf=bpf_spec_for(draw(st.floats(0.3, 4.0)), sys_cfg, order))
    except ConfigurationError:
        assume(False)
    return sys_cfg, pa_cfg


def _short_link(variant, lpf_order, bpf, ibo):
    """A 300-symbol, 64-sample frame at an 8 B carrier, span 8, roll-off 1."""
    sys_cfg = SystemConfig(variant=variant, fc_multiple=8.0, analog_sps=64, n_symbols=300,
                           rrc=dsp.RrcSpec(roll_off=1.0, span=8),
                           lpf=dsp.ButterworthSpec(order=lpf_order), seed=0)
    return sys_cfg, PaConfig(ibo=ibo, bpf=bpf)


@pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
@settings(max_examples=20, derandomize=True)
@given(_settings())
# Two points hypothesis found: 6 rails within 1e-9 of 0 at the frame's start;
# and a delay that reaches the lag window's end, which align refuses.
@example(_short_link("sys2", 10, dsp.ButterworthSpec(order=1, cutoff_low=7.5, cutoff_high=8.5),
                     1.0))
@example(_short_link("sys3", 16, dsp.ButterworthSpec(order=5, cutoff_low=7.849609375,
                                                     cutoff_high=8.150390625), 1.0))
def test_both_halves_match_the_reference_over_the_accepted_inputs(point):
    # The caches carry from draw to draw, so their keys are checked too. A
    # frame's first ADC samples precede the signal, so more than 4 rails may
    # sit within 1e-9 of 0 here. The config rules bound the bandpass's delay
    # only, so at high lowpass orders and short spans the link's delay can
    # reach the end of the lag window and align refuses the point; the
    # reference must then peak there too, and no powers are returned.
    both = _run_both(*point)
    if both[1] is not None:
        _check_transmit_half(both)
    _check_receive_half(both)
