"""run_link's transmit half against tests/reference_link.py, its plainest form.

The chain's block-rate transmit kernel, in-place clip and bandpass, blocked
power sums and cached drive PSD must give the reference's p_pa, p_t and b_pa
to rounding. The bound, 1e-9 relative, was fixed before the first run; the
largest error read was 9.6e-13.
"""

import pytest

import reference_link
from onebitlink.channel import ChannelConfig
from onebitlink.pa import PaConfig
from onebitlink.pipeline import VARIANTS, SystemConfig, bpf_spec_for, run_link


# (ibo, width in B): hard clipping at a narrow bandpass, moderate clipping,
# the clipper's knee at a wide bandpass, and no clipping.
@pytest.mark.parametrize("ibo,bbpf", [(0.0316, 0.4), (0.1, 0.9), (1.0, 2.0), (10.0, 0.9)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_transmit_half_matches_the_reference(variant, ibo, bbpf):
    sys_cfg = SystemConfig(variant=variant, n_symbols=2000)
    pa_cfg = PaConfig(ibo=ibo, bpf=bpf_spec_for(bbpf, sys_cfg, 4))
    m = run_link(sys_cfg, pa_cfg, ChannelConfig())
    p_pa, p_t, b_pa = reference_link.transmit(sys_cfg, pa_cfg)
    assert (m.p_pa, m.p_t, m.b_pa) == pytest.approx((p_pa, p_t, b_pa), rel=1e-9, abs=0)
