"""Analytic oracle for the noise calibration: the receiver sees the Es/N0 the
channel was calibrated for.

The channel solves alpha p_t / ((1 + ratio) sigma_n^2) = SINR, so sigma_n^2 is
alpha p_t times ChannelConfig.noise_ratio, but injects only the thermal part,
so the receiver sees Es/N0 = alpha p_t / sigma_n^2 = (1 + ratio) 10^(sinr_db/10).
On sys1 with nothing clipped (ibo 10) and a wide bandpass (10 B), the sign of
each aligned dimension is then a binary symmetric channel with crossover
p = Q(sqrt(Es/N0)), and the 2-bin MI of the aligned values estimates
2 (1 - H_b(p)) (Proakis & Salehi, Digital Communications, 5th ed.).
r_load = 2 and alpha = 0.5 check that neither moves the noise the receiver sees.
"""

import math

import numpy as np
import pytest

from onebitlink import metrics, pipeline
from onebitlink.channel import ChannelConfig
from onebitlink.pa import PaConfig

RATIO = ChannelConfig.interference_ratio
# Tolerance in standard errors of the plug-in estimate, set before any run.
K_SE = 3.0


def _q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _h_b(p):
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@pytest.mark.parametrize("esn0_db", [-3.0, 0.0, 3.0])
def test_hard_decision_mi_matches_the_bsc_oracle(monkeypatch, esn0_db):
    sys_cfg = pipeline.SystemConfig(variant="sys1")
    pa_cfg = PaConfig(ibo=10.0, r_load=2.0, bpf=pipeline.bpf_spec_for(10.0, sys_cfg, 4))
    sinr_db = esn0_db - 10.0 * math.log10(1.0 + RATIO)
    ch_cfg = ChannelConfig(alpha=0.5, sinr_db=sinr_db)

    p = _q(math.sqrt(10.0 ** (esn0_db / 10.0)))
    oracle = 2.0 * (1.0 - _h_b(p))
    # Two independent BSC uses per symbol over the n symbols the metrics stage keeps.
    n = sys_cfg.n_symbols - 2 * sys_cfg.rrc.span
    se = math.sqrt(2.0 * p * (1.0 - p) * math.log2((1.0 - p) / p) ** 2 / n)

    captured = []
    mutual_information = metrics.mutual_information

    def capture(tx, rx, bins_per_dim):
        captured.append((np.array(tx), np.array(rx)))
        return mutual_information(tx, rx, bins_per_dim)

    monkeypatch.setattr(metrics, "mutual_information", capture)
    pipeline.run_link(sys_cfg, pa_cfg, ch_cfg)

    (tx, rx), = captured
    mi = mutual_information(tx, rx, 2)
    assert abs(mi - oracle) <= K_SE * se, (
        f"2-bin MI {mi:.4f} vs oracle {oracle:.4f}: {(mi - oracle) / se:+.2f} se")
