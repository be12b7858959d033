"""Property tests: the config parser, the LinkMetrics checks and the link invariants."""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitlink import cli, config, pipeline
from onebitlink.channel import ChannelConfig
from onebitlink.errors import ConfigurationError
from onebitlink.metrics import LinkMetrics
from onebitlink.pa import HARMONIC_BOUND, PaConfig

_NUMBER = st.one_of(st.integers(-3, 300).map(str), st.integers(-10 ** 6, 10 ** 12).map(str),
                    st.floats().map(repr))
_VALUE = st.one_of(
    _NUMBER,
    st.sampled_from(["", "none", "sys1", "sys2", "sys3", "sys4", "sys2, sys2", "x", "1:2"]),
    st.lists(_NUMBER, min_size=1, max_size=4).map(", ".join),
    st.tuples(_NUMBER, _NUMBER, _NUMBER).map(":".join),
)


@given(st.dictionaries(st.sampled_from(sorted(config._SCHEMA)), _VALUE, max_size=4))
def test_any_config_text_builds_or_raises_configuration_error(values):
    # A few keys at a time, the rest at their defaults, so that each key's own
    # range is reached instead of the first check that any other key fails.
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    try:
        cfg = config.parse_config_text(text)
    except ConfigurationError:
        return
    for build in (cfg.system_config, cfg.pa_config, cfg.channel_config, cfg.grid_spec):
        try:
            build()
        except ConfigurationError:
            pass


_FIELDS = ("mi", "rate_r", "b_pa", "p_pa", "p_t", "eta_p", "eta_b", "fom", "fom_normalized")


@given(st.fixed_dictionaries({
    name: st.one_of(st.floats(), st.floats(-0.5, 2.5), st.sampled_from([0.0, 2.0]))
    for name in _FIELDS}))
def test_link_metrics_accepts_exactly_the_physical_rows(values):
    physical = (all(math.isfinite(v) for v in values.values())
                and values["p_pa"] >= 0 and values["p_t"] >= 0
                and values["p_t"] <= HARMONIC_BOUND * values["p_pa"] * (1.0 + 1e-9)
                and -1e-9 <= values["mi"] <= 2.0 + 1e-9)
    try:
        LinkMetrics(**values)
    except ValueError:
        assert not physical
    else:
        assert physical


@settings(max_examples=12)
@given(variant=st.sampled_from(pipeline.VARIANTS), ibo=st.floats(0.01, 100.0),
       bbpf=st.floats(0.3, 2.5), seed=st.integers(0, 2 ** 32))
def test_every_link_point_meets_the_invariants(variant, ibo, bbpf, seed):
    sys_cfg = pipeline.SystemConfig(variant=variant, n_symbols=500, seed=seed)
    m = pipeline.run_link(sys_cfg, PaConfig(ibo=ibo, bpf=pipeline.bpf_spec_for(bbpf, sys_cfg, 4)),
                          ChannelConfig())
    assert 0.0 <= m.mi <= 2.0 + 1e-9 and m.rate_r == m.mi * sys_cfg.b
    assert 0.0 < m.p_t <= HARMONIC_BOUND * m.p_pa * (1.0 + 1e-9)
    assert m.fom == m.eta_p * m.eta_b and m.eta_b == m.rate_r / m.b_pa


# Log-uniform over the positive floats, subnormals included.
_MAGNITUDE = st.floats(-323.0, 308.0).map(lambda e: 10.0 ** e)
_RUN_KEYS = {
    "pa.ibo": _MAGNITUDE, "pa.r_load": _MAGNITUDE, "channel.alpha": _MAGNITUDE,
    "channel.interference_ratio": _MAGNITUDE, "channel.sinr_db": st.floats(-3300.0, 3300.0),
    "seed": st.integers(0, 2 ** 32),
}


@settings(max_examples=150)
@given(st.lists(st.sampled_from(sorted(_RUN_KEYS)), min_size=1, max_size=3, unique=True)
       .flatmap(lambda keys: st.fixed_dictionaries({k: _RUN_KEYS[k] for k in keys})))
def test_any_accepted_numeric_setting_runs_to_finite_metrics(values):
    # Exit 1 is a rejected setting; exit 2, a run that broke on an accepted one.
    # The test configuration turns numpy's RuntimeWarnings into errors, so an
    # intermediate that leaves the float range on the way is exit 2 as well.
    text = "system.n_symbols = 600\n" + "".join(f"{k} = {v!r}\n" for k, v in values.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        rc = cli.main(["run", "--config", path, "--out", os.path.join(tmp, "o")])
        assert rc in (0, 1)
        if rc == 0:
            with open(os.path.join(tmp, "o", "run.csv")) as fh:
                row = fh.read().splitlines()[1].split(",")
            assert all(math.isfinite(float(cell)) for cell in row[1:]), row
