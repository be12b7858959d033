"""The names perfbench/ relies on must keep existing in the package.

perfbench/run.py is read with `ast`, not imported, so its environment side
effects (thread variables, sys.path) stay out of the test process.
"""

import ast
import dataclasses
import importlib.util
import os
import threading
import types

import numpy as np

import onebitlink
from onebitlink import config, optimizer, pipeline
from onebitlink.channel import ChannelConfig
from onebitlink.pa import PaConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _constant(name):
    """The literal value bound to `name` at the top level of perfbench/run.py."""
    with open(os.path.join(PERFBENCH, "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py defines no {name}")


def test_traced_functions_resolve():
    traced = _constant("TRACED")
    assert traced
    for module, attr in traced:
        fn = getattr(importlib.import_module(f"onebitlink.{module}"), attr, None)
        assert callable(fn), f"onebitlink.{module}.{attr}"


def test_traced_stages_are_the_ones_that_run(monkeypatch):
    # Every traced name below the dispatchers gets a call in one short run_link
    # per variant, except three that stay callable and traced: zoh_hold and
    # iir_filter, kept only for perfbench (the pa bandpass calls sosfilt block
    # by block itself); and add_awgn, since run_link adds the noise that
    # _lowpass_and_noise caches after the receive front end. The caches are
    # cleared first, so the lowpass design, the noise draw and the clipped
    # drive's welch_psd (in the pa stage on a miss) run whatever ran before.
    pipeline._lowpass_and_noise.cache_clear()
    pipeline._lowpass.cache_clear()
    pipeline._drive_psd.clear()
    calls = {}
    for module, attr in _constant("TRACED"):
        if (module, attr) in (("cli", "main"), ("optimizer", "grid_search")):
            continue
        owner = importlib.import_module(f"onebitlink.{module}")
        name = f"{module}.{attr}"
        calls[name] = 0

        def counted(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    for variant in pipeline.VARIANTS:
        sys_cfg = pipeline.SystemConfig(variant=variant, n_symbols=500)
        pipeline.run_link(sys_cfg, PaConfig(bpf=pipeline.bpf_spec_for(0.9, sys_cfg, 4)),
                          ChannelConfig())
    assert sorted(n for n, count in calls.items() if count == 0) == [
        "channel.add_awgn", "dsp.iir_filter", "dsp.zoh_hold"]


def test_traced_functions_run_on_the_calling_thread(monkeypatch):
    # perfbench keeps one span stack per process, so a traced function that
    # run_link's noise helper thread called would nest under whatever span the
    # main thread had open. On a cold run every traced call is on the caller's
    # thread.
    pipeline._lowpass_and_noise.cache_clear()
    pipeline._lowpass.cache_clear()
    pipeline._drive_psd.clear()
    threads = set()
    for module, attr in _constant("TRACED"):
        owner = importlib.import_module(f"onebitlink.{module}")

        def recorded(*args, _fn=getattr(owner, attr), **kwargs):
            threads.add(threading.get_ident())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, recorded)
    sys_cfg = pipeline.SystemConfig(n_symbols=500)
    pipeline.run_link(sys_cfg, PaConfig(bpf=pipeline.bpf_spec_for(0.9, sys_cfg, 4)),
                      ChannelConfig())
    assert threads == {threading.get_ident()}


def test_frame_config_keys_parse():
    text = _constant("FRAME_CONFIG").format(ibo="0.1, 1", bbpf="0.9", systems="sys1, sys2")
    cfg = config.parse_config_text(text)
    assert cfg.system_config().n_symbols == 10000 and cfg.grid_bbpf == (0.9,)


def test_final_checks_config_writes_reach_the_built_configs():
    # Sweeps.final_checks loads the frame config, writes seed and grid_bbpf,
    # records each point's seed through grid_search, then writes variant, ibo,
    # bbpf_over_b and seed and rebuilds the configs as `onebitlink run` does.
    text = _constant("FRAME_CONFIG").format(ibo="0.1, 1", bbpf="0.9", systems="sys1, sys2")
    cfg = config.parse_config_text(text)
    cfg.seed, cfg.grid_bbpf = 77, (0.8, 1.1)
    seeds = {}

    def record_seed(system, ibo, bbpf, seed):
        seeds[(system, ibo, bbpf)] = seed
        return types.SimpleNamespace(fom_normalized=0.0)

    optimizer.grid_search(cfg.grid_spec(), cfg.system_config(), cfg.pa_config(),
                          cfg.channel_config(), jobs=1, runner=record_seed)
    assert sorted(seeds) == [(s, i, b) for s in ("sys1", "sys2")
                             for i in (0.1, 1.0) for b in (0.8, 1.1)]
    assert sorted(seeds.values())[0] == 77

    cfg.variant, cfg.ibo, cfg.bbpf_over_b = "sys1", 1.0, 1.1
    cfg.seed = seeds[("sys1", 1.0, 1.1)]
    sys_cfg, pa_cfg = cfg.system_config(), cfg.pa_config()
    # the fields describe_point reads, and the seed run_link draws from
    assert (sys_cfg.variant, pa_cfg.ibo, sys_cfg.seed) == ("sys1", 1.0, cfg.seed)
    assert np.isclose((pa_cfg.bpf.cutoff_high - pa_cfg.bpf.cutoff_low) / sys_cfg.b, 1.1)
    assert (sys_cfg.n_symbols, sys_cfg.analog_sps) == (10000, 128)
    assert cfg.channel_config() == ChannelConfig(alpha=1.0, sinr_db=10.0,
                                                 interference_ratio=2.0)


def test_metrics_tuple_accepts_link_metrics():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  os.path.join(PERFBENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sys_cfg = pipeline.SystemConfig(n_symbols=500)
    m = pipeline.run_link(sys_cfg, PaConfig(bpf=pipeline.bpf_spec_for(0.9, sys_cfg, 4)),
                          ChannelConfig())
    assert spans.metrics_tuple(m) == list(dataclasses.astuple(m))


def test_package_exports_resolve():
    for name in onebitlink.__all__:
        assert hasattr(onebitlink, name), name
