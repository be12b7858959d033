"""The names perfbench/ relies on must keep existing in the package.

perfbench/run.py is read with `ast`, not imported, so its environment side
effects (thread variables, sys.path) stay out of the test process.
"""

import ast
import dataclasses
import importlib.util
import os

import onebitlink
from onebitlink import config, pipeline
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


def test_frame_config_keys_parse():
    text = _constant("FRAME_CONFIG").format(ibo="0.1, 1", bbpf="0.9", systems="sys1, sys2")
    cfg = config.parse_config_text(text)
    assert cfg.n_symbols == 10000 and cfg.grid_bbpf == (0.9,)


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
