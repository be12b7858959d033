"""The package's modules import each other without a cycle, and its
settable values and run caches are the ones counted here.

The graph is built from each module's `from . import ...` and
`from .module import ...` statements, read with `ast`, so nothing is imported.
"""

import ast
import dataclasses
import os

import onebitlink
from conftest import run_caches
from onebitlink import config, dsp, pipeline
from onebitlink.channel import ChannelConfig
from onebitlink.pa import PaConfig

PACKAGE = os.path.dirname(os.path.abspath(onebitlink.__file__))


def _import_graph():
    """module -> sorted list of the package modules it imports."""
    modules = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}
    graph = {}
    for module in sorted(modules):
        with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    targets.update(alias.name for alias in node.names)
                else:
                    targets.add(node.module.split(".")[0])
        graph[module] = sorted(targets & modules)
    return graph


def _find_cycle(graph):
    """One import cycle as a list of modules (first == last), or None."""
    state = {}  # module -> "open" while on the DFS stack, "done" after

    def visit(module, path):
        state[module] = "open"
        for target in graph[module]:
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[module] = "done"
        return None

    for module in graph:
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_graph_sees_the_package_imports():
    graph = _import_graph()
    assert "pipeline" in graph["optimizer"] and "errors" in graph["config"]
    assert graph["errors"] == []


def test_find_cycle_reports_a_cycle():
    assert _find_cycle({"a": ["b"], "b": ["c"], "c": ["a"]}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": ["b"], "b": [], "c": ["a", "b"]}) is None


def test_package_imports_are_acyclic():
    cycle = _find_cycle(_import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def _keyword_defaults():
    """function name -> number of parameters with a default, over the package."""
    counts = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count = len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
                if count:
                    counts[f"{name[:-3]}.{getattr(node, 'name', '<lambda>')}"] = count
    return counts


def test_settable_values_are_the_counted_ones():
    # The ledger of every value a user or a caller can set. A change that adds
    # or removes a knob edits these counts and says so in CHANGES.md.
    assert len(config._SCHEMA) == 19
    assert len(dataclasses.fields(pipeline.SystemConfig)) == 7
    assert len(dataclasses.fields(config.ExperimentConfig)) == 9
    assert len(dataclasses.fields(dsp.ButterworthSpec)) == 3
    assert len(dataclasses.fields(dsp.RrcSpec)) == 3
    assert sum(f.default is not dataclasses.MISSING
               or f.default_factory is not dataclasses.MISSING
               for f in dataclasses.fields(PaConfig)) == 2
    assert _keyword_defaults() == {"cli.main": 1, "optimizer.grid_search": 2}


def test_run_caches_are_the_counted_ones(clear_run_caches):
    # The caches run_link keeps between runs, which conftest's clear_run_caches
    # empties: each object in any onebitlink module with a cache_clear, plus
    # the kinds in pipeline._kept. A change that adds or removes one edits
    # this list and says so in CHANGES.md.
    assert list(run_caches()) == ["onebitlink.pipeline._bandpass"]
    assert isinstance(pipeline._kept, dict)
    sys_cfg = pipeline.SystemConfig(n_symbols=500)
    pipeline.run_link(sys_cfg, PaConfig(bpf=pipeline.bpf_spec_for(0.9, sys_cfg, 4)),
                      ChannelConfig())
    assert pipeline._bandpass.cache_info().currsize
    assert sorted(pipeline._kept) == ["dac", "drive psd", "front end", "noise", "rms"]
    clear_run_caches()
    assert pipeline._bandpass.cache_info().currsize == 0 and not pipeline._kept
