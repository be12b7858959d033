"""The package's modules import each other without a cycle.

The graph is built from each module's `from . import ...` and
`from .module import ...` statements, read with `ast`, so nothing is imported.
"""

import ast
import os

import onebitlink

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
