import importlib
import os
import pkgutil

import pytest
from hypothesis import settings

import onebitlink
from onebitlink import optimizer, pipeline

# Property tests replay the same examples on every run and keep tier-1 fast.
settings.register_profile("tier1", derandomize=True, max_examples=200, deadline=None,
                          database=None)
settings.load_profile("tier1")


def run_caches():
    """Every object with a cache_clear in any onebitlink module, by "module.name"."""
    modules = [importlib.import_module(f"onebitlink.{info.name}")
               for info in pkgutil.iter_modules(onebitlink.__path__)]
    return {f"{module.__name__}.{name}": obj for module in modules
            for name, obj in vars(module).items() if hasattr(obj, "cache_clear")}


@pytest.fixture
def clear_run_caches():
    """clear_run_caches() empties every cache that run_link keeps between runs:
    each object in any onebitlink module with a cache_clear, and pipeline._kept."""

    def clear():
        for cache in run_caches().values():
            cache.cache_clear()
        pipeline._kept.clear()

    return clear


@pytest.fixture
def fake_pool(monkeypatch):
    """fake_pool(cpus) swaps the process pool for an in-process fake on a `cpus`-core
    machine and returns the list of max_workers values the pool was started with.
    fake_pool(cpus, mapped) also appends to the list `mapped` the chunks each map
    call cut its tasks into: like ProcessPoolExecutor.map, consecutive tuples of
    `chunksize` tasks, the last one possibly shorter."""

    def install(cpus, mapped=None):
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                if mapped is not None:
                    mapped.append([tuple(tasks[i:i + chunksize])
                                   for i in range(0, len(tasks), chunksize)])
                return map(fn, tasks)

        monkeypatch.setattr(optimizer, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return started

    return install
