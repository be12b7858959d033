import os

import pytest
from hypothesis import settings

from onebitlink import optimizer, pipeline

# Property tests replay the same examples on every run and keep tier-1 fast.
settings.register_profile("tier1", derandomize=True, max_examples=200, deadline=None,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture
def clear_run_caches():
    """clear_run_caches() empties every cache that run_link keeps between runs:
    each object in pipeline with a cache_clear, and the clipped drive's PSD."""

    def clear():
        for obj in vars(pipeline).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        pipeline._drive_psd.clear()

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
