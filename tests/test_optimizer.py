import os
import time
import types
import warnings
from dataclasses import replace

import pytest

from onebitlink.channel import ChannelConfig
from onebitlink.dsp import AlignmentAmbiguityWarning
from onebitlink.errors import ConfigurationError
from onebitlink.metrics import LinkMetrics
from onebitlink.optimizer import GridSpec, grid_search
from onebitlink.pa import PaConfig
from onebitlink.pipeline import SystemConfig, bpf_spec_for


def _metrics(fom_norm, mi=1.5):
    return LinkMetrics(mi=mi, rate_r=mi, b_pa=1.0, p_pa=1.0, p_t=1.0,
                       eta_p=mi, eta_b=mi, fom=mi * mi, fom_normalized=fom_norm)


def _warning_runner(system, ibo, bbpf, seed):
    warnings.warn(f"point {ibo} {bbpf}", AlignmentAmbiguityWarning)
    return _metrics(1.0)


def _pid_runner(system, ibo, bbpf, seed):
    time.sleep(0.01)  # long enough that both workers of a pool take tasks
    return types.SimpleNamespace(fom_normalized=0.0, pid=os.getpid())


def _configs(n_symbols=1500):
    sys_cfg = SystemConfig(n_symbols=n_symbols)
    return sys_cfg, PaConfig(bpf=bpf_spec_for(0.9, sys_cfg, 4)), ChannelConfig()


class TestGridSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(ibo_values=(), bbpf_values=(0.9,), systems=("sys2",)),
        dict(ibo_values=(0.1,), bbpf_values=(), systems=("sys2",)),
        dict(ibo_values=(0.1, 0.1), bbpf_values=(0.9,), systems=("sys2",)),
        dict(ibo_values=(-0.1, 1.0), bbpf_values=(0.9,), systems=("sys2",)),
        dict(ibo_values=(0.1,), bbpf_values=(1.0, 0.5), systems=("sys2",)),
        dict(ibo_values=(0.1,), bbpf_values=(0.9,), systems=()),
        dict(ibo_values=(0.1,), bbpf_values=(0.9,), systems=("sysX",)),
        dict(ibo_values=(0.1,), bbpf_values=(0.9,), systems=("sys2", "sys2")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            GridSpec(**kwargs)

    def test_points_above_the_bound_rejected(self):
        ibo = tuple(0.001 * k for k in range(1, 5001))
        assert GridSpec(ibo, (0.9, 1.0), ("sys2",))  # 10000 points: at the bound
        with pytest.raises(ConfigurationError, match="20000 points.*more than 10000"):
            GridSpec(ibo, (0.9, 1.0), ("sys1", "sys2"))


class TestGridSearchWithRunner:
    def test_exhaustive_and_sorted(self):
        grid = GridSpec((0.1, 1.0), (0.8, 0.9), systems=("sys2", "sys1"))
        calls = []

        def runner(system, ibo, bbpf, seed):
            calls.append((system, ibo, bbpf, seed))
            return _metrics(1.0)

        res = grid_search(grid, *_configs(), runner=runner)
        assert len(res.points) == 8
        keys = [(p.system, p.ibo, p.b_bpf) for p in res.points]
        assert keys == sorted(keys)
        assert len(set(calls)) == 8

    def test_tie_breaks_toward_smaller_ibo_then_width(self):
        grid = GridSpec((0.1, 1.0), (0.8, 0.9), ("sys2",))

        def runner(system, ibo, bbpf, seed):
            return _metrics(2.0)  # every point ties

        res = grid_search(grid, *_configs(), runner=runner)
        assert res.argmax["sys2"] == (0.1, 0.8, 2.0)

    def test_failures_recorded_and_skipped(self):
        grid = GridSpec((0.1, 1.0), (0.9,), ("sys2",))

        def runner(system, ibo, bbpf, seed):
            if ibo == 0.1:
                raise RuntimeError("diverged")
            return _metrics(1.3)

        res = grid_search(grid, *_configs(), runner=runner)
        bad = res.failures()
        assert len(bad) == 1
        assert bad[0].ibo == 0.1 and "diverged" in bad[0].error
        assert res.argmax["sys2"] == (1.0, 0.9, 1.3)

    def test_all_failed_leaves_no_argmax(self):
        # sys1 fails everywhere, sys2 only at b_bpf 1.0: each point's error is
        # recorded, and only sys2 gets an argmax.
        grid = GridSpec((0.1,), (0.9, 1.0), ("sys1", "sys2"))

        def runner(system, ibo, bbpf, seed):
            if system == "sys1" or bbpf == 1.0:
                raise RuntimeError(f"nope at {bbpf:g}")
            return _metrics(0.5)

        res = grid_search(grid, *_configs(), runner=runner)
        assert res.argmax == {"sys2": (0.1, 0.9, 0.5)}
        assert [(p.system, p.b_bpf, p.error) for p in res.failures()] == [
            ("sys1", 0.9, "RuntimeError: nope at 0.9"),
            ("sys1", 1.0, "RuntimeError: nope at 1"),
            ("sys2", 1.0, "RuntimeError: nope at 1")]

    def test_argmax_is_true_maximum(self):
        grid = GridSpec((0.1, 1.0), (0.8, 0.9, 1.0), ("sys2",))
        table = {(0.1, 0.8): 0.3, (0.1, 0.9): 0.7, (0.1, 1.0): 0.2,
                 (1.0, 0.8): 0.5, (1.0, 0.9): 0.6, (1.0, 1.0): 0.1}

        def runner(system, ibo, bbpf, seed):
            return _metrics(table[(ibo, bbpf)])

        res = grid_search(grid, *_configs(), runner=runner)
        ibo, bbpf, fom = res.argmax["sys2"]
        assert (ibo, bbpf) == (0.1, 0.9)
        assert fom == max(table.values())
        # argmax must agree with a direct re-scan of the returned points
        best = max((p for p in res.points if p.metrics is not None),
                   key=lambda p: p.metrics.fom_normalized)
        assert (best.ibo, best.b_bpf) == (ibo, bbpf)


class TestRealEvaluation:
    def test_parallel_matches_serial(self):
        # identical per-point seeds make worker scheduling invisible
        grid = GridSpec((0.1,), (0.8, 0.9), ("sys2",))
        args = _configs()
        serial = grid_search(grid, *args, jobs=1)
        parallel = grid_search(grid, *args, jobs=2)
        for a, b in zip(serial.points, parallel.points):
            assert a.metrics == b.metrics

    def test_each_row_runs_in_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        grid = GridSpec((0.1, 1.0), (0.8, 0.9), ("sys1", "sys2", "sys3"))
        res = grid_search(grid, *_configs(), jobs=2, runner=_pid_runner)
        assert res.workers == 2
        pids = {}
        for p in res.points:
            pids.setdefault((p.system, p.ibo), set()).add(p.metrics.pid)
        assert len(pids) == 6
        assert all(len(row) == 1 for row in pids.values())

    def test_point_warnings_reach_the_caller_in_grid_order(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        grid = GridSpec((0.1, 1.0), (0.8, 0.9), ("sys2",))
        expected = [f"point {i} {b}" for i in (0.1, 1.0) for b in (0.8, 0.9)]

        def shown(jobs, action):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action, AlignmentAmbiguityWarning)
                res = grid_search(grid, *_configs(), jobs=jobs, runner=_warning_runner)
            assert res.workers == jobs
            return [str(w.message) for w in caught if w.category is AlignmentAmbiguityWarning]

        for jobs in (1, 2):
            assert shown(jobs, "always") == expected
            assert shown(jobs, "ignore") == []  # the caller's own filter still hides them

    def test_seed_pairing_across_systems(self):
        grid = GridSpec((0.1, 1.0), (0.8, 0.9), systems=("sys1", "sys2"))
        seen = []

        def runner(system, ibo, bbpf, seed):
            seen.append(seed)
            return _metrics(1.0)

        sys_cfg, pa_cfg, ch_cfg = _configs()
        grid_search(grid, replace(sys_cfg, seed=7), pa_cfg, ch_cfg, runner=runner)
        # every variant, back-off and width draws the sweep's own symbol and
        # noise streams, so run_link at that seed reproduces any point
        assert seen == [7] * 8


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs"):
            grid_search(GridSpec((0.1,), (0.9,), ("sys2",)), *_configs(),
                        jobs=jobs, runner=lambda *task: _metrics(1.0))

    @pytest.mark.parametrize("cpus,n_bbpf,expected", [(4, 2, 2), (3, 8, 3), (16, 5, 5)])
    def test_workers_capped_at_points_and_cores(self, fake_pool, cpus, n_bbpf, expected):
        started = fake_pool(cpus)
        grid = GridSpec((0.1,), tuple(0.5 + 0.1 * k for k in range(n_bbpf)), ("sys2",))
        res = grid_search(grid, *_configs(), jobs=64, runner=lambda *task: _metrics(1.0))
        assert started == [expected]
        assert res.workers == expected
        assert len(res.points) == n_bbpf

    def test_single_core_runs_serially(self, fake_pool):
        started = fake_pool(1)
        res = grid_search(GridSpec((0.1, 1.0), (0.9,), ("sys2",)), *_configs(), jobs=64,
                          runner=lambda *task: _metrics(1.0))
        assert started == []
        assert res.workers == 1

    @pytest.mark.parametrize("cpus,ibo,bbpf,systems,lengths", [
        (2, (0.1, 0.3, 1.0, 2.0), (0.8, 0.9), ("sys1", "sys2", "sys3"), [2] * 12),
        (4, (0.1,), (0.5, 0.6, 0.7, 0.8, 0.9), ("sys2",), [2, 2, 1]),
        (4, (0.1, 1.0), (0.5, 0.6, 0.7), ("sys2",), [2, 2, 2]),
        (16, (0.1, 1.0), (0.8, 0.9), ("sys1", "sys3"), [1] * 8),
        (3, (0.1,), (0.8,), ("sys1", "sys2", "sys3"), [1, 1, 1]),
        (4, (0.1, 0.3, 1.0), (0.5, 0.6, 0.7, 0.8, 0.9), ("sys2",), [4, 4, 4, 3]),
    ])
    def test_pool_takes_whole_rows_split_only_for_idle_workers(self, fake_pool, cpus, ibo,
                                                                bbpf, systems, lengths):
        mapped = []
        fake_pool(cpus, mapped)
        res = grid_search(GridSpec(ibo, bbpf, systems), *_configs(), jobs=64,
                          runner=lambda *task: _metrics(1.0))
        [chunks] = mapped
        grid_order = [(s, i, b) for s in sorted(systems) for i in ibo for b in bbpf]
        assert [t[:3] for chunk in chunks for t in chunk] == grid_order
        assert [(p.system, p.ibo, p.b_bpf) for p in res.points] == grid_order
        assert [len(chunk) for chunk in chunks] == lengths
        assert max(lengths) <= -(-len(grid_order) // res.workers)
        if len(systems) * len(ibo) >= res.workers:
            assert all(len({t[:2] for t in chunk}) == 1 for chunk in chunks)  # one row each
            assert len(chunks) >= res.workers
