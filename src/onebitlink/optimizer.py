"""Exhaustive grid search over (system, ibo, b_bpf) maximizing the normalized FOM."""

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, pipeline
from .errors import ConfigurationError


@dataclass(frozen=True)
class GridSpec:
    """Search grid: back-off values, bandpass widths (in units of B), and variants."""

    ibo_values: tuple
    bbpf_values: tuple
    systems: tuple = (pipeline.SystemConfig.variant,)

    def __post_init__(self):
        for name, values in (("ibo", self.ibo_values), ("b_bpf", self.bbpf_values)):
            arr = np.asarray(values, dtype=float)
            if arr.size == 0:
                raise ConfigurationError(f"empty {name} grid")
            if np.any(arr <= 0):
                raise ConfigurationError(f"{name} grid values must be positive")
            if np.any(np.diff(arr) <= 0):
                raise ConfigurationError(f"{name} grid must be strictly increasing")
        if not self.systems:
            raise ConfigurationError("empty system list")
        if len(set(self.systems)) != len(self.systems):
            raise ConfigurationError(f"repeated system variants in {list(self.systems)}")
        unknown = set(self.systems) - set(pipeline.VARIANTS)
        if unknown:
            raise ConfigurationError(f"unknown system variants: {sorted(unknown)}")


@dataclass(frozen=True)
class GridPoint:
    system: str
    ibo: float
    b_bpf: float
    metrics: object = None
    error: str = ""


@dataclass(frozen=True)
class GridResult:
    """All evaluated points, the per-system argmax of the normalized FOM, and
    the number of worker processes started (1 when run in process)."""

    points: tuple
    argmax: dict
    workers: int

    def failures(self):
        return [p for p in self.points if p.metrics is None]


def _point_seed(base_seed, i_ibo, j_bbpf, n_bbpf):
    # Flat enumeration of the (ibo, b_bpf) grid; the variant is deliberately
    # absent so cross-system comparisons at one grid point are paired.
    return base_seed + i_ibo * n_bbpf + j_bbpf


def _run_point(sys_cfg, pa_cfg, ch_cfg, system, ibo, bbpf, seed):
    cfg = replace(sys_cfg, variant=system, seed=seed)
    cfg_pa = replace(pa_cfg, ibo=ibo,
                     bpf=pipeline.bpf_spec_for(bbpf, cfg, pa_cfg.bpf.order))
    # Looked up through the module on every call, so a wrapper installed on
    # pipeline.run_link sees every point, pool workers included.
    return pipeline.run_link(cfg, cfg_pa, ch_cfg)


def _eval_point(runner, task):
    system, ibo, bbpf, _ = task
    try:
        return GridPoint(system, ibo, bbpf, metrics=runner(*task))
    except Exception as exc:
        return GridPoint(system, ibo, bbpf, error=f"{type(exc).__name__}: {exc}")


def grid_search(grid, sys_cfg, pa_cfg, ch_cfg, jobs=1, runner=None):
    """Evaluate every grid point and return a GridResult.

    Each point is runner(system, ibo, b_bpf, seed); the default runner builds
    the point's configs and calls pipeline.run_link; a substitute runner
    must be picklable when jobs > 1. Points run concurrently when jobs > 1, in a process pool of
    min(jobs, points, cpus) workers; results are always collected into
    (system, ibo, b_bpf) order, so the output is independent of scheduling.
    Per-point failures are recorded, not fatal; the argmax per system is
    taken over its successful points, with exact FOM ties broken toward
    smaller ibo, then smaller b_bpf. A system with no successful point raises.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if runner is None:
        runner = functools.partial(_run_point, sys_cfg, pa_cfg, ch_cfg)
    n_bbpf = len(grid.bbpf_values)
    tasks = [(system, float(ibo), float(bbpf), _point_seed(sys_cfg.seed, i, j, n_bbpf))
             for system in sorted(grid.systems)
             for i, ibo in enumerate(grid.ibo_values)
             for j, bbpf in enumerate(grid.bbpf_values)]

    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    evaluate = functools.partial(_eval_point, runner)
    if workers == 1:
        points = [evaluate(t) for t in tasks]
    else:
        # Built before the fork, so the workers share its read-only pages
        # instead of each building its own.
        dsp._carrier(sys_cfg.n_symbols * sys_cfg.analog_sps, sys_cfg.fc(), sys_cfg.fs())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(evaluate, tasks, chunksize=1))

    points.sort(key=lambda p: (p.system, p.ibo, p.b_bpf))
    argmax = {}
    for system in sorted(grid.systems):
        best = None
        for p in points:
            if p.system != system or p.metrics is None:
                continue
            if best is None or p.metrics.fom_normalized > best.metrics.fom_normalized:
                best = p
        if best is None:
            raise RuntimeError(f"every grid point of {system} failed; no argmax exists")
        argmax[system] = (best.ibo, best.b_bpf, best.metrics.fom_normalized)
    return GridResult(points=tuple(points), argmax=argmax, workers=workers)
