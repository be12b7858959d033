"""Exhaustive grid search over (system, ibo, b_bpf) maximizing the normalized FOM."""

import functools
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import pipeline
from .errors import ConfigurationError

# The most points one sweep grid holds (systems x ibo x b_bpf), and the most
# values one config range gives.
MAX_GRID_POINTS = 10_000


def worker_count(value):
    """int(value) worker processes, at least 1; also the --jobs argparse type."""
    try:
        jobs = int(value)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class GridSpec:
    """Search grid: back-off values, bandpass widths (in units of B), and variants."""

    ibo_values: tuple
    bbpf_values: tuple
    systems: tuple

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
        n_points = len(self.systems) * len(self.ibo_values) * len(self.bbpf_values)
        if n_points > MAX_GRID_POINTS:
            raise ConfigurationError(f"grid has {n_points} points (systems x ibo x b_bpf), "
                                     f"more than {MAX_GRID_POINTS}")
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
    warnings: tuple = ()  # (category, message, filename, lineno) of each warning raised


@dataclass(frozen=True)
class GridResult:
    """All evaluated points, the per-system argmax of the normalized FOM, and
    the number of worker processes started (1 when run in process)."""

    points: tuple
    argmax: dict
    workers: int

    def failures(self):
        return [p for p in self.points if p.metrics is None]


def _run_point(sys_cfg, pa_cfg, ch_cfg, system, ibo, bbpf, seed):
    cfg = replace(sys_cfg, variant=system, seed=seed)
    cfg_pa = replace(pa_cfg, ibo=ibo,
                     bpf=pipeline.bpf_spec_for(bbpf, cfg, pa_cfg.bpf.order))
    # Looked up through the module on every call, so a wrapper installed on
    # pipeline.run_link sees every point, pool workers included.
    return pipeline.run_link(cfg, cfg_pa, ch_cfg)


def _eval_point(runner, task):
    system, ibo, bbpf, _ = task
    metrics, error = None, ""
    # Recorded under the caller's filters, which a forked pool worker shares,
    # and re-emitted by grid_search; entering catch_warnings resets the
    # once-per-location registries, so each point records its own warnings.
    with warnings.catch_warnings(record=True) as caught:
        try:
            metrics = runner(*task)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    raised = tuple((w.category, str(w.message), w.filename, w.lineno) for w in caught)
    return GridPoint(system, ibo, bbpf, metrics, error, raised)


def grid_search(grid, sys_cfg, pa_cfg, ch_cfg, jobs=1, runner=None):
    """Evaluate every grid point and return a GridResult.

    Each point is runner(system, ibo, b_bpf, sys_cfg.seed): one seed for the
    whole sweep, so pipeline.run_link at a point's (system, ibo, b_bpf, seed)
    reproduces it. The default runner builds the point's configs and calls
    pipeline.run_link; a substitute runner must be picklable when jobs > 1.
    Points run concurrently when jobs > 1, in a process pool of
    min(jobs, points, cpus) workers; tasks are built in (system, ibo, b_bpf)
    order and both paths keep it, so the output is independent of scheduling.
    The pool takes chunks of consecutive tasks: whole (system, ibo) rows, so a
    worker's per-row cache serves a row's widths in turn, unless there are
    fewer rows than workers; then a chunk holds ceil(points / workers) points.
    The warnings each point raised are re-emitted here, in the same order.
    Per-point failures are recorded, not fatal; the argmax per system is
    taken over its successful points, with exact FOM ties broken toward
    smaller ibo, then smaller b_bpf. A system with no successful point has
    no argmax entry.
    """
    jobs = worker_count(jobs)
    if runner is None:
        runner = functools.partial(_run_point, sys_cfg, pa_cfg, ch_cfg)
    tasks = [(system, float(ibo), float(bbpf), sys_cfg.seed)
             for system in sorted(grid.systems)
             for ibo in grid.ibo_values
             for bbpf in grid.bbpf_values]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    evaluate = functools.partial(_eval_point, runner)
    if workers == 1:
        points = [evaluate(t) for t in tasks]
    else:
        chunk = min(len(grid.bbpf_values), -(-len(tasks) // workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(evaluate, tasks, chunksize=chunk))

    for p in points:
        for category, message, filename, lineno in p.warnings:
            warnings.warn_explicit(message, category, filename, lineno)
    argmax = {}
    for system in sorted(grid.systems):
        ok = [p for p in points if p.system == system and p.metrics is not None]
        if ok:
            best = max(ok, key=lambda p: p.metrics.fom_normalized)  # first of equal values
            argmax[system] = (best.ibo, best.b_bpf, best.metrics.fom_normalized)
    return GridResult(points=tuple(points), argmax=argmax, workers=workers)
