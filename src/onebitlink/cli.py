"""Command-line front end: single runs, grid sweeps, and curve exports.

Sub-commands:
  run    evaluate one operating point and write a one-row CSV
  sweep  evaluate the configured grid, write the full results table plus the
         per-curve CSV files fig4.csv ... fig8.csv and a failure sidecar log
  amam   export the amplifier's first-harmonic transfer curve (fig3.csv)

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

import argparse
import os
import sys

import numpy as np

from . import config as config_mod
from . import optimizer, pa, pipeline
from .errors import ConfigurationError
from .metrics import plugin_mi_bias

CSV_HEADER = "system,ibo,b_bpf_over_b,mi_bits,r_over_b,b_pa_over_b,p_pa,p_t,eta_p,eta_b,fom_norm"


def _write_table(path, header, rows):
    """Write the header (if not None), then one line per row: text cells as they
    are, numbers as %.6g, the six significant digits perfbench/checks.py
    checks the relations between columns to."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else "%.6g" % c for c in row) + "\n")


def _grid_row(system, ibo, bbpf, m):
    """One run.csv or grid.csv row; rates and bandwidths are in units of B (the baud rate is 1)."""
    return (system, ibo, bbpf, m.mi, m.rate_r, m.b_pa, m.p_pa, m.p_t,
            m.eta_p, m.eta_b, m.fom_normalized)


def _make_out_dir(path):
    """Create the output directory; failing that is a configuration error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {path}: {exc}") from exc


def _check_out_dir(path):
    """Raise a configuration error unless the nearest existing ancestor of path,
    or path itself, is a directory: the check run makes before its work, since
    it creates the directory only once the metrics exist."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigurationError(
            f"cannot create output directory {path}: {head} is not a directory")


def _load_experiment(args):
    cfg = config_mod.load_config(args.config) if args.config else config_mod.ExperimentConfig()
    if args.system:
        cfg.variant = args.system
        cfg.grid_systems = (args.system,)
    for flag, attr in (("ibo", "ibo"), ("bbpf", "bbpf_over_b"), ("seed", "seed")):
        if getattr(args, flag, None) is not None:
            setattr(cfg, attr, getattr(args, flag))
    if args.out:
        cfg.out_dir = args.out
    return cfg


def cmd_run(args):
    cfg = _load_experiment(args)
    sys_cfg, pa_cfg, ch_cfg = cfg.system_config(), cfg.pa_config(), cfg.channel_config()
    _check_out_dir(cfg.out_dir)
    metrics = pipeline.run_link(sys_cfg, pa_cfg, ch_cfg)
    _make_out_dir(cfg.out_dir)  # once the metrics exist: a failed run leaves no directory
    bias = plugin_mi_bias(sys_cfg.mi_bins, sys_cfg.n_symbols - 2 * sys_cfg.rrc.span)
    print(f"system={cfg.variant} ibo={cfg.ibo:.6g} b_bpf={cfg.bbpf_over_b:.6g}B "
          f"seed={cfg.seed}")
    print(f"  mi={metrics.mi:.6f} bits  (plug-in bias ~ {bias:.4f})")
    print(f"  r_over_b={metrics.rate_r:.6f}  b_pa_over_b={metrics.b_pa:.6f}")
    print(f"  p_pa={metrics.p_pa:.6g}  p_t={metrics.p_t:.6g}  p_pa/p_t={metrics.p_pa / metrics.p_t:.4f}")
    print(f"  eta_p={metrics.eta_p:.6g}  eta_b={metrics.eta_b:.6g}  "
          f"fom_norm={metrics.fom_normalized:.6g}")
    out_path = os.path.join(cfg.out_dir, "run.csv")
    _write_table(out_path, CSV_HEADER,
                 [_grid_row(cfg.variant, cfg.ibo, cfg.bbpf_over_b, metrics)])
    print(f"wrote {out_path}")
    return 0


def _curve_files(points, out_dir):
    """Write fig4.csv ... fig8.csv; return fig8's back-off (None if no point succeeded)."""
    ok = [p for p in points if p.metrics is not None]
    by_family = sorted(ok, key=lambda p: (p.system, p.b_bpf, p.ibo))
    # sorted, so of two back-offs equally near 0.1 the smaller is taken
    ibo8 = min(sorted({p.ibo for p in ok}), key=lambda v: abs(v - 0.1), default=None)
    family = "system,b_bpf_over_b,ibo,"
    curves = (  # (file, columns, points in row order, cells of a point and its metrics)
        ("fig4.csv", family + "r_over_b", by_family,
         lambda p, m: (p.system, p.b_bpf, p.ibo, m.rate_r)),
        ("fig5.csv", family + "p_pa_over_p_t,b_pa_over_b", by_family,
         lambda p, m: (p.system, p.b_bpf, p.ibo, m.p_pa / m.p_t, m.b_pa)),
        ("fig6.csv", family + "fom_norm", by_family,
         lambda p, m: (p.system, p.b_bpf, p.ibo, m.fom_normalized)),
        ("fig7.csv", "system,ibo,b_bpf_over_b,fom_norm", ok,
         lambda p, m: (p.system, p.ibo, p.b_bpf, m.fom_normalized)),
        ("fig8.csv", "system,b_bpf_over_b,fom_norm", [p for p in by_family if p.ibo == ibo8],
         lambda p, m: (p.system, p.b_bpf, m.fom_normalized)),
    )
    for name, columns, rows, cells in curves:
        _write_table(os.path.join(out_dir, name), columns, [cells(p, p.metrics) for p in rows])
    return ibo8


def cmd_sweep(args):
    cfg = _load_experiment(args)
    grid = cfg.grid_spec()
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    sys_cfg, pa_cfg, ch_cfg = cfg.system_config(), cfg.pa_config(), cfg.channel_config()
    _make_out_dir(cfg.out_dir)
    result = optimizer.grid_search(grid, sys_cfg, pa_cfg, ch_cfg, jobs=jobs)
    _write_table(os.path.join(cfg.out_dir, "grid.csv"), CSV_HEADER,
                 [_grid_row(p.system, p.ibo, p.b_bpf, p.metrics)
                  for p in result.points if p.metrics is not None])
    _write_table(os.path.join(cfg.out_dir, "failures.log"), None,
                 [(p.system, p.ibo, p.b_bpf, p.error) for p in result.failures()])
    ibo8 = _curve_files(result.points, cfg.out_dir)
    for system in sorted(grid.systems):
        if system not in result.argmax:
            first = next(p for p in result.points if p.system == system)
            raise RuntimeError(f"every grid point of {system} failed; no argmax exists "
                               f"(first: ibo {first.ibo:g}, b_bpf {first.b_bpf:g}: "
                               f"{first.error})")
    n_ok = len(result.points) - len(result.failures())
    print(f"evaluated {len(result.points)} grid points ({n_ok} ok, "
          f"{len(result.failures())} failed) with jobs={result.workers}")
    print(f"curve files fig4..fig8 written to {cfg.out_dir} (fig8 at ibo={ibo8:.6g})")
    for system in sorted(result.argmax):
        ibo_opt, bbpf_opt, fom = result.argmax[system]
        print(f"argmax {system}: ibo_opt={ibo_opt:.6g} bbpf_opt={bbpf_opt:.6g}B "
              f"fom_norm={fom:.6g}")
    return 0


def cmd_amam(args):
    out_dir = args.out or config_mod.ExperimentConfig.out_dir
    _make_out_dir(out_dir)
    amplitudes = np.logspace(np.log10(0.01), np.log10(10.0), 200)
    curve = pa.am_am_curve(1.0, amplitudes)
    path = os.path.join(out_dir, "fig3.csv")
    _write_table(path, "a_over_vsat,f_over_vsat", zip(amplitudes, curve))
    print(f"wrote {path} (200 log-spaced amplitudes, saturation-normalized)")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigurationError, so a bad flag exits 1 like a bad key."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser():
    parser = _Parser(
        prog="onebitlink",
        description="Link simulator and FOM optimizer for QPSK with 1-bit converters "
                    "and a clipping amplifier")
    sub = parser.add_subparsers(dest="command", required=True)
    out = _Parser(add_help=False)
    out.add_argument("--out", type=config_mod.output_dir,
                     help=f"output directory (default {config_mod.ExperimentConfig.out_dir})")
    link = _Parser(add_help=False, parents=[out])
    link.add_argument("--config", help="key-value configuration file")
    link.add_argument("--system", choices=pipeline.VARIANTS,
                      help="system variant (sweep: the only variant swept)")
    link.add_argument("--seed", type=int)

    p_run = sub.add_parser("run", parents=[link], help="evaluate a single operating point")
    p_run.add_argument("--ibo", type=config_mod.finite_float, help="input back-off v_sat/sigma")
    p_run.add_argument("--bbpf", type=config_mod.finite_float, help="bandpass width in units of B")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[link],
                             help="evaluate the configured (ibo, b_bpf) grid")
    p_sweep.add_argument("--jobs", type=optimizer.worker_count,
                         help="worker processes, at most one per point and core "
                              "(default: all cores)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_amam = sub.add_parser("amam", parents=[out], help="export the amplifier transfer curve")
    p_amam.set_defaults(func=cmd_amam)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report any runtime failure as exit 2
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
