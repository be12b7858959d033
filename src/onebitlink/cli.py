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


def _fmt(x):
    return "%.6g" % x


def _metrics_row(system, ibo, bbpf, m):
    # Rates and bandwidths are already in units of B (the baud rate is 1).
    vals = (ibo, bbpf, m.mi, m.rate_r, m.b_pa, m.p_pa, m.p_t,
            m.eta_p, m.eta_b, m.fom_normalized)
    return system + "," + ",".join(_fmt(v) for v in vals)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _make_out_dir(path):
    """Create the output directory before any work; failing that is a configuration error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {path}: {exc}") from exc


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
    _make_out_dir(cfg.out_dir)
    metrics = pipeline.run_link(sys_cfg, pa_cfg, ch_cfg)
    bias = plugin_mi_bias(sys_cfg.mi_bins, sys_cfg.n_symbols - 2 * sys_cfg.rrc.span)
    print(f"system={cfg.variant} ibo={_fmt(cfg.ibo)} b_bpf={_fmt(cfg.bbpf_over_b)}B "
          f"seed={cfg.seed}")
    print(f"  mi={metrics.mi:.6f} bits  (plug-in bias ~ {bias:.4f})")
    print(f"  r_over_b={metrics.rate_r:.6f}  b_pa_over_b={metrics.b_pa:.6f}")
    print(f"  p_pa={metrics.p_pa:.6g}  p_t={metrics.p_t:.6g}  p_pa/p_t={metrics.p_pa / metrics.p_t:.4f}")
    print(f"  eta_p={metrics.eta_p:.6g}  eta_b={metrics.eta_b:.6g}  "
          f"fom_norm={metrics.fom_normalized:.6g}")
    out_path = os.path.join(cfg.out_dir, "run.csv")
    _write_lines(out_path, [CSV_HEADER,
                            _metrics_row(cfg.variant, cfg.ibo, cfg.bbpf_over_b, metrics)])
    print(f"wrote {out_path}")
    return 0


def _curve_files(points, out_dir):
    """Derive the per-curve CSV files from the sorted grid points."""
    ok = [p for p in points if p.metrics is not None]
    by_family = sorted(ok, key=lambda p: (p.system, p.b_bpf, p.ibo))

    fig4 = ["system,b_bpf_over_b,ibo,r_over_b"]
    fig5 = ["system,b_bpf_over_b,ibo,p_pa_over_p_t,b_pa_over_b"]
    fig6 = ["system,b_bpf_over_b,ibo,fom_norm"]
    for p in by_family:
        m = p.metrics
        head = f"{p.system},{_fmt(p.b_bpf)},{_fmt(p.ibo)}"
        fig4.append(f"{head},{_fmt(m.rate_r)}")
        fig5.append(f"{head},{_fmt(m.p_pa / m.p_t)},{_fmt(m.b_pa)}")
        fig6.append(f"{head},{_fmt(m.fom_normalized)}")

    fig7 = ["system,ibo,b_bpf_over_b,fom_norm"]
    for p in ok:
        fig7.append(f"{p.system},{_fmt(p.ibo)},{_fmt(p.b_bpf)},{_fmt(p.metrics.fom_normalized)}")

    ibos = sorted({p.ibo for p in ok})
    ibo8 = min(ibos, key=lambda v: abs(v - 0.1))
    fig8 = ["system,b_bpf_over_b,fom_norm"]
    for p in by_family:
        if p.ibo == ibo8:
            fig8.append(f"{p.system},{_fmt(p.b_bpf)},{_fmt(p.metrics.fom_normalized)}")

    for name, lines in (("fig4.csv", fig4), ("fig5.csv", fig5), ("fig6.csv", fig6),
                        ("fig7.csv", fig7), ("fig8.csv", fig8)):
        _write_lines(os.path.join(out_dir, name), lines)
    return ibo8


def cmd_sweep(args):
    cfg = _load_experiment(args)
    grid = cfg.grid_spec()
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    sys_cfg, pa_cfg, ch_cfg = cfg.system_config(), cfg.pa_config(), cfg.channel_config()
    _make_out_dir(cfg.out_dir)
    result = optimizer.grid_search(grid, sys_cfg, pa_cfg, ch_cfg, jobs=jobs)

    rows = [CSV_HEADER]
    for p in result.points:
        if p.metrics is not None:
            rows.append(_metrics_row(p.system, p.ibo, p.b_bpf, p.metrics))
    _write_lines(os.path.join(cfg.out_dir, "grid.csv"), rows)

    failures = [f"{p.system},{_fmt(p.ibo)},{_fmt(p.b_bpf)},{p.error}"
                for p in result.failures()]
    _write_lines(os.path.join(cfg.out_dir, "failures.log"), failures)

    ibo8 = _curve_files(result.points, cfg.out_dir)
    n_ok = len(result.points) - len(result.failures())
    print(f"evaluated {len(result.points)} grid points ({n_ok} ok, "
          f"{len(result.failures())} failed) with jobs={result.workers}")
    print(f"curve files fig4..fig8 written to {cfg.out_dir} (fig8 at ibo={_fmt(ibo8)})")
    for system in sorted(result.argmax):
        ibo_opt, bbpf_opt, fom = result.argmax[system]
        print(f"argmax {system}: ibo_opt={_fmt(ibo_opt)} bbpf_opt={_fmt(bbpf_opt)}B "
              f"fom_norm={_fmt(fom)}")
    return 0


def cmd_amam(args):
    out_dir = args.out or config_mod.ExperimentConfig.out_dir
    _make_out_dir(out_dir)
    amplitudes = np.logspace(np.log10(0.01), np.log10(10.0), 200)
    curve = pa.am_am_curve(1.0, amplitudes)
    lines = ["a_over_vsat,f_over_vsat"]
    lines += [f"{_fmt(a)},{_fmt(v)}" for a, v in zip(amplitudes, curve)]
    path = os.path.join(out_dir, "fig3.csv")
    _write_lines(path, lines)
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
    p_sweep.add_argument("--jobs", type=int,
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
