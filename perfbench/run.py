"""Benchmark of onebitlink: the FOM grid sweep and independent operating points.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 20 --trace 0

Workloads (all at the shipped frame: 10^4 QPSK symbols, 128 samples per
symbol, 10 dB SINR):

  sweep-serial        `onebitlink sweep --jobs 1` rounds, in process via cli.main
  sweep-parallel      the same rounds at --jobs 2 (the optimizer's process pool)
  points-independent  rounds of six `onebitlink run` calls via cli.main, each
                      point with its own variant, back-off, width and seed

A sweep round is the default grid shape (3 systems x the 4 default back-offs)
at two bandpass widths drawn from the default 0.4:0.1:2.0 B grid, with a
fresh base seed: 24 points. Round k of a run draws its inputs from
(workload, --seed, k) only. A run repeats whole rounds until --seconds have
passed, checks every output (see checks.py), and prints one JSON line last.

--trace 0 reports the end-to-end metrics. --trace 1 runs rounds untraced for
half of --seconds, then the same number of rounds with spans around the
public functions of each module (see spans.py), and reports per-layer metrics
and the tracing overhead. Exit codes: 0 success, 1 a correctness check
failed, 2 the program could not be run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

# One BLAS/OpenMP thread per process, so a run never has more busy threads
# than worker processes; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("sweep-serial", "sweep-parallel", "points-independent")
SYSTEMS = ("sys1", "sys2", "sys3")
IBO_GRID = (0.0316, 0.1, 1.0, 10.0)
BBPF_GRID = tuple(round(0.4 + 0.1 * k, 10) for k in range(17))
WIDTHS_PER_SWEEP = 2
POINTS_PER_ROUND = 6
SETUP_PROBES = 2
SERIAL_RECHECKS = 3
WARMUP_ARGS = ["run", "--system", "sys2", "--ibo", "0.1", "--bbpf", "0.9", "--seed", "1"]

# Pins the frame the benchmark measures, whatever the program's defaults
# become; checks.py relies on the channel and load values.
FRAME_CONFIG = """\
system.n_symbols = 10000
system.analog_sps = 128
pa.r_load = 1.0
channel.alpha = 1.0
channel.sinr_db = 10.0
channel.interference_ratio = 2.0
grid.ibo = {ibo}
grid.bbpf = {bbpf}
grid.systems = {systems}
"""

# Functions wrapped in the traced run: (module, attribute). The span is named
# module.attribute. pa.bandpass_reconstruct calls iir_filter through pa's own
# import, so the bandpass filter counts under pa.bandpass_reconstruct.
TRACED = (
    ("cli", "main"), ("optimizer", "grid_search"), ("pipeline", "run_link"),
    ("pipeline", "draw_symbols"), ("dsp", "design_rrc"), ("dsp", "fir_filter"),
    ("dsp", "zoh_hold"), ("dsp", "design_butterworth"), ("dsp", "iir_filter"),
    ("dsp", "upconvert"), ("dsp", "downconvert"), ("dsp", "align"),
    ("quantizers", "one_bit_quantize"), ("pa", "clip"), ("pa", "bandpass_reconstruct"),
    ("pa", "pa_power"), ("pa", "transmit_power"), ("channel", "add_awgn"),
    ("metrics", "mutual_information"), ("metrics", "welch_psd"),
    ("metrics", "occupied_bandwidth"),
)
MS_PER_POINT = (
    "dsp.upconvert", "dsp.downconvert", "metrics.welch_psd", "metrics.occupied_bandwidth",
    "metrics.mutual_information", "dsp.iir_filter", "dsp.design_butterworth",
    "dsp.design_rrc", "dsp.fir_filter", "dsp.zoh_hold", "quantizers.one_bit_quantize",
    "channel.add_awgn", "pa.clip", "pa.bandpass_reconstruct", "pa.pa_power",
    "pa.transmit_power", "pipeline.draw_symbols", "dsp.align",
)
CALLS_PER_POINT = ("dsp.iir_filter", "dsp.design_butterworth", "dsp.design_rrc",
                   "dsp.upconvert", "pipeline.draw_symbols")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print the set-up time as JSON, and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program(root):
    """Import onebitlink from the checkout's src/; exit 2 when it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "onebitlink", "__init__.py")):
        print(f"perfbench: no onebitlink sources under {src}; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import onebitlink
    from onebitlink import (channel, cli, config, dsp, metrics, optimizer, pa, pipeline,
                            quantizers)
    if os.path.dirname(os.path.abspath(onebitlink.__file__)) != os.path.join(src, "onebitlink"):
        print(f"perfbench: imported onebitlink from {onebitlink.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return {"cli": cli, "config": config, "optimizer": optimizer, "pipeline": pipeline,
            "dsp": dsp, "quantizers": quantizers, "pa": pa, "channel": channel,
            "metrics": metrics}


def cpu_seconds():
    """(CPU of this process, CPU of its reaped children) in seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def call_cli(cli, argv):
    """cli.main(argv) with its printed lines captured: (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        t1 = time.perf_counter()
    return code, buf.getvalue(), t1 - t0


def write_config(path, bbpf_values=BBPF_GRID[:1]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FRAME_CONFIG.format(ibo=", ".join(repr(v) for v in IBO_GRID),
                                     bbpf=", ".join(repr(v) for v in bbpf_values),
                                     systems=", ".join(SYSTEMS)))


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def describe_point(sys_cfg, pa_cfg, _ch_cfg):
    """(variant, back-off, bandpass width in B) of one run_link call."""
    width = (pa_cfg.bpf.cutoff_high - pa_cfg.bpf.cutoff_low) / sys_cfg.b
    return [sys_cfg.variant, pa_cfg.ibo, width]


class Round:
    """Outcome of one round: points attempted and failed, wall time, per-point times."""

    def __init__(self, points):
        self.points = points
        self.failed = 0
        self.wall = 0.0
        self.point_s = []
        self.problems = []
        self.cpu = (0.0, 0.0)  # (this process, reaped workers) in seconds


class Sweeps:
    """`onebitlink sweep` rounds at a fixed --jobs."""

    def __init__(self, name, seed, jobs, program, work):
        self.name, self.seed, self.jobs = name, seed, jobs
        self.program = program
        self.work = work
        self.out = os.path.join(work, "out")
        self.cfg_path = os.path.join(work, "frame.cfg")
        write_config(self.cfg_path)
        self.timer = None
        self.first_records = None

    def inputs(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        widths = sorted(rng.sample(BBPF_GRID, WIDTHS_PER_SWEEP))
        return widths, rng.randrange(1, 2 ** 31 - 2 ** 16)

    def points_per_round(self):
        return len(SYSTEMS) * len(IBO_GRID) * WIDTHS_PER_SWEEP

    def start_timer(self):
        self.timer = spans.PointTimer(self.program["pipeline"], os.path.join(self.work, "timer"),
                                      describe_point)

    def stop_timer(self):
        self.timer.restore()
        self.timer = None

    def run_round(self, k):
        widths, base_seed = self.inputs(k)
        cfg_path = os.path.join(self.work, "sweep.cfg")
        write_config(cfg_path, widths)
        for name in ("grid.csv", "failures.log"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.out, name))
        rnd = Round(self.points_per_round())
        code, stdout, rnd.wall = call_cli(self.program["cli"], [
            "sweep", "--config", cfg_path, "--seed", str(base_seed),
            "--jobs", str(self.jobs), "--out", self.out])
        records = self.timer.collect() if self.timer is not None else None
        if code != 0:
            rnd.failed = rnd.points
            return rnd
        rows = checks.parse_csv(read_text(os.path.join(self.out, "grid.csv")))
        rnd.failed = rnd.points - len(rows)
        rnd.problems += checks.check_rows(rows)
        rnd.problems += checks.check_argmax(rows, stdout)
        if records is not None:
            rnd.point_s = [r["t1"] - r["t0"] for r in records]
            rnd.problems += self.match_records(records, rows)
            if self.first_records is None:
                self.first_records = records
        return rnd

    def match_records(self, records, rows):
        """Every point run_link returned must be the grid.csv row the CLI wrote for it."""
        problems = []
        if len(records) != len(rows):
            problems.append(f"timed {len(records)} run_link calls for {len(rows)} grid rows")
        for rec in records:
            variant, ibo, width = rec["point"]
            label = f"{variant} ibo={ibo} b_bpf={width:.4g}"
            row = [r for r in rows if r["system"] == variant and r["ibo"] == ibo
                   and abs(r["b_bpf_over_b"] - width) < 1e-6]
            if len(row) != 1:
                problems.append(f"{label}: {len(row)} matching grid.csv rows")
            else:
                problems += checks.check_matches_row(label, rec["metrics"], row[0])
        return problems

    def final_checks(self):
        """Points the pool evaluated must match the same grid points evaluated serially here.

        The serial path's seed of each point comes from grid_search itself
        (jobs=1, with a runner that only records it); the point is then run
        as `onebitlink run` builds it, with that seed.
        """
        if self.jobs == 1 or not self.first_records:
            return []
        widths, base_seed = self.inputs(0)
        cfg = self.program["config"].load_config(self.cfg_path)
        cfg.seed, cfg.grid_bbpf = base_seed, tuple(widths)
        seeds = {}

        def record_seed(system, ibo, bbpf, seed):
            seeds[(system, ibo, bbpf)] = seed
            return types.SimpleNamespace(fom_normalized=0.0)

        self.program["optimizer"].grid_search(
            cfg.grid_spec(), cfg.system_config(), cfg.pa_config(), cfg.channel_config(),
            jobs=1, runner=record_seed)
        rng = random.Random(f"{self.name}:{self.seed}:recheck")
        problems = []
        for rec in rng.sample(self.first_records, min(SERIAL_RECHECKS, len(self.first_records))):
            cfg.variant, cfg.ibo, width = rec["point"]
            cfg.bbpf_over_b = min(widths, key=lambda w: abs(w - width))
            cfg.seed = seeds[(cfg.variant, cfg.ibo, cfg.bbpf_over_b)]
            again = self.program["pipeline"].run_link(
                cfg.system_config(), cfg.pa_config(), cfg.channel_config())
            problems += checks.check_same_metrics(
                f"{cfg.variant} ibo={cfg.ibo} b_bpf={cfg.bbpf_over_b}: pool vs serial",
                rec["metrics"], spans.metrics_tuple(again))
        return problems


class Points:
    """Rounds of independent `onebitlink run` calls, two per system variant."""

    name = "points-independent"
    jobs = 1

    def __init__(self, seed, program, work):
        self.seed = seed
        self.program = program
        self.work = work
        self.cfg_path = os.path.join(work, "frame.cfg")
        write_config(self.cfg_path)
        self.first = None

    def inputs(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        lo, hi = IBO_GRID[0], IBO_GRID[-1]
        points = []
        for i in range(POINTS_PER_ROUND):
            ibo = float("%.4g" % (lo * (hi / lo) ** rng.random()))
            bbpf = round(rng.uniform(BBPF_GRID[0], BBPF_GRID[-1]), 3)
            points.append((SYSTEMS[i % len(SYSTEMS)], ibo, bbpf, rng.randrange(1, 2 ** 31)))
        return points

    def points_per_round(self):
        return POINTS_PER_ROUND

    def start_timer(self):
        pass

    def stop_timer(self):
        pass

    def argv(self, point, out):
        system, ibo, bbpf, seed = point
        return ["run", "--config", self.cfg_path, "--system", system, "--ibo", repr(ibo),
                "--bbpf", repr(bbpf), "--seed", str(seed), "--out", out]

    def run_round(self, k):
        rnd = Round(POINTS_PER_ROUND)
        out = os.path.join(self.work, "out")
        csv_path = os.path.join(out, "run.csv")
        for point in self.inputs(k):
            with contextlib.suppress(FileNotFoundError):
                os.remove(csv_path)
            code, _, seconds = call_cli(self.program["cli"], self.argv(point, out))
            rnd.wall += seconds
            rnd.point_s.append(seconds)
            if code != 0:
                rnd.failed += 1
                continue
            text = read_text(csv_path)
            rows = checks.parse_csv(text)
            if [(r["system"], r["ibo"], r["b_bpf_over_b"]) for r in rows] != [point[:3]]:
                rnd.problems.append(f"run.csv for {point[:3]} holds {len(rows)} other rows")
            rnd.problems += checks.check_rows(rows)
            if self.first is None:
                self.first = (point, text)
        return rnd

    def final_checks(self):
        """A point run again with its seed must write a byte-identical run.csv."""
        if self.first is None:
            return []
        point, text = self.first
        out = os.path.join(self.work, "repeat")
        code, _, _ = call_cli(self.program["cli"], self.argv(point, out))
        if code != 0:
            return [f"repeat of {point} exited {code}"]
        return checks.check_same_bytes(f"run.csv of {point}", text,
                                       read_text(os.path.join(out, "run.csv")))


def make_workload(name, seed, program, work):
    if name == "points-independent":
        return Points(seed, program, work)
    return Sweeps(name, seed, 1 if name == "sweep-serial" else 2, program, work)


def run_rounds(workload, first_k, seconds=None, count=None):
    """Whole rounds from round first_k on, until `seconds` have passed or `count` rounds ran."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        cpu0 = cpu_seconds()
        rnd = workload.run_round(first_k + len(rounds))
        cpu1 = cpu_seconds()
        rnd.cpu = (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1])
        rounds.append(rnd)
        if count is not None and len(rounds) >= count:
            return rounds
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            return rounds


def totals(rounds):
    points = sum(r.points for r in rounds)
    failed = sum(r.failed for r in rounds)
    wall = sum(r.wall for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    return points, failed, wall, problems


def setup_probes(args):
    """Set-up times of fresh processes that import, configure and warm up like this one."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe"],
            capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr[-500:]}")
        out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return out


def traced_metrics(workload, program, work, first_k, n_rounds, untraced_pps):
    """Per-layer metrics from n_rounds traced rounds."""
    recorder = spans.SpanRecorder(os.path.join(work, "spans"), flush_on="pipeline.run_link")
    for module, attr in TRACED:
        count = program["dsp"].AlignmentAmbiguityWarning if attr == "align" else None
        recorder.wrap(program[module], attr, f"{module}.{attr}", count_warning=count)
    try:
        rounds = run_rounds(workload, first_k, count=n_rounds)
    finally:
        recorder.restore()
    all_spans = recorder.collect()
    points, failed, wall, problems = totals(rounds)

    by_name = {}
    for s in all_spans:
        by_name.setdefault(s["name"], []).append(s)
    own = spans.self_times(all_spans)

    def total(name):
        return sum(s["t1"] - s["t0"] for s in by_name.get(name, []))

    def self_total(name):
        return sum(own[(s["proc"], s["id"])] for s in by_name.get(name, []))

    links = by_name.get("pipeline.run_link", [])
    if len(links) != points:
        problems.append(f"traced {len(links)} run_link calls for {points} grid points")
    jobs = workload.jobs
    run_link_s = total("pipeline.run_link")
    dispatcher = "optimizer.grid_search" if "optimizer.grid_search" in by_name else "cli.main"
    evaluator_cpu = sum(r.cpu[1] if jobs > 1 else r.cpu[0] for r in rounds)
    pps = statistics.median((r.points - r.failed) / r.wall for r in rounds)
    m = {}
    for name in MS_PER_POINT:
        m[f"{name}.ms_per_point"] = (1000.0 * self_total(name) / points, "ms")
    for name in CALLS_PER_POINT:
        m[f"{name}.calls_per_point"] = (len(by_name.get(name, [])) / points, "count")
    m["dsp.align.ambiguous_calls"] = (
        sum(s["warnings"] for s in by_name.get("dsp.align", [])) / n_rounds, "count")
    m["pipeline.run_link.ms_p50"] = (
        1000.0 * statistics.median(s["t1"] - s["t0"] for s in links), "ms")
    m["pipeline.run_link.self_ms_per_point"] = (
        1000.0 * self_total("pipeline.run_link") / points, "ms")
    m["pipeline.run_link.calls"] = (len(links) / n_rounds, "count")
    m["optimizer.grid_search.overhead_ms_per_point"] = (
        1000.0 * (total(dispatcher) - run_link_s / jobs) / points, "ms")
    m["optimizer.tasks"] = (points / n_rounds, "count")
    m["optimizer.parallel_efficiency"] = (run_link_s / (jobs * wall), "ratio")
    m["optimizer.idle_s"] = ((jobs * wall - run_link_s) / n_rounds, "s")
    m["optimizer.children_cpu_s"] = (evaluator_cpu / n_rounds, "s")
    inner = "optimizer.grid_search" if dispatcher == "optimizer.grid_search" else "pipeline.run_link"
    m["cli.main.overhead_ms_per_point"] = (
        1000.0 * (total("cli.main") - total(inner)) / points, "ms")
    m["trace.points_per_s"] = (pps, "1/s")
    m["trace.untraced_points_per_s"] = (untraced_pps, "1/s")
    m["trace.overhead_pct"] = (100.0 * (1.0 - pps / untraced_pps), "%")

    with open(os.path.join(os.path.dirname(work), f"spans-{workload.name}.jsonl"), "w",
              encoding="utf-8") as fh:
        for s in all_spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")
    return m, points, failed, problems


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    base = os.path.join(root, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.environ["TMPDIR"] = work
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, work):
    t_import = time.perf_counter()
    program = import_program(root)
    import_s = time.perf_counter() - t_import
    workload = make_workload(args.workload, args.seed, program, work)
    t_warm = time.perf_counter()
    code, _, _ = call_cli(program["cli"], WARMUP_ARGS + [
        "--config", workload.cfg_path, "--out", os.path.join(work, "warmup")])
    if code != 0:
        print(f"perfbench: warm-up point exited {code}", file=sys.stderr)
        return 2
    warmup_s = time.perf_counter() - t_warm
    workload.start_timer()
    setup_s = time.perf_counter() - T_START
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s, "warmup_s": warmup_s}))
        return 0

    seconds = args.seconds / 2.0 if args.trace else args.seconds
    rounds = run_rounds(workload, 0, seconds=seconds)
    rss = peak_rss_mb()
    workload.stop_timer()
    points, failed, _, problems = totals(rounds)
    # Per-round medians: the machine's speed drifts in phases of seconds, and
    # a median over rounds ignores the rounds that a slow phase hit.
    pps = statistics.median((r.points - r.failed) / r.wall for r in rounds)

    if args.trace:
        layer, t_points, t_failed, t_problems = traced_metrics(
            workload, program, work, len(rounds), len(rounds), pps)
        layer["setup.import_s"] = (import_s, "s")
        layer["setup.warmup_s"] = (warmup_s, "s")
        points += t_points
        failed += t_failed
        problems += t_problems
        metrics = layer
    else:
        point_s = [s for r in rounds for s in r.point_s]
        cpu_per_point = statistics.median(sum(r.cpu) / max(r.points - r.failed, 1)
                                          for r in rounds)
        metrics = {
            "points_per_s": (pps, "1/s"),
            "point_ms_p50": (1000.0 * statistics.median(point_s), "ms"),
            "cpu_ms_per_point": (1000.0 * cpu_per_point, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    problems += workload.final_checks()
    if not args.trace:
        metrics["setup_s"] = (statistics.median([setup_s] + setup_probes(args)), "s")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": points, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
