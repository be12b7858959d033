"""End-to-end acceptance gate.

Each numbered test checks one release criterion and prints a PASS/FAIL line
with the measured values. The expensive link-simulation grids are evaluated
once per module and shared; everything runs at the shipped defaults
(N = 10^4 symbols, 128 samples per symbol period, 10 dB SINR).
"""

import os
import time
import warnings

import numpy as np
import pytest

import onebitlink as obl
from onebitlink import channel, cli, metrics, optimizer, pa

IBO_GRID = (0.0316, 0.1, 1.0, 10.0)
BBPF_GRID = tuple(round(0.4 + 0.1 * k, 10) for k in range(17))
JOBS = os.cpu_count() or 1


def _report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _index(result):
    return {(p.system, p.ibo, p.b_bpf): p.metrics
            for p in result.points if p.metrics is not None}


@pytest.fixture(scope="module")
def exp():
    return obl.ExperimentConfig()


@pytest.fixture(scope="module")
def sys2_grid(exp):
    """Full (ibo, b_bpf) optimization grid for sys2, wall-clock timed."""
    grid = optimizer.GridSpec(IBO_GRID, BBPF_GRID, ("sys2",))
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", obl.AlignmentAmbiguityWarning)
        res = obl.grid_search(grid, exp.system_config(), exp.pa_config(),
                              exp.channel_config(), jobs=JOBS)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def wide_column(exp):
    """sys2 at a very wide reconstruction filter (10 B), all back-offs."""
    grid = optimizer.GridSpec(IBO_GRID, (10.0,), ("sys2",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", obl.AlignmentAmbiguityWarning)
        res = obl.grid_search(grid, exp.system_config(), exp.pa_config(),
                              exp.channel_config(), jobs=JOBS)
    return res


@pytest.fixture(scope="module")
def three_system_row(exp):
    """All three variants across the b_bpf grid at the shared back-off 0.1."""
    grid = optimizer.GridSpec((0.1,), BBPF_GRID, ("sys1", "sys2", "sys3"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", obl.AlignmentAmbiguityWarning)
        res = obl.grid_search(grid, exp.system_config(), exp.pa_config(),
                              exp.channel_config(), jobs=JOBS)
    return res


def test_criterion_1_amplifier_transfer_curve_matches_soft_limiter():
    t0 = time.perf_counter()
    amps = np.logspace(np.log10(0.1), 1.0, 200)
    simulated = pa.am_am_curve(1.0, amps)
    r = np.minimum(1.0 / amps, 1.0)
    analytic = np.where(amps <= 1.0, amps,
                        (2.0 * amps / np.pi) * (np.arcsin(r) + r * np.sqrt(1.0 - r ** 2)))
    rel = float(np.max(np.abs(simulated - analytic) / analytic))
    elapsed = time.perf_counter() - t0
    _report(1, "amplifier transfer curve", rel < 1e-3 and elapsed < 10.0,
            f"max rel err {rel:.2e}, {elapsed:.2f} s")


def test_criterion_2_supply_to_transmit_ratio_grows_with_backoff(sys2_grid, wide_column):
    table = _index(sys2_grid[0])
    table.update(_index(wide_column))
    ok = True
    details = []
    for bbpf in (0.4, 1.0, 2.0, 10.0):
        ratios = [table[("sys2", ibo, bbpf)].p_pa / table[("sys2", ibo, bbpf)].p_t
                  for ibo in IBO_GRID]
        mono = all(b > a for a, b in zip(ratios, ratios[1:]))
        factor = ratios[-1] / ratios[1]
        ok = ok and mono and factor >= 5.0
        details.append(f"b_bpf={bbpf}: mono={mono}, x{factor:.1f}")
    _report(2, "supply/transmit power ratio vs back-off", ok, "; ".join(details))


def test_criterion_3_rate_saturates_high_and_drops_when_filter_narrows(sys2_grid, wide_column):
    table = _index(sys2_grid[0])
    table.update(_index(wide_column))
    high = {(ibo, bbpf): table[("sys2", ibo, bbpf)].rate_r
            for ibo in (1.0, 10.0) for bbpf in (2.0, 10.0)}
    floor_ok = all(v >= 1.9 for v in high.values())
    drop = (table[("sys2", 0.0316, 2.0)].rate_r
            - table[("sys2", 0.0316, 0.4)].rate_r)
    _report(3, "rate saturation and narrowband penalty",
            floor_ok and drop >= 0.1,
            f"min high-rate {min(high.values()):.4f} bits, "
            f"narrowing drop {drop:.4f} bits")


def test_criterion_4_sys2_grid_optimum_location_and_runtime(sys2_grid):
    result, elapsed = sys2_grid
    ibo_opt, bbpf_opt, fom = result.argmax["sys2"]
    ok = ibo_opt <= 0.1 and 0.8 <= bbpf_opt <= 1.0 and elapsed <= 600.0
    _report(4, "sys2 joint optimum",
            ok, f"ibo_opt={ibo_opt}, b_bpf_opt={bbpf_opt}B, fom={fom:.5f}, "
                f"grid in {elapsed:.1f} s")


def test_criterion_5_fom_flat_at_deep_backoff_then_decreasing(sys2_grid):
    table = _index(sys2_grid[0])
    f = {ibo: table[("sys2", ibo, 0.9)].fom_normalized for ibo in IBO_GRID}
    flat = abs(f[0.0316] - f[0.1]) <= 0.10 * max(f[0.0316], f[0.1])
    ordered = f[10.0] < f[1.0] < f[0.1]
    _report(5, "fom saturation in back-off", flat and ordered,
            f"fom(0.0316)={f[0.0316]:.5f}, fom(0.1)={f[0.1]:.5f}, "
            f"fom(1)={f[1.0]:.5f}, fom(10)={f[10.0]:.5f}")


def test_criterion_6_system_ordering_and_recovery_ratio(three_system_row):
    res = three_system_row
    argmax = {s: res.argmax[s] for s in ("sys1", "sys2", "sys3")}
    in_window = all(0.7 <= argmax[s][1] <= 1.0 for s in argmax)
    f1, f2, f3 = (argmax[s][2] for s in ("sys1", "sys2", "sys3"))
    ordered = f1 > f3 > f2
    recovery = (f3 - f2) / (f1 - f2)
    ok = in_window and ordered and 0.25 <= recovery <= 0.75
    _report(6, "system ordering and recovery ratio", ok,
            f"argmax widths {[argmax[s][1] for s in argmax]}B, "
            f"foms sys1={f1:.5f} sys2={f2:.5f} sys3={f3:.5f}, "
            f"recovery={recovery:.3f} (need [0.25, 0.75])")


def test_criterion_7_property_suite(sys2_grid, wide_column, three_system_row,
                                    tmp_path, exp):
    failures = []

    # clipper output never exceeds the saturation level
    rng = np.random.default_rng(0)
    x = 5.0 * rng.standard_normal(20000)
    if float(np.max(np.abs(pa.clip(x, 0.3, 1.0)))) > 0.3:
        failures.append("clip bound violated")

    # transmit power never exceeds the first-harmonic bound, on every
    # operating point evaluated anywhere in this module
    points = (list(sys2_grid[0].points) + list(wide_column.points)
              + list(three_system_row.points))
    bound = 4.0 / np.pi
    for p in points:
        if p.metrics is not None and p.metrics.p_t > bound * p.metrics.p_pa * (1 + 1e-9):
            failures.append(f"harmonic bound violated at {p.system} "
                            f"ibo={p.ibo} b_bpf={p.b_bpf}")

    # spectral estimate integrates back to the mean power
    x = np.random.default_rng(7).standard_normal(131072)
    psd = metrics.welch_psd(x, fs=128.0)
    if abs(psd.total_power - np.mean(x ** 2)) > 0.01 * np.mean(x ** 2):
        failures.append("Parseval mismatch above 1%")

    # mutual information estimator: range, identity, and binary-channel oracle
    qpsk = obl.QPSK_ALPHABET
    tx = qpsk[np.random.default_rng(3).integers(0, 4, 60000)]
    mi_id = metrics.mutual_information(tx, tx, bins_per_dim=2)
    if abs(mi_id - 2.0) > 0.01:
        failures.append(f"identity mi {mi_id:.4f} not 2.0 +- 0.01")
    gen = np.random.default_rng(4)
    rx = np.where(gen.random(len(tx)) < 0.1, -tx.real, tx.real) \
        + 1j * np.where(gen.random(len(tx)) < 0.1, -tx.imag, tx.imag)
    mi_bsc = metrics.mutual_information(tx, rx, bins_per_dim=2)
    if abs(mi_bsc - 1.062) > 0.03:
        failures.append(f"bsc(0.1) mi {mi_bsc:.4f} not 1.062 +- 0.03")

    # matched root-raised-cosine pair is free of symbol-spaced interference
    taps = obl.design_rrc(obl.RrcSpec())
    cascade = np.convolve(taps, taps)
    center = len(cascade) // 2
    sym_taps = cascade[center::4]
    if np.max(np.abs(sym_taps[1:])) > 1e-2 * sym_taps[0]:
        failures.append("rrc cascade isi above 1% of center tap")

    # injected noise carries the calibrated in-band power
    sigma_n2 = 0.02
    noise = channel.add_awgn(np.zeros(2 ** 21), sigma_n2, b=1.0, fs=128.0, rng=1)
    psd_n = metrics.welch_psd(noise, fs=128.0)
    mask = (psd_n.freqs >= 29.5) & (psd_n.freqs <= 30.5)
    inband = float(np.trapezoid(psd_n.values[mask], psd_n.freqs[mask]))
    if abs(inband - sigma_n2) > 0.03 * sigma_n2:
        failures.append(f"awgn in-band power off by {abs(inband - sigma_n2) / sigma_n2:.1%}")

    # a fixed seed reproduces the output file byte for byte
    cfgfile = tmp_path / "acc.cfg"
    cfgfile.write_text("system.n_symbols = 2000\n")
    cli.main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "r1")])
    cli.main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "r2")])
    if ((tmp_path / "r1" / "run.csv").read_bytes()
            != (tmp_path / "r2" / "run.csv").read_bytes()):
        failures.append("rerun with fixed seed not byte-identical")

    _report(7, "property suite", not failures,
            "; ".join(failures) if failures else
            f"all properties hold on {len(points)} grid points")
