"""The benchmark's correctness checks pass on correct output and trip on each corruption.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import math

import pytest

import checks


def _row(system="sys2", ibo=0.1, bbpf=0.9, mi=1.95, b_pa=1.21, p_pa=0.734, p_t=0.812):
    fom = mi * mi * p_t / (30.0 * p_pa * b_pa)
    vals = (ibo, bbpf, mi, mi, b_pa, p_pa, p_t, mi / p_pa, mi / b_pa, fom)
    return system + "," + ",".join("%.6g" % v for v in vals)


def _grid(*rows):
    return checks.parse_csv("\n".join((checks.CSV_HEADER,) + rows) + "\n")


GOOD = _grid(_row("sys1", 0.1, 0.9, mi=1.99), _row("sys1", 1.0, 0.9, mi=1.5),
             _row("sys2", 0.1, 0.9), _row("sys2", 1.0, 1.2, mi=1.7))
STDOUT = ("evaluated 4 grid points (4 ok, 0 failed) with jobs=1\n"
          "argmax sys1: ibo_opt=0.1 bbpf_opt=0.9B fom_norm=%s\n"
          "argmax sys2: ibo_opt=0.1 bbpf_opt=0.9B fom_norm=%s\n"
          % ("%.6g" % GOOD[0]["fom_norm"], "%.6g" % GOOD[2]["fom_norm"]))


def _corrupt(field, value):
    row = dict(GOOD[2])
    row[field] = value
    return row


def test_correct_output_passes():
    assert checks.check_rows(GOOD) == []
    assert checks.check_argmax(GOOD, STDOUT) == []


@pytest.mark.parametrize("row,message", [
    (_corrupt("fom_norm", GOOD[2]["fom_norm"] * 1.0001), "fom_norm="),
    (_grid(_row(p_pa=0.6, p_t=0.6 * 4.0 / math.pi * 1.001))[0], "exceeds (4/pi)"),
    (_grid(_row(mi=2.01))[0], "outside [0, 2]"),
    (_grid(_row(mi=-0.01))[0], "outside [0, 2]"),
    (_corrupt("eta_b", float("nan")), "non-finite eta_b"),
    (_corrupt("p_pa", float("inf")), "non-finite p_pa"),
    (_corrupt("b_pa_over_b", 0.0), "must be positive"),
])
def test_each_row_check_trips(row, message):
    problems = checks.check_row(row)
    assert len(problems) == 1 and message in problems[0], problems


def test_unknown_system_trips():
    row = dict(GOOD[0], system="sys4")
    assert checks.check_row(row) == ["sys4 ibo=0.1 b_bpf=0.9: unknown system"]


def test_argmax_not_the_maximum_trips():
    wrong = STDOUT.replace("argmax sys1: ibo_opt=0.1", "argmax sys1: ibo_opt=1").replace(
        "fom_norm=%.6g\nargmax sys2" % GOOD[0]["fom_norm"],
        "fom_norm=%.6g\nargmax sys2" % GOOD[1]["fom_norm"])
    assert "grid maximum" in checks.check_argmax(GOOD, wrong)[0]


def test_argmax_off_the_grid_or_missing_trips():
    off = STDOUT.replace("argmax sys2: ibo_opt=0.1", "argmax sys2: ibo_opt=10")
    assert "not a grid row" in checks.check_argmax(GOOD, off)[0]
    missing = STDOUT.split("argmax sys2")[0]
    assert "argmax printed for ['sys1']" in checks.check_argmax(GOOD, missing)[0]


def test_serial_and_worker_metrics_must_match_exactly():
    first = [1.9, 1.9, 1.2, 0.7, 0.8, 2.7, 1.6, 4.3, 0.12]
    assert checks.check_same_metrics("p", first, list(first)) == []
    assert checks.check_same_metrics("p", first, first[:-1] + [math.nextafter(0.12, 1.0)]) != []


def test_recorded_metrics_must_match_the_row():
    row = GOOD[2]
    metrics = [0.0] * 8 + [row["fom_norm"]]
    assert checks.check_matches_row("p", metrics, row) == []
    assert checks.check_matches_row("p", metrics[:-1] + [row["fom_norm"] * 1.0001], row) != []


def test_rerun_bytes_must_match():
    assert checks.check_same_bytes("run.csv", "a\n", "a\n") == []
    assert checks.check_same_bytes("run.csv", "a\n", "b\n") != []


def test_malformed_csv_is_rejected():
    with pytest.raises(ValueError):
        checks.parse_csv("system,ibo\nsys1,0.1\n")
    with pytest.raises(ValueError):
        checks.parse_csv(checks.CSV_HEADER + "\nsys1,0.1\n")
