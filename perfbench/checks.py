"""Correctness checks on the files and lines the onebitlink CLI writes.

Each check returns a list of problems (empty when the output is correct). The
checks do not compare against recorded outputs; they test relations the link
model must satisfy at the benchmark's settings (10 dB in-band SINR,
interference booked at twice the thermal power, unit baud rate and path gain):

- fom_norm = r^2 * p_t / (30 * p_pa * b_pa): the noise the channel calibrates
  is sigma^2 = p_t / ((1 + 2) * 10^(10/10)) = p_t / 30 and
  fom_norm = (r / p_pa) * (r / b_pa) * sigma^2;
- p_t <= (4/pi) * p_pa, the first-harmonic bound of a hard limiter;
- 0 <= mi <= 2 bits for QPSK;
- every number is finite;
- the argmax the CLI prints is the largest fom_norm of its system in grid.csv.

Numbers in the CSV carry six significant digits, so relations between them
hold to the rounding of the values involved; `_rounding` gives that bound.
"""

import math
import re

CSV_HEADER = "system,ibo,b_bpf_over_b,mi_bits,r_over_b,b_pa_over_b,p_pa,p_t,eta_p,eta_b,fom_norm"
FIELDS = CSV_HEADER.split(",")
SYSTEMS = ("sys1", "sys2", "sys3")
SINR_BUDGET = 30.0
HARMONIC_BOUND = 4.0 / math.pi
SIGNIFICANT_DIGITS = 6

_ARGMAX_LINE = re.compile(
    r"^argmax (\S+): ibo_opt=(\S+) bbpf_opt=(\S+)B fom_norm=(\S+)$", re.MULTILINE)


def _rounding(value):
    """Largest relative error of `value` printed with six significant digits."""
    if value == 0.0:
        return 0.0
    exponent = math.floor(math.log10(abs(value)))
    return 0.5 * 10.0 ** (exponent - SIGNIFICANT_DIGITS + 1) / abs(value)


def parse_csv(text):
    """Rows of a run.csv or grid.csv as dicts of floats (the system stays a string)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(FIELDS):
            raise ValueError(f"row with {len(cells)} fields: {line!r}")
        row = {"system": cells[0]}
        row.update((name, float(cell)) for name, cell in zip(FIELDS[1:], cells[1:]))
        rows.append(row)
    return rows


def check_row(row):
    """Problems with one CSV row."""
    where = f"{row.get('system')} ibo={row.get('ibo')} b_bpf={row.get('b_bpf_over_b')}"
    if row.get("system") not in SYSTEMS:
        return [f"{where}: unknown system"]
    bad = [name for name in FIELDS[1:] if not math.isfinite(row[name])]
    if bad:
        return [f"{where}: non-finite {', '.join(bad)}"]
    problems = []
    r, p_t, p_pa, b_pa, fom = (row[k] for k in ("r_over_b", "p_t", "p_pa", "b_pa_over_b",
                                                 "fom_norm"))
    if p_pa <= 0 or b_pa <= 0:
        return [f"{where}: p_pa={p_pa} and b_pa={b_pa} must be positive"]
    expected = r * r * p_t / (SINR_BUDGET * p_pa * b_pa)
    tol = (2 * _rounding(r) + _rounding(p_t) + _rounding(p_pa) + _rounding(b_pa)
           + _rounding(fom)) * 1.01
    if abs(fom - expected) > tol * abs(expected):
        problems.append(f"{where}: fom_norm={fom} but r^2 p_t/(30 p_pa b_pa)={expected:.6g}")
    if p_t > HARMONIC_BOUND * p_pa * (1.0 + _rounding(p_t) + _rounding(p_pa)):
        problems.append(f"{where}: p_t={p_t} exceeds (4/pi) p_pa={HARMONIC_BOUND * p_pa:.6g}")
    if not 0.0 <= row["mi_bits"] <= 2.0:
        problems.append(f"{where}: mi={row['mi_bits']} outside [0, 2]")
    return problems


def check_rows(rows):
    return [p for row in rows for p in check_row(row)]


def check_argmax(rows, stdout):
    """The per-system argmax printed by `onebitlink sweep` must be the grid's largest fom_norm."""
    printed = {m.group(1): tuple(float(g) for g in m.groups()[1:])
               for m in _ARGMAX_LINE.finditer(stdout)}
    problems = []
    systems = sorted({row["system"] for row in rows})
    if sorted(printed) != systems:
        problems.append(f"argmax printed for {sorted(printed)}, grid has {systems}")
    for system in systems:
        if system not in printed:
            continue
        ibo, bbpf, fom = printed[system]
        own = [row for row in rows if row["system"] == system]
        best = max(row["fom_norm"] for row in own)
        match = [row for row in own if row["ibo"] == ibo and row["b_bpf_over_b"] == bbpf]
        if not match:
            problems.append(f"argmax {system} at ibo={ibo} b_bpf={bbpf} is not a grid row")
        elif match[0]["fom_norm"] != fom or fom != best:
            problems.append(f"argmax {system}: printed fom_norm={fom}, row has "
                            f"{match[0]['fom_norm']}, grid maximum is {best}")
    return problems


def check_same_metrics(label, first, second):
    """Two evaluations of one point must give bit-identical metric fields."""
    if list(first) != list(second):
        return [f"{label}: metrics differ: {list(first)} != {list(second)}"]
    return []


def check_matches_row(label, metrics, row):
    """Metrics recorded around run_link must be the ones the CLI wrote, to its six digits."""
    fom = metrics[-1]
    if abs(row["fom_norm"] - fom) > _rounding(fom) * abs(fom) * 1.01:
        return [f"{label}: grid.csv fom_norm={row['fom_norm']}, run_link returned {fom}"]
    return []


def check_same_bytes(label, first, second):
    if first != second:
        return [f"{label}: outputs of two runs with one seed differ"]
    return []
